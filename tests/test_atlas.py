import json

import pytest

from fibercurve import atlas
from fibercurve.ffield import InconsistencyError, is_prime
from fibercurve.exceptional import CongruenceError, check_congruence
from fibercurve.atlas import (
    CARTAN_FAMILIES,
    LABEL_C4,
    LABEL_C6,
    LABEL_PM,
    QUOTIENT_WIDTH,
    brute_supersingular_data,
    consistency_report,
    family_group_image,
    genus_closed_form,
    genus_oracle,
    genus_x0,
    hasse_supersingular_data,
    igusa_genus,
    isogeny_supersingular_data,
    special_fiber,
    supersingular_data,
    toric_rank_closed_form,
    total_genus,
)


def test_genus_x0_values():
    known = {5: 0, 7: 0, 11: 1, 13: 0, 17: 1, 19: 1, 23: 2, 29: 2, 31: 2,
             37: 2, 41: 3, 43: 3, 47: 4, 53: 4, 59: 5, 61: 4, 67: 5, 71: 6,
             73: 5, 79: 6, 83: 7, 89: 7, 97: 7, 101: 8, 103: 8, 109: 8,
             113: 9, 127: 10}
    for p, g in known.items():
        assert genus_x0(p) == g, p


def test_supersingular_examples():
    d = supersingular_data(13)
    assert (d.s, d.j0_supersingular, d.j1728_supersingular) == (1, False, False)
    d = supersingular_data(17)
    assert (d.s, d.j0_supersingular, d.j1728_supersingular) == (2, True, False)
    assert sorted(d.e_values()) == [1, 3]
    d = supersingular_data(23)
    assert (d.s, d.j0_supersingular, d.j1728_supersingular) == (3, True, True)
    assert sorted(d.e_values()) == [1, 2, 3]


def test_supersingular_brute_oracle_small():
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        assert supersingular_data(p) == brute_supersingular_data(p)


def test_supersingular_hasse_oracle_medium():
    for p in range(5, 60):
        if is_prime(p):
            assert supersingular_data(p) == hasse_supersingular_data(p)


def test_two_oracles_agree_with_each_other():
    for p in (5, 13, 29, 37):
        assert brute_supersingular_data(p) == hasse_supersingular_data(p)


# The oracles count one j (or Legendre parameter) of each Frobenius pair.
# The references below enumerate all of F_{p^2}, as the oracles did
# before, and return the supersingular j themselves.


def brute_supersingular_js(p):
    """Every j in F_{p^2} whose curve has trace 0 mod p over F_{p^2}."""
    K = atlas._Fp2(p)
    q, m = p * p, 3 * p
    roots = [0] * q
    for y in K.elements():
        v = K.mul(y, y)
        roots[v[0] * p + v[1]] += 1
    table = [roots[i % p * p + k % p] for i in range(m) for k in range(m)]
    cube_rows = []
    for x1 in range(p):
        cubes = (K.mul(K.mul((x0, x1), (x0, x1)), (x0, x1)) for x0 in range(p))
        cube_rows.append([c0 * m + c1 for c0, c1 in cubes])
    ss = set()
    for j in K.elements():
        (a0, a1), (b0, b1) = atlas._curve_with_j(K, j)
        da1 = K.d * a1
        ax0 = [a0 * x0 % p * m + a1 * x0 % p for x0 in range(p)]
        n = 1
        for x1, cube_row in enumerate(cube_rows):
            offset = (da1 * x1 + b0) % p * m + (a0 * x1 + b1) % p
            n += sum(table[c + a + offset] for c, a in zip(cube_row, ax0))
        if (q + 1 - n) % p == 0:
            ss.add(j)
    return ss


def hasse_supersingular_js(p):
    """The j of every root in F_{p^2} of sum C(m, i)^2 L^i, m = (p-1)/2."""
    K = atlas._Fp2(p)
    m = (p - 1) // 2
    coeffs = [1] * (m + 1)
    c = 1
    for i in range(1, m + 1):
        c = c * (m - i + 1) % p * pow(i, p - 2, p) % p
        coeffs[i] = c * c % p
    coeffs.reverse()
    ss = set()
    for lam in K.elements():
        if lam in ((0, 0), (1, 0)):
            continue
        l0, l1 = lam
        dl1 = K.d * l1
        u = v = 0
        for c in coeffs:
            u, v = (u * l0 + v * dl1 + c) % p, (u * l1 + v * l0) % p
        if u == 0 and v == 0:
            ss.add(atlas._legendre_j(K, lam))
    return ss


def conjugates(p, js):
    return {(j0, -j1 % p) for j0, j1 in js}


def test_halved_brute_oracle_matches_full_enumeration():
    for p in range(5, 40):
        if is_prime(p):
            js = atlas._brute_supersingular_js(p)
            assert js == brute_supersingular_js(p) == conjugates(p, js), p
            assert brute_supersingular_data(p) == atlas.SupersingularData(
                p, len(js), (0, 0) in js, (1728 % p, 0) in js), p


def test_halved_hasse_oracle_matches_full_enumeration():
    for p in range(5, 100):
        if is_prime(p):
            js = atlas._hasse_supersingular_js(p)
            assert js == hasse_supersingular_js(p) == conjugates(p, js), p
            assert hasse_supersingular_data(p) == atlas.SupersingularData(
                p, len(js), (0, 0) in js, (1728 % p, 0) in js), p


def test_legendre_j_is_constant_on_s3_orbits():
    # the Hasse oracle evaluates H once per S3-orbit of L, which is sound
    # because j takes one value on each orbit
    for p in range(5, 100):
        if is_prime(p):
            K = atlas._Fp2(p)
            one = (1, 0)
            for lam in K.elements():
                if lam in ((0, 0), one):
                    continue
                mu = K.add(one, K.scale(-1, lam))  # 1 - L
                inv_lam, inv_mu = K.inv(lam), K.inv(mu)
                images = [mu, inv_lam, inv_mu,
                          K.add(one, K.scale(-1, inv_lam)), K.add(one, K.scale(-1, inv_mu))]
                j = atlas._legendre_j(K, lam)
                assert all(atlas._legendre_j(K, x) == j for x in images), (p, lam)


def test_fp2_sqrt_squares_back_exactly_on_the_squares():
    for p in (5, 7, 13, 17, 31):
        K = atlas._Fp2(p)
        squares = {K.mul(x, x) for x in K.elements()}
        for a in K.elements():
            root = K.sqrt(a)
            if a in squares:
                assert K.mul(root, root) == a, (p, a)
            else:
                assert root is None, (p, a)


def walk_has_start(p):
    # j = 0 for p = 2 mod 3, or a loop at 1728, 8000 or -3375 where p is
    # inert in Q(i), Q(sqrt -2) or Q(sqrt -7)
    return p % 3 == 2 or p % 4 == 3 or p % 8 in (5, 7) or p % 7 in (3, 5, 6)


def test_isogeny_walk_visits_the_oracles_j_sets():
    # every p < 100 has a start, so the walk runs at each of them
    for p in range(5, 100):
        if is_prime(p):
            js = atlas._isogeny_supersingular_js(p)
            if p < 40:
                assert js == atlas._brute_supersingular_js(p), p
            assert js == atlas._hasse_supersingular_js(p), p


def test_isogeny_walk_matches_the_closed_form_below_2000():
    walked = 0
    for p in range(5, 2000):
        if is_prime(p) and walk_has_start(p):
            assert isogeny_supersingular_data(p) == supersingular_data(p), p
            walked += 1
    assert walked == 290


def test_isogeny_walk_names_the_primes_without_a_start():
    no_start = [p for p in range(5, 1000) if is_prime(p) and not walk_has_start(p)]
    assert no_start == [193, 337, 457, 673]
    for p in no_start:
        with pytest.raises(ValueError, match="p = %d$" % p):
            isogeny_supersingular_data(p)
    with pytest.raises(ValueError):
        isogeny_supersingular_data(91)


def test_isogeny_walk_rejects_a_start_that_is_not_a_neighbour(monkeypatch):
    # 1 is not a root of Phi_2(1728, Y) mod 7, so the division by Y - 1
    # leaves a remainder
    monkeypatch.setattr(atlas, "WALK_STARTS", ((4, (3,), 1728, 1),))
    with pytest.raises(InconsistencyError, match="isogeny walk: .*p = 7"):
        isogeny_supersingular_data(7)


# ---------------------------------------------------------------------------
# fibers
# ---------------------------------------------------------------------------


def test_fiber_ns_13():
    g = special_fiber("ns", 13)
    assert len(g.verticals()) == 2
    assert len(g.horizontals()) == 1
    assert len(g.edges) == 2
    assert g.widths() == [2, 2]
    assert g.toric_rank() == 0 == g.supersingular.s - 1


def test_fiber_nsplus_29():
    g = special_fiber("ns+", 29)
    assert len(g.verticals()) == 2
    assert all(v.label == LABEL_C4 for v in g.verticals())
    assert len(g.horizontals()) == 3
    assert len(g.edges) == 6
    assert g.widths() == [4, 4, 4, 4, 12, 12]
    assert g.toric_rank() == 2 == (29 - 5) // 12


def test_fiber_s_13():
    g = special_fiber("s", 13)
    roles = sorted(v.role for v in g.verticals())
    assert roles == ["vertical-igusa", "vertical-igusa",
                     "vertical-rational", "vertical-rational"]
    assert len(g.horizontals()) == 1
    assert len(g.edges) == 4
    assert g.toric_rank() == 0 == 3 * (g.supersingular.s - 1)
    widths = sorted(g.widths())
    assert widths == [2, 2, 12, 12]  # Igusa edges 2e, rational edges (p-1)e


def test_fiber_nsplus_19_single_vertical():
    g = special_fiber("ns+", 19)
    assert len(g.verticals()) == 1
    assert g.verticals()[0].label == LABEL_PM
    # s = g(X_0(19)) + 1 = 2 horizontal components, each crossing once
    assert len(g.horizontals()) == 2
    assert len(g.edges) == 2
    assert g.toric_rank() == 0
    assert g.notes  # the single-crossing convention is recorded


def test_fiber_splus_shapes():
    g = special_fiber("s+", 13)  # p = 1 mod 4
    labels = sorted(v.label for v in g.verticals())
    assert labels == [LABEL_C4, LABEL_C4, "P^1"]
    assert g.toric_rank() == toric_rank_closed_form("s+", 13)
    g = special_fiber("s+", 19)  # p = 3 mod 4
    labels = sorted(v.label for v in g.verticals())
    assert labels == [LABEL_PM, "P^1"]


def test_nsplus_path_length_is_8e_when_p_is_1_mod_4():
    for p in (13, 17, 29, 37):
        g = special_fiber("ns+", p)
        for h in g.horizontals():
            incident = [w for a, b, w in g.edges if a == h.name or b == h.name]
            assert len(incident) == 2
            assert sum(incident) == 8 * h.e


@pytest.mark.parametrize("p", [997, 1009, 1019])
@pytest.mark.parametrize("family", CARTAN_FAMILIES)
def test_cartan_fiber_builds_one_curve_per_automorphism_order(monkeypatch, family, p):
    calls = []
    real = atlas.cartan_drinfeld

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(atlas, "cartan_drinfeld", counting)
    g = special_fiber(family, p)
    es = g.supersingular.e_values()
    assert len(g.horizontals()) == len(es) > 80
    assert len(calls) <= len(set(es))
    for h in g.horizontals():
        curve = real(family, p, h.e)
        assert (h.curve, h.genus) == (curve, curve.genus())


def test_toric_rank_closed_forms_sweep():
    for p in range(5, 500):
        if not is_prime(p):
            continue
        s = genus_x0(p) + 1
        assert toric_rank_closed_form("ns", p) == s - 1
        assert toric_rank_closed_form("s", p) == 3 * (s - 1)
        for family in CARTAN_FAMILIES:
            assert special_fiber(family, p).toric_rank() == \
                toric_rank_closed_form(family, p), (family, p)


def test_exceptional_fiber_inventories():
    g = special_fiber("a4", 13)
    counts = {v.label: v.count for v in g.verticals()}
    assert counts == {LABEL_C4: 2, LABEL_C6: 4}
    assert g.toric_rank() is None
    assert g.edges == []
    widths = {v.label: v.width for v in g.verticals()}
    assert widths == {LABEL_C4: 4, LABEL_C6: 6}


def extra_verticals(kind, p):
    """Vertical counts by quotient label beyond the generic Ig(p)/{+-1}."""
    return {v.label: v.count for v in special_fiber(kind, p).verticals()
            if v.label != LABEL_PM}


def test_exceptional_inventory_tables_spot():
    assert extra_verticals("a4", 13) == {LABEL_C4: 2, LABEL_C6: 4}
    assert extra_verticals("a4", 103) == {LABEL_C6: 4}
    assert extra_verticals("s4", 73) == {
        LABEL_C4: 2, LABEL_C6: 2, "Ig(p)/C8": 2}
    assert extra_verticals("a5", 59) == {}
    assert extra_verticals("a5", 61) == {
        LABEL_C4: 2, LABEL_C6: 2, "Ig(p)/C10": 2}
    assert extra_verticals("a5", 41) == {LABEL_C4: 2, "Ig(p)/C10": 2}


# the vertical inventory of each exceptional kind by congruence class of p,
# beyond the generic Ig(p)/{+-1} parts
C8, C10 = "Ig(p)/C8", "Ig(p)/C10"
EXCEPTIONAL_INVENTORY = {
    ("a4", 12): {1: {LABEL_C4: 2, LABEL_C6: 4}, 5: {LABEL_C4: 2},
                 7: {LABEL_C6: 4}, 11: {}},
    ("s4", 24): {1: {LABEL_C4: 2, LABEL_C6: 2, C8: 2}, 7: {LABEL_C6: 2},
                 17: {LABEL_C4: 2, C8: 2}, 23: {}},
    ("a5", 60): {1: {LABEL_C4: 2, LABEL_C6: 2, C10: 2}, 11: {C10: 2},
                 19: {LABEL_C6: 2}, 29: {LABEL_C4: 2}, 31: {LABEL_C6: 2, C10: 2},
                 41: {LABEL_C4: 2, C10: 2}, 49: {LABEL_C4: 2, LABEL_C6: 2}, 59: {}},
}


def test_exceptional_inventory_every_congruence_class():
    seen = set()
    for (kind, modulus), table in EXCEPTIONAL_INVENTORY.items():
        for p in range(5, 250):
            if not is_prime(p):
                continue
            try:
                check_congruence(kind, p)
            except CongruenceError:
                continue
            assert extra_verticals(kind, p) == table[p % modulus], (kind, p)
            seen.add((kind, p % modulus))
    assert seen == {(kind, r) for (kind, _), table in EXCEPTIONAL_INVENTORY.items()
                    for r in table}
    assert len(seen) == 16


def test_special_fiber_rejects_invalid_combinations():
    with pytest.raises(CongruenceError):
        special_fiber("s4", 13)  # 13 = 5 mod 8
    with pytest.raises(CongruenceError):
        special_fiber("a5", 7)
    with pytest.raises(ValueError):
        special_fiber("borel", 13)
    with pytest.raises(ValueError):
        special_fiber("ns", 9)


def test_fiber_json_is_deterministic_across_recomputation():
    one = json.dumps(special_fiber("ns+", 29).to_json_dict(), sort_keys=True)
    two = json.dumps(special_fiber("ns+", 29).to_json_dict(), sort_keys=True)
    assert one == two


def test_exceptional_fiber_total_parts_sweep():
    from fibercurve.exceptional import orbit_table

    for p in range(5, 120):
        if not is_prime(p):
            continue
        for kind in ("a4", "s4", "a5"):
            try:
                check_congruence(kind, p)
            except CongruenceError:
                continue
            g = special_fiber(kind, p)
            total = sum(v.count for v in g.verticals())
            assert total == 2 * len(orbit_table(kind, p).orbits), (kind, p)


# ---------------------------------------------------------------------------
# genus oracle and consistency
# ---------------------------------------------------------------------------


def test_genus_oracle_anchors():
    assert total_genus("ns+", 13) == 3
    assert total_genus("ns+", 17) == 6 == (17 - 5) ** 2 // 24
    assert total_genus("x0", 13) == 0
    assert total_genus("x0", 11) == 1
    assert total_genus("x0", 37) == 2


def test_genus_oracle_nsplus_closed_form():
    for p in range(5, 200):
        if is_prime(p) and p % 12 == 5:
            assert total_genus("ns+", p) == (p - 5) ** 2 // 24, p
    # x0 builds the Borel group, of order p(p - 1): below 200 and at 397
    primes = [p for p in range(5, 400) if is_prime(p)]
    for family in CARTAN_FAMILIES + ("x0",):
        for p in primes:
            if family == "x0" and 200 < p < 397:
                continue
            H = family_group_image(family, p)
            assert genus_oracle(H) == genus_closed_form(family, p), (family, p)


def test_total_genus_rejects_a_wrong_oracle(monkeypatch):
    real = atlas.genus_oracle
    monkeypatch.setattr(atlas, "genus_oracle", lambda H: real(H) + 1)
    for family in CARTAN_FAMILIES + ("x0",):
        with pytest.raises(InconsistencyError, match="total genus: .* p = 13"):
            total_genus(family, 13)


def test_total_genus_counts_cycles_once(monkeypatch):
    calls = []
    real = atlas.coset_cycle_counts
    monkeypatch.setattr(atlas, "coset_cycle_counts", lambda H: calls.append(H) or real(H))
    for family in CARTAN_FAMILIES + ("x0", "a4", "s4", "a5"):
        calls.clear()
        total_genus(family, 71)
        assert len(calls) == 1, family


def test_consistency_examples():
    r = consistency_report("ns+", 17)
    assert r.ok
    assert r.unknown_label == LABEL_C4
    assert r.derived_genus == 0 == (17 - 5) * (17 - 17) // 96
    assert r.total_genus == 6

    r = consistency_report("ns", 13)
    assert r.ok and r.unknown_label == LABEL_PM

    r = consistency_report("ns+", 29)
    assert r.ok and r.toric_rank == 2
    assert r.total_genus == total_genus("ns+", 29)


def test_derived_quotient_genus_is_the_closed_form_below_2000():
    # every Cartan (family, p): 1204 reports, about 4.5 s
    for p in range(5, 2000):
        if not is_prime(p):
            continue
        for family in CARTAN_FAMILIES:
            r = consistency_report(family, p)
            k = QUOTIENT_WIDTH[r.unknown_label] // 2
            assert r.derived_genus == igusa_genus(p, k), (family, p)
            assert r.ok, (family, p)


def test_igusa_genus_known_values():
    # Ig(p)/C4 at p = 5 mod 12 has the genus (p - 5)(p - 17)/96
    for p in (5, 17, 29, 41, 53, 89, 101, 113, 137, 149, 173, 197):
        assert igusa_genus(p, 2) == (p - 5) * (p - 17) // 96, p
    # Ig(p)/{+-1} -> X(1) has degree 2 at p = 5: one supersingular j,
    # totally ramified, and an ordinary 1728 with index 2: genus 0
    assert igusa_genus(5, 1) == 0


@pytest.mark.parametrize("p,k", [(11, 2), (13, 4), (7, 0), (9, 1)])
def test_igusa_genus_rejects_a_quotient_that_does_not_exist(p, k):
    with pytest.raises(ValueError):
        igusa_genus(p, k)


def test_consistency_rejects_exceptional_families():
    with pytest.raises(ValueError):
        consistency_report("a4", 13)


def test_consistency_sweep_small():
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        for family in CARTAN_FAMILIES:
            assert consistency_report(family, p).ok, (family, p)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_json_schema_keys():
    payload = special_fiber("ns+", 13).to_json_dict()
    assert set(payload) == {"family", "p", "s", "vertical", "horizontal",
                            "edges", "toric_rank", "total_genus"}
    assert payload["toric_rank"] == 0
    assert payload["total_genus"] == 3
    assert payload["horizontal"][0]["equation"] == "Y^2 = X(X^7 + 1)"
    assert payload["horizontal"][0]["genus"] == 3
    json.dumps(payload)  # must be JSON-serializable


def test_dot_output():
    dot = special_fiber("ns", 13).to_dot()
    assert dot.startswith("graph fiber {")
    assert '"D1" -- "Ig1" [label="2"]' in dot
    # parallel edges stay distinct: one line per edge
    assert dot.count(" -- ") == 2
