import math
import pathlib
import random
import sys
import types

import pytest

from fibercurve import cli, drinfeld
from fibercurve.ffield import (
    GF,
    InconsistencyError,
    element_of_order,
    inverse_mod,
    is_prime,
)
from fibercurve.atlas import supersingular_data
from fibercurve.exceptional import KINDS, CongruenceError, check_congruence, orbit_table
from fibercurve.projline import cartan_nonsplit, cartan_split
from fibercurve.drinfeld import (
    SuperellipticCurve,
    admissible_twist,
    cartan_drinfeld,
    count_points_fp2,
    default_orbit_pair,
    exceptional_drinfeld,
    verify_quotient_maps,
)

from drinfeld_helpers import form_label, horizontal_genus, phi_constant_on_orbits
from fp2_oracle import ElementField, enumerated_count_points_fp2

WORKED = {
    ("a4", 13): (
        "u^7 = t^5 (t-1)^5",
        {0: 5, 1: 5},
    ),
    ("a4", 103): (
        "u^52 = t^35 (t-3) (t-10) (t-22) (t-39) (t-64) (t-89) (t-100) (t-102)",
        # published residues: 3, -3, -1, 22, 39, -14, -39, 10 and t^35
        {0: 35, 3: 1, 103 - 3: 1, 103 - 1: 1, 22: 1, 39: 1, 103 - 14: 1,
         103 - 39: 1, 10: 1},
    ),
    ("s4", 73): (
        "u^37 = t^19 (t-14)^25 (t-48)^28 (t-58)",
        # published: (t+25)^28 (t-14)^25 t^19 (t+15)
        {73 - 25: 28, 14: 25, 0: 19, 73 - 15: 1},
    ),
    ("a5", 421): (
        "u^211 = t (t-23)^106 (t-47) (t-144)^141 (t-161) (t-228) (t-292) "
        "(t-317)^169",
        {0: 1, 23: 106, 47: 1, 144: 141, 161: 1, 228: 1, 292: 1, 317: 169},
    ),
}


def rh_genus_reference(n, exponents):
    """Independent evaluation of the ramification formula used in tests."""
    rhs = -2 * n
    for m in exponents:
        rhs += n - math.gcd(n, m)
    total = sum(exponents)
    rhs += n - math.gcd(n, total)
    assert rhs % 2 == 0
    return (rhs + 2) // 2


@pytest.mark.parametrize("key", sorted(WORKED))
def test_worked_equations_byte_exact(key):
    kind, p = key
    text, factors = WORKED[key]
    curve = exceptional_drinfeld(orbit_table(kind, p))
    assert curve.text() == text
    assert dict(curve.factors) == factors
    assert curve.n == (p + 1) // 2


def test_worked_equation_a4_13_genus():
    curve = exceptional_drinfeld(orbit_table("a4", 13))
    assert curve.genus() == 3
    assert rh_genus_reference(7, [5, 5]) == 3


def test_exceptional_requires_distinct_orbits():
    table = orbit_table("a4", 13)
    orb = table.orbit_of(1)
    with pytest.raises(ValueError):
        exceptional_drinfeld(table, orb, orb)


def test_phi_is_indeterminate_at_a_point_of_both_orbits():
    from fibercurve.drinfeld import evaluate_projective
    from fibercurve.ffield import InconsistencyError
    from fibercurve.projline import IDENTITY, Orbit

    o1, o2 = Orbit((0, 1), [IDENTITY]), Orbit((1, 2), [IDENTITY])
    with pytest.raises(InconsistencyError, match="branch values: .* at 1, .*p = 13"):
        evaluate_projective(13, o1, o2, 1)
    # elsewhere phi(t) = t (t - 1) / ((t - 1) (t - 2)), monic over monic
    assert [evaluate_projective(13, o1, o2, x) for x in (0, 2, 3, 13)] == [0, 13, 3, 1]


def test_branch_count_and_exponent_inverse_invariants():
    for kind, p in (("a4", 13), ("a4", 103), ("s4", 73), ("a4", 37),
                    ("s4", 41), ("a5", 61), ("a5", 421)):
        table = orbit_table(kind, p)
        if len(table.orbits) < 2:
            continue
        curve = exceptional_drinfeld(table)
        n = (p + 1) // 2
        # branch values, with a possible value at infinity, biject with orbits
        assert len(curve.factors) in (len(table.orbits), len(table.orbits) - 1)
        isotropies = sorted(o.isotropy_order for o in table.orbits)
        expected_exps = sorted(
            pow(h, -1, n) for h in isotropies
        )
        got_exps = sorted(m for _, m in curve.factors)
        # the omitted orbit maps to infinity; its exponent drops out
        assert len(got_exps) >= len(expected_exps) - 1
        for _, m in curve.factors:
            assert any(m * h % n == 1 % n for h in isotropies)


def test_orbit_pair_choice_preserves_genus_and_exponent_multiset():
    # every ordered orbit pair yields the same cover up to coordinates
    for kind, p in (("a4", 13), ("s4", 73), ("a4", 103)):
        table = orbit_table(kind, p)
        n = (p + 1) // 2
        reference = None
        for o1 in table.orbits:
            for o2 in table.orbits:
                if o1 is o2:
                    continue
                curve = exceptional_drinfeld(table, o1, o2)
                full_exps = sorted(
                    pow(o.isotropy_order, -1, n) for o in table.orbits
                )
                genus = curve.genus()
                if reference is None:
                    reference = (full_exps, genus)
                assert (full_exps, genus) == reference


def orbit_images(kind, p, table, o1, o2):
    from fibercurve.drinfeld import evaluate_projective

    return [evaluate_projective(p, o1, o2, o.representative) for o in table.orbits]


def mobius_through(p, triples):
    """The transform mapping three source points to three targets."""
    from fibercurve.ffield import solve_affine_mod_p

    rows = []
    for v, w in triples:
        x, y = (1, 0) if v == p else (v, 1)
        wx, wy = (1, 0) if w == p else (w, 1)
        rows.append([x * wy, y * wy, -x * wx, -y * wx])
    _, kernel = solve_affine_mod_p(rows, [0, 0, 0], p)
    for vec in kernel:
        a, b, c, d = vec
        if (a * d - b * c) % p:
            from fibercurve.projline import transform

            return transform(p, a, b, c, d)
    raise AssertionError("no invertible transform through the triples")


def test_pair_change_is_a_single_mobius_transformation():
    from projline_oracle import act

    for kind, p in (("s4", 73), ("a4", 103)):
        table = orbit_table(kind, p)
        orbs = table.orbits
        images_a = orbit_images(kind, p, table, orbs[0], orbs[1])
        images_b = orbit_images(kind, p, table, orbs[1], orbs[2])
        pairs = list(zip(images_a, images_b))
        m = mobius_through(p, pairs[:3])
        for v, w in pairs:
            assert act(p, m, v) == w


def test_phi_constant_on_orbits_exhaustive():
    for kind in ("a4", "s4", "a5"):
        for p in range(5, 104):
            if not is_prime(p):
                continue
            try:
                check_congruence(kind, p)
            except CongruenceError:
                continue
            if len(orbit_table(kind, p).orbits) < 2:
                continue
            assert phi_constant_on_orbits(kind, p), (kind, p)


def test_default_orbit_pair_follows_published_choices():
    table = orbit_table("a4", 13)
    o1, o2 = default_orbit_pair(table)
    assert 1 in o1 and 3 in o2
    table = orbit_table("s4", 73)
    o1, o2 = default_orbit_pair(table)
    assert 0 in o1 and 1 in o2


# ---------------------------------------------------------------------------
# closed Cartan forms
# ---------------------------------------------------------------------------


def test_cartan_closed_forms():
    assert cartan_drinfeld("ns", 13, 1).text() == "U^2 = V^14 + 1"
    c = cartan_drinfeld("ns+", 13, 1)
    assert c.text() == "Y^2 = X(X^7 + 1)"
    assert c.genus() == 3
    assert cartan_drinfeld("ns+", 17, 3).text() == "Y^2 = X(X^3 + 1)"
    assert cartan_drinfeld("ns+", 19, 2).is_line()
    assert cartan_drinfeld("s+", 19, 2).is_line()
    assert cartan_drinfeld("s", 13, 1).text() == "U^2 = V^14 + 1"


def test_cartan_rejects_invalid_e():
    with pytest.raises(CongruenceError):
        cartan_drinfeld("ns", 13, 2)  # 13 = 1 mod 4
    with pytest.raises(CongruenceError):
        cartan_drinfeld("ns+", 13, 3)  # 13 = 1 mod 3
    with pytest.raises(ValueError):
        cartan_drinfeld("ns", 13, 5)
    with pytest.raises(ValueError):
        cartan_drinfeld("x", 13, 1)


def test_closed_form_genus_matches_hyperelliptic_floor():
    for p in (13, 17, 19, 29, 31):
        for e in (1, 2, 3):
            try:
                even = cartan_drinfeld("ns", p, e)
            except (CongruenceError, ValueError):
                continue
            m = (p + 1) // e
            expect = (m - 2) // 2 if m % 2 == 0 else (m - 1) // 2
            assert even.genus() == expect
            plus = cartan_drinfeld("ns+", p, e)
            if plus.is_line():
                continue
            deg = (p + 1) // (2 * e) + 1
            expect = (deg - 1) // 2 if deg % 2 else (deg - 2) // 2
            assert plus.genus() == expect


# ---------------------------------------------------------------------------
# genus formula
# ---------------------------------------------------------------------------


def test_genus_rational_cover():
    for n in (2, 5, 7):
        assert SuperellipticCurve(13, n, [(0, 1)]).genus() == 0


def test_genus_reducible_cover_rejected():
    with pytest.raises(ValueError):
        SuperellipticCurve(13, 4, [(0, 2), (1, 2)]).genus()


def test_genus_random_against_reference():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randrange(2, 12)
        roots = rng.sample(range(13), rng.randrange(1, 5))
        exps = [rng.randrange(1, n) for _ in roots]
        d = 0
        for m in exps:
            d = math.gcd(d, m)
        if math.gcd(n, d) != 1:
            continue
        curve = SuperellipticCurve(13, n, list(zip(roots, exps)))
        assert curve.genus() == rh_genus_reference(n, exps)


def expanded_exponents(curve):
    """The exponent of every finite branch root, one entry per root, read
    off the curve's definition rather than its multiplicity map."""
    if curve.is_line():
        return []
    if curve.factors is not None:
        return [m for _, m in curve.factors]
    return [1] * (curve.m + (curve.form == "x_times_power"))


def assert_genus_matches_reference(curve):
    exps = expanded_exponents(curve)
    counts = curve.branch_exponents()
    assert sum(counts.values()) == len(exps)
    assert sorted(counts) == sorted(set(exps))
    assert curve.genus() == rh_genus_reference(curve.n, exps)


@pytest.mark.parametrize("family", drinfeld.CARTAN_FAMILIES)
def test_cartan_genus_matches_reference_below_1000(family):
    for p in range(5, 1000):
        if not is_prime(p):
            continue
        for e in (1, 2, 3):
            try:
                curve = cartan_drinfeld(family, p, e)
            except CongruenceError:
                continue
            assert_genus_matches_reference(curve)


@pytest.mark.parametrize("kind", ["a4", "s4", "a5"])
def test_exceptional_genus_matches_reference_below_500(kind):
    for p in range(5, 500):
        if not is_prime(p):
            continue
        try:
            check_congruence(kind, p)
        except CongruenceError:
            continue
        table = orbit_table(kind, p)
        if len(table.orbits) >= 2:
            assert_genus_matches_reference(exceptional_drinfeld(table))


CARTAN_IMAGES = {
    "ns": lambda p: cartan_nonsplit(p),
    "ns+": lambda p: cartan_nonsplit(p, normalizer=True),
    "s": lambda p: cartan_split(p),
    "s+": lambda p: cartan_split(p, normalizer=True),
}


def test_riemann_hurwitz_genus_is_the_cartan_equations_genus_below_1000():
    # every (family, p, e): 1 340 curves in about 0.6 s (2 420 below 2000
    # in about 2 s also agree)
    checked = 0
    for p in range(5, 1000):
        if is_prime(p):
            for e in set(supersingular_data(p).e_values()):
                for family, image in CARTAN_IMAGES.items():
                    assert horizontal_genus(p, image(p), e) == (
                        cartan_drinfeld(family, p, e).genus()), (family, p, e)
                    checked += 1
    assert checked == 1340


# the accepted exceptional (kind, p) below 200 with a horizontal whose
# printed equation's genus is not the Riemann-Hurwitz genus on DL: the
# equation leaves out the branch values of the orbits that are not
# F_p-rational.  A fix removes pairs from this list; nothing adds to it.
EXCEPTIONAL_GENUS_MISMATCHES = {
    "a4": (7, 17, 19, 23, 29, 31, 41, 43, 47, 53, 59, 67, 71, 79, 83, 89, 101,
           103, 107, 113, 127, 131, 137, 139, 149, 151, 163, 167, 173, 179, 191,
           197, 199),
    "s4": (17, 31, 41, 47, 71, 79, 89, 103, 113, 127, 137, 151, 167, 191, 199),
    "a5": (31, 41, 71, 79, 89, 101, 109, 131, 139, 149, 151, 179, 191, 199),
}


def test_exceptional_genus_mismatches_only_shrink():
    # 76 pairs with at least 2 orbits, 62 of them mismatched, in under
    # 0.1 s; a4@103 prints genus 204 where Riemann-Hurwitz gives 217
    genera = {}
    for p in range(5, 200):
        for kind in KINDS:
            try:
                check_congruence(kind, p)
            except CongruenceError:
                continue
            table = orbit_table(kind, p)
            if len(table.orbits) >= 2:
                genera[kind, p] = (exceptional_drinfeld(table).genus(),
                                   horizontal_genus(p, table.group.elements, 1))
    assert len(genera) == 76 and genera["a4", 103] == (204, 217)
    mismatched = {key for key, (printed, expected) in genera.items() if printed != expected}
    pinned = {(kind, p) for kind, primes in EXCEPTIONAL_GENUS_MISMATCHES.items()
              for p in primes}
    assert mismatched - pinned == set(), "new mismatches"
    assert pinned - mismatched == set(), "fixed: drop from the list"


def test_marked_form_genus_up_to_a_million():
    ms = list(range(1, 400)) + [4097, 65536, 65537, 999999, 10 ** 6]
    for m in ms:
        even = SuperellipticCurve.even_power_form(1000003, m)
        odd = SuperellipticCurve.odd_power_form(1000003, m)
        assert even.branch_exponents() == {1: m}
        assert odd.branch_exponents() == {1: m + 1}
        assert even.genus() == (m - 1) // 2
        assert odd.genus() == m // 2
    for m in (1, 2, 3, 400, 999999, 10 ** 6):
        assert_genus_matches_reference(SuperellipticCurve.even_power_form(1000003, m))
        assert_genus_matches_reference(SuperellipticCurve.odd_power_form(1000003, m))


def test_serialization_forms():
    curve = SuperellipticCurve(13, 7, [(1, 5), (0, 5)])
    assert curve.text() == "u^7 = t^5 (t-1)^5"
    assert (curve.p, curve.n, curve.factors) == (13, 7, ((0, 5), (1, 5)))
    assert form_label(cartan_drinfeld("ns+", 13, 1)) == "Y^2 = X(X^7 + A)"
    assert form_label(cartan_drinfeld("ns+", 19, 2)) == "P^1"


def test_duplicate_roots_rejected():
    with pytest.raises(ValueError):
        SuperellipticCurve(13, 7, [(1, 2), (14, 3)])


# ---------------------------------------------------------------------------
# point counts
# ---------------------------------------------------------------------------


def brute_count_p5():
    """Independent double-loop count over F_25 for p = 5."""
    p = 5
    F = ElementField(p)
    a = F(admissible_twist(p))
    count = 0
    for x in F.elements():
        for y in F.elements():
            if x ** p * y - x * y ** p == a:
                count += 1
    # points at infinity: (x : y : 0) with x^p y = x y^p
    for t in F.elements():
        if (t ** p - t).is_zero():
            count += 1
    count += 1  # (1 : 0 : 0)
    return count


@pytest.mark.parametrize("p", [5, 13])
def test_frobenius_map_is_the_p_th_power(p):
    F = ElementField(p)
    for x in F.elements():
        assert x.frobenius() == x ** p


def test_count_points_fp2_matches_brute_force_at_5():
    assert count_points_fp2(5, admissible_twist(5)) == brute_count_p5() == 126


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_count_points_maximality(p):
    n = count_points_fp2(p, admissible_twist(p))
    genus = p * (p - 1) // 2
    assert n == p ** 3 + 1
    assert n == 1 + p * p + 2 * p * genus


@pytest.mark.parametrize("p", [p for p in range(5, drinfeld.POINT_COUNT_MAX_P + 1)
                               if is_prime(p)])
def test_class_weighted_count_equals_the_enumeration(p, monkeypatch):
    # one solve per class of F_{p^2}^* / F_p^*, against one per nonzero x
    a = admissible_twist(p)
    solves = []
    real = drinfeld.solve_affine_mod_p
    monkeypatch.setattr(drinfeld, "solve_affine_mod_p",
                        lambda *args: solves.append(args) or real(*args))
    assert count_points_fp2(p, a) == enumerated_count_points_fp2(p, a) == p ** 3 + 1
    assert len(solves) == p + 1


@pytest.mark.parametrize("old,new", [
    # each class counted once, not p - 1 times
    ("return 2 + (p - 1) * (fixed + solutions)", "return 2 + fixed + solutions"),
    # Frobenius taken as the identity: every x fixed, every L_x zero
    ("frob = F.conj", "frob = lambda x: x"),
], ids=["class-weight", "frobenius"])
@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_a_wrong_count_fails_the_maximality_row(p, old, new, monkeypatch):
    monkeypatch.setattr(cli.drinfeld, "count_points_fp2", mutant(old, new).count_points_fp2)
    rows = {name: ok for name, _, ok, _ in cli.checks_for_prime(p)}
    assert rows["maximality-count"] is False


def test_count_points_preconditions():
    with pytest.raises(ValueError):
        count_points_fp2(5, (2, 0))  # lies in the prime field
    with pytest.raises(ValueError):
        count_points_fp2(5, (0, 0))
    with pytest.raises(ValueError):
        count_points_fp2(37, admissible_twist(31))


def test_admissible_twist_properties():
    for p in (5, 13, 31):
        a = ElementField(p)(admissible_twist(p))
        assert not a.is_zero()
        assert not a.in_prime_field()
        assert (a * a).in_prime_field()


# ---------------------------------------------------------------------------
# quotient-map verification
# ---------------------------------------------------------------------------


CARTAN = ("ns", "ns+", "s", "s+")


PRIMES_TO_31 = [p for p in range(5, 32) if is_prime(p)]


@pytest.mark.parametrize("family", CARTAN)
def test_quotient_maps_pass(family):
    checks = verify_quotient_maps(13, 30)
    assert sorted(checks) == sorted(CARTAN)
    chk = checks[family]
    assert chk.family == family
    assert chk.passed and chk.witness is None
    chk = verify_quotient_maps(5, 20)[family]
    assert chk.passed


def test_quotient_maps_vacuous_on_zero_samples():
    checks = verify_quotient_maps(13, 0)
    assert all(chk.passed and chk.samples == 0 for chk in checks.values())


def test_quotient_maps_bounds():
    with pytest.raises(ValueError):
        verify_quotient_maps(13, -1)


def test_quotient_maps_hold_at_every_prime_below_2000():
    # the identities are formal, so they hold past the battery's bound
    for p in range(5, 2000):
        if is_prime(p):
            checks = verify_quotient_maps(p, 8, seed=p)
            assert all(chk.passed for chk in checks.values()), p


def check_one_draw(family, p, lam, A, A_p, B, B_p, rng):
    """One family's whole check at one draw, written out per family with
    plain powers: the reference for the library's shared per-draw
    check.  Frob takes (A, B, lam) to (A', B', lam^p)."""
    F = lam.field
    source = lambda x, x_p, y, y_p: x_p * y - x * y_p - 1

    # the special-linear action (x, y) -> (a x + c y, b x + d y) and the
    # (p+1)-st root of unity action x -> u^-1 x both preserve the source
    for _ in range(2):
        while True:
            ga, gb, gc = rng.randrange(p), rng.randrange(p), rng.randrange(p)
            if ga:
                gd = (1 + gb * gc) * inverse_mod(ga, p) % p
                break
            if gb:
                gc = -inverse_mod(gb, p) % p
                gd = rng.randrange(p)
                break
        if not source(ga * A + gc * B, ga * A_p + gc * B_p,
                      gb * A + gd * B, gb * A_p + gd * B_p).is_zero():
            return False
    root = lam ** rng.randrange(p + 1)
    r, r_p = root.inverse(), (root ** p).inverse()
    if not source(r * A, r_p * A_p, r * B, r_p * B_p).is_zero():
        return False

    half = F(2).inverse()
    if family in ("ns", "ns+"):
        lam_p = lam ** p
        atilde, btilde = lam * A + lam_p * B, lam_p * A + lam * B
        atilde_p, btilde_p = lam_p * A_p + lam ** (p * p) * B_p, lam ** (p * p) * A_p + lam_p * B_p
        N = lam ** (-2) - lam ** 2
        if atilde_p * atilde - btilde_p * btilde != N:
            return False
        u1 = atilde_p * atilde
        v1, v1_p = atilde * btilde, atilde_p * btilde_p
        if not (u1 * u1 - v1_p * v1 - N * u1).is_zero():
            return False
        U, V, V_p = u1 - N * half, v1, v1_p
        if U * U != V_p * V + (N * half) ** 2:
            return False
        if family == "ns+":
            X, Y = V * V, U * V
            if Y * Y != X * (V_p * V + (N * half) ** 2):
                return False
    else:
        u = A_p * A ** (-1)
        v, v_p = A * B, A_p * B_p
        if not (v_p - u * u * v + u).is_zero():
            return False
        U, V, V_p = u * v - half, v, v_p
        if U * U != V_p * V + half ** 2:
            return False
        if family == "s+":
            X, Y = V * V, U * V
            if Y * Y != X * (V_p * V + half ** 2):
                return False
    return True


def per_family_quotient_check(family, p, samples, seed=0, check=check_one_draw,
                              calls=None):
    """One family's check the unshared way: its own generator, root of
    unity and draws, then each draw in turn.  `calls` collects the draw
    and generator state of every call."""
    rng = random.Random(seed)
    F = ElementField(p)
    lam = F(element_of_order(F, p + 1, rng))
    for _ in range(samples):
        A = F.random_element(rng)
        while A.is_zero():
            A = F.random_element(rng)
        A_p, B = F.random_element(rng), F.random_element(rng)
        B_p = (A_p * B - 1) * A ** (-1)
        if calls is not None:
            calls.append((A.coords, A_p.coords, B.coords, B_p.coords, rng.getstate()))
        if not check(family, p, lam, A, A_p, B, B_p, rng):
            return False, (A.coords, A_p.coords, B.coords)
    return True, None


@pytest.mark.parametrize("p", PRIMES_TO_31)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shared_sample_matches_per_family_checks(p, seed, monkeypatch):
    shared = []
    rejecting_families = drinfeld._rejecting_families

    def recording(F, consts, A, A_p, B, B_p, A_inv, rng):
        shared.append((A, A_p, B, B_p, rng.getstate()))
        return rejecting_families(F, consts, A, A_p, B, B_p, A_inv, rng)

    monkeypatch.setattr(drinfeld, "_rejecting_families", recording)
    checks = verify_quotient_maps(p, 8, seed=seed)
    for family in CARTAN:
        calls = []
        expect = per_family_quotient_check(family, p, 8, seed, calls=calls)
        assert (checks[family].passed, checks[family].witness) == expect, family
        # same draw and generator state at every call
        assert shared == calls, family


def test_shared_sample_reports_the_rejected_point(monkeypatch):
    p, seed = 13, 1
    draws = []
    rejecting_families = drinfeld._rejecting_families

    def recording(F, consts, A, A_p, B, B_p, A_inv, rng):
        draws.append((A, A_p, B))
        return rejecting_families(F, consts, A, A_p, B, B_p, A_inv, rng)

    monkeypatch.setattr(drinfeld, "_rejecting_families", recording)
    verify_quotient_maps(p, 8, seed=seed)
    rejected = draws[3]

    def reject_for_s(F, consts, A, A_p, B, B_p, A_inv, rng):
        families = list(rejecting_families(F, consts, A, A_p, B, B_p, A_inv, rng))
        if (A, A_p, B) == rejected:
            families.append("s")
        return families

    def reject_for_s_reference(family, p, lam, A, A_p, B, B_p, rng):
        if family == "s" and (A.coords, A_p.coords, B.coords) == rejected:
            return False
        return check_one_draw(family, p, lam, A, A_p, B, B_p, rng)

    monkeypatch.setattr(drinfeld, "_rejecting_families", reject_for_s)
    checks = verify_quotient_maps(p, 8, seed=seed)
    assert not checks["s"].passed and checks["s"].witness == rejected
    assert per_family_quotient_check("s", p, 8, seed, reject_for_s_reference) == (False, rejected)
    for family in ("ns", "ns+", "s+"):
        assert checks[family].passed and checks[family].witness is None


def test_no_sample_points_over_fp2():
    # Frobenius negates x^p y - x y^p over F_{p^2}, so it never equals 1
    for p in (5, 7):
        F = ElementField(p)
        elems = list(F.elements())
        powers = [(x, x ** p) for x in elems]
        for x, xp in powers:
            for y, yp in powers:
                assert xp * y - x * yp != F.one()


def fp2_product(x, y, p, d):
    """(a + b sqrt d)(c + e sqrt d) on coordinate pairs, apart from the
    library's field."""
    (a, b), (c, e) = x, y
    return (a * c + d * b * e) % p, (a * e + b * c) % p


@pytest.mark.parametrize("p", PRIMES_TO_31)
@pytest.mark.parametrize("seed", [0, 1])
def test_sampled_points_lie_on_the_curve(seed, p, monkeypatch):
    # every draw (A, A', B, B') has A != 0 and A'B - AB' = 1, recomputed
    # on coordinate pairs over F_p[sqrt d], d the first nonsquare
    draws = []
    rejecting_families = drinfeld._rejecting_families

    def recording(F, consts, A, A_p, B, B_p, A_inv, rng):
        draws.append((A, A_p, B, B_p))
        return rejecting_families(F, consts, A, A_p, B, B_p, A_inv, rng)

    monkeypatch.setattr(drinfeld, "_rejecting_families", recording)
    checks = verify_quotient_maps(p, 8, seed=seed)
    assert all(chk.passed for chk in checks.values())
    d = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
    assert len(draws) == 8
    for A, A_p, B, B_p in draws:
        assert A != (0, 0)
        left = fp2_product(A_p, B, p, d)
        right = fp2_product(A, B_p, p, d)
        assert ((left[0] - right[0]) % p, (left[1] - right[1]) % p) == (1, 0)


@pytest.mark.parametrize("p", PRIMES_TO_31)
def test_inverse_is_the_conjugate_over_the_norm(p):
    # x^-1 = x^p / N(x), N(x) = x^(p+1) in F_p^*
    F = ElementField(p)
    rng = random.Random(p)
    for _ in range(50):
        x = F.random_element(rng)
        if x.is_zero():
            continue
        norm = x * x.frobenius()
        assert norm.in_prime_field() and not norm.is_zero()
        assert norm == x ** (p + 1)
        assert x.frobenius() * inverse_mod(norm.coords[0], p) == x.inverse()


@pytest.mark.parametrize("p", PRIMES_TO_31)
def test_lam_has_order_p_plus_1_and_frobenius_inverts_it(p):
    # the chains use lam^(p+1) = 1, so Frob(lam) = lam^-1
    F = ElementField(p)
    lam = F(element_of_order(F, p + 1, random.Random(p)))
    assert lam ** (p + 1) == F.one()
    assert all(lam ** ((p + 1) // q) != F.one()
               for q in range(2, p + 2) if is_prime(q) and (p + 1) % q == 0)
    assert lam.frobenius() == lam.inverse()


def test_a_draw_off_the_source_raises(monkeypatch):
    # an inverse one more than the true one puts B' = (A'B - 1)/A off
    # A'B - AB' = 1
    real = GF.inv
    monkeypatch.setattr(GF, "inv", lambda F, x: F.add(real(F, x), (1, 0)))
    with pytest.raises(InconsistencyError, match=r"quotient maps: .*\(p = 7\)"):
        verify_quotient_maps(7, 8)


def mutant(old, new):
    """The drinfeld module with `old`, which its source holds once,
    replaced by `new`."""
    path = pathlib.Path(drinfeld.__file__)
    source = path.read_text()
    assert source.count(old) == 1, old
    module = types.ModuleType("fibercurve.drinfeld_mutant")
    module.__package__ = "fibercurve"
    # dataclasses look their module up while the class is built
    sys.modules[module.__name__] = module
    try:
        exec(compile(source.replace(old, new), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


@pytest.mark.parametrize("old,new,failing", [
    # aN with its sign flipped
    ("aN = sub(mul(lam_p, lam_p), mul(lam, lam))",
     "aN = sub(mul(lam, lam), mul(lam_p, lam_p))", {"ns", "ns+"}),
    # the s chain's constant (1/2)^2 changed to 1/2
    ("mul(aN_half, aN_half), mul(half, half))", "mul(aN_half, aN_half), half)", {"s", "s+"}),
    # the ns+ model's constant (aN/2)^2 negated
    ("if mul(Y, Y) != mul(X, add(V_norm, aN_half_sq)):",
     "if mul(Y, Y) != mul(X, sub(V_norm, aN_half_sq)):", {"ns+"}),
    # the s+ model's constant (1/2)^2 negated
    ("if mul(Y, Y) != mul(X, add(V_norm, half_sq)):",
     "if mul(Y, Y) != mul(X, sub(V_norm, half_sq)):", {"s+"}),
    # a determinant of 2, not 1, moves draws off the source
    ("gd = (1 + gb * gc) * inverse_mod(ga, p) % p",
     "gd = (2 + gb * gc) * inverse_mod(ga, p) % p", set(CARTAN)),
    # Frob(u^-1) taken as u^-1, not u: a root other than +-1 moves draws
    # off the source
    ("root_inv_p = F.conj(root_inv)", "root_inv_p = root_inv", set(CARTAN)),
], ids=["aN-sign", "s-constant", "ns+-constant", "s+-constant", "sl2-det",
        "root-frobenius"])
@pytest.mark.parametrize("p", PRIMES_TO_31)
def test_a_wrong_chain_fails_its_quotient_map_rows(p, old, new, failing, monkeypatch):
    monkeypatch.setattr(cli.drinfeld, "verify_quotient_maps",
                        mutant(old, new).verify_quotient_maps)
    rows = {name: ok for name, _, ok, _ in cli.checks_for_prime(p)
            if name.startswith("quotient-maps-")}
    assert rows == {"quotient-maps-" + f: f not in failing for f in CARTAN}
