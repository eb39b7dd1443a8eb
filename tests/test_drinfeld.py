import math
import random
from functools import reduce
from operator import mul

import pytest

from fibercurve import drinfeld
from fibercurve.ffield import (
    GF,
    element_of_order,
    field_create,
    inverse_mod,
    is_prime,
    solve_affine_mod_p,
)
from fibercurve.exceptional import CongruenceError, check_congruence, orbit_table
from fibercurve.drinfeld import (
    SuperellipticCurve,
    admissible_twist,
    cartan_drinfeld,
    count_points_fp2,
    default_orbit_pair,
    exceptional_drinfeld,
    verify_quotient_maps,
)

from drinfeld_helpers import form_label, phi_constant_on_orbits

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
    from fibercurve.projline import act

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
    F = field_create(p, 2)
    a = admissible_twist(p)
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


@pytest.mark.parametrize("p,k", [(5, 2), (13, 2), (5, 6), (31, 6)])
def test_frobenius_map_is_the_p_th_power(p, k):
    F = field_create(p, k)
    rng = random.Random(p * k)
    elems = F.elements() if k == 2 else (F.random_element(rng) for _ in range(200))
    for x in elems:
        assert x.frobenius() == x ** p
    basis = [F(tuple(int(i == j) for i in range(k))) for j in range(k)]
    assert F.frobenius_columns() == tuple((e ** p).coords for e in basis)


def test_count_points_fp2_matches_brute_force_at_5():
    assert count_points_fp2(5, admissible_twist(5)) == brute_count_p5() == 126


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_count_points_maximality(p):
    n = count_points_fp2(p, admissible_twist(p))
    genus = p * (p - 1) // 2
    assert n == p ** 3 + 1
    assert n == 1 + p * p + 2 * p * genus


def test_count_points_preconditions():
    F = field_create(5, 2)
    with pytest.raises(ValueError):
        count_points_fp2(5, F(2))  # lies in the prime field
    with pytest.raises(ValueError):
        count_points_fp2(5, F(0))
    with pytest.raises(ValueError):
        count_points_fp2(37, admissible_twist(31))


def test_admissible_twist_properties():
    for p in (5, 13, 31):
        a = admissible_twist(p)
        assert not a.is_zero()
        assert not a.in_prime_field()
        assert (a * a).in_prime_field()


# ---------------------------------------------------------------------------
# quotient-map verification
# ---------------------------------------------------------------------------


CARTAN = ("ns", "ns+", "s", "s+")


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
        verify_quotient_maps(37, 5)
    with pytest.raises(ValueError):
        verify_quotient_maps(13, -1)


def check_one_point(family, p, F, a, lam, alpha, beta, rng):
    """One family's whole check at one point, written out per family with
    plain powers: the reference for the library's shared per-point check."""
    source = lambda x, y: x ** p * y - x * y ** p - a

    if not source(alpha, beta).is_zero():
        return False
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
        a2, b2 = ga * alpha + gc * beta, gb * alpha + gd * beta
        if not source(a2, b2).is_zero():
            return False
    root = lam ** rng.randrange(p + 1)
    if not source(root.inverse() * alpha, root.inverse() * beta).is_zero():
        return False

    if family in ("ns", "ns+"):
        lam_p = lam ** p
        atilde = lam * alpha + lam_p * beta
        btilde = lam_p * alpha + lam * beta
        N = lam ** (-2) - lam ** 2
        if atilde ** (p + 1) - btilde ** (p + 1) != a * N:
            return False
        u1 = atilde ** (p + 1)
        v1 = atilde * btilde
        if not (u1 * u1 - v1 ** (p + 1) - a * N * u1).is_zero():
            return False
        half = F(2).inverse()
        U = u1 - a * N * half
        V = v1
        if U * U != V ** (p + 1) + (a * N * half) ** 2:
            return False
        if family == "ns+":
            X, Y = V * V, U * V
            if Y * Y != X * (X ** ((p + 1) // 2) + (a * N * half) ** 2):
                return False
    else:
        u = alpha ** (p - 1)
        v = alpha * beta
        if not (v ** p - u * u * v + a * u).is_zero():
            return False
        half = F(2).inverse()
        U = u * v - a * half
        V = v
        if U * U != V ** (p + 1) + (a * half) ** 2:
            return False
        if family == "s+":
            X, Y = V * V, U * V
            if Y * Y != X * (X ** ((p + 1) // 2) + (a * half) ** 2):
                return False
    return True


def per_family_quotient_check(family, p, samples, seed=0, check=check_one_point,
                              calls=None):
    """One family's check the unshared way: its own generator, its own
    sample and root of unity, then each point in turn.  `calls` collects
    the point, root of unity and generator state of every call."""
    rng = random.Random(seed)
    F, pts = drinfeld._sample_source_points(p, samples, rng)
    lam = element_of_order(F, p + 1, rng)
    for alpha, beta, _ in pts:
        if calls is not None:
            calls.append((lam, alpha, beta, rng.getstate()))
        if not check(family, p, F, F.one(), lam, alpha, beta, rng):
            return False, (alpha, beta)
    return True, None


@pytest.mark.parametrize("p", [p for p in range(5, 32) if is_prime(p)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shared_sample_matches_per_family_checks(p, seed, monkeypatch):
    shared = []
    rejecting_families = drinfeld._rejecting_families

    def recording(p, lam, consts, alpha, beta, w, rng):
        shared.append((lam, alpha, beta, rng.getstate()))
        return rejecting_families(p, lam, consts, alpha, beta, w, rng)

    monkeypatch.setattr(drinfeld, "_rejecting_families", recording)
    checks = verify_quotient_maps(p, 8, seed=seed)
    longest = 0
    for family in CARTAN:
        calls = []
        expect = per_family_quotient_check(family, p, 8, seed, calls=calls)
        assert (checks[family].passed, checks[family].witness) == expect, family
        # same point, root of unity and generator state at every call
        assert shared[:len(calls)] == calls, family
        longest = max(longest, len(calls))
    assert len(shared) == longest


def test_shared_sample_reports_the_rejected_point(monkeypatch):
    p, seed = 13, 1
    _, pts = drinfeld._sample_source_points(p, 8, random.Random(seed))
    rejected = pts[3][:2]
    rejecting_families = drinfeld._rejecting_families

    def reject_for_s(p, lam, consts, alpha, beta, w, rng):
        families = list(rejecting_families(p, lam, consts, alpha, beta, w, rng))
        if (alpha, beta) == rejected:
            families.append("s")
        return families

    def reject_for_s_reference(family, p, F, a, lam, alpha, beta, rng):
        if family == "s" and (alpha, beta) == rejected:
            return False
        return check_one_point(family, p, F, a, lam, alpha, beta, rng)

    monkeypatch.setattr(drinfeld, "_rejecting_families", reject_for_s)
    checks = verify_quotient_maps(p, 8, seed=seed)
    assert not checks["s"].passed and checks["s"].witness == rejected
    assert per_family_quotient_check("s", p, 8, seed, reject_for_s_reference) == (False, rejected)
    for family in ("ns", "ns+", "s+"):
        assert checks[family].passed and checks[family].witness is None


def test_no_sample_points_over_fp2():
    # Frobenius negates x^p y - x y^p over F_{p^2}, so it never equals 1
    for p in (5, 7):
        F = field_create(p, 2)
        elems = list(F.elements())
        powers = [(x, x ** p) for x in elems]
        for x, xp in powers:
            for y, yp in powers:
                assert xp * y - x * yp != F.one()


@pytest.mark.parametrize("seed", [0, 1])
def test_sampled_points_lie_on_the_curve(seed):
    for p in (p for p in range(5, 32) if is_prime(p)):
        F, pts = drinfeld._sample_source_points(p, 8, random.Random(seed))
        assert F.p == p and F.k >= 6 and len(pts) == 8
        for alpha, beta, w in pts:
            assert alpha ** p * beta - alpha * beta ** p == F.one()
            assert alpha * w == F.one()


@pytest.mark.parametrize("seed", range(10))
def test_degree_six_draw_budget_suffices(seed):
    # 4 p draws per point leave no prime <= 31 short of points in F_{p^6}
    for p in (p for p in range(5, 32) if is_prime(p)):
        F, pts = drinfeld._sample_source_points(p, 8, random.Random(seed))
        assert (F.p, F.k, len(pts)) == (p, 6, 8)
        for alpha, beta, _ in pts:
            assert alpha ** p * beta - alpha * beta ** p == F.one()


@pytest.mark.parametrize("p", [p for p in range(5, 32) if is_prime(p)])
def test_itoh_tsujii_inverse(p):
    # x^-1 = x^(r-1)/N(x), x^(r-1) the product of the nontrivial conjugates
    F = field_create(p, 6)
    rng = random.Random(p)
    for _ in range(50):
        x = F.random_element(rng)
        if x.is_zero():
            continue
        conjugates = [x]  # x, x^p, ..., x^(p^5)
        for _ in range(F.k - 1):
            conjugates.append(conjugates[-1].frobenius())
        x_r1 = reduce(mul, conjugates[1:])
        norm = x * x_r1
        assert norm.in_prime_field() and not norm.is_zero()
        assert x_r1 * inverse_mod(norm.lift(), p) == x.inverse()


@pytest.mark.parametrize("p", [p for p in range(5, 32) if is_prime(p)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_trace_test_accepts_exactly_the_solvable_draws(p, seed, monkeypatch):
    # every draw of w = 1/alpha and every solve, in order: a draw is
    # accepted when a solve follows it before the next draw
    events = []
    draw, solve = GF.random_element, drinfeld.solve_affine_mod_p

    def recording_draw(F, rng):
        w = draw(F, rng)
        events.append(("draw", w))
        return w

    def recording_solve(matrix, rhs, q):
        events.append(("solve", list(rhs)))
        return solve(matrix, rhs, q)

    monkeypatch.setattr(GF, "random_element", recording_draw)
    monkeypatch.setattr(drinfeld, "solve_affine_mod_p", recording_solve)
    drinfeld._sample_source_points(p, 8, random.Random(seed))
    events.append(("draw", None))
    matrices = {}  # the matrix of s -> s^p - s per field, built from x ** p
    verdicts = []
    for (kind, w), (after, rhs) in zip(events, events[1:]):
        if kind != "draw" or w.is_zero():
            continue
        F = w.field
        if F not in matrices:
            basis = [F(tuple(int(i == j) for i in range(F.k))) for j in range(F.k)]
            matrices[F] = [[(e ** p - e).coords[i] for e in basis] for i in range(F.k)]
        c = -(w ** (p + 1))  # -1/alpha^(p+1)
        solvable = solve_affine_mod_p(matrices[F], list(c.coords), p) is not None
        assert (after == "solve") == solvable
        if solvable:
            assert rhs == list(c.coords)
        verdicts.append(solvable)
    assert verdicts.count(True) >= 8 and verdicts.count(False) > 0


@pytest.mark.parametrize("p", [p for p in range(5, 32) if is_prime(p)])
def test_trace_form_equals_trace(p):
    F = field_create(p, 6)
    form = drinfeld._trace_form(F)
    rng = random.Random(p)
    for _ in range(100):
        w = F.random_element(rng)
        power = w ** (p + 1)
        trace = sum((power ** p ** i for i in range(F.k)), F.zero())
        assert trace.in_prime_field()
        quadratic = sum(wi * form[i][j] * wj for i, wi in enumerate(w.coords)
                        for j, wj in enumerate(w.coords))
        assert quadratic % p == trace.lift()


@pytest.mark.parametrize("p", [5, 13, 31])
def test_rejected_draw_does_no_field_arithmetic(p, monkeypatch):
    # events in order; a draw's segment runs to the next draw or field
    events = []
    draw, mul_, inv = GF.random_element, GF._mul, GF._inv
    frobenius, create = GF._frobenius, drinfeld.field_create
    solve = drinfeld.solve_affine_mod_p

    def recording_draw(F, rng):
        events.append("draw")
        return draw(F, rng)

    def record(name, fn):
        def wrapped(*args):
            events.append(name)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(GF, "random_element", recording_draw)
    monkeypatch.setattr(GF, "_mul", record("mul", mul_))
    monkeypatch.setattr(GF, "_inv", record("inv", inv))
    monkeypatch.setattr(GF, "_frobenius", record("frob", frobenius))
    monkeypatch.setattr(drinfeld, "field_create", record("field", create))
    monkeypatch.setattr(drinfeld, "solve_affine_mod_p", record("solve", solve))
    drinfeld._sample_source_points(p, 8, random.Random(p))
    segments, rejected = [], 0
    for event in events:
        if event in ("draw", "field"):
            segments.append([event])
        elif segments:
            segments[-1].append(event)
    for segment in segments:
        if segment[0] == "draw" and "solve" not in segment:
            assert segment == ["draw"]
            rejected += 1
    assert rejected > 0 and events.count("solve") == 8
