"""Equations of horizontal (Drinfeld) components and their invariants.

The generic horizontal component is the smooth plane curve
x^p y - x y^p = z^(p+1).  Quotients by Cartan subgroups have closed
hyperelliptic forms; quotients by exceptional subgroups are synthesized
as cyclic covers u^((p+1)/2) = prod (t - c)^m of the t-line, where the
branch data comes from a quotient map of P^1 realized by an explicit
rational function phi built from two group orbits, evaluated point by
point.

The module also carries the fiberwise point count over F_{p^2} of the
twisted form x^p y - x y^p = a z^(p+1) (used for the maximality check)
and sampling-based verification of the coordinate chains that take the
generic component to its quotient models.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd, prod
from operator import mul

from .ffield import (
    FieldError,
    FqElement,
    InconsistencyError,
    element_of_order,
    field_create,
    inverse_mod,
    solve_affine_mod_p,
    sqrt_in_field,
)
from .projline import first_nonsquare, point_str
from .exceptional import CongruenceError, UsageError

POINT_COUNT_MAX_P = 31
SAMPLE_MAX_P = 31
SAMPLE_MAX_DEGREE = 6  # extensions F_{p^(2k)} probed for sample points

CARTAN_FAMILIES = ("ns", "ns+", "s", "s+")


class SuperellipticCurve:
    """A cyclic cover u^n = f(t) over F_p, or a marked closed form.

    Explicit curves carry a factor list ((c, m), ...) with roots c in
    [0, p) and exponents 1 <= m < n.  Closed Cartan forms keep a marked
    shape instead ("v_power": U^2 = V^m + A, "x_times_power":
    Y^2 = X(X^m + A), "line": a projective line); the constant A is 1 in
    emitted equations, which only aims at geometric models.  Either way
    the branch data is the multiplicity map {m: count} of
    `branch_exponents`, whose size is the number of distinct exponents,
    not the degree of f.
    """

    def __init__(self, p, n, factors=None, form=None, m=None):
        self.p = p
        self.n = n
        self.form = form
        self.m = m
        if factors is not None:
            factors = tuple(sorted((c % p, e) for c, e in factors))
            roots = [c for c, _ in factors]
            if len(set(roots)) != len(roots):
                raise ValueError("branch roots must be pairwise distinct")
            for _, e in factors:
                if not 1 <= e < n:
                    raise ValueError("exponents must lie in [1, n)")
        self.factors = factors

    # ---- constructors -------------------------------------------------

    @classmethod
    def from_factors(cls, p, n, factors):
        return cls(p, n, factors=tuple(factors))

    @classmethod
    def even_power_form(cls, p, m):
        """U^2 = V^m + A."""
        return cls(p, 2, form="v_power", m=m)

    @classmethod
    def odd_power_form(cls, p, m):
        """Y^2 = X(X^m + A)."""
        return cls(p, 2, form="x_times_power", m=m)

    @classmethod
    def projective_line(cls, p):
        return cls(p, 1, form="line")

    # ---- views ---------------------------------------------------------

    def is_line(self):
        return self.form == "line"

    def branch_exponents(self):
        """{m: count}: how many distinct finite branch roots of f have
        exponent m."""
        if self.factors is not None:
            return Counter(m for _, m in self.factors)
        if self.form == "v_power":
            return {1: self.m}  # V^m + A is squarefree (gcd(m, p) = 1)
        if self.form == "x_times_power":
            return {1: self.m + 1}
        return {}

    def genus(self):
        return cyclic_cover_genus(self)

    # ---- serialization -------------------------------------------------

    def text(self):
        """Canonical text form, byte-stable across runs."""
        if self.form == "v_power":
            return "U^2 = V^%d + 1" % self.m
        if self.form == "x_times_power":
            return "Y^2 = X(X^%d + 1)" % self.m
        if self.form == "line":
            return "P^1"
        parts = []
        for c, m in self.factors:
            base = "t" if c == 0 else "(t-%d)" % c
            parts.append(base if m == 1 else "%s^%d" % (base, m))
        return "u^%d = %s" % (self.n, " ".join(parts))

    def __eq__(self, other):
        return (
            isinstance(other, SuperellipticCurve)
            and (self.p, self.n, self.factors, self.form, self.m)
            == (other.p, other.n, other.factors, other.form, other.m)
        )

    def __repr__(self):
        return "SuperellipticCurve(%s)" % self.text()


def cyclic_cover_genus(curve: SuperellipticCurve) -> int:
    """Genus of the cyclic cover u^n = f(t) by Riemann-Hurwitz.

    2g - 2 = -2n + sum over finite branch roots of (n - gcd(n, m_i))
    plus (n - gcd(n, sum m_i)) for the point at infinity; the last term
    vanishes on its own when n divides the total degree.  Both sums run
    over the multiplicity map {m: count} of `branch_exponents`, one term
    per distinct exponent, so a marked form U^2 = V^m + 1 costs O(1)
    whatever m is.
    """
    if curve.is_line():
        return 0
    n = curve.n
    counts = curve.branch_exponents()
    if not counts:
        raise ValueError("constant right-hand side does not define a cover")
    if gcd(n, *counts) != 1:
        raise ValueError("cover u^%d = f is reducible" % n)
    total = sum(m * c for m, c in counts.items())
    rhs = -2 * n + sum(c * (n - gcd(n, m)) for m, c in counts.items())
    rhs += n - gcd(n, total)
    if rhs % 2 or rhs < -2:
        raise InconsistencyError(
            "cyclic cover genus: 2g - 2 = %d is odd or below -2 for "
            "u^%d = f (p = %d)" % (rhs, n, curve.p))
    return (rhs + 2) // 2


# ---------------------------------------------------------------------------
# closed Cartan forms
# ---------------------------------------------------------------------------


def cartan_drinfeld(family: str, p: int, e: int = 1) -> SuperellipticCurve:
    """Closed-form horizontal component for a Cartan family.

    e is the order of the reduced automorphism group at the supersingular
    point under the component: 1 generically, 2 over j = 1728 (only when
    p = 3 mod 4), 3 over j = 0 (only when p = 2 mod 3).  For the
    normalizer families the e = 2 component degenerates to a projective
    line.
    """
    if family not in CARTAN_FAMILIES:
        raise ValueError("unknown family %r" % family)
    if e not in (1, 2, 3):
        raise ValueError("e must be 1, 2 or 3")
    if e == 2 and p % 4 != 3:
        raise CongruenceError("e = 2 requires p = 3 mod 4 (j = 1728 supersingular)")
    if e == 3 and p % 3 != 2:
        raise CongruenceError("e = 3 requires p = 2 mod 3 (j = 0 supersingular)")
    if family in ("ns", "s"):
        return SuperellipticCurve.even_power_form(p, (p + 1) // e)
    if e == 2:
        return SuperellipticCurve.projective_line(p)
    return SuperellipticCurve.odd_power_form(p, (p + 1) // (2 * e))


# ---------------------------------------------------------------------------
# synthesized exceptional components
# ---------------------------------------------------------------------------


def evaluate_projective(p: int, orbit1, orbit2, x: int) -> int:
    """phi(x) in P^1(F_p) for the rational function realizing P^1 -> P^1 / H,

      phi(t) = prod_{P in O1, P != inf} (t - P)^h1
             / prod_{P in O2, P != inf} (t - P)^h2,

    with h_i the isotropy orders, evaluated at the point x; p encodes
    the value infinity.  Factors at infinity are omitted, so numerator
    and denominator are monic and phi(inf) compares their degrees.
    """
    h1, h2 = orbit1.isotropy_order, orbit2.isotropy_order
    if x == p:
        dn = h1 * (len(orbit1) - (p in orbit1))
        dd = h2 * (len(orbit2) - (p in orbit2))
        if dn == dd:
            return 1  # both monic
        return p if dn > dd else 0
    nv = pow(prod(x - P for P in orbit1.points if P != p), h1, p)
    dv = pow(prod(x - P for P in orbit2.points if P != p), h2, p)
    if dv == 0:
        if nv == 0:
            raise InconsistencyError(
                "branch values: phi is indeterminate at %s, a point of both "
                "orbits (p = %d)" % (point_str(p, x), p))
        return p
    return nv * inverse_mod(dv, p) % p


def exceptional_drinfeld(table, orbit1=None, orbit2=None) -> SuperellipticCurve:
    """Horizontal-component equation for an exceptional family, from
    its orbit table.

    Branch values are the images under phi of one representative per
    orbit (the value infinity is omitted); the exponent at the image of
    an orbit with isotropy order h is the inverse of h mod (p+1)/2.
    The default orbit pair is (orbit of 0, orbit of 1); the tetrahedral
    worked example at p = 13 is pinned to (orbit of 1, orbit of 3), the
    pair its published table was computed with.
    """
    kind, p = table.kind, table.p
    if orbit1 is None or orbit2 is None:
        orbit1, orbit2 = default_orbit_pair(table)
    if orbit1 is orbit2 or set(orbit1.points) == set(orbit2.points):
        raise UsageError("the two orbits must be distinct")
    n = (p + 1) // 2
    factors = []
    seen = set()
    for orbit in table.orbits:
        value = evaluate_projective(p, orbit1, orbit2, orbit.representative)
        if value == p:
            continue
        if value in seen:
            raise InconsistencyError(
                "branch values: distinct orbits share the branch value %d "
                "(kind %s, p = %d)" % (value, kind, p))
        seen.add(value)
        factors.append((value, inverse_mod(orbit.isotropy_order, n)))
    # every orbit contributes one branch value, counting a possible infinity
    if len(factors) not in (table.total, table.total - 1):
        raise InconsistencyError(
            "branch values: %d finite values for %d orbits (kind %s, p = %d)"
            % (len(factors), table.total, kind, p))
    return SuperellipticCurve.from_factors(p, n, factors)


def default_orbit_pair(table):
    p = table.p
    if table.kind == "a4" and p == 13:
        return table.orbit_of(1), table.orbit_of(3)
    o0 = table.orbit_of(0)
    o1 = table.orbit_of(1)
    if o0 is not o1:
        return o0, o1
    for t in range(2, p):
        cand = table.orbit_of(t)
        if cand is not o1:
            return o1, cand
    raise UsageError("P^1(F_%d) is a single orbit, no pair available" % p)


# ---------------------------------------------------------------------------
# point count of the twisted generic component over F_{p^2}
# ---------------------------------------------------------------------------


def admissible_twist(p: int):
    """An element a of F_{p^2} with a not in F_p but a^2 in F_p."""
    F2 = field_create(p, 2)
    a = sqrt_in_field(F2(first_nonsquare(p)))
    if a is None or a.in_prime_field():
        raise InconsistencyError(
            "admissible twist: the square root of the first nonsquare is "
            "missing or lies in the prime field (p = %d)" % p)
    return a


def count_points_fp2(p: int, a) -> int:
    """Projective points of x^p y - x y^p = a z^(p+1) over F_{p^2}.

    Computed fiberwise over the x-line: for fixed x the equation is
    F_p-linear in y, so each affine fiber is counted by solving a linear
    system over F_p; points at infinity are enumerated directly.
    """
    if p > POINT_COUNT_MAX_P:
        raise ValueError("p = %d exceeds the enumeration bound %d" % (p, POINT_COUNT_MAX_P))
    F2 = a.field
    if F2.p != p or F2.k != 2:
        raise ValueError("twist must live in F_{p^2}")
    if a.is_zero() or a.in_prime_field() or not (a * a).in_prime_field():
        raise ValueError("twist must satisfy a not in F_p, a^2 in F_p")
    count = 0
    # z = 0: x^p y = x y^p on P^1, enumerate both charts
    for t in F2.elements():
        if t.frobenius() == t:  # (x : y) = (t : 1)
            count += 1
    count += 1  # (1 : 0) always satisfies x^p * 0 - x * 0 = 0
    # z = 1: for each x count y with x^p y - x y^p = a, an F_p-linear
    # equation in the coordinates of y
    basis = F2.basis()
    basis_p = [F2(col) for col in F2.frobenius_columns()]
    rhs = list(a.coords)
    for x in F2.elements():
        if x.is_zero():
            continue  # 0 - 0 = a is impossible for a != 0
        xp = x.frobenius()
        cols = [xp * e - x * ep for e, ep in zip(basis, basis_p)]
        matrix = [[col.coords[i] for col in cols] for i in range(F2.k)]
        sol = solve_affine_mod_p(matrix, rhs, p)
        if sol is not None:
            count += p ** len(sol[1])
    return count


# ---------------------------------------------------------------------------
# sampling-based checks of the quotient coordinate chains
# ---------------------------------------------------------------------------


@dataclass
class QuotientMapCheck:
    family: str
    p: int
    samples: int
    passed: bool
    witness: tuple = None


def _sample_source_points(p: int, count: int, rng):
    """Points (alpha, beta) with alpha^p beta - alpha beta^p = 1.

    For a fixed nonzero alpha the equation in beta reduces to the
    additive equation s^p - s = c with s = beta/alpha and
    c = -1/alpha^(p+1), solvable by F_p-linear algebra; the extension
    degree 2k is raised until fibers with solutions appear.  The search
    starts at F_{p^6} (k = 3): over F_{p^2} the curve has no points,
    since Frobenius negates x^p y - x y^p, which therefore never equals
    1; over F_{p^4} only 1/(p^2 + 1) of the alpha have a fiber with
    solutions.

    s -> s^p - s is F_p-linear with kernel F_p, and its image is the
    kernel of the trace (additive Hilbert 90), so s^p - s = c is
    solvable exactly when Tr(c) = 0: about one alpha in p.  The sampler
    draws w = 1/alpha, uniform on F^* exactly when alpha is, so that
    c = -w w^p.  With w = sum w_i e_i over the basis e_i of F, w^p is
    sum w_j e_j^p, and Tr(w w^p) = sum_(i,j) w_i w_j Tr(e_i e_j^p): the
    quadratic form w^T Q w, with Q computed once per field.  A draw is
    tested with k^2 integer products and no field arithmetic; only the
    w that pass pay for w^p, the inverse alpha and the solve.  Each
    degree gets 4 p count draws, about four times the expected need.  A
    draw that passes the trace test and has no solution raises
    InconsistencyError.
    """
    for k in range(3, SAMPLE_MAX_DEGREE + 1):
        F = field_create(p, 2 * k)
        pts = _sample_in_field(F, p, count, rng)
        if pts is not None:
            return F, pts
    raise FieldError("no sample points found up to degree %d" % (2 * SAMPLE_MAX_DEGREE))


def _trace_form(F):
    """The matrix Q of w -> Tr(w^(p+1)), Q[i][j] = Tr(e_i e_j^p); the
    trace Tr(x) of the F_p-linear map y -> x y is linear in x."""
    basis = F.basis()
    traces = [sum((e * f).coords[i] for i, f in enumerate(basis)) for e in basis]
    basis_p = [F(col) for col in F.frobenius_columns()]
    return [[sum(map(mul, traces, (e * f).coords)) % F.p for f in basis_p] for e in basis]


def _sample_in_field(F, p, count, rng):
    # the matrix of s -> s^p - s: Frobenius's columns less the identity
    cols = F.frobenius_columns()
    frob_matrix = [[(c[i] - (i == j)) % p for j, c in enumerate(cols)] for i in range(F.k)]
    form = _trace_form(F)
    pts = []
    for _ in range(4 * p * count):
        w = F.random_element(rng)
        if w.is_zero():
            continue
        coords = w.coords
        if sum(wi * sum(map(mul, row, coords)) for wi, row in zip(coords, form)) % p:
            continue  # Tr(c) != 0: s^p - s = c has no solution
        c = -(w * w.frobenius())
        sol = solve_affine_mod_p(frob_matrix, list(c.coords), p)
        if sol is None:
            raise InconsistencyError(
                "quotient-map sampler: trace test passed a c with no solution "
                "of s^p - s = c in degree %d (p = %d)" % (F.k, p))
        alpha = w.inverse()
        shift = rng.randrange(p)
        beta = alpha * (F(tuple(sol[0])) + shift)
        if alpha.frobenius() * beta - alpha * beta.frobenius() != F.one():
            raise InconsistencyError(
                "quotient-map sampler: a solution of s^p - s = c gives a point "
                "off x^p y - x y^p = 1 in degree %d (p = %d)" % (F.k, p))
        pts.append((alpha, beta))
        if len(pts) == count:
            return pts
    return None


def verify_quotient_maps(p: int, samples: int, seed: int = 0) -> dict:
    """Push sampled points of the generic component through the quotient
    chain of each Cartan family; returns {family: QuotientMapCheck}.

    Checks, per family, that the sampled points (alpha, beta) of
    alpha^p beta - alpha beta^p = 1 land on the intermediate and final
    quotient equations, and that the special-linear and root-of-unity
    actions preserve the source equation.  The points and the root of
    unity are drawn once.  Each point's source and action checks, which
    no family changes, run once and draw the point's random actions
    once; the ns chain then serves ns and ns+, and the s chain s and
    s+.  A family's witness is the first point it rejects, and the
    draws are those a family replaying the actions on its own would
    make, so the outcome does not depend on the sharing.  x -> x^p is
    the field's linear map, `FqElement.frobenius`.
    """
    import random

    if p > SAMPLE_MAX_P:
        raise ValueError("p exceeds sampling bound")
    if samples < 0:
        raise ValueError("sample count must be nonnegative")
    checks = {
        family: QuotientMapCheck(
            family=family,
            p=p,
            samples=samples,
            passed=True,
        )
        for family in CARTAN_FAMILIES
    }
    if samples == 0:
        return checks
    rng = random.Random(seed)
    F, pts = _sample_source_points(p, samples, rng)
    lam = element_of_order(F, p + 1, rng)
    # the chains' constants, shared by every point
    half = F((p + 1) // 2)
    aN = lam ** (p - 1) - lam ** 2  # lam^-2 = lam^(p-1), as lam^(p+1) = 1
    consts = (F.one(), half, lam.frobenius(), aN, (aN * half) ** 2, half * half)
    open_checks = dict(checks)
    for alpha, beta in pts:
        for family in _rejecting_families(p, FqElement.frobenius, lam, consts,
                                          alpha, beta, rng):
            check = open_checks.pop(family, None)
            if check is not None:
                check.passed = False
                check.witness = (alpha, beta)
        if not open_checks:
            break
    return checks


def _rejecting_families(p, frob, lam, consts, alpha, beta, rng):
    """The Cartan families that the point (alpha, beta) fails: all four
    when the point is off the source or one of its symmetries moves it
    off, else those whose chain breaks.  Draws the point's random
    special-linear and root-of-unity actions from rng.  `consts` holds
    the chains' constants: a = 1, 1/2, lam^p, aN = lam^-2 - lam^2,
    (aN/2)^2 and (1/2)^2."""
    a, half, lam_p, aN, aN_half_sq, half_sq = consts

    def on_source(x, y):
        return frob(x) * y - x * frob(y) == a

    if not on_source(alpha, beta):
        return CARTAN_FAMILIES
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
        if not on_source(ga * alpha + gc * beta, gb * alpha + gd * beta):
            return CARTAN_FAMILIES
    # lam has order p + 1, so lam^-r = lam^((-r) mod (p + 1))
    root_inv = lam ** (-rng.randrange(p + 1) % (p + 1))
    if not on_source(root_inv * alpha, root_inv * beta):
        return CARTAN_FAMILIES

    rejected = []
    # the ns chain; ns+ continues it
    atilde = lam * alpha + lam_p * beta
    btilde = lam_p * alpha + lam * beta
    u1 = frob(atilde) * atilde
    v1 = atilde * btilde
    U = u1 - aN * half
    V = v1
    if (u1 - frob(btilde) * btilde != aN
            or not (u1 * u1 - frob(v1) * v1 - aN * u1).is_zero()
            or U * U != frob(V) * V + aN_half_sq):
        rejected += ["ns", "ns+"]
    else:
        X, Y = V * V, U * V
        if Y * Y != X * (X ** ((p + 1) // 2) + aN_half_sq):
            rejected.append("ns+")
    # the s chain; s+ continues it
    u = alpha ** (p - 1)  # alpha^p / alpha, without an inversion
    v = alpha * beta
    U = u * v - half
    V = v
    if (not (frob(v) - u * u * v + u).is_zero()
            or U * U != frob(V) * V + half_sq):
        rejected += ["s", "s+"]
    else:
        X, Y = V * V, U * V
        if Y * Y != X * (X ** ((p + 1) // 2) + half_sq):
            rejected.append("s+")
    return rejected
