"""Equations of horizontal (Drinfeld) components and their invariants.

The generic horizontal component is the smooth plane curve
x^p y - x y^p = z^(p+1).  Quotients by Cartan subgroups have closed
hyperelliptic forms; quotients by exceptional subgroups are synthesized
as cyclic covers u^((p+1)/2) = prod (t - c)^m of the t-line, where the
branch data comes from a quotient map of P^1 realized by an explicit
rational function phi built from two group orbits, evaluated point by
point.

The module also carries the point count over F_{p^2} of the twisted
form x^p y - x y^p = a z^(p+1) (used for the maximality check), one
F_p-linear solve per class of F_{p^2}^* / F_p^*, and the check, as
identities over F_{p^2}, of the coordinate chains that take the generic
component to its quotient models.  Both work on `ffield.GF`'s
coordinate pairs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd, prod

from .ffield import (
    InconsistencyError,
    element_of_order,
    field_create,
    first_nonsquare,
    inverse_mod,
    solve_affine_mod_p,
    sqrt_in_field,
)
from .projline import point_str
from .exceptional import CongruenceError, UsageError

POINT_COUNT_MAX_P = 31
SAMPLE_MAX_P = 31  # the battery's quotient-map rows run at p <= SAMPLE_MAX_P

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
        """Genus of the cyclic cover u^n = f(t) by Riemann-Hurwitz.

        2g - 2 = -2n + sum over finite branch roots of (n - gcd(n, m_i))
        plus (n - gcd(n, sum m_i)) for the point at infinity; the last term
        vanishes on its own when n divides the total degree.  Both sums run
        over the multiplicity map {m: count} of `branch_exponents`, one term
        per distinct exponent, so a marked form U^2 = V^m + 1 costs O(1)
        whatever m is.
        """
        if self.is_line():
            return 0
        n = self.n
        counts = self.branch_exponents()
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
                "u^%d = f (p = %d)" % (rhs, n, self.p))
        return (rhs + 2) // 2

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
    orbit_count = len(table.orbits)
    if len(factors) not in (orbit_count, orbit_count - 1):
        raise InconsistencyError(
            "branch values: %d finite values for %d orbits (kind %s, p = %d)"
            % (len(factors), orbit_count, kind, p))
    return SuperellipticCurve(p, n, factors)


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
    """A pair a of F_{p^2} with a not in F_p but a^2 in F_p."""
    F = field_create(p)
    a = sqrt_in_field(F, (first_nonsquare(p), 0))
    if a is None or not a[1]:
        raise InconsistencyError(
            "admissible twist: the square root of the first nonsquare is "
            "missing or lies in the prime field (p = %d)" % p)
    return a


def count_points_fp2(p: int, a) -> int:
    """Projective points of x^p y - x y^p = a z^(p+1) over F_{p^2}, for a
    pair a with a not in F_p and a^2 in F_p.

    Counted fiberwise over the x-line, one class of F_{p^2}^* / F_p^* at
    a time.  For fixed x, L_x(y) = x^p y - x y^p is F_p-linear in y, so
    the affine fiber z = 1 is an F_p-linear system in the coordinates of
    y; x = 0 gives 0 = a, which has no solution.  For lam in F_p^*,
    lam^p = lam, so L_(lam x) = lam L_x and L_(lam x)(y / lam) = L_x(y):
    y -> y / lam is a bijection between the fibers over x and lam x.
    At z = 0, (x : 1 : 0) lies on the curve exactly when x^p = x, which
    holds for all of x's class or none of it.  So one solve per class, at
    the representatives (1, t) for t in F_p and (0, 1), each weighted by
    the class size p - 1, counts every point but (0 : 1 : 0) and
    (1 : 0 : 0): p + 1 solves instead of p^2 - 1.
    """
    if p > POINT_COUNT_MAX_P:
        raise ValueError("p = %d exceeds the enumeration bound %d" % (p, POINT_COUNT_MAX_P))
    F = field_create(p)
    if not a[1] % p or F.mul(a, a)[1]:
        raise ValueError("twist must satisfy a not in F_p, a^2 in F_p")
    frob = F.conj
    basis = ((1, 0), (0, 1))
    fixed = solutions = 0
    for x in [(1, t) for t in range(p)] + [(0, 1)]:
        xp = frob(x)
        fixed += xp == x
        # column j is L_x of the j-th basis element
        cols = [F.sub(F.mul(xp, e), F.mul(x, frob(e))) for e in basis]
        sol = solve_affine_mod_p([[col[i] for col in cols] for i in range(2)], a, p)
        if sol is not None:
            solutions += p ** len(sol[1])
    return 2 + (p - 1) * (fixed + solutions)


# ---------------------------------------------------------------------------
# the quotient coordinate chains as identities over F_{p^2}
# ---------------------------------------------------------------------------


@dataclass
class QuotientMapCheck:
    family: str
    p: int
    samples: int
    passed: bool
    witness: tuple = None


def verify_quotient_maps(p: int, samples: int, seed: int = 0) -> dict:
    """Check the coordinate chain that takes the generic component to each
    Cartan family's quotient model at `samples` random draws; returns
    {family: QuotientMapCheck}.

    Write A = alpha, A' = alpha^p, B = beta and B' = beta^p for a point
    (alpha, beta) of x^p y - x y^p = 1.  Every identity of the chains
    follows from A'B - AB' = 1, lam^(p+1) = 1 and Frobenius being a ring
    map, so that Frob of an expression in (A, B, lam) is the same
    expression in (A', B', lam^p).  They therefore hold on all of
    {A'B - AB' = 1} in F_{p^2}^4, although the curve itself has no
    F_{p^2} point.  A draw takes A != 0, A' and B at random in F_{p^2},
    each a coordinate pair whose two residues come from rng in order,
    and B' = (A'B - 1)/A; a B' that misses A'B - AB' = 1 raises
    InconsistencyError.  lam, of order p + 1, is drawn once.

    Per draw: a random element of SL_2(F_p) and a random (p+1)-st root
    of unity preserve the source (else every family fails); the ns chain
    serves ns and ns+, and the s chain s and s+.  At a point of a finite
    field X^((p+1)/2) = V^(p+1) = V^p V, but that is not a formal
    identity: here it reads Frob(V) V, so the ns+ and s+ rows carry only
    the substitution X = V^2, Y = U V into the base chain's last
    identity.  A family's witness is the first draw (A, A', B) of pairs
    it rejects.
    """
    import random

    if samples < 0:
        raise ValueError("sample count must be nonnegative")
    checks = {family: QuotientMapCheck(family=family, p=p, samples=samples, passed=True)
              for family in CARTAN_FAMILIES}
    if samples == 0:
        return checks
    rng = random.Random(seed)
    F = field_create(p)
    mul, sub = F.mul, F.sub
    lam = element_of_order(F, p + 1, rng)
    lam_p = F.conj(lam)
    half = ((p + 1) // 2, 0)
    aN = sub(mul(lam_p, lam_p), mul(lam, lam))  # lam^-2 - lam^2, as lam^(p+1) = 1
    aN_half = mul(aN, half)
    consts = (lam, lam_p, half, aN, mul(aN_half, aN_half), mul(half, half))

    def draw():
        return rng.randrange(p), rng.randrange(p)

    for _ in range(samples):
        A = draw()
        while A == (0, 0):
            A = draw()
        A_p, B = draw(), draw()
        A_inv = F.inv(A)
        B_p = mul(sub(mul(A_p, B), (1, 0)), A_inv)
        if sub(mul(A_p, B), mul(A, B_p)) != (1, 0):
            raise InconsistencyError(
                "quotient maps: B' = (A'B - 1)/A misses A'B - AB' = 1 at a draw "
                "(p = %d)" % p)
        for family in _rejecting_families(F, consts, A, A_p, B, B_p, A_inv, rng):
            check = checks[family]
            if check.passed:
                check.passed = False
                check.witness = (A, A_p, B)
    return checks


def _rejecting_families(F, consts, A, A_p, B, B_p, A_inv, rng):
    """The Cartan families that the draw (A, A', B, B') of pairs in the
    field F fails: all four when one of the source's symmetries moves it
    off, else those whose chain breaks.  Draws the random special-linear
    and root-of-unity actions from rng.  `consts` holds lam, lam^p and
    the chains' constants: 1/2, aN = lam^-2 - lam^2, (aN/2)^2 and
    (1/2)^2."""
    lam, lam_p, half, aN, aN_half_sq, half_sq = consts
    p, mul, add, sub = F.p, F.mul, F.add, F.sub
    zero = (0, 0)

    def on_source(x, x_p, y, y_p):
        return sub(mul(x_p, y), mul(x, y_p)) == (1, 0)

    def comb(g, x, h, y):  # g x + h y for g, h in F_p
        return (g * x[0] + h * y[0]) % p, (g * x[1] + h * y[1]) % p

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
        if not on_source(comb(ga, A, gc, B), comb(ga, A_p, gc, B_p),
                         comb(gb, A, gd, B), comb(gb, A_p, gd, B_p)):
            return CARTAN_FAMILIES
    # lam has order p + 1, so lam^-r = lam^((-r) mod (p + 1))
    root_inv = F.pow(lam, -rng.randrange(p + 1) % (p + 1))
    root_inv_p = F.conj(root_inv)
    if not on_source(mul(root_inv, A), mul(root_inv_p, A_p),
                     mul(root_inv, B), mul(root_inv_p, B_p)):
        return CARTAN_FAMILIES

    rejected = []
    # the ns chain; ns+ continues it.  Frob takes lam to lam^p and lam^p
    # back to lam
    atilde, btilde = add(mul(lam, A), mul(lam_p, B)), add(mul(lam_p, A), mul(lam, B))
    atilde_p = add(mul(lam_p, A_p), mul(lam, B_p))
    btilde_p = add(mul(lam, A_p), mul(lam_p, B_p))
    u1 = mul(atilde_p, atilde)
    V = mul(atilde, btilde)
    V_norm = mul(mul(atilde_p, btilde_p), V)  # Frob(V) V
    U = sub(u1, mul(aN, half))
    if (sub(u1, mul(btilde_p, btilde)) != aN
            or sub(sub(mul(u1, u1), V_norm), mul(aN, u1)) != zero
            or mul(U, U) != add(V_norm, aN_half_sq)):
        rejected += ["ns", "ns+"]
    else:
        X, Y = mul(V, V), mul(U, V)
        if mul(Y, Y) != mul(X, add(V_norm, aN_half_sq)):
            rejected.append("ns+")
    # the s chain; s+ continues it
    u = mul(A_p, A_inv)  # alpha^p / alpha
    V, V_p = mul(A, B), mul(A_p, B_p)
    V_norm = mul(V_p, V)
    U = sub(mul(u, V), half)
    if (add(sub(V_p, mul(mul(u, u), V)), u) != zero
            or mul(U, U) != add(V_norm, half_sq)):
        rejected += ["s", "s+"]
    else:
        X, Y = mul(V, V), mul(U, V)
        if mul(Y, Y) != mul(X, add(V_norm, half_sq)):
            rejected.append("s+")
    return rejected
