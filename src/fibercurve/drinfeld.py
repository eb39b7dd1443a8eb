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
and the check, as identities over F_{p^2}, of the coordinate chains
that take the generic component to its quotient models.
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
    """An element a of F_{p^2} with a not in F_p but a^2 in F_p."""
    F2 = field_create(p)
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
    if F2.p != p:
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
    basis_p = [e.frobenius() for e in basis]
    rhs = list(a.coords)
    for x in F2.elements():
        if x.is_zero():
            continue  # 0 - 0 = a is impossible for a != 0
        xp = x.frobenius()
        cols = [xp * e - x * ep for e, ep in zip(basis, basis_p)]
        matrix = [[col.coords[i] for col in cols] for i in range(2)]
        sol = solve_affine_mod_p(matrix, rhs, p)
        if sol is not None:
            count += p ** len(sol[1])
    return count


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
    F_{p^2} point.  A draw takes A != 0, A' and B at random in F_{p^2}
    and B' = (A'B - 1)/A; a B' that misses A'B - AB' = 1 raises
    InconsistencyError.  lam, of order p + 1, is drawn once.

    Per draw: a random element of SL_2(F_p) and a random (p+1)-st root
    of unity preserve the source (else every family fails); the ns chain
    serves ns and ns+, and the s chain s and s+.  At a point of a finite
    field X^((p+1)/2) = V^(p+1) = V^p V, but that is not a formal
    identity: here it reads Frob(V) V, so the ns+ and s+ rows carry only
    the substitution X = V^2, Y = U V into the base chain's last
    identity.  A family's witness is the first draw (A, A', B) it
    rejects.
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
    lam = element_of_order(F, p + 1, rng)
    lam_p = lam.frobenius()
    half = F((p + 1) // 2)
    aN = lam_p * lam_p - lam * lam  # lam^-2 - lam^2, as lam^(p+1) = 1
    consts = (lam, lam_p, half, aN, (aN * half) ** 2, half * half)
    for _ in range(samples):
        A = F.random_element(rng)
        while A.is_zero():
            A = F.random_element(rng)
        A_p, B = F.random_element(rng), F.random_element(rng)
        B_p = (A_p * B - 1) * A.inverse()
        if A_p * B - A * B_p != 1:
            raise InconsistencyError(
                "quotient maps: B' = (A'B - 1)/A misses A'B - AB' = 1 at a draw "
                "(p = %d)" % p)
        for family in _rejecting_families(p, consts, A, A_p, B, B_p, rng):
            check = checks[family]
            if check.passed:
                check.passed = False
                check.witness = (A, A_p, B)
    return checks


def _rejecting_families(p, consts, A, A_p, B, B_p, rng):
    """The Cartan families that the draw (A, A', B, B') fails: all four
    when one of the source's symmetries moves it off, else those whose
    chain breaks.  Draws the random special-linear and root-of-unity
    actions from rng.  `consts` holds lam, lam^p and the chains'
    constants: 1/2, aN = lam^-2 - lam^2, (aN/2)^2 and (1/2)^2."""
    lam, lam_p, half, aN, aN_half_sq, half_sq = consts

    def on_source(x, x_p, y, y_p):
        return x_p * y - x * y_p == 1

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
        if not on_source(ga * A + gc * B, ga * A_p + gc * B_p,
                         gb * A + gd * B, gb * A_p + gd * B_p):
            return CARTAN_FAMILIES
    # lam has order p + 1, so lam^-r = lam^((-r) mod (p + 1))
    root_inv = lam ** (-rng.randrange(p + 1) % (p + 1))
    root_inv_p = root_inv.frobenius()
    if not on_source(root_inv * A, root_inv_p * A_p, root_inv * B, root_inv_p * B_p):
        return CARTAN_FAMILIES

    rejected = []
    # the ns chain; ns+ continues it.  Frob takes lam to lam^p and lam^p
    # back to lam
    atilde, btilde = lam * A + lam_p * B, lam_p * A + lam * B
    atilde_p, btilde_p = lam_p * A_p + lam * B_p, lam * A_p + lam_p * B_p
    u1 = atilde_p * atilde
    V = atilde * btilde
    V_norm = atilde_p * btilde_p * V  # Frob(V) V
    U = u1 - aN * half
    if (u1 - btilde_p * btilde != aN
            or not (u1 * u1 - V_norm - aN * u1).is_zero()
            or U * U != V_norm + aN_half_sq):
        rejected += ["ns", "ns+"]
    else:
        X, Y = V * V, U * V
        if Y * Y != X * (V_norm + aN_half_sq):
            rejected.append("ns+")
    # the s chain; s+ continues it
    u = A_p * A.inverse()  # alpha^p / alpha
    V, V_p = A * B, A_p * B_p
    V_norm = V_p * V
    U = u * V - half
    if (not (V_p - u * u * V + u).is_zero()
            or U * U != V_norm + half_sq):
        rejected += ["s", "s+"]
    else:
        X, Y = V * V, U * V
        if Y * Y != X * (V_norm + half_sq):
            rejected.append("s+")
    return rejected
