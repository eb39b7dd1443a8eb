"""Special fibers as metrized dual graphs, with genus bookkeeping.

For each family (Cartan subgroups and their normalizers, plus the three
exceptional kinds) and prime p this module assembles the component
inventory of the semistable special fiber: vertical Igusa-quotient
parts, horizontal components with their equations, crossing widths, and
the toric rank of the Jacobian's reduction.

Sanity is enforced from two directions.  The supersingular counts come
from the classical closed form and are cross-checkable against a walk
on the supersingular 2-isogeny graph over F_{p^2}
(`isogeny_supersingular_data`), which a point-count oracle and a
Hasse-polynomial oracle check in turn in the tests.  Total genera come
from a coset-action count (Riemann-Hurwitz over the j-line with
ramification orders 2, 3 and p), checked against closed forms for the
Cartan families, and the identity

    g(X) = sum of component genera + toric rank

is solved for the one unknown Igusa-quotient genus and checked against
its Riemann-Hurwitz closed form (`igusa_genus`).

Exceptional families expose component counts, quotient types and local
widths only: the sources state which parts exist and how wide their
crossings are, but not a per-component incidence table, so no edges and
no toric rank are emitted for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from math import gcd
from operator import add

from .ffield import InconsistencyError, is_prime
from .projline import (
    SubgroupTable,
    borel,
    cartan_nonsplit,
    cartan_split,
    coset_cycle_counts,
    first_nonsquare,
)
from .exceptional import (
    KINDS as EXCEPTIONAL_KINDS,
    build_exceptional,
    orbit_table,
)
from .drinfeld import (
    CARTAN_FAMILIES,
    SuperellipticCurve,
    cartan_drinfeld,
    exceptional_drinfeld,
)

LABEL_PM = "Ig(p)/{+-1}"
LABEL_C4 = "Ig(p)/C4"
LABEL_C6 = "Ig(p)/C6"
LABEL_C8 = "Ig(p)/C8"
LABEL_C10 = "Ig(p)/C10"
LABEL_P1 = "P^1"

QUOTIENT_WIDTH = {LABEL_PM: 2, LABEL_C4: 4, LABEL_C6: 6, LABEL_C8: 8, LABEL_C10: 10}
ISOTROPY_LABEL = {1: LABEL_PM, 2: LABEL_C4, 3: LABEL_C6, 4: LABEL_C8, 5: LABEL_C10}


# ---------------------------------------------------------------------------
# supersingular bookkeeping
# ---------------------------------------------------------------------------


def genus_x0(p: int) -> int:
    """Genus of the degree-(p+1) modular cover of the j-line."""
    r = p % 12
    if r == 1:
        return (p - 13) // 12
    if r == 5:
        return (p - 5) // 12
    if r == 7:
        return (p - 7) // 12
    return (p + 1) // 12


@dataclass(frozen=True)
class SupersingularData:
    p: int
    s: int
    j0_supersingular: bool
    j1728_supersingular: bool

    @classmethod
    def of_j_invariants(cls, p, js):
        """The data of the set js of supersingular j, as pairs (j0, j1)
        of coordinates in F_{p^2}."""
        return cls(p=p, s=len(js), j0_supersingular=(0, 0) in js,
                   j1728_supersingular=(1728 % p, 0) in js)

    def e_values(self):
        """Automorphism order e per supersingular point: generic first."""
        out = [1] * (self.s - self.j0_supersingular - self.j1728_supersingular)
        if self.j1728_supersingular:
            out.append(2)
        if self.j0_supersingular:
            out.append(3)
        return out


def supersingular_data(p: int) -> SupersingularData:
    """Closed-form count of supersingular j-invariants and the 0/1728 flags."""
    if not is_prime(p) or p <= 3:
        raise ValueError("p must be a prime > 3")
    return SupersingularData(
        p=p,
        s=genus_x0(p) + 1,
        j0_supersingular=(p % 3 == 2),
        j1728_supersingular=(p % 4 == 3),
    )


class _Fp2:
    """Minimal F_{p^2} arithmetic on pairs (x, y) = x + y w, w^2 = d, for
    the supersingular oracles: the isogeny walk, and the point-count and
    Hasse oracles that the tests check it against.

    Deliberately independent of the ffield module so the oracles and the
    production arithmetic cannot share a bug.
    """

    def __init__(self, p):
        self.p = p
        self.d = first_nonsquare(p)
        # p^2 - 1 = 2^e m with m odd, and c = z^m for a nonsquare z, for
        # sqrt; x + w is a nonsquare for (p + 1)/2 of the x in F_p
        self.e, self.m = 0, p * p - 1
        while self.m % 2 == 0:
            self.e, self.m = self.e + 1, self.m // 2
        z = next((x, 1) for x in range(p) if not self.is_square((x, 1)))
        self.c = self.pow(z, self.m)

    def mul(self, a, b):
        p, d = self.p, self.d
        return ((a[0] * b[0] + d * a[1] * b[1]) % p, (a[0] * b[1] + a[1] * b[0]) % p)

    def add(self, a, b):
        p = self.p
        return ((a[0] + b[0]) % p, (a[1] + b[1]) % p)

    def scale(self, c, a):
        p = self.p
        return (c * a[0] % p, c * a[1] % p)

    def norm(self, a):
        # a^(p+1) = (x + y w)(x - y w)
        return (a[0] * a[0] - self.d * a[1] * a[1]) % self.p

    def inv(self, a):
        # (x + y w)^-1 = (x - y w) / (x^2 - d y^2)
        ninv = pow(self.norm(a), self.p - 2, self.p)
        return (a[0] * ninv % self.p, -a[1] * ninv % self.p)

    def pow(self, a, n):
        out = (1, 0)
        while n:
            if n & 1:
                out = self.mul(out, a)
            a, n = self.mul(a, a), n >> 1
        return out

    def is_square(self, a):
        # a^((p^2-1)/2) = N(a)^((p-1)/2)
        return pow(self.norm(a), (self.p - 1) // 2, self.p) != self.p - 1

    def sqrt(self, a):
        """A square root of a, or None when a is not a square: Tonelli-Shanks
        in the cyclic group F_{p^2}^* of order 2^e m."""
        if not self.is_square(a):
            return None
        if a == (0, 0):
            return a
        one, e, c = (1, 0), self.e, self.c
        r = self.pow(a, (self.m - 1) // 2)
        root = self.mul(r, a)
        t = self.mul(r, root)  # a^m
        while t != one:
            # the least i with t^(2^i) = 1; then c^(2^(e-i-1)) fixes the root
            i, u = 1, self.mul(t, t)
            while u != one:
                i, u = i + 1, self.mul(u, u)
            for _ in range(e - i - 1):
                c = self.mul(c, c)
            root, c = self.mul(root, c), self.mul(c, c)
            t, e = self.mul(t, c), i
        return root

    def conj(self, a):
        # a^p = x - y w, since w^p = d^((p-1)/2) w = -w
        return (a[0], -a[1] % self.p)

    def elements(self):
        for x in range(self.p):
            for y in range(self.p):
                yield (x, y)

    def conj_representatives(self):
        """One element of each pair {a, a^p}: the one with y <= (p-1)/2."""
        for x in range(self.p):
            for y in range((self.p + 1) // 2):
                yield (x, y)


# Phi_2(X, Y) = X^3 + Y^3 - X^2 Y^2 + 1488 (X^2 Y + X Y^2) - 162000 (X^2 + Y^2)
#   + 40773375 X Y + 8748000000 (X + Y) - 157464000000000, as the
# coefficients of Y^2, Y and 1 (Y^3's is 1), each by rising powers of X
PHI2 = ((-162000, 1488, -1),
        (8748000000, 40773375, 1488),
        (-157464000000000, 8748000000, -162000, 1))

# (modulus, residues of p, start j, a known root of Phi_2(j, Y))
WALK_STARTS = ((3, (2,), 0, 54000),
               (4, (3,), 1728, 1728),
               (8, (5, 7), 8000, 8000),
               (7, (3, 5, 6), -3375, -3375))


def isogeny_supersingular_data(p: int) -> SupersingularData:
    """Isogeny-walk oracle: the supersingular j found by a walk on the
    2-isogeny graph over F_{p^2} (Mestre, "La methode des graphes", 1986).

    Every supersingular j lies in F_{p^2}, a curve 2-isogenous to a
    supersingular one is supersingular, and the supersingular 2-isogeny
    graph is connected, so a walk from one supersingular j along the
    roots of Phi_2(j, Y) visits exactly the s supersingular j.  The walk
    starts where a supersingular j and one of its neighbours are known:
    j = 0 for p = 2 mod 3, with Phi_2(0, Y) = (Y - 54000)^3, or a CM j
    with an endomorphism of degree 2, hence a loop, which is
    supersingular exactly where p is inert in its CM field: 1728 (Z[i],
    p = 3 mod 4), 8000 (Z[sqrt -2], p = 5, 7 mod 8) and -3375
    (Z[(1 + sqrt -7)/2], p = 3, 5, 6 mod 7).  At a vertex j reached from
    r, Phi_2(j, Y)/(Y - r) is a quadratic whose roots are j's other
    neighbours.  r needs no visit of its own: it is the vertex the walk
    came from, the start itself for a loop, or, from j = 0, the
    quadratic's double root 54000.  A prime with none of these starts
    (193, 337, 457 and 673 below 1000) raises ValueError.
    """
    return SupersingularData.of_j_invariants(p, _isogeny_supersingular_js(p))


def _isogeny_supersingular_js(p: int) -> set:
    """The supersingular j that isogeny_supersingular_data visits."""
    if not is_prime(p) or p <= 3:
        raise ValueError("p must be a prime > 3")
    start = next(((j, r) for m, residues, j, r in WALK_STARTS if p % m in residues), None)
    if start is None:
        raise ValueError("no known supersingular start for the 2-isogeny walk "
                         "at p = %d" % p)
    K = _Fp2(p)
    j, r = ((x % p, 0) for x in start)
    rows = [[(c % p, 0) for c in row] for row in PHI2]
    seen, todo = {j}, [(j, r)]
    while todo:
        j, r = todo.pop()
        c2, c1, c0 = (_horner(K, row, j) for row in rows)
        # synthetic division by Y - r: Y^2 + b Y + c, remainder c0 + r c
        b = K.add(c2, r)
        c = K.add(c1, K.mul(r, b))
        root = K.sqrt(K.add(K.mul(b, b), K.scale(-4, c)))
        if K.add(c0, K.mul(r, c)) != (0, 0) or root is None:
            raise InconsistencyError(
                "isogeny walk: %s is not a root of Phi_2(%s, Y), or its other "
                "roots are not in F_{p^2} (p = %d)" % (r, j, p))
        half = (p + 1) // 2
        for y in (K.scale(half, K.add(root, K.scale(-1, b))),
                  K.scale(-half, K.add(root, b))):
            if y not in seen:
                seen.add(y)
                todo.append((y, j))
    return seen


def _horner(K, coeffs, x):
    # the polynomial with the given coefficients, by rising powers, at x
    out = (0, 0)
    for c in reversed(coeffs):
        out = K.add(K.mul(out, x), c)
    return out


# ---------------------------------------------------------------------------
# the walk's oracles: point counts and the Hasse polynomial
# ---------------------------------------------------------------------------


def brute_supersingular_data(p: int) -> SupersingularData:
    """Point-count oracle: for every j in F_{p^2}, count a curve with
    that j over F_{p^2}, and test whether the trace vanishes mod p.

    #E(F_{p^2}) for y^2 = x^3 + a x + b is 1 + the sum over x of the
    number of square roots of x^3 + a x + b.  With x = x0 + x1 w
    (w^2 = d), each coordinate of x^3 + a x + b is the sum of three
    residues: one of x^3, one of a x0 and one of a x1 w + b.  The root
    counts are therefore tabled over [0, 3p)^2 (index i 3p + k holds
    the count at (i mod p, k mod p)), and no sum is reduced mod p.
    For every row x1 the indices of x^3 over x0 are built once; for
    every j the indices of a x0 over x0 form one list, and a x1 w + b
    is one offset per row.  A row's contribution is then one C-level
    sum over x0.  All of it is built with _Fp2's arithmetic.

    Only one j of each Frobenius pair j = (j0, j1), j^p = (j0, -j1) is
    counted, the one with j1 <= (p-1)/2, over every x.  Frobenius is a
    ring automorphism of F_{p^2} that fixes F_p, and _curve_with_j has
    coefficients in F_p, so the curve for j^p is the conjugate of the
    curve for j; conjugation maps the F_{p^2}-points of one bijectively
    onto the other's, so both have the same count, and j and j^p are
    supersingular together.
    """
    return SupersingularData.of_j_invariants(p, _brute_supersingular_js(p))


def _brute_supersingular_js(p: int) -> set:
    """The supersingular j that brute_supersingular_data counts."""
    K = _Fp2(p)
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
    for j in K.conj_representatives():
        (a0, a1), (b0, b1) = _curve_with_j(K, j)
        da1 = K.d * a1
        ax0 = [a0 * x0 % p * m + a1 * x0 % p for x0 in range(p)]
        n = 1  # the point at infinity
        for x1, cube_row in enumerate(cube_rows):
            offset = (da1 * x1 + b0) % p * m + (a0 * x1 + b1) % p
            n += sum(map(table.__getitem__, map(add, map(add, cube_row, ax0), repeat(offset))))
        if (q + 1 - n) % p == 0:
            ss.update((j, K.conj(j)))
    return ss


def _curve_with_j(K, j):
    # y^2 = x^3 + 3j(1728-j) x + 2j(1728-j)^2 has j-invariant j;
    # supersingularity does not depend on the twist
    if j == (0, 0):
        return (0, 0), (1, 0)
    if j == (1728 % K.p, 0):
        return (1, 0), (0, 0)
    u = K.add((1728 % K.p, 0), K.scale(-1, j))  # 1728 - j
    c = K.mul(j, u)
    return K.scale(3, c), K.scale(2, K.mul(c, u))


def hasse_supersingular_data(p: int) -> SupersingularData:
    """Second oracle: roots over F_{p^2} of the degree-(p-1)/2 polynomial
    sum C(m, i)^2 L^i (m = (p-1)/2), whose roots are exactly the
    supersingular Legendre parameters; each root is mapped to its j.

    H is evaluated once per class of L under the S3 action
    L -> 1 - L, 1/L and under Frobenius L -> L^p: H's roots are the
    supersingular L, and supersingularity depends on j alone, which is
    constant on each S3-orbit and taken to its conjugate by Frobenius
    (H has coefficients in F_p).  A class of roots adds the j of L and
    of L^p.
    """
    return SupersingularData.of_j_invariants(p, _hasse_supersingular_js(p))


def _hasse_supersingular_js(p: int) -> set:
    """The supersingular j that hasse_supersingular_data counts."""
    K = _Fp2(p)
    m = (p - 1) // 2
    coeffs = [1] * (m + 1)
    c = 1
    for i in range(1, m + 1):
        c = c * (m - i + 1) % p * pow(i, p - 2, p) % p
        coeffs[i] = c * c % p
    coeffs.reverse()
    one = (1, 0)
    seen = {(0, 0), one}
    ss = set()
    for lam in K.conj_representatives():
        if lam in seen:
            continue
        # the S3-orbit: L, 1 - L, 1/L, 1/(1 - L), 1 - 1/L, 1 - 1/(1 - L)
        mu = K.add(one, K.scale(-1, lam))
        orbit = [lam, mu, K.inv(lam), K.inv(mu)]
        orbit += [K.add(one, K.scale(-1, x)) for x in orbit[2:]]
        seen.update(orbit)
        seen.update(map(K.conj, orbit))
        # Horner in coordinates: (u + v w) <- (u + v w)(l0 + l1 w) + c
        l0, l1 = lam
        dl1 = K.d * l1
        u = v = 0
        for c in coeffs:
            u, v = (u * l0 + v * dl1 + c) % p, (u * l1 + v * l0) % p
        if u == 0 and v == 0:
            ss.update((_legendre_j(K, lam), _legendre_j(K, K.conj(lam))))
    return ss


def _legendre_j(K, lam):
    # j = 256 (L^2 - L + 1)^3 / (L^2 (L - 1)^2)
    one = (1, 0)
    l2 = K.mul(lam, lam)
    num = K.add(K.add(l2, K.scale(-1, lam)), one)
    num = K.mul(K.mul(num, num), num)
    den = K.mul(l2, K.mul(K.add(lam, K.scale(-1, one)), K.add(lam, K.scale(-1, one))))
    return K.scale(256 % K.p, K.mul(num, K.inv(den)))


# ---------------------------------------------------------------------------
# fiber graphs
# ---------------------------------------------------------------------------


@dataclass
class ComponentDescriptor:
    name: str
    role: str  # vertical-igusa | vertical-rational | horizontal-drinfeld
    label: str
    count: int = 1
    curve: SuperellipticCurve = None
    genus: int = None
    genus_provenance: str = "unknown"
    e: int = None
    width: int = None  # crossing width at e = 1 (Cartan), local width (exceptional)


@dataclass
class FiberGraph:
    family: str
    p: int
    supersingular: SupersingularData
    vertices: list
    edges: list  # (from_name, to_name, width)
    incidence_complete: bool = True
    notes: list = field(default_factory=list)
    group: SubgroupTable = None  # the family's group image, if the builder made it

    def verticals(self):
        return [v for v in self.vertices if v.role.startswith("vertical")]

    def horizontals(self):
        return [v for v in self.vertices if v.role == "horizontal-drinfeld"]

    def toric_rank(self):
        """First Betti number E - V + 1 of the dual graph; None when the
        incidence is not fully specified.  The special fiber of a proper
        model of a geometrically connected curve is connected (Zariski's
        connectedness theorem), so the graph has one component."""
        if not self.incidence_complete:
            return None
        return len(self.edges) - len(self.vertices) + 1

    def widths(self):
        return sorted(w for _, _, w in self.edges)

    def to_json_dict(self):
        vertical = [
            {
                "label": v.label,
                "count": v.count,
                "genus": v.genus,
                "genus_provenance": v.genus_provenance,
            }
            for v in self.verticals()
        ]
        horizontal = [
            {
                "equation": v.curve.text() if v.curve else None,
                "genus": v.genus,
                "e": v.e,
            }
            for v in self.horizontals()
        ]
        return {
            "family": self.family,
            "p": self.p,
            "s": self.supersingular.s,
            "vertical": vertical,
            "horizontal": horizontal,
            "edges": [
                {"from": a, "to": b, "width": w} for a, b, w in self.edges
            ],
            "toric_rank": self.toric_rank(),
            "total_genus": total_genus(self.family, self.p, self.group),
        }

    def to_dot(self) -> str:
        lines = ["graph fiber {"]
        for v in self.vertices:
            genus = "?" if v.genus is None else str(v.genus)
            label = "%s:%s:%s" % (v.role, v.label, genus)
            if v.count != 1:
                label += " x%d" % v.count
            lines.append('  "%s" [label="%s"];' % (v.name, label))
        for a, b, w in self.edges:
            lines.append('  "%s" -- "%s" [label="%d"];' % (a, b, w))
        lines.append("}")
        return "\n".join(lines)


def special_fiber(family: str, p: int) -> FiberGraph:
    """The special-fiber inventory for a family at p.

    Cartan families get the full metrized dual graph.  Exceptional
    families get the vertical inventory with local widths; their edge
    incidence is not specified by the classification, so none is
    emitted.
    """
    if family in CARTAN_FAMILIES:
        return _cartan_fiber(family, p)
    if family in EXCEPTIONAL_KINDS:
        return _exceptional_fiber(family, p)
    raise ValueError("unknown family %r" % family)


def _cartan_fiber(family: str, p: int) -> FiberGraph:
    if not is_prime(p) or p <= 3:
        raise ValueError("p must be a prime > 3")
    ss = supersingular_data(p)
    if family in ("ns+", "s+") and p % 4 == 1:
        label, igusa = LABEL_C4, ("IgA", "IgB")
    else:
        label = LABEL_PM
        igusa = ("Ig",) if family in ("ns+", "s+") else ("Ig1", "Igd")
    rational = {"s": ("R1", "R2"), "s+": ("R",)}.get(family, ())
    # rational verticals first; w is the crossing width with e = 1
    vertices = [ComponentDescriptor(name, "vertical-rational", LABEL_P1, genus=0,
                                    genus_provenance="known", width=p - 1)
                for name in rational]
    vertices += [ComponentDescriptor(name, "vertical-igusa", label,
                                     width=QUOTIENT_WIDTH[label]) for name in igusa]
    igusa_first = vertices[len(rational):] + vertices[:len(rational)]
    # a horizontal's curve depends on its automorphism order e alone, so
    # each e's curve and genus are built once and shared
    shared = {}
    edges = []
    for idx, e in enumerate(ss.e_values(), start=1):
        if e not in shared:
            curve = cartan_drinfeld(family, p, e)
            line = curve.is_line()
            shared[e] = dict(label="P^1" if line else "Drinfeld", curve=curve,
                             genus=curve.genus(),
                             genus_provenance="known" if line else "equation", e=e)
        name = "D%d" % idx
        vertices.append(ComponentDescriptor(name, "horizontal-drinfeld", **shared[e]))
        edges += [(name, v.name, e * v.width) for v in igusa_first]
    notes = []
    if family == "ns+" and p % 4 == 3:
        notes.append(
            "single crossing per horizontal forced by the trivial homology "
            "of the dual graph (derived, not stated as a crossing count)"
        )
    graph = FiberGraph(family, p, ss, vertices, edges, notes=notes)
    toric, closed = graph.toric_rank(), toric_rank_closed_form(family, p)
    if toric != closed:
        raise InconsistencyError(
            "toric rank: the dual graph's first Betti number %d disagrees "
            "with the closed form %d (family %s, p = %d)" % (toric, closed, family, p)
        )
    return graph


def _exceptional_fiber(kind: str, p: int) -> FiberGraph:
    table = orbit_table(kind, p)
    ss = supersingular_data(p)
    # quotient type of each vertical pair is read off the orbit isotropy
    counts = {}
    for orbit in table.orbits:
        label = ISOTROPY_LABEL[orbit.isotropy_order]
        counts[label] = counts.get(label, 0) + 2
    vertices = []
    for label in (LABEL_PM, LABEL_C4, LABEL_C6, LABEL_C8, LABEL_C10):
        if counts.get(label):
            vertices.append(
                ComponentDescriptor(
                    name="Ig[%s]" % label,
                    role="vertical-igusa",
                    label=label,
                    count=counts[label],
                    width=QUOTIENT_WIDTH[label],
                )
            )
    if len(table.orbits) >= 2:
        curve = exceptional_drinfeld(table)
        vertices.append(
            ComponentDescriptor(
                name="D",
                role="horizontal-drinfeld",
                label="Drinfeld",
                count=0,  # per-point multiplicity not specified
                curve=curve,
                genus=curve.genus(),
                genus_provenance="equation",
            )
        )
    notes = [
        "horizontal components cross above each of the %d supersingular "
        "points; the per-component incidence is not specified, so no "
        "edges or toric rank are emitted" % ss.s
    ]
    return FiberGraph(kind, p, ss, vertices, edges=[],
                      incidence_complete=False, notes=notes, group=table.group)


# toric rank of each Cartan family by p mod 12: the rule as printed and
# its value in p and s = g(X_0(p)) + 1
TORIC_RANK_RULES = {
    **{("ns", r): ("s - 1", lambda p, s: s - 1) for r in (1, 5, 7, 11)},
    **{("s", r): ("3(s - 1)", lambda p, s: 3 * (s - 1)) for r in (1, 5, 7, 11)},
    ("ns+", 1): ("(p-13)/12", lambda p, s: (p - 13) // 12),
    ("ns+", 5): ("(p-5)/12", lambda p, s: (p - 5) // 12),
    ("ns+", 7): ("0", lambda p, s: 0),
    ("ns+", 11): ("0", lambda p, s: 0),
    ("s+", 1): ("(p-13)/6", lambda p, s: (p - 13) // 6),
    ("s+", 5): ("(p-5)/6", lambda p, s: (p - 5) // 6),
    ("s+", 7): ("(p-7)/12", lambda p, s: (p - 7) // 12),
    ("s+", 11): ("(p+1)/12", lambda p, s: (p + 1) // 12),
}


def toric_rank_closed_form(family: str, p: int) -> int:
    """Piecewise closed forms for the Cartan-family toric ranks."""
    if (family, p % 12) not in TORIC_RANK_RULES:
        raise ValueError("no closed form for family %r" % family)
    _, value = TORIC_RANK_RULES[family, p % 12]
    return value(p, genus_x0(p) + 1)


# ---------------------------------------------------------------------------
# the genus oracle
# ---------------------------------------------------------------------------


def family_group_image(family: str, p: int) -> SubgroupTable:
    """The image in PGL_2(F_p) of the subgroup defining the family."""
    if family == "ns":
        return cartan_nonsplit(p, normalizer=False)
    if family == "ns+":
        return cartan_nonsplit(p, normalizer=True)
    if family == "s":
        return cartan_split(p, normalizer=False)
    if family == "s+":
        return cartan_split(p, normalizer=True)
    if family == "x0":
        return borel(p)
    if family in EXCEPTIONAL_KINDS:
        return build_exceptional(family, p)
    raise ValueError("unknown family %r" % family)


def genus_oracle(H: SubgroupTable) -> int:
    """Geometric genus of the coarse curve attached to H <= PGL_2(F_p),
    with p = H.p.

    Riemann-Hurwitz over the j-line: with H' = H meet PSL_2 and
    n = [PSL_2 : H'], 2g - 2 = -2n + sum over e in {2, 3, p} of
    (n - c_e) = n - c_2 - c_3 - c_p, where c_e counts the cycles of an
    order-e element on the cosets.  One coset_cycle_counts call gives n
    and the c_e, and rejects a p that is not a prime > 3.  total_genus
    checks the result against genus_closed_form wherever one exists.
    """
    p = H.p
    counts = coset_cycle_counts(H)
    rhs = counts[1] - counts[2] - counts[3] - counts[p]
    if rhs % 2 or rhs < -2:
        raise InconsistencyError(
            "genus oracle: 2g - 2 = %d is odd or below -2 (p = %d)" % (rhs, p))
    return (rhs + 2) // 2


def genus_closed_form(family: str, p: int) -> int:
    """Closed forms for the total genera of the Cartan families and x0.

    With e = (-1/p) and t = (-3/p):
        ns+  (p^2 - 10p + 23 + 6e + 4t)/24  (Baran 2010)
        s+   (p^2 - 8p + 11 - 4t)/24
        s    1 + p(p+1)/12 - (1+e)/4 - (1+t)/3 - (p+1)/2
        ns   1 + p(p-1)/12 - (1-e)/4 - (1-t)/3 - (p-1)/2
        x0   genus_x0(p)
    The s and ns forms are computed over the common denominator 12.
    """
    e = 1 if p % 4 == 1 else -1
    t = 1 if p % 3 == 1 else -1
    if family == "ns+":
        return (p * p - 10 * p + 23 + 6 * e + 4 * t) // 24
    if family == "s+":
        return (p * p - 8 * p + 11 - 4 * t) // 24
    if family == "s":
        return (p * p - 5 * p - 1 - 3 * e - 4 * t) // 12
    if family == "ns":
        return (p * p - 7 * p + 11 + 3 * e + 4 * t) // 12
    if family == "x0":
        return genus_x0(p)
    raise ValueError("no closed form for family %r" % family)


def total_genus(family: str, p: int, group: SubgroupTable = None) -> int:
    """The genus oracle on the family's group image, or on `group` when
    the caller has already built that image."""
    genus = genus_oracle(group or family_group_image(family, p))
    if family not in EXCEPTIONAL_KINDS:
        closed = genus_closed_form(family, p)
        if genus != closed:
            raise InconsistencyError(
                "total genus: the coset count gives %d, the closed form %d "
                "(family %s, p = %d)" % (genus, closed, family, p))
    return genus


def igusa_genus(p: int, k: int) -> int:
    """Genus of the Igusa quotient Ig(p)/C_{2k}, for 2k | p - 1.

    Ig(p)/C_{2k} -> X(1) is cyclic of degree n = (p - 1)/(2k), with group
    F_p^*/C_{2k} acting on generators of ker(V: E^(p) -> E) (Igusa 1968;
    Katz-Mazur 1985, ch. 12).  By Riemann-Hurwitz: it is totally ramified
    over the s supersingular j, where ker V is trivial; over an ordinary
    j = 1728 (p = 1 mod 4) or 0 (p = 1 mod 3), the inertia Aut(E)/{+-1} of
    order h = 2 or 3 acts faithfully on ker V and has order h/gcd(h, k)
    modulo C_{2k}; the cusp splits completely, since on the Tate curve
    ker V is the Cartier dual of ker F = mu_p, the constant Z/p; nothing
    else ramifies, as ker V is etale over the ordinary locus.
    """
    if k < 1 or (p - 1) % (2 * k):
        raise ValueError("Ig(p)/C_%d needs %d | p - 1 (p = %d)" % (2 * k, 2 * k, p))
    n = (p - 1) // (2 * k)
    rhs = -2 * n + supersingular_data(p).s * (n - 1)
    if p % 4 == 1:
        rhs += n - n * gcd(2, k) // 2
    if p % 3 == 1:
        rhs += n - n * gcd(3, k) // 3
    return rhs // 2 + 1


# ---------------------------------------------------------------------------
# genus consistency
# ---------------------------------------------------------------------------


@dataclass
class ConsistencyReport:
    graph: FiberGraph
    total_genus: int
    toric_rank: int
    unknown_label: str
    derived_genus: int
    ok: bool


def consistency_report(family: str, p: int) -> ConsistencyReport:
    """Solve g(X) = sum of component genera + toric rank for the unknown
    Igusa-quotient genus and check it against igusa_genus.

    Every Cartan family whose fiber uses the same quotient at p is
    checked against the same closed form, so once each derived genus
    equals it the identity closes in all of them.  Inconsistencies are
    reported (ok = False), never adjusted: ok holds when the solved genus
    is a whole number, at least 0, and equal to the closed form.
    """
    if family not in CARTAN_FAMILIES:
        raise ValueError("the consistency identity applies to Cartan families only")
    graph = _cartan_fiber(family, p)
    total = total_genus(family, p)
    toric = graph.toric_rank()
    unknown = [v for v in graph.vertices if v.genus is None]
    labels = sorted({v.label for v in unknown})
    if len(labels) != 1:
        raise InconsistencyError(
            "consistency identity: unknown quotient genera %s, one expected "
            "(family %s, p = %d)" % (labels, family, p))
    label = labels[0]
    known = sum(v.genus for v in graph.vertices if v.genus is not None)
    derived, rem = divmod(total - toric - known, len(unknown))
    ok = rem == 0 and 0 <= derived == igusa_genus(p, QUOTIENT_WIDTH[label] // 2)
    return ConsistencyReport(graph=graph, total_genus=total, toric_rank=toric,
                             unknown_label=label, derived_genus=derived, ok=ok)
