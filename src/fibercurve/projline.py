"""The projective line P^1(F_p) and subgroups of PGL_2(F_p).

Transforms are 2x2 matrices mod p up to scalars, stored with the first
nonzero entry normalized to 1 so each class has a unique hashable
representative.  The action on points is by column vectors,
(x : y) -> (a x + b y : c x + d y).

Cycle counts of an element on a coset space H\\G come in two flavours:
an explicit breadth-first transversal when G is small enough to hold in
memory, and a fixed-point count over powers of the element when G is
the full PSL_2(F_p) (whose conjugacy data is classical).  The two are
asserted equal on overlapping inputs in the test suite.
"""

from __future__ import annotations

from .ffield import inverse_mod, is_prime

SUBGROUP_CAP = 10 ** 5


class GroupError(ValueError):
    pass


class ProjPoint:
    """A point of P^1(F_p): finite value t or the point at infinity."""

    __slots__ = ("p", "t")

    def __init__(self, p: int, t):
        self.p = p
        self.t = None if t is None else t % p

    @classmethod
    def infinity(cls, p: int) -> "ProjPoint":
        return cls(p, None)

    def is_infinity(self) -> bool:
        return self.t is None

    def sort_key(self):
        # finite points by residue, infinity last
        return (1, 0) if self.t is None else (0, self.t)

    def __eq__(self, other):
        return (
            isinstance(other, ProjPoint) and self.p == other.p and self.t == other.t
        )

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __hash__(self):
        return hash((self.p, self.t))

    def __repr__(self):
        return "oo" if self.t is None else str(self.t)


def all_points(p: int):
    """The p+1 points of P^1(F_p) in canonical order."""
    return [ProjPoint(p, t) for t in range(p)] + [ProjPoint.infinity(p)]


class ProjTransform:
    """An element of PGL_2(F_p) in scalar-normalized form."""

    __slots__ = ("p", "m")

    def __init__(self, p: int, a, b, c, d):
        a, b, c, d = a % p, b % p, c % p, d % p
        if (a * d - b * c) % p == 0:
            raise GroupError("matrix is singular mod %d" % p)
        for pivot in (a, b, c, d):
            if pivot:
                inv = inverse_mod(pivot, p)
                a, b, c, d = a * inv % p, b * inv % p, c * inv % p, d * inv % p
                break
        self.p = p
        self.m = (a, b, c, d)

    @classmethod
    def identity(cls, p: int) -> "ProjTransform":
        return cls(p, 1, 0, 0, 1)

    def det(self) -> int:
        a, b, c, d = self.m
        return (a * d - b * c) % self.p

    def trace(self) -> int:
        return (self.m[0] + self.m[3]) % self.p

    def is_identity(self) -> bool:
        return self.m == (1, 0, 0, 1)

    def in_psl2(self) -> bool:
        """Whether the class lies in PSL_2 (determinant a square mod scalars)."""
        return pow(self.det(), (self.p - 1) // 2, self.p) == 1

    def __mul__(self, other: "ProjTransform") -> "ProjTransform":
        p = self.p
        a, b, c, d = self.m
        e, f, g, h = other.m
        return ProjTransform(p, a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def inverse(self) -> "ProjTransform":
        a, b, c, d = self.m
        return ProjTransform(self.p, d, -b, -c, a)

    def __call__(self, point: ProjPoint) -> ProjPoint:
        return act(self, point)

    def projective_order(self) -> int:
        g = self
        n = 1
        while not g.is_identity():
            g = g * self
            n += 1
            if n > self.p * (self.p + 1):
                raise GroupError("order computation runaway")
        return n

    def has_projective_order_2(self) -> bool:
        return self.trace() == 0 and not self.is_identity()

    def has_projective_order_3(self) -> bool:
        t, d = self.trace(), self.det()
        return t * t % self.p == d and not self.is_identity()

    def is_unipotent(self) -> bool:
        # nonscalar with a double eigenvalue; projective order p
        t, d = self.trace(), self.det()
        return t * t % self.p == 4 * d % self.p and not self.is_identity()

    def __eq__(self, other):
        return isinstance(other, ProjTransform) and self.p == other.p and self.m == other.m

    def __lt__(self, other):
        return self.m < other.m

    def __hash__(self):
        return hash((self.p, self.m))

    def __repr__(self):
        return "[[%d,%d],[%d,%d]]" % self.m


def act(g: ProjTransform, point: ProjPoint) -> ProjPoint:
    """Column-vector action of PGL_2 on P^1."""
    p = g.p
    a, b, c, d = g.m
    if point.is_infinity():
        x, y = 1, 0
    else:
        x, y = point.t, 1
    nx, ny = (a * x + b * y) % p, (c * x + d * y) % p
    if ny == 0:
        return ProjPoint.infinity(p)
    return ProjPoint(p, nx * inverse_mod(ny, p))


class SubgroupTable:
    """A finite subgroup of PGL_2(F_p), closed element list."""

    def __init__(self, p: int, elements, gens=None):
        self.p = p
        self.elements = tuple(sorted(set(elements)))
        self.element_set = frozenset(self.elements)
        self.gens = tuple(gens or ())
        self.order = len(self.elements)

    def __contains__(self, g: ProjTransform) -> bool:
        return g in self.element_set

    def __le__(self, other) -> bool:
        return self.element_set <= other.element_set

    def __iter__(self):
        return iter(self.elements)

    def intersect_psl2(self) -> "SubgroupTable":
        return SubgroupTable(self.p, [g for g in self.elements if g.in_psl2()])

    def __repr__(self):
        return "SubgroupTable(p=%d, order=%d)" % (self.p, self.order)


def generate_subgroup(gens, cap: int = SUBGROUP_CAP) -> SubgroupTable:
    """Breadth-first closure of a nonempty generator list."""
    gens = list(gens)
    if not gens:
        raise GroupError("empty generator list")
    p = gens[0].p
    if any(g.p != p for g in gens):
        raise GroupError("generators over different primes")
    identity = ProjTransform.identity(p)
    seen = {identity}
    queue = [identity]
    while queue:
        nxt = []
        for x in queue:
            for g in gens:
                y = x * g
                if y not in seen:
                    seen.add(y)
                    if len(seen) > cap:
                        raise GroupError("subgroup closure exceeds cap %d" % cap)
                    nxt.append(y)
        queue = nxt
    return SubgroupTable(p, seen, gens)


class Orbit:
    """An H-orbit on P^1(F_p) with its isotropy order."""

    __slots__ = ("points", "isotropy_order", "representative")

    def __init__(self, points, isotropy_order):
        pts = tuple(sorted(points))
        self.points = pts
        self.isotropy_order = isotropy_order
        self.representative = pts[0]

    def __len__(self):
        return len(self.points)

    def __contains__(self, point):
        return point in self.points

    def __repr__(self):
        return "Orbit(%r, isotropy=%d)" % (list(self.points), self.isotropy_order)


def orbits(H: SubgroupTable):
    """Orbit decomposition of P^1(F_p) under H.

    Orbits are listed with the canonically smallest member first, and the
    orbit-stabilizer identity |orbit| * isotropy = |H| is asserted for
    every orbit before returning.
    """
    p = H.p
    remaining = set(all_points(p))
    out = []
    for start in all_points(p):
        if start not in remaining:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for pt in frontier:
                for g in H.gens or H.elements:
                    q = act(g, pt)
                    if q not in orbit:
                        orbit.add(q)
                        nxt.append(q)
            frontier = nxt
        rep = min(orbit)
        stab = sum(1 for g in H.elements if act(g, rep) == rep)
        assert len(orbit) * stab == H.order, "orbit-stabilizer identity failed"
        out.append(Orbit(orbit, stab))
        remaining -= orbit
    assert sum(len(o) for o in out) == p + 1
    return out


def stabilizer(H: SubgroupTable, point: ProjPoint) -> SubgroupTable:
    return SubgroupTable(H.p, [g for g in H.elements if act(g, point) == point])


# ---------------------------------------------------------------------------
# coset spaces and cycle counts
# ---------------------------------------------------------------------------


class PSL2Handle:
    """The full PSL_2(F_p), represented without materializing elements."""

    def __init__(self, p: int):
        if not is_prime(p) or p <= 3:
            raise GroupError("p must be a prime > 3")
        self.p = p
        self.order = p * (p - 1) * (p + 1) // 2

    def __contains__(self, g: ProjTransform) -> bool:
        return g.p == self.p and g.in_psl2()

    def as_table(self, cap: int = SUBGROUP_CAP) -> SubgroupTable:
        p = self.p
        gens = [ProjTransform(p, 1, 1, 0, 1), ProjTransform(p, 0, -1, 1, 0)]
        table = generate_subgroup(gens, cap=cap)
        assert table.order == self.order
        return table

    def __repr__(self):
        return "PSL2(%d)" % self.p


def _coset_transversal(G: SubgroupTable, H: SubgroupTable):
    """Representatives and membership map for the right cosets H\\G."""
    coset_of = {}
    reps = []
    for g in G.elements:
        if g in coset_of:
            continue
        idx = len(reps)
        reps.append(g)
        for h in H.elements:
            coset_of[h * g] = idx
    return reps, coset_of


def coset_cycle_counts(G, H: SubgroupTable, g: ProjTransform) -> int:
    """Number of cycles of g acting on the right cosets H\\G.

    The count only depends on the cyclic group generated by g, never on
    the coset representatives.  For the lazy full-PSL_2 handle the count
    is obtained by counting fixed cosets of each power of g, which only
    requires the classical conjugacy data of PSL_2(F_p); g is restricted
    to projective order 2, 3 or p there.
    """
    if isinstance(G, PSL2Handle):
        return _cycle_count_psl2(G, H, g)
    if not H <= G:
        raise GroupError("H is not contained in G")
    if g not in G:
        raise GroupError("g is not an element of G")
    reps, coset_of = _coset_transversal(G, H)
    n = len(reps)
    image = [coset_of[reps[i] * g] for i in range(n)]
    seen = [False] * n
    cycles = 0
    for i in range(n):
        if seen[i]:
            continue
        cycles += 1
        j = i
        while not seen[j]:
            seen[j] = True
            j = image[j]
    return cycles


def _order_class_size_in(H: SubgroupTable, kind: str) -> int:
    if kind == "2":
        return sum(1 for h in H.elements if h.has_projective_order_2())
    if kind == "3":
        return sum(1 for h in H.elements if h.has_projective_order_3())
    if kind == "p":
        return sum(1 for h in H.elements if h.is_unipotent())
    raise GroupError("unsupported order kind %r" % kind)


def _cycle_count_psl2(G: PSL2Handle, H: SubgroupTable, g: ProjTransform) -> int:
    """Cycles of g on H\\PSL_2(F_p) for g of projective order 2, 3 or p.

    Uses the orbit-counting identity: the number of cycles of <g> equals
    the average over powers g^j of the number of fixed cosets, and a
    coset Hx is fixed by t exactly when x t x^{-1} lies in H.  Counting
    such x reduces to the size of the PSL_2 centralizer of t times the
    number of H-elements in the class of t.  For orders 2 and 3 there is
    a single class; the two unipotent classes together are hit equally
    often by the powers of a p-element.
    """
    p = G.p
    if H.p != p:
        raise GroupError("prime mismatch")
    for h in H.elements:
        if h not in G:
            raise GroupError("H is not contained in PSL2")
    if g not in G:
        raise GroupError("g is not an element of PSL2")
    n, rem = divmod(G.order, H.order)
    if rem:
        raise GroupError("|H| does not divide |PSL2|")
    if g.has_projective_order_2():
        cent = p - 1 if p % 4 == 1 else p + 1
        fixed = cent * _order_class_size_in(H, "2")
        assert fixed % H.order == 0
        total = n + fixed // H.order
        assert total % 2 == 0
        return total // 2
    if g.has_projective_order_3():
        cent = (p - 1) // 2 if p % 3 == 1 else (p + 1) // 2
        fixed = cent * _order_class_size_in(H, "3")
        assert fixed % H.order == 0
        total = n + 2 * (fixed // H.order)
        assert total % 3 == 0
        return total // 3
    if g.is_unipotent():
        # powers of g run through both unipotent classes (p-1)/2 times each
        unip = _order_class_size_in(H, "p")
        fixed_sum = p * (p - 1) // 2 * unip
        assert fixed_sum % H.order == 0
        total = n + fixed_sum // H.order
        assert total % p == 0
        return total // p
    raise GroupError("lazy path supports projective orders 2, 3 and p only")


# ---------------------------------------------------------------------------
# Cartan subgroups and their normalizers, as PGL_2 images
# ---------------------------------------------------------------------------


def first_nonsquare(p: int) -> int:
    for d in range(2, p):
        if pow(d, (p - 1) // 2, p) == p - 1:
            return d
    raise GroupError("no nonsquare found")


def cartan_nonsplit(p: int, normalizer: bool = False) -> SubgroupTable:
    """Image in PGL_2(F_p) of a nonsplit Cartan subgroup (or its normalizer).

    Realized as multiplication by F_{p^2}^* on the basis (1, sqrt(d)) for
    d the first nonsquare: matrices [[a, b d], [b, a]].  The normalizer
    adds conjugation, [[1, 0], [0, -1]].
    """
    d = first_nonsquare(p)
    elems = []
    for a in range(p):
        for b in range(p):
            if a == 0 and b == 0:
                continue
            if (a * a - d * b * b) % p == 0:
                continue
            elems.append(ProjTransform(p, a, b * d, b, a))
    w = ProjTransform(p, 1, 0, 0, -1)
    if normalizer:
        elems = elems + [g * w for g in elems]
    table = SubgroupTable(p, elems)
    assert table.order == (2 * (p + 1) if normalizer else p + 1)
    return table


def cartan_split(p: int, normalizer: bool = False) -> SubgroupTable:
    """Image in PGL_2(F_p) of a split Cartan subgroup (or its normalizer)."""
    elems = [ProjTransform(p, a, 0, 0, 1) for a in range(1, p)]
    w = ProjTransform(p, 0, 1, 1, 0)
    if normalizer:
        elems = elems + [g * w for g in elems]
    table = SubgroupTable(p, elems)
    assert table.order == (2 * (p - 1) if normalizer else p - 1)
    return table


def borel(p: int) -> SubgroupTable:
    """Image in PGL_2(F_p) of the upper-triangular Borel subgroup."""
    elems = [
        ProjTransform(p, a, b, 0, 1) for a in range(1, p) for b in range(p)
    ]
    table = SubgroupTable(p, elems)
    assert table.order == p * (p - 1)
    return table
