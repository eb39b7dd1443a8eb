"""The projective line P^1(F_p) and subgroups of PGL_2(F_p), on plain ints.

A point of P^1(F_p) is an int 0..p: x < p is the finite point (x : 1)
and p is the point at infinity (1 : 0), so int order lists the finite
points by residue and infinity last.  An element of PGL_2(F_p) is the
entry tuple (a, b, c, d) of a matrix mod p scaled so that its first
nonzero entry is 1; each class has exactly one such tuple, so tuple
equality, hashing and order are those of the classes.  Neither carries
its prime: every function takes p first.  The action on points is by
column vectors, (x : y) -> (a x + b y : c x + d y).

The cycle counts of the elements of orders 2, 3 and p on the coset
space H'\\PSL_2(F_p), with H' the part of H in PSL_2, come from one pass
over H: each element's determinant, looked up in one table of the
squares mod p, places it in PSL_2, its trace places it in its class, and
the classical conjugacy data of PSL_2(F_p) turn the class sizes into
fixed-coset counts; no coset is ever listed.  The test suite checks them
against an explicit coset transversal at small p.  The Cartan images
are generators of normalized tuples read off each torus's parametrization,
and orbit images divide through one table of inverses.
"""

from __future__ import annotations

from .ffield import (InconsistencyError, first_nonsquare, inverse_table, is_prime,
                     square_table)

SUBGROUP_CAP = 10 ** 5

IDENTITY = (1, 0, 0, 1)


class GroupError(ValueError):
    pass


def point_str(p: int, x: int) -> str:
    """A point as printed: "oo" for infinity, else its residue."""
    return "oo" if x == p else str(x)


def _normalized(p: int, a: int, b: int, c: int, d: int):
    # residues of a nonsingular matrix, scaled to a leading 1; a = 0
    # forces b != 0
    if a:
        if a != 1:
            inv = pow(a, -1, p)
            b, c, d = b * inv % p, c * inv % p, d * inv % p
        return (1, b, c, d)
    inv = pow(b, -1, p)
    return (0, 1, c * inv % p, d * inv % p)


def transform(p: int, a: int, b: int, c: int, d: int):
    """The element of PGL_2(F_p) of [[a, b], [c, d]], normalized."""
    a, b, c, d = a % p, b % p, c % p, d % p
    if (a * d - b * c) % p == 0:
        raise GroupError("matrix is singular mod %d" % p)
    return _normalized(p, a, b, c, d)


def mul(p: int, g, h):
    """The product g h."""
    a, b, c, d = g
    e, f, u, v = h
    return _normalized(
        p, (a * e + b * u) % p, (a * f + b * v) % p,
        (c * e + d * u) % p, (c * f + d * v) % p,
    )


def projective_order(p: int, g) -> int:
    h, n = g, 1
    while h != IDENTITY:
        if n > p:  # no element of PGL_2(F_p) has order above p + 1
            raise GroupError("order computation runaway")
        h, n = mul(p, h, g), n + 1
    return n


class SubgroupTable:
    """A finite subgroup of PGL_2(F_p): its elements once each, in the
    order listed (a repeat is dropped, so `order` counts classes)."""

    def __init__(self, p: int, elements, gens=None):
        self.p = p
        self.elements = tuple(dict.fromkeys(elements))
        self.gens = tuple(gens or ())
        self.order = len(self.elements)

    def __repr__(self):
        return "SubgroupTable(p=%d, order=%d)" % (self.p, self.order)


def generate_subgroup(p: int, gens, cap: int = SUBGROUP_CAP) -> SubgroupTable:
    """Breadth-first closure of a nonempty generator list, in reach order."""
    gens = list(gens)
    if not gens:
        raise GroupError("empty generator list")
    seen = {IDENTITY: None}  # a dict keeps the order of insertion
    queue = [IDENTITY]
    while queue:
        nxt = []
        for x in queue:
            for g in gens:
                y = mul(p, x, g)
                if y not in seen:
                    seen[y] = None
                    if len(seen) > cap:
                        raise GroupError("subgroup closure exceeds cap %d" % cap)
                    nxt.append(y)
        queue = nxt
    return SubgroupTable(p, seen, gens)


class Orbit:
    """An H-orbit on P^1(F_p) with the stabilizer of its least point."""

    __slots__ = ("points", "stabilizer", "isotropy_order", "representative")

    def __init__(self, points, stabilizer):
        pts = tuple(sorted(points))
        self.points = pts
        self.stabilizer = tuple(stabilizer)
        self.isotropy_order = len(self.stabilizer)
        self.representative = pts[0]

    def __len__(self):
        return len(self.points)

    def __contains__(self, point):
        return point in self.points

    def __repr__(self):
        return "Orbit(%r, isotropy=%d)" % (list(self.points), self.isotropy_order)


def orbits(H: SubgroupTable):
    """Orbit decomposition of P^1(F_p) under H.

    Each orbit is the image of its least point x under the whole of H,
    and the elements that fix x are its stabilizer, so one pass of H
    gives both, each image divided through one `inverse_table(p)`.
    Orbits are listed with the smallest member first.  The
    orbit-stabilizer identity |orbit| * isotropy = |H| is checked for
    every orbit, and the orbits' cover of the line, before returning.
    """
    p = H.p
    inv = inverse_table(p)
    remaining = set(range(p + 1))
    out = []
    for x in range(p + 1):
        if x not in remaining:
            continue
        u, v = (1, 0) if x == p else (x, 1)
        images = [(a * u + b * v) * inv[y] % p if (y := (c * u + d * v) % p) else p
                  for a, b, c, d in H.elements]
        orbit = set(images)
        stab = [g for g, y in zip(H.elements, images) if y == x]
        if len(orbit) * len(stab) != H.order:
            raise InconsistencyError(
                "orbit-stabilizer: the orbit of %s has %d points and isotropy "
                "%d, but the group has order %d (p = %d)"
                % (point_str(p, x), len(orbit), len(stab), H.order, p))
        out.append(Orbit(orbit, stab))
        remaining -= orbit
    covered = sum(len(o) for o in out)
    if covered != p + 1:
        raise InconsistencyError(
            "orbits: the orbits cover %d points of P^1, not %d (p = %d)"
            % (covered, p + 1, p))
    return out


# ---------------------------------------------------------------------------
# coset spaces and cycle counts
# ---------------------------------------------------------------------------


def coset_cycle_counts(p: int, elements) -> dict:
    """Cycle counts on the right cosets H'\\PSL_2(F_p), H' = H meet PSL_2.

    Returns {1: n, 2: c_2, 3: c_3, p: c_p} with n = [PSL_2 : H'] and c_e
    the number of cycles of an element of order e on the n cosets; the
    count depends on e alone.  One pass over `elements`, which yields each
    element of H once, takes each one's trace t and determinant d, keeps
    those with d a square (H'), read off one `square_table(p)` rather than
    a `pow` per element, and sorts them by class: t = 0 is order 2, t^2 = d
    order 3, and t^2 = 4d, other than the identity, order p.  By the
    orbit-counting identity c_e is the average over the powers g^j of an
    order-e element g of the number of fixed cosets, and a coset H'x is
    fixed by t exactly when x t x^{-1} lies in H', so each nontrivial power
    fixes |C(t)| |H' meet class(t)| / |H'| cosets, with C(t) the
    centralizer of t in PSL_2.  PSL_2(F_p) has one class of elements of
    order 2 and one of order 3; the p - 1 nontrivial powers of a p-element
    run through both unipotent classes (p - 1)/2 times each, and each class
    holds half of the unipotents of H'.
    """
    if not is_prime(p) or p <= 3:
        raise GroupError("p must be a prime > 3")
    squares = square_table(p)
    size = order = 0
    in_class = {2: 0, 3: 0, p: 0}
    for size, g in enumerate(elements, 1):
        a, b, c, d = g
        det = (a * d - b * c) % p
        if not squares[det]:
            continue
        order += 1
        t = (a + d) % p
        tt = t * t % p
        if t == 0:
            in_class[2] += 1
        elif tt == det:
            in_class[3] += 1
        elif tt == 4 * det % p and g != IDENTITY:
            in_class[p] += 1
    if not order:
        raise GroupError("H has no element in PSL_2")
    # [PGL_2 : PSL_2] = 2, so H' has index 1 or 2 in H
    if order != size and 2 * order != size:
        raise InconsistencyError(
            "coset cycle counts: |H'| = %d is neither |H| = %d nor half of it "
            "(p = %d)" % (order, size, p))
    n, rem = divmod(p * (p * p - 1) // 2, order)
    if rem:
        raise GroupError("|H'| does not divide |PSL2|")
    in_class[p] //= 2
    centralizer = {2: p - 1 if p % 4 == 1 else p + 1,
                   3: (p - 1) // 2 if p % 3 == 1 else (p + 1) // 2,
                   p: p}
    counts = {1: n}
    for e, size in in_class.items():
        fixed, rem = divmod(centralizer[e] * size, order)
        if rem:
            raise InconsistencyError(
                "coset cycle counts: an order-%d element fixes %d/%d cosets, "
                "not a whole number (p = %d)" % (e, centralizer[e] * size, order, p))
        total = n + (e - 1) * fixed
        if total % e:
            raise InconsistencyError(
                "coset cycle counts: an order-%d element has %d/%d cycles, "
                "not a whole number (p = %d)" % (e, total, e, p))
        counts[e] = total // e
    return counts


# ---------------------------------------------------------------------------
# Cartan subgroups and their normalizers, as PGL_2 images
# ---------------------------------------------------------------------------


def cartan_nonsplit(p: int, normalizer: bool = False):
    """The elements of the image in PGL_2(F_p) of a nonsplit Cartan
    subgroup (or its normalizer), yielded once each.

    Realized as multiplication by F_{p^2}^* on the basis (1, sqrt(d)), d
    the first nonsquare: up to scalars the matrices [[a, b d], [b, a]] are
    the p + 1 classes (0, 1, 1/d, 0) (a = 0) and (1, b d, b, 1) for b in
    F_p (divide by a).  Their products with [[1, 0], [0, -1]], for the
    normalizer, are (0, 1, -1/d, 0) and (1, -b d, b, -1).
    """
    d = first_nonsquare(p)
    e = pow(d, -1, p)
    yield (0, 1, e, 0)
    yield from ((1, b * d % p, b, 1) for b in range(p))
    if normalizer:
        yield (0, 1, p - e, 0)
        yield from ((1, -b * d % p, b, p - 1) for b in range(p))


def cartan_split(p: int, normalizer: bool = False):
    """The elements of the image in PGL_2(F_p) of a split Cartan subgroup
    (or its normalizer), yielded once each: the diagonal matrices up to
    scalars are (1, 0, 0, u), u in F_p^*, and their products with the
    swap [[0, 1], [1, 0]], for the normalizer, are (0, 1, u, 0)."""
    yield from ((1, 0, 0, u) for u in range(1, p))
    if normalizer:
        yield from ((0, 1, u, 0) for u in range(1, p))


def borel(p: int) -> SubgroupTable:
    """Image in PGL_2(F_p) of the upper-triangular Borel subgroup."""
    return SubgroupTable(p, [transform(p, a, b, 0, 1) for a in range(1, p) for b in range(p)])
