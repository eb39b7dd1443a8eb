"""Component groups of Neron models of Cartan fibers.

An edge of width w in the dual graph stands for a chain of w - 1
rational curves in the minimal regular model.  The component group is
the critical group of that model's graph.

A Cartan fiber's dual graph is the complete bipartite graph K_{s,m}
between its horizontals and its verticals, and the edge (x, j) has
width e_x w_j.  The length pairing on H_1 is then a Kronecker product
A (x) B of the banana matrices A = e_1 J + diag(e_2..e_s) and
B = w_1 J + diag(w_2..w_m), so the group is the sum of Z/(a_i b_k) over
their Smith normal forms (`component_group`).

coker(A) is cyclic of order banana_order(e).  The e list is generic
first, with at most one 2 and one 3, so e_1 = 1 once s >= 3.  Then
A = J + D with D = diag(d_i) = diag(e_2..e_s), and deleting row r and
column c != r of A leaves a minor of +-(the product of the d_i with i
not in {r, c}).  With r and c at the non-unit d_i (at any index where
there are fewer than two), that minor is +-1, so the first s - 2
invariant factors are 1 and the last is |det A| = banana_order(e).
For s <= 2, A has at most one row.  Any other e list raises GraphError.
Only B, of m - 1 <= 3 rows, goes through `smith_normal_form_diagonal`,
and the group order is checked against the closed-form tree count
banana(e)^(m-1) banana(w)^(s-1) of K_{s,m} (`spanning_tree_count`);
a disagreement raises InconsistencyError.  The tests keep the general
path, the Smith normal form of a relation matrix on any dual graph
checked against a Kirchhoff determinant, as this one's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import gcd, lcm, prod

from .ffield import InconsistencyError


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class AbelianInvariants:
    """Invariant factors d_1 | d_2 | ... | d_r, each >= 2."""

    factors: tuple

    def order(self) -> int:
        # one power per distinct factor: a product of the factors one by
        # one is quadratic in the digits of the order
        return prod(d ** self.factors.count(d) for d in set(self.factors))

    def is_trivial(self) -> bool:
        return not self.factors

    def __post_init__(self):
        prev = None
        for d in self.factors:
            if d < 2:
                raise GraphError("invariant factors must be >= 2")
            if prev is not None and d % prev:
                raise GraphError("divisibility chain broken")
            prev = d

    def describe(self) -> str:
        if not self.factors:
            return "trivial"
        return " x ".join("Z/%d" % d for d in self.factors)


def _abs_det(matrix) -> int:
    """|det| of a square integer matrix by fraction-free (Bareiss) elimination.

    A pivot equal to the previous one leaves the rows with a zero below
    it unchanged, so the column's first such entry is the pivot if any.
    """
    m = [list(row) for row in matrix]
    prev = 1
    for k in range(len(m)):
        rows = [i for i in range(k, len(m)) if m[i][k]]
        if not rows:
            return 0
        i = next((i for i in rows if abs(m[i][k]) == prev), rows[0])
        top = m[i] if m[i][k] > 0 else [-x for x in m[i]]
        m[i], m[k] = m[k], top
        a, tail = top[k], top[k + 1:]
        for row in m[k + 1:]:
            if row[k] or a != prev:
                b = row[k]
                row[k + 1:] = [(a * x - b * y) // prev for x, y in zip(row[k + 1:], tail)]
        prev = a
    return prev


def _reduce(row, d):
    return [v if -d < v < d else v % d for v in row]


def _fold(block, j, d):
    """Clear column j below the top row by Euclid on rows, modulo d."""
    top, rest = block[0], []
    for row in block[1:]:
        while row[j]:
            if top[j]:
                q = row[j] // top[j]
                row = _reduce([x - q * y for x, y in zip(row, top)], d)
            if row[j]:
                top, row = row, top
        rest.append(row)
    return [top] + rest


def smith_normal_form_diagonal(matrix) -> list:
    """Diagonal of the Smith normal form of a square nonsingular integer matrix.

    The row lattice contains d Z^n for d = |det|, so the reduction runs
    mod d and no entry exceeds it (Kannan-Bachem 1979, Domich-Kannan-
    Trotter 1987).  Pivots that are units mod d come first, one column at
    a time; without any, a factor common to the block is split off, or
    Euclid on rows and columns makes a gcd pivot.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise GraphError("Smith normal form needs a square matrix")
    d = _abs_det(matrix)
    if not d:
        raise GraphError("Smith normal form needs a nonsingular matrix")
    block = [_reduce(row, d) for row in matrix]
    diag, scale, j, tried = [], 1, 0, 0
    while block:
        j %= len(block)
        units = [i for i, row in enumerate(block) if gcd(row[j], d) == 1]
        if units:
            i = min(units, key=lambda i: (abs(block[i][j]) != 1, -block[i].count(0)))
            if abs(block[i][j]) != 1:
                inv = pow(block[i][j], -1, d)
                block[i] = [x * inv % d for x in block[i]]
            tried = 0
        elif tried < len(block):
            j, tried = j + 1, tried + 1
            continue
        else:
            c = gcd(d, *chain.from_iterable(block))
            if c > 1:
                scale *= c
                d //= c ** len(block)
                block = [[x // c for x in row] for row in block]
                tried = 0
                continue
            i = 0
        block[0], block[i] = block[i], block[0]
        block = _fold(block, j, d)
        # until the pivot divides its row, fold the row in as a column
        while gcd(*block[0]) != abs(block[0][j]):
            block = [list(col) for col in zip(*block)]
            block[0], block[j] = block[j], block[0]
            j = 0
            block = _fold(block, j, d)
        g = gcd(block[0][j], d)
        diag.append(scale * g)
        d //= g
        block = [row[:j] + row[j + 1:] for row in block[1:]]
    # the diagonal need not be a divisibility chain yet
    return _divisibility_chain(diag)


def _divisibility_chain(values) -> list:
    """The diagonal entries of the Smith normal form of diag(values):
    as many, the same product, each dividing the next."""
    rest = [x for x in values if x > 1]
    for i in range(len(rest)):
        for k in range(i + 1, len(rest)):
            g = gcd(rest[i], rest[k])
            rest[i], rest[k] = g, rest[i] // g * rest[k]
    return [1] * (len(values) - len(rest)) + rest


def _insert_factor(chain, x) -> list:
    """The Smith form of diag(chain, x), chain a divisibility chain d_i:
    d'_i = lcm(d_(i-1), gcd(d_i, x)) with d_0 = 1 and d_(n+1) = 0, which
    places x's exponent among the sorted exponents at each prime."""
    return [lcm(prev, gcd(d, x)) for prev, d in zip([1] + chain, chain + [0])]


def component_group(fiber) -> AbelianInvariants:
    """Invariant factors of the component group of a Cartan fiber's model.

    Every horizontal x must meet every vertical j once, with width
    e_x w_j, where w_j is the vertical's `width`.  The group is the sum
    of Z/(a_i b_k) over SNF(A) = (1, ..., 1, banana_order(e)) and SNF(B);
    see the module docstring.  SNF(B) repeated s - 2 times is already a
    chain, so each a b_k is inserted into it in time linear in s.
    """
    horizontals, verticals = fiber.horizontals(), fiber.verticals()
    if not horizontals or not fiber.incidence_complete:
        raise GraphError("not a Cartan dual graph: family %r" % fiber.family)
    edges = fiber.edges
    if len(set(edges)) != len(edges) or set(edges) != {
            (h.name, v.name, h.e * v.width) for h in horizontals for v in verticals}:
        raise GraphError("not a Cartan dual graph: the edges are not one per "
                         "horizontal x and vertical j, of width e_x w_j")
    es = [h.e for h in horizontals]
    ws = [v.width for v in verticals]
    if len(es) > 2 and (es[0] != 1 or len(es) - es.count(1) > 2):
        raise GraphError("no closed-form Smith normal form of A for e = %r" % (es,))
    b_matrix = [[ws[0] + (i == k) * w for k in range(len(ws) - 1)]
                for i, w in enumerate(ws[1:])]
    snf_b = smith_normal_form_diagonal(b_matrix) if b_matrix else []
    diag = [b for b in snf_b for _ in range(len(es) - 2)]
    if len(es) > 1:
        for b in snf_b:
            diag = _insert_factor(diag, banana_order(es) * b)
    invariants = AbelianInvariants(tuple(d for d in diag if d > 1))
    trees = spanning_tree_count(es, ws)
    if invariants.order() != trees:
        raise InconsistencyError(
            "component group: Smith normal form order %d disagrees with the "
            "closed-form spanning-tree count %d (family %s, p = %d)"
            % (invariants.order(), trees, fiber.family, fiber.p)
        )
    return invariants


def spanning_tree_count(es, ws) -> int:
    """Spanning trees of K_{s,m} with the edge (x, j) subdivided into
    e_x w_j unit edges: banana(e)^(m-1) banana(w)^(s-1)."""
    return banana_order(es) ** (len(ws) - 1) * banana_order(ws) ** (len(es) - 1)


def banana_order(lengths) -> int:
    """Order of the critical group of two vertices joined by paths of the
    given lengths: the sum over i of the product of the others."""
    whole = prod(lengths)
    return sum(whole // length for length in lengths)


@dataclass
class PredictionCheck:
    """Outcome of the nonsplit-normalizer component-group prediction."""

    p: int
    invariants: AbelianInvariants
    expected: AbelianInvariants
    verdict: str  # "match" | "mismatch" | "vacuous-trivial" | "trivial"


def expected_invariants_nsplus(p: int, s: int):
    """(Z/8nZ) x (Z/8Z)^(S-2) with n = num((p-1)/12), for p = 1 mod 4
    and S >= 2; None marks the degenerate S <= 1 case."""
    if p % 4 != 1:
        return AbelianInvariants(())
    if s <= 1:
        return None
    n = (p - 1) // gcd(p - 1, 12)
    return AbelianInvariants(tuple([8] * (s - 2) + [8 * n]))


def component_group_prediction(p: int, fiber=None) -> PredictionCheck:
    """The ns+ component group at p against its predicted invariants;
    `fiber` is the ns+ fiber at p when the caller has already built it."""
    if fiber is None:
        from .atlas import special_fiber

        fiber = special_fiber("ns+", p)
    elif (fiber.family, fiber.p) != ("ns+", p):
        raise ValueError("expected the ns+ fiber at p = %d" % p)
    invariants = component_group(fiber)
    expected = expected_invariants_nsplus(p, fiber.supersingular.s)
    if p % 4 == 3:
        verdict = "trivial" if invariants.is_trivial() else "mismatch"
        expected = AbelianInvariants(())
    elif expected is None:
        verdict = "vacuous-trivial" if invariants.is_trivial() else "mismatch"
        expected = AbelianInvariants(())
    else:
        verdict = "match" if invariants == expected else "mismatch"
    return PredictionCheck(p, invariants, expected, verdict)
