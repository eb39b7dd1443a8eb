"""Component groups of Neron models from metrized dual graphs.

An edge of width w in the dual graph stands for a chain of w - 1
rational curves in the minimal regular model.  The component group is
the critical group of that model's graph.

A Cartan fiber's dual graph is the complete bipartite graph K_{s,m}
between its horizontals and its verticals, and the edge (x, j) has
width e_x w_j.  The length pairing on H_1 is then a Kronecker product
A (x) B of two banana matrices of sizes s - 1 and m - 1, so the group is
the sum of Z/(a_i b_k) over the Smith normal forms of A and B
(`cartan_component_group`).  Any other graph goes through the general
path, which is also the oracle for the Cartan one: the Smith normal
form of a relation matrix built on the dual graph itself, with one
generator per vertex but one and per edge, one relation per edge and
per vertex but one (`component_group`).

Both paths check the group order against the spanning-tree count of
the regular model's graph, a weighted matrix-tree determinant of the
dual graph, on every call; a disagreement raises InconsistencyError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm, prod


class GraphError(ValueError):
    pass


class InconsistencyError(Exception):
    """Two independent computations of the same quantity disagree."""


@dataclass(frozen=True)
class MetrizedGraph:
    vertices: tuple
    edges: tuple  # (u, v, length)

    @classmethod
    def build(cls, vertices, edges):
        vertices = tuple(vertices)
        seen = set(vertices)
        if len(seen) != len(vertices):
            raise GraphError("duplicate vertex names")
        norm = []
        for u, v, length in edges:
            if u not in seen or v not in seen:
                raise GraphError("edge endpoint not a vertex")
            if u == v:
                raise GraphError("loops are not allowed")
            if length < 1:
                raise GraphError("edge lengths must be >= 1")
            norm.append((u, v, int(length)))
        return cls(vertices, tuple(norm))


@dataclass(frozen=True)
class AbelianInvariants:
    """Invariant factors d_1 | d_2 | ... | d_r, each >= 2."""

    factors: tuple

    def order(self) -> int:
        out = 1
        for d in self.factors:
            out *= d
        return out

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


def _relation_matrix(graph: MetrizedGraph):
    """Relations of the component group on the unsubdivided graph.

    Generators x_v per vertex but the last and t_e per edge u -> v of
    width w; relations x_v - x_u - w t_e per edge and, per vertex but the
    last, the signed sum of its t_e (the inner vertices of each chain of
    the regular model, eliminated).
    """
    index = {v: i for i, v in enumerate(graph.vertices)}
    nv = len(graph.vertices) - 1
    size = nv + len(graph.edges)
    rows = [[0] * size for _ in range(size)]
    for k, (u, v, w) in enumerate(graph.edges):
        rows[k][nv + k] = -w
        for end, sign in ((v, 1), (u, -1)):
            if index[end] < nv:
                rows[k][index[end]] = sign
                rows[len(graph.edges) + index[end]][nv + k] = sign
    return rows


def spanning_tree_count(graph: MetrizedGraph) -> int:
    """Spanning trees of the graph with each edge of width w subdivided.

    A tree of the subdivision omits one unit edge on each path it does
    not use, so the count is (prod w) / L^(V-1) times the weighted
    matrix-tree determinant with conductance L / w, L = lcm of widths.
    """
    index = {v: i for i, v in enumerate(graph.vertices)}
    n = len(graph.vertices) - 1
    big = lcm(*(w for _, _, w in graph.edges))
    lap = [[0] * n for _ in range(n)]
    for u, v, w in graph.edges:
        for i, k in ((index[u], index[v]), (index[v], index[u])):
            if i < n:
                lap[i][i] += big // w
                if k < n:
                    lap[i][k] -= big // w
    trees, rem = divmod(prod(w for _, _, w in graph.edges) * _abs_det(lap), big ** n)
    if rem:
        raise InconsistencyError(
            "spanning-tree count: the weighted matrix-tree determinant is "
            "not divisible by lcm(widths)^(V-1)"
        )
    return trees


def _checked_against_trees(diag, graph, where="") -> AbelianInvariants:
    """The group with Smith diagonal `diag`, after checking its order
    against the spanning-tree count of `graph`; the two come from
    different matrices."""
    invariants = AbelianInvariants(tuple(d for d in diag if d > 1))
    trees = spanning_tree_count(graph)
    if invariants.order() != trees:
        raise InconsistencyError(
            "component group: Smith normal form order %d disagrees with the "
            "spanning-tree count %d%s" % (invariants.order(), trees, where)
        )
    return invariants


def component_group(graph: MetrizedGraph) -> AbelianInvariants:
    """Invariant factors of the component group of any graph's model,
    from the Smith normal form of its relation matrix."""
    try:
        diag = smith_normal_form_diagonal(_relation_matrix(graph))
    except GraphError:  # det = tree count, 0 exactly when disconnected
        raise GraphError("graph must be connected") from None
    return _checked_against_trees(diag, graph)


def cartan_component_group(fiber) -> AbelianInvariants:
    """Invariant factors of the component group of a Cartan fiber's model.

    Every horizontal x must meet every vertical j once, with width
    e_x w_j.  The fundamental cycles of the spanning tree made of the
    star at the first horizontal and the edges to the first vertical
    pair as A (x) B, A = e_1 J + diag(e_2..e_s) and
    B = w_1 J + diag(w_2..w_m), and SNF(A (x) B) = SNF(A) (x) SNF(B).
    """
    graph = fiber_metrized_graph(fiber)
    horizontals = [h.name for h in fiber.horizontals()]
    verticals = [v.name for v in fiber.verticals()]
    es = [h.e for h in fiber.horizontals()]
    width = {(a, b) if a in horizontals else (b, a): w for a, b, w, _ in fiber.edges}
    if not horizontals or len(width) != len(fiber.edges) or set(width) != {
        (x, j) for x in horizontals for j in verticals
    }:
        raise GraphError("not a Cartan dual graph: some horizontal does not "
                         "meet every vertical exactly once")
    ws = [width[(horizontals[0], j)] // es[0] for j in verticals]
    if any(width[(x, j)] != e * w for x, e in zip(horizontals, es)
           for j, w in zip(verticals, ws)):
        raise GraphError("not a Cartan dual graph: a width is not e_x w_j")

    def banana_snf(ls):
        matrix = [[ls[0] + (i == k) * l for k in range(len(ls) - 1)]
                  for i, l in enumerate(ls[1:])]
        return smith_normal_form_diagonal(matrix) if matrix else []

    diag = _divisibility_chain([a * b for a in banana_snf(es) for b in banana_snf(ws)])
    where = " (family %s, p = %d)" % (fiber.family, fiber.p)
    return _checked_against_trees(diag, graph, where)


def banana_order(lengths) -> int:
    """Order of the critical group of two vertices joined by paths of the
    given lengths: (prod l_i) * (sum 1/l_i)."""
    total = Fraction(0)
    prod = 1
    for l in lengths:
        prod *= l
        total += Fraction(1, l)
    value = prod * total
    assert value.denominator == 1
    return int(value)


def fiber_metrized_graph(fiber) -> MetrizedGraph:
    """MetrizedGraph view of a Cartan-family FiberGraph."""
    if not fiber.incidence_complete:
        raise GraphError(
            "no metrized graph: incidence for family %r is not fully "
            "specified" % fiber.family
        )
    return MetrizedGraph.build(
        [v.name for v in fiber.vertices],
        [(a, b, w) for a, b, w, _ in fiber.edges],
    )


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
    n = Fraction(p - 1, 12).numerator
    return AbelianInvariants(tuple([8] * (s - 2) + [8 * n]))


def component_group_prediction(p: int) -> PredictionCheck:
    from .atlas import special_fiber

    fiber = special_fiber("ns+", p)
    invariants = cartan_component_group(fiber)
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
