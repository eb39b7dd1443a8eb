"""The general component-group path, the tests' oracle for the Cartan one.

Any dual graph's component group is the Smith normal form of a relation
matrix built on the graph itself, with one generator per vertex but one
and per edge, one relation per edge and per vertex but one
(`component_group`).  It checks the group order against the
spanning-tree count of the regular model's graph, a weighted
matrix-tree (Kirchhoff) determinant of the dual graph.  Its Smith
normal form, of a square nonsingular integer matrix of any size, works
modulo the determinant; the program's own is a closed form on the
banana lengths, so the two sides share no algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, groupby
from math import gcd, lcm, prod

from fibercurve.ffield import InconsistencyError
from fibercurve.neron import AbelianInvariants, GraphError


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


def runs_of(factors) -> tuple:
    """The (factor, multiplicity) runs of an ascending factor list."""
    return tuple((d, len(list(same))) for d, same in groupby(factors))


def expand(runs) -> list:
    """The factors of (factor, multiplicity) runs, one by one."""
    return [d for d, k in runs for _ in range(k)]


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


def component_group(graph: MetrizedGraph) -> AbelianInvariants:
    """Invariant factors of the component group of any graph's model,
    from the Smith normal form of its relation matrix."""
    try:
        diag = smith_normal_form_diagonal(_relation_matrix(graph))
    except GraphError:  # det = tree count, 0 exactly when disconnected
        raise GraphError("graph must be connected") from None
    invariants = AbelianInvariants(runs_of(d for d in diag if d > 1))
    trees = spanning_tree_count(graph)
    if invariants.order != trees:
        raise InconsistencyError(
            "component group: Smith normal form order %d disagrees with the "
            "spanning-tree count %d" % (invariants.order, trees)
        )
    return invariants


def fiber_metrized_graph(fiber) -> MetrizedGraph:
    """MetrizedGraph view of a Cartan-family FiberGraph."""
    if not fiber.incidence_complete:
        raise GraphError(
            "no metrized graph: incidence for family %r is not fully "
            "specified" % fiber.family
        )
    return MetrizedGraph.build([v.name for v in fiber.vertices], fiber.edges)
