"""The general component-group path, the tests' oracle for the Cartan one.

Any dual graph's component group is the Smith normal form of a relation
matrix built on the graph itself, with one generator per vertex but one
and per edge, one relation per edge and per vertex but one
(`component_group`).  It checks the group order against the
spanning-tree count of the regular model's graph, a weighted
matrix-tree (Kirchhoff) determinant of the dual graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm, prod

from fibercurve.ffield import InconsistencyError
from fibercurve.neron import (
    AbelianInvariants,
    GraphError,
    _abs_det,
    smith_normal_form_diagonal,
)


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
    invariants = AbelianInvariants(tuple(d for d in diag if d > 1))
    trees = spanning_tree_count(graph)
    if invariants.order() != trees:
        raise InconsistencyError(
            "component group: Smith normal form order %d disagrees with the "
            "spanning-tree count %d" % (invariants.order(), trees)
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
