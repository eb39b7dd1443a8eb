import dataclasses
import itertools
import math
import random

import pytest

from fibercurve.atlas import CARTAN_FAMILIES, special_fiber, supersingular_data
from fibercurve.ffield import is_prime
from fibercurve.neron import (
    AbelianInvariants,
    GraphError,
    banana_order,
    component_group,
    expected_invariants_nsplus,
    component_group_prediction,
    smith_normal_form_diagonal,
    spanning_tree_count,
)

import neron_oracle as oracle


def subdivide(graph):
    """The regular model's graph: each edge of width w as w unit edges."""
    vertices, edges = list(graph.vertices), []
    for idx, (u, v, w) in enumerate(graph.edges):
        chain = [u] + ["%s|%s#%d.%d" % (u, v, idx, j) for j in range(1, w)] + [v]
        vertices += chain[1:-1]
        edges += [(a, b, 1) for a, b in zip(chain, chain[1:])]
    return oracle.MetrizedGraph.build(vertices, edges)


def reduced_unit_laplacian(graph):
    """Laplacian of a unit-width graph without its last row and column."""
    index = {v: i for i, v in enumerate(graph.vertices)}
    n = len(graph.vertices)
    lap = [[0] * n for _ in range(n)]
    for u, v, _ in graph.edges:
        i, j = index[u], index[v]
        lap[i][i] += 1
        lap[j][j] += 1
        lap[i][j] -= 1
        lap[j][i] -= 1
    return [row[:-1] for row in lap[:-1]]


def determinant(m):
    """Laplace expansion along the first row; for small matrices only."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * determinant([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def brute_spanning_trees(graph):
    """Independent spanning-tree count: enumerate edge subsets."""
    n = len(graph.vertices)
    index = {v: i for i, v in enumerate(graph.vertices)}
    count = 0
    for subset in itertools.combinations(graph.edges, n - 1):
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                i = parent[i]
            return i

        ok = True
        for u, v, _ in subset:
            ru, rv = find(index[u]), find(index[v])
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        if ok:
            count += 1
    return count


def test_triangle_component_group():
    g = oracle.MetrizedGraph.build(["a", "b", "c"],
                                   [("a", "b", 1), ("b", "c", 1), ("c", "a", 1)])
    assert oracle.component_group(g).factors == (3,)
    assert brute_spanning_trees(subdivide(g)) == 3


def test_trees_have_trivial_group():
    g = oracle.MetrizedGraph.build(["a", "b", "c", "d"],
                                   [("a", "b", 5), ("b", "c", 7), ("b", "d", 2)])
    inv = oracle.component_group(g)
    assert inv.is_trivial() and inv.order() == 1


def test_component_group_rejects_disconnected():
    g = oracle.MetrizedGraph.build(["a", "b", "c", "d"],
                                   [("a", "b", 1), ("c", "d", 1)])
    with pytest.raises(GraphError):
        oracle.component_group(g)


def test_kirchhoff_against_brute_force_on_random_graphs():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randrange(3, 6)
        verts = ["v%d" % i for i in range(n)]
        edges = [("v%d" % i, "v%d" % (i + 1), rng.randrange(1, 4))
                 for i in range(n - 1)]
        for _ in range(rng.randrange(1, 4)):
            i, j = rng.sample(range(n), 2)
            edges.append(("v%d" % i, "v%d" % j, rng.randrange(1, 4)))
        g = oracle.MetrizedGraph.build(verts, edges)
        sub = subdivide(g)
        if len(sub.edges) > 18:
            continue  # keep the brute subset enumeration small
        inv = oracle.component_group(g)
        assert inv.order() == brute_spanning_trees(sub)


def test_banana_order_law():
    rng = random.Random(29)
    for _ in range(20):
        lengths = [rng.randrange(1, 10) for _ in range(rng.randrange(2, 6))]
        g = oracle.MetrizedGraph.build(["L", "R"], [("L", "R", l) for l in lengths])
        assert oracle.component_group(g).order() == banana_order(lengths)


def test_smith_normal_form_known_matrices():
    assert smith_normal_form_diagonal([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form_diagonal([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form_diagonal([[4, 0], [0, 6]]) == [2, 12]
    # invariant factors: d1 = gcd of entries, d1 d2 = gcd of 2x2 minors,
    # d1 d2 d3 = |det| = 624
    diag = smith_normal_form_diagonal([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert diag == [2, 2, 156]
    prev = None
    for d in diag:
        if prev:
            assert d % prev == 0
        prev = d


def test_smith_normal_form_divisibility_chain_random():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randrange(1, 5)
        m = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        if determinant(m) == 0:
            with pytest.raises(GraphError):
                smith_normal_form_diagonal(m)
            continue
        diag = smith_normal_form_diagonal(m)
        prev = None
        for d in diag:
            assert d >= 1
            if prev is not None:
                assert d % prev == 0
            prev = d


def test_smith_normal_form_against_determinantal_divisors():
    # d_1 ... d_k is the gcd of all k x k minors
    rng = random.Random(41)
    checked = 0
    while checked < 300:
        n = rng.randrange(1, 5)
        bound = rng.choice((1, 3, 9))
        m = [[rng.randrange(-bound, bound + 1) * rng.choice((1, 2, 6))
              for _ in range(n)] for _ in range(n)]
        if determinant(m) == 0:
            continue
        diag = smith_normal_form_diagonal(m)
        assert len(diag) == n
        prod = 1
        for k in range(1, n + 1):
            minors = [determinant([[m[r][c] for c in cols] for r in rows])
                      for rows in itertools.combinations(range(n), k)
                      for cols in itertools.combinations(range(n), k)]
            prod *= diag[k - 1]
            assert prod == math.gcd(*minors), (m, diag)
        checked += 1


def test_smith_normal_form_rejects_singular_and_non_square():
    for m in ([[2, 4], [1, 2]], [[0]], [[1, 2]], [[1], [2]]):
        with pytest.raises(GraphError):
            smith_normal_form_diagonal(m)


def test_spanning_tree_count_matches_determinant_banana():
    g = oracle.MetrizedGraph.build(["L", "R"], [("L", "R", 2), ("L", "R", 3)])
    assert oracle.spanning_tree_count(g) == 5  # subdivided: the cycle C_5
    assert brute_spanning_trees(subdivide(g)) == 5


def test_closed_form_tree_count_against_brute_force():
    # K_{s,m} with the edge (x, j) of width e_x w_j, subdivided
    assert spanning_tree_count([1, 2], [1, 3]) == 12  # the cycle C_12
    for es, ws in (([1], [2, 3]), ([1, 2], [1, 3]), ([1, 2], [2, 2]),
                   ([1, 1, 3], [1, 2]), ([1, 2], [1, 1, 2])):
        vertices = ["x%d" % i for i in range(len(es))] + ["j%d" % k for k in range(len(ws))]
        edges = [("x%d" % i, "j%d" % k, e * w)
                 for i, e in enumerate(es) for k, w in enumerate(ws)]
        graph = oracle.MetrizedGraph.build(vertices, edges)
        assert spanning_tree_count(es, ws) == brute_spanning_trees(subdivide(graph)), (es, ws)


def test_invariants_validation():
    with pytest.raises(GraphError):
        AbelianInvariants((1,))
    with pytest.raises(GraphError):
        AbelianInvariants((4, 6))  # 4 does not divide 6
    inv = AbelianInvariants((2, 4, 8))
    assert inv.order() == 64
    assert inv.describe() == "Z/2 x Z/4 x Z/8"


def test_nsplus_29_component_group():
    fiber = special_fiber("ns+", 29)
    inv = oracle.component_group(oracle.fiber_metrized_graph(fiber))
    assert inv.factors == (8, 56)
    assert expected_invariants_nsplus(29, 3).factors == (8, 56)


@pytest.mark.parametrize("p", [17, 29, 37, 41, 53, 101, 137])
def test_prediction_match_for_1_mod_4(p):
    chk = component_group_prediction(p)
    assert chk.verdict == "match"
    from fractions import Fraction

    n = Fraction(p - 1, 12).numerator
    s = special_fiber("ns+", p).supersingular.s
    expect = sorted([8] * (s - 2) + [8 * n])
    assert sorted(chk.invariants.factors) == expect


@pytest.mark.parametrize("family,p", [("s", 11), ("s+", 29), ("ns+", 101)])
def test_component_group_matches_subdivided_laplacian(family, p):
    # the presentation on the dual graph and the critical group of the
    # subdivision, whose reduced Laplacian has over a hundred rows here
    fiber = special_fiber(family, p)
    graph = oracle.fiber_metrized_graph(fiber)
    diag = smith_normal_form_diagonal(reduced_unit_laplacian(subdivide(graph)))
    factors = tuple(d for d in diag if d > 1)
    assert oracle.component_group(graph).factors == component_group(fiber).factors == factors


@pytest.mark.parametrize("p", [19, 23, 31, 43])
def test_prediction_trivial_for_3_mod_4(p):
    chk = component_group_prediction(p)
    assert chk.verdict == "trivial"
    assert chk.invariants.is_trivial()


def test_prediction_vacuous_when_single_supersingular_point():
    chk = component_group_prediction(13)
    assert chk.verdict == "vacuous-trivial"
    assert chk.invariants.is_trivial()


def test_fiber_metrized_graph_rejects_partial_incidence():
    fiber = special_fiber("a4", 13)
    with pytest.raises(GraphError):
        oracle.fiber_metrized_graph(fiber)
    with pytest.raises(GraphError, match="not a Cartan dual graph"):
        component_group(fiber)


CARTAN_PAIRS = [(family, p) for p in range(5, 300) if is_prime(p)
                for family in CARTAN_FAMILIES]


@pytest.mark.parametrize("family,p", CARTAN_PAIRS)
def test_cartan_component_group_matches_relation_matrix(family, p):
    fiber = special_fiber(family, p)
    graph = oracle.fiber_metrized_graph(fiber)
    assert component_group(fiber) == oracle.component_group(graph)
    # K_{s,m} with widths e_x w_j: the closed-form tree count against the
    # weighted matrix-tree count, from widths read off the graph
    es = [h.e for h in fiber.horizontals()]
    ws = [w // es[0] for a, _, w in fiber.edges if a == fiber.horizontals()[0].name]
    assert spanning_tree_count(es, ws) == oracle.spanning_tree_count(graph)


def test_cartan_component_group_rejects_a_width_that_is_not_a_product():
    fiber = special_fiber("s", 29)
    a, b, w = fiber.edges[-1]
    bad = dataclasses.replace(fiber, edges=fiber.edges[:-1] + [(a, b, w + 1)])
    assert component_group(fiber).order() > 1
    with pytest.raises(GraphError):
        component_group(bad)


def test_cartan_component_group_rejects_a_missing_edge():
    fiber = special_fiber("s+", 29)
    bad = dataclasses.replace(fiber, edges=fiber.edges[1:])
    with pytest.raises(GraphError):
        component_group(bad)


def test_banana_snf_is_cyclic_at_every_prime_below_1000():
    # the claim behind component_group: SNF(A) = (1, ..., 1, banana(e))
    for p in range(5, 1000):
        if not is_prime(p):
            continue
        es = supersingular_data(p).e_values()
        matrix = [[es[0] + (i == k) * e for k in range(len(es) - 1)]
                  for i, e in enumerate(es[1:])]
        if matrix:
            assert smith_normal_form_diagonal(matrix) == (
                [1] * (len(es) - 2) + [banana_order(es)]), p


@pytest.mark.parametrize("es", [[2, 2, 2], [1, 2, 3, 2]])
def test_cartan_component_group_rejects_an_uncovered_e_list(es):
    # a K_{s,m} with widths e_x w_j, but an e list no supersingular
    # locus has: the general path still takes it, the Cartan path declines
    fiber = special_fiber("s", 29)
    verticals = fiber.verticals()
    horizontals = [dataclasses.replace(fiber.horizontals()[0], name="D%d" % i, e=e)
                   for i, e in enumerate(es, start=1)]
    edges = [(h.name, v.name, h.e * v.width) for h in horizontals for v in verticals]
    bad = dataclasses.replace(fiber, vertices=verticals + horizontals, edges=edges)
    general = oracle.component_group(oracle.fiber_metrized_graph(bad))
    assert general.order() > 1
    with pytest.raises(GraphError, match="no closed-form Smith normal form"):
        component_group(bad)
    # the Kronecker answer without the guard, SNF(A) taken as
    # (1, ..., 1, banana(e)), has the right order whatever the e list, so
    # the order check cannot catch a wrong SNF(A)
    ws = [v.width for v in verticals]
    b_matrix = [[ws[0] + (i == k) * w for k in range(len(ws) - 1)]
                for i, w in enumerate(ws[1:])]
    sizes = [x * y for x in [1] * (len(es) - 2) + [banana_order(es)]
             for y in smith_normal_form_diagonal(b_matrix)]
    diag = [[x * (i == k) for k in range(len(sizes))] for i, x in enumerate(sizes)]
    unguarded = AbelianInvariants(tuple(d for d in smith_normal_form_diagonal(diag) if d > 1))
    assert unguarded.order() == general.order()
    if es == [2, 2, 2]:
        assert general.factors == (4, 4, 12, 12, 1680, 5040)
        assert unguarded.factors == (2, 2, 24, 24, 840, 10080)
