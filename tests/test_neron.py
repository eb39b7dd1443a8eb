import dataclasses
import inspect
import itertools
import math
import random
import types

import pytest

from fibercurve import neron
from fibercurve.atlas import (
    CARTAN_FAMILIES,
    cartan_verticals,
    special_fiber,
    supersingular_data,
)
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
from neron_oracle import expand


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


def banana_matrix(lengths):
    """l_1 J + diag(l_2..l_m): the Cartan A of the e list, or B of the
    vertical widths."""
    return [[lengths[0] + (i == k) * x for k in range(len(lengths) - 1)]
            for i, x in enumerate(lengths[1:])]


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
    assert oracle.component_group(g).runs == ((3, 1),)
    assert brute_spanning_trees(subdivide(g)) == 3


def test_trees_have_trivial_group():
    g = oracle.MetrizedGraph.build(["a", "b", "c", "d"],
                                   [("a", "b", 5), ("b", "c", 7), ("b", "d", 2)])
    inv = oracle.component_group(g)
    assert inv.is_trivial() and inv.order == 1


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
        assert inv.order == brute_spanning_trees(sub)


def test_banana_order_law():
    rng = random.Random(29)
    for _ in range(20):
        lengths = [rng.randrange(1, 10) for _ in range(rng.randrange(2, 6))]
        g = oracle.MetrizedGraph.build(["L", "R"], [("L", "R", l) for l in lengths])
        assert oracle.component_group(g).order == banana_order(lengths)


def test_smith_normal_form_known_lists():
    assert smith_normal_form_diagonal([5]) == smith_normal_form_diagonal([]) == []
    assert smith_normal_form_diagonal([2, 3]) == [(5, 1)]
    assert smith_normal_form_diagonal([1, 1, 1]) == [(1, 1), (3, 1)]
    # M = 2J + diag(2, 2) = [[4, 2], [2, 4]]: d_1 = 2, d_1 d_2 = 12
    assert smith_normal_form_diagonal([2, 2, 2]) == [(2, 1), (6, 1)]
    # exponents of 2 sorted (1, 1, 1, 1, 2), of 3 (0, 1, 1, 1, 1): d_1 = 2,
    # d_2 = d_3 = 2 * 3, and the last is banana_order / 72
    assert smith_normal_form_diagonal([6, 6, 12, 2, 6]) == [(2, 1), (6, 2), (78, 1)]
    assert banana_order([6, 6, 12, 2, 6]) == 2 * 6 * 6 * 78
    assert smith_normal_form_diagonal([1] * 6 + [2, 3]) == [(1, 6), (41, 1)]
    # the oracle's form of a matrix that is no banana matrix: d_1 = gcd of
    # entries, d_1 d_2 = gcd of 2x2 minors, d_1 d_2 d_3 = |det| = 624
    assert oracle.smith_normal_form_diagonal([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]


def test_smith_normal_form_divisibility_chain_random():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randrange(1, 5)
        m = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        if determinant(m) == 0:
            with pytest.raises(GraphError):
                oracle.smith_normal_form_diagonal(m)
            continue
        lengths = [rng.randrange(1, 30) for _ in range(rng.randrange(1, 9))]
        for diag in oracle.smith_normal_form_diagonal(m), expand(
                smith_normal_form_diagonal(lengths)):
            prev = None
            for d in diag:
                assert d >= 1
                if prev is not None:
                    assert d % prev == 0
                prev = d


def test_inserted_factors_equal_the_pairwise_chain_on_random_multisets():
    rng = random.Random(47)
    for _ in range(500):
        values = [rng.choice((1, 2, 3, 4, 5, 6, 8, 9, 12, 30)) * rng.randrange(1, 6)
                  for _ in range(rng.randrange(0, 9))]
        extra = [(rng.randrange(1, 400), rng.randrange(1, 5))
                 for _ in range(rng.randrange(1, 4))]
        runs = neron._diagonal_runs([(v, 1) for v in values] + extra)
        assert expand(runs) == oracle._divisibility_chain(
            values + [x for x, r in extra for _ in range(r)])
        assert tuple(runs) == oracle.runs_of(expand(runs))  # canonical


@pytest.mark.parametrize("family", CARTAN_FAMILIES)
def test_inserted_products_equal_the_pairwise_chain_below_500(family):
    # every a_i b_k over the oracle's SNF(A) and SNF(B), chained pairwise
    for p in (p for p in range(5, 500) if is_prime(p)):
        es = supersingular_data(p).e_values()
        ws = [v.width for v in cartan_verticals(family, p)]
        snf_a = oracle.smith_normal_form_diagonal(banana_matrix(es)) if len(es) > 1 else []
        snf_b = oracle.smith_normal_form_diagonal(banana_matrix(ws)) if len(ws) > 1 else []
        pairwise = oracle._divisibility_chain([a * b for a in snf_a for b in snf_b])
        assert expand(component_group(family, p).runs) == [d for d in pairwise if d > 1], p


def test_smith_normal_form_against_determinantal_divisors():
    # d_1 ... d_k is the gcd of all k x k minors: the oracle's form on any
    # matrix, the closed form on banana matrices
    rng = random.Random(41)
    checked = 0
    while checked < 300:
        n = rng.randrange(1, 5)
        bound = rng.choice((1, 3, 9))
        m = [[rng.randrange(-bound, bound + 1) * rng.choice((1, 2, 6))
              for _ in range(n)] for _ in range(n)]
        if determinant(m) == 0:
            continue
        lengths = [rng.randrange(1, bound + 1) * rng.choice((1, 2, 6)) for _ in range(n + 1)]
        for matrix, diag in ((m, oracle.smith_normal_form_diagonal(m)),
                             (banana_matrix(lengths),
                              expand(smith_normal_form_diagonal(lengths)))):
            assert len(diag) == n
            prod = 1
            for k in range(1, n + 1):
                minors = [determinant([[matrix[r][c] for c in cols] for r in rows])
                          for rows in itertools.combinations(range(n), k)
                          for cols in itertools.combinations(range(n), k)]
                prod *= diag[k - 1]
                assert prod == math.gcd(*minors), (matrix, diag)
        checked += 1


def test_smith_normal_form_rejects_singular_and_non_square():
    for m in ([[2, 4], [1, 2]], [[0]], [[1, 2]], [[1], [2]]):
        with pytest.raises(GraphError):
            oracle.smith_normal_form_diagonal(m)


def test_snf_matches_the_oracle():
    # the closed form against the reduction modulo the determinant, on the
    # B of every Cartan fiber below 2000 that has one and of all four
    # families at 1048573, and on short random lists
    primes = [p for p in range(5, 2000) if is_prime(p)] + [1048573]
    lists = [[v.width for v in cartan_verticals(family, p)]
             for p in primes for family in CARTAN_FAMILIES]
    lists = [ws for ws in lists if len(ws) > 1]
    assert len(lists) == 1054
    rng = random.Random(43)
    for pool in ([2, 4, 6, 8, 10], [1, 2, 3], range(1, 13), [2, 3, 4, 8, 9, 16]):
        lists += [[rng.choice(pool) for _ in range(m)] for m in range(2, 10) for _ in range(60)]
    for lengths in lists:
        assert expand(smith_normal_form_diagonal(lengths)) == (
            oracle.smith_normal_form_diagonal(banana_matrix(lengths))), lengths


def test_snf_matches_the_oracle_on_long_lists():
    # B of an exceptional fiber: many widths 2h, h in {1, 2, 3, 4, 5}
    rng = random.Random(53)
    for _ in range(40):
        lengths = [rng.choice((2, 4, 6, 8, 10)) for _ in range(rng.randrange(20, 121))]
        assert expand(smith_normal_form_diagonal(lengths)) == (
            oracle.smith_normal_form_diagonal(banana_matrix(lengths))), lengths


def test_the_oracle_catches_snf_read_as_cyclic():
    # mutant: smith_normal_form_diagonal compiled from its source with
    # diag(L) read as the identity, so SNF(M(L)) = (1, ..., 1, banana(L)),
    # of the right size and order; component_group rebound to call it
    source = inspect.getsource(neron.smith_normal_form_diagonal)
    old, new = "Counter(lengths).items()", "[(1, m)]"
    assert source.count(old) == 1
    namespace = dict(vars(neron))
    exec(compile(source.replace(old, new), neron.__file__, "exec"), namespace)
    mutant_snf = namespace["smith_normal_form_diagonal"]
    mutant = types.FunctionType(neron.component_group.__code__, namespace)
    ws = [v.width for v in cartan_verticals("s", 29)]
    assert math.gcd(*itertools.chain(*banana_matrix(ws))) == 2  # d_1(B)
    assert expand(mutant_snf(ws)) != oracle.smith_normal_form_diagonal(banana_matrix(ws))
    # the order check passes, so only the oracle's group tells them apart
    wrong = mutant("s", 29)
    general = oracle.component_group(oracle.fiber_metrized_graph(special_fiber("s", 29)))
    assert wrong.order == general.order == component_group("s", 29).order
    assert wrong != general == component_group("s", 29)


def test_spanning_tree_count_matches_determinant_banana():
    g = oracle.MetrizedGraph.build(["L", "R"], [("L", "R", 2), ("L", "R", 3)])
    assert oracle.spanning_tree_count(g) == 5  # subdivided: the cycle C_5
    assert brute_spanning_trees(subdivide(g)) == 5


def test_power_product_is_the_exact_product_of_powers():
    # the order's digits are str() of the Decimal, so they must be those
    # of the int product, at sizes far past the default context's 28
    # digits and below the int-string limit
    rng = random.Random(53)
    assert str(neron.power_product(())) == "1"
    for _ in range(200):
        runs = [(rng.randrange(1, 10 ** rng.randrange(1, 30)), rng.randrange(0, 30))
                for _ in range(rng.randrange(0, 5))]
        exact = math.prod(b ** k for b, k in runs)
        assert str(neron.power_product(runs)) == str(exact), runs


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
        AbelianInvariants(((1, 1),))
    with pytest.raises(GraphError):
        AbelianInvariants(((4, 1), (6, 1)))  # 4 does not divide 6
    for runs in (((2, 1), (2, 1)), ((2, 0), (4, 1)), ((4, 1), (2, 1))):
        with pytest.raises(GraphError):
            AbelianInvariants(runs)  # not canonical
    inv = AbelianInvariants(((2, 1), (4, 1), (8, 1)))
    assert inv.order == 64
    assert inv.describe() == "Z/2 x Z/4 x Z/8"
    inv = AbelianInvariants(((2, 2), (6, 1)))
    assert inv.order == 24 and inv.describe() == "Z/2 x Z/2 x Z/6"


def test_nsplus_29_component_group():
    fiber = special_fiber("ns+", 29)
    inv = oracle.component_group(oracle.fiber_metrized_graph(fiber))
    assert inv.runs == ((8, 1), (56, 1))
    assert expected_invariants_nsplus(29, 3).runs == ((8, 1), (56, 1))


@pytest.mark.parametrize("p", [17, 29, 37, 41, 53, 101, 137])
def test_prediction_match_for_1_mod_4(p):
    invariants = component_group("ns+", p)
    assert component_group_prediction(p, invariants) == "match"
    from fractions import Fraction

    n = Fraction(p - 1, 12).numerator
    s = special_fiber("ns+", p).supersingular.s
    expect = sorted([8] * (s - 2) + [8 * n])
    assert expand(invariants.runs) == expect


@pytest.mark.parametrize("family,p", [("s", 11), ("s+", 29), ("ns+", 101)])
def test_component_group_matches_subdivided_laplacian(family, p):
    # the presentation on the dual graph and the critical group of the
    # subdivision, whose reduced Laplacian has over a hundred rows here
    fiber = special_fiber(family, p)
    graph = oracle.fiber_metrized_graph(fiber)
    diag = oracle.smith_normal_form_diagonal(reduced_unit_laplacian(subdivide(graph)))
    group = component_group(family, p)
    assert oracle.component_group(graph) == group
    assert expand(group.runs) == [d for d in diag if d > 1]


@pytest.mark.parametrize("p", [19, 23, 31, 43])
def test_prediction_trivial_for_3_mod_4(p):
    invariants = component_group("ns+", p)
    assert component_group_prediction(p, invariants) == "trivial"
    assert invariants.is_trivial()


def test_prediction_vacuous_when_single_supersingular_point():
    invariants = component_group("ns+", 13)
    assert component_group_prediction(13, invariants) == "vacuous-trivial"
    assert invariants.is_trivial()


def test_fiber_metrized_graph_rejects_partial_incidence():
    with pytest.raises(GraphError):
        oracle.fiber_metrized_graph(special_fiber("a4", 13))
    with pytest.raises(ValueError, match="'a4'"):
        component_group("a4", 13)


CARTAN_PAIRS = [(family, p) for p in range(5, 300) if is_prime(p)
                for family in CARTAN_FAMILIES]


@pytest.mark.parametrize("family,p", CARTAN_PAIRS)
def test_cartan_component_group_matches_relation_matrix(family, p):
    fiber = special_fiber(family, p)
    graph = oracle.fiber_metrized_graph(fiber)
    assert component_group(family, p) == oracle.component_group(graph)
    # K_{s,m} with widths e_x w_j: the closed-form tree count against the
    # weighted matrix-tree count, from widths read off the graph
    es = [h.e for h in fiber.horizontals()]
    ws = [w // es[0] for a, _, w in fiber.edges if a == fiber.horizontals()[0].name]
    assert spanning_tree_count(es, ws) == oracle.spanning_tree_count(graph)


def test_banana_snf_is_cyclic_at_every_prime_below_1000():
    # the supersingular e lists have at most one 2 and one 3, so coker(A)
    # is cyclic: SNF(A) = (1, ..., 1, banana(e))
    for p in range(5, 1000):
        if not is_prime(p):
            continue
        es = supersingular_data(p).e_values()
        matrix = banana_matrix(es)
        if matrix:
            diag = oracle.smith_normal_form_diagonal(matrix)
            assert diag == [1] * (len(es) - 2) + [banana_order(es)], p
            assert expand(smith_normal_form_diagonal(es)) == diag, p


def test_banana_order_is_mazurs_order_below_20000():
    # the Deligne-Rapoport fiber of X_0(p) is two lines crossing at the
    # supersingular points with widths e, and its component group at p is
    # cyclic of order num((p - 1)/12) (Mazur 1977): a closed form for the
    # banana factor of SNF(A) that the Neron order check cannot see
    for p in range(5, 20000):
        if is_prime(p):
            es = supersingular_data(p).e_values()
            assert banana_order(es) == (p - 1) // math.gcd(p - 1, 12), p


def fiber_with_e_list(es):
    """The s fiber at 29 with one horizontal per e in es: a K_{s,m} with
    widths e_x w_j."""
    fiber = special_fiber("s", 29)
    verticals = fiber.verticals()
    horizontals = [dataclasses.replace(fiber.horizontals()[0], name="D%d" % i, e=e)
                   for i, e in enumerate(es, start=1)]
    edges = [(h.name, v.name, h.e * v.width) for h in horizontals for v in verticals]
    return dataclasses.replace(fiber, vertices=verticals + horizontals, edges=edges)


@pytest.mark.parametrize("es", [[2, 2, 2], [1, 2, 3, 2]])
def test_cartan_component_group_takes_any_e_list(es, monkeypatch):
    # a K_{s,m} with widths e_x w_j, but an e list no supersingular locus
    # has, so coker(A) need not be cyclic: Z/2 x Z/6 for e = [2, 2, 2];
    # no prime has this e list, so the toric rank's closed form is not read
    fiber = fiber_with_e_list(es)
    general = oracle.component_group(oracle.fiber_metrized_graph(fiber))
    monkeypatch.setattr(neron, "supersingular_data",
                        lambda p: types.SimpleNamespace(e_values=lambda: list(es)))
    monkeypatch.setattr(neron, "check_toric_rank", lambda family, p, toric: None)
    assert component_group("s", 29) == general
    # SNF(A) taken as (1, ..., 1, banana(e)) gives a group of the same
    # order, which the order check therefore cannot tell from this one
    sizes = [x * y for x in [1] * (len(es) - 2) + [banana_order(es)]
             for y in oracle.smith_normal_form_diagonal(
                 banana_matrix([v.width for v in fiber.verticals()]))]
    cyclic = AbelianInvariants(oracle.runs_of(
        d for d in oracle._divisibility_chain(sizes) if d > 1))
    assert cyclic.order == general.order
    if es == [2, 2, 2]:
        assert smith_normal_form_diagonal(es) == [(2, 1), (6, 1)]
        assert expand(general.runs) == [4, 4, 12, 12, 1680, 5040]
        assert expand(cyclic.runs) == [2, 2, 24, 24, 840, 10080]
    else:  # coker(A) is cyclic for [1, 2, 3, 2]
        assert cyclic == general


@pytest.mark.parametrize("family", CARTAN_FAMILIES)
def test_component_group_has_at_most_four_runs_at_the_top(family):
    # s fiber: 262 140 invariant factors, in 4 runs
    assert len(component_group(family, 1048573).runs) <= 4


@pytest.mark.parametrize("kind,p", [("s4", 17), ("a5", 29)])
def test_component_group_rejects_an_exceptional_fiber(kind, p):
    # a4@13 in test_fiber_metrized_graph_rejects_partial_incidence
    with pytest.raises(ValueError, match="'%s'" % kind):
        component_group(kind, p)
