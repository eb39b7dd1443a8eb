import random
import time

import pytest

from fibercurve import projline
from fibercurve.exceptional import KINDS, CongruenceError, build_exceptional, check_congruence
from fibercurve.ffield import first_nonsquare, inverse_table, is_prime
from fibercurve.projline import (
    IDENTITY,
    GroupError,
    SubgroupTable,
    borel,
    cartan_nonsplit,
    cartan_split,
    coset_cycle_counts,
    generate_subgroup,
    mul,
    orbits,
    point_str,
    projective_order,
    transform,
)
from projline_oracle import act, act_orbits


def in_psl2(p, g):
    """Whether the class lies in PSL_2 (determinant a square mod scalars)."""
    a, b, c, d = g
    return pow((a * d - b * c) % p, (p - 1) // 2, p) == 1


def rand_transform(p, rng):
    while True:
        a, b, c, d = (rng.randrange(p) for _ in range(4))
        if (a * d - b * c) % p:
            return transform(p, a, b, c, d)


def inverse(p, g):
    a, b, c, d = g
    return transform(p, d, -b, -c, a)


def test_act_identity_fixes_everything():
    p = 13
    e = transform(p, 1, 0, 0, 1)
    assert e == IDENTITY
    for x in range(p + 1):
        assert act(p, e, x) == x


def test_act_worked_examples():
    p = 13
    S = transform(p, 3, 0, -1, 9)
    T = transform(p, 0, -1, 1, 0)
    assert act(p, S, p) == 10
    assert act(p, T, 0) == p
    assert act(p, S, 0) == 0


def test_act_is_a_group_action():
    rng = random.Random(5)
    for p in (13, 29):
        for _ in range(50):
            g, h = rand_transform(p, rng), rand_transform(p, rng)
            x = random.Random(rng.random()).choice(range(p + 1))
            assert act(p, mul(p, g, h), x) == act(p, g, act(p, h, x))


def test_canonical_form_kills_scalars():
    p = 13
    g = transform(p, 2, 4, 6, 8)
    h = transform(p, 5 * 2, 5 * 4, 5 * 6, 5 * 8)
    assert g == h and hash(g) == hash(h)


def test_normal_form_has_leading_one():
    rng = random.Random(3)
    for p in (5, 13, 29):
        for _ in range(100):
            g = rand_transform(p, rng)
            assert next(x for x in g if x) == 1
            assert all(0 <= x < p for x in g)
            scale = rng.randrange(1, p)
            assert transform(p, *(scale * x for x in g)) == g


def test_points_order_and_render_infinity_last():
    p = 13
    assert sorted([p, 12, 0, 5]) == [0, 5, 12, p]
    assert point_str(p, p) == "oo"
    assert [point_str(p, x) for x in (0, 12)] == ["0", "12"]


def test_singular_matrix_rejected():
    with pytest.raises(GroupError):
        transform(13, 1, 2, 2, 4)


def test_generate_subgroup_identity():
    G = generate_subgroup(13, [IDENTITY])
    assert G.order == 1


def test_generate_subgroup_a4_and_s4():
    S = transform(13, 3, 0, -1, 9)
    T = transform(13, 0, -1, 1, 0)
    assert generate_subgroup(13, [S, T]).order == 12
    S = transform(73, 41, 1, -1, 0)
    T = transform(73, 1, 27, 27, 0)
    assert generate_subgroup(73, [S, T]).order == 24


def test_generate_subgroup_idempotent():
    S = transform(13, 3, 0, -1, 9)
    T = transform(13, 0, -1, 1, 0)
    G = generate_subgroup(13, [S, T])
    again = generate_subgroup(13, list(G.elements))
    assert again.elements == G.elements


def test_generate_subgroup_cap():
    gens = [transform(13, 1, 1, 0, 1), transform(13, 0, -1, 1, 0)]
    with pytest.raises(GroupError):
        generate_subgroup(13, gens, cap=100)


def test_orbits_trivial_group():
    G = generate_subgroup(13, [IDENTITY])
    orbs = orbits(G)
    assert len(orbs) == 14
    assert all(len(o) == 1 and o.isotropy_order == 1 for o in orbs)


def test_orbits_a4_13_match_published_sets():
    S = transform(13, 3, 0, -1, 9)
    T = transform(13, 0, -1, 1, 0)
    G = generate_subgroup(13, [S, T])
    orbs = orbits(G)
    as_sets = sorted((list(o.points), o.isotropy_order) for o in orbs)
    inf = 13
    expect = sorted(
        [
            ([0, 9, 10, inf], 3),
            ([1, 2, 6, 12], 3),
            ([3, 4, 5, 7, 8, 11], 2),
        ]
    )
    assert as_sets == expect


def test_orbit_sizes_partition_the_line():
    rng = random.Random(2)
    for p in (13, 29, 41):
        G = SubgroupTable(p, cartan_nonsplit(p, normalizer=True))
        orbs = orbits(G)
        assert sum(len(o) for o in orbs) == p + 1
        for o in orbs:
            assert len(o) * o.isotropy_order == G.order


def test_orbit_multiset_invariant_under_conjugation():
    rng = random.Random(9)
    for p in (13, 29, 97):
        G = SubgroupTable(p, cartan_nonsplit(p, normalizer=True))
        sizes = sorted(len(o) for o in orbits(G))
        for _ in range(3):
            g = rand_transform(p, rng)
            conj = generate_subgroup(
                p, [mul(p, mul(p, g, x), inverse(p, g)) for x in G.elements]
            )
            assert conj.order == G.order
            assert sorted(len(o) for o in orbits(conj)) == sizes


@pytest.mark.parametrize("kind,p,calls", [
    ("a4", 13, 36), ("s4", 73, 120), ("a5", 421, 540), ("ns+", 13, 28),
])
def test_orbits_build_one_inverse_table_and_no_pow_per_image(monkeypatch, kind, p, calls):
    # one image of the orbit's least point under each element gives the
    # orbit and its stabilizer, |H| images per orbit, each divided
    # through the one inverse table of the sweep, with no pow of its own
    H = (SubgroupTable(p, cartan_nonsplit(p, normalizer=True)) if kind == "ns+"
         else build_exceptional(kind, p))
    tables, pows = [], []

    def counted_table(*args):
        tables.append(args)
        return inverse_table(*args)

    def counted_pow(*args):
        pows.append(args)
        return pow(*args)

    monkeypatch.setattr(projline, "inverse_table", counted_table)
    monkeypatch.setattr(projline, "pow", counted_pow, raising=False)
    orbs = orbits(H)
    assert tables == [(p,)] and pows == []
    assert len(orbs) * H.order == calls


def test_orbits_match_the_act_sweep_at_every_exceptional_group_below_2000():
    # the same orbits, in the same order, with the same stabilizers, as the
    # sweep that divides by one pow per image (593 groups, about 1 s)
    cases = 0
    for p in range(5, 2000):
        if not is_prime(p):
            continue
        for kind in KINDS:
            try:
                check_congruence(kind, p)
            except CongruenceError:
                continue
            H = build_exceptional(kind, p)
            assert [(o.points, o.stabilizer) for o in orbits(H)] == act_orbits(H), (kind, p)
            cases += 1
    assert cases == 593


def psl2_table(p):
    """Every element of PSL_2(F_p), by closure of two generators."""
    gens = [transform(p, 1, 1, 0, 1), transform(p, 0, -1, 1, 0)]
    table = generate_subgroup(p, gens, cap=2 * 10 ** 5)
    assert table.order == p * (p * p - 1) // 2
    return table


def psl2_part(H):
    """H meet PSL_2, as a table of its own."""
    return SubgroupTable(H.p, [g for g in H.elements if in_psl2(H.p, g)])


def cartan_tables(p):
    """The four Cartan images, each as a table."""
    return [SubgroupTable(p, build(p, normalizer)) for build in (cartan_nonsplit, cartan_split)
            for normalizer in (False, True)]


def cycle_count(H, g):
    """coset_cycle_counts on H's elements at the projective order of g."""
    return coset_cycle_counts(H.p, H.elements)[projective_order(H.p, g)]


def explicit_cycle_count(G, H, g):
    """Reference: cycles of g on the right cosets H\\G, from an explicit
    transversal of G."""
    assert set(H.elements) <= set(G.elements) and g in set(G.elements)
    p = G.p
    coset_of = {}
    reps = []
    for x in G.elements:
        if x in coset_of:
            continue
        for h in H.elements:
            coset_of[mul(p, h, x)] = len(reps)
        reps.append(x)
    image = [coset_of[mul(p, x, g)] for x in reps]
    seen = [False] * len(reps)
    cycles = 0
    for i in range(len(reps)):
        if seen[i]:
            continue
        cycles += 1
        while not seen[i]:
            seen[i] = True
            i = image[i]
    return cycles


def test_coset_cycle_counts_identity_gives_index():
    p = 13
    G = psl2_table(p)
    H = psl2_part(SubgroupTable(p, cartan_nonsplit(p, normalizer=True)))
    assert explicit_cycle_count(G, H, IDENTITY) == G.order // H.order
    assert coset_cycle_counts(p, H.elements)[1] == explicit_cycle_count(G, H, IDENTITY)


def test_coset_cycle_counts_requires_containment():
    p = 13
    Hp = psl2_part(SubgroupTable(p, cartan_split(p, normalizer=False)))
    # five elements of PSL_2(F_13): 5 does not divide 1092
    five = SubgroupTable(p, Hp.elements[:5])
    with pytest.raises(GroupError, match="does not divide"):
        coset_cycle_counts(p, five.elements)
    # 2 is not a square mod 13, so H' is empty
    with pytest.raises(GroupError, match="no element in PSL_2"):
        coset_cycle_counts(p, SubgroupTable(p, [transform(p, 2, 0, 0, 1)]).elements)
    with pytest.raises(GroupError, match="prime > 3"):
        coset_cycle_counts(9, SubgroupTable(9, [IDENTITY]).elements)


@pytest.mark.parametrize("p", [p for p in range(5, 60) if is_prime(p)])
def test_coset_cycle_counts_read_only_the_psl2_part(p):
    for H in cartan_tables(p) + [borel(p)]:
        assert coset_cycle_counts(p, H.elements) == \
            coset_cycle_counts(p, psl2_part(H).elements), (p, H.order)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_lazy_psl2_counts_match_explicit_transversal(p):
    table = psl2_table(p)
    subgroups = [
        psl2_part(SubgroupTable(p, cartan_nonsplit(p, normalizer=True))),
        psl2_part(SubgroupTable(p, cartan_split(p, normalizer=True))),
        psl2_part(borel(p)),
    ]
    elements = [
        transform(p, 0, -1, 1, 0),
        transform(p, 1, 1, -2, -1),
        transform(p, 0, -1, 1, -1),
        transform(p, -1, -1, 1, 0),
        transform(p, 1, 1, 0, 1),
        transform(p, 1, 2, 0, 1),
    ]
    for H in subgroups:
        for g in elements:
            assert explicit_cycle_count(table, H, g) == cycle_count(H, g)


def test_lazy_counts_match_explicit_on_diverse_subgroups():
    from fibercurve.exceptional import build_exceptional

    for p in (7, 11, 13):
        table = psl2_table(p)
        subgroups = [
            generate_subgroup(p, [transform(p, 0, -1, 1, 0)]),   # order 2
            generate_subgroup(p, [transform(p, 1, 1, 0, 1)]),    # order p
            build_exceptional("a4", p),
        ]
        if p % 5 in (1, 4):
            subgroups.append(build_exceptional("a5", p))
        elements = [
            transform(p, 0, -1, 1, 0),
            transform(p, 0, -1, 1, -1),
            transform(p, 1, 1, 0, 1),
        ]
        for H in subgroups:
            assert all(in_psl2(p, h) for h in H.elements)
            for g in elements:
                assert explicit_cycle_count(table, H, g) == \
                    cycle_count(H, g), (p, H.order, g)


def test_cycle_count_independent_of_representative():
    # the explicit transversal uses g itself, not only its order, so two
    # representatives of one order can disagree there
    from fibercurve.exceptional import build_exceptional

    for p in (5, 7, 11, 13):
        table = psl2_table(p)
        subgroups = cartan_tables(p) + [borel(p), build_exceptional("a4", p)]
        if p % 8 in (1, 7):
            subgroups.append(build_exceptional("s4", p))
        if p % 5 in (1, 4):
            subgroups.append(build_exceptional("a5", p))
        pairs = [
            (transform(p, 0, -1, 1, 0), transform(p, 1, 1, -2, -1)),
            (transform(p, 0, -1, 1, -1), transform(p, -1, -1, 1, 0)),
            (transform(p, 1, 1, 0, 1), transform(p, 1, first_nonsquare(p), 0, 1)),
        ]
        for H in subgroups:
            Hp = psl2_part(H)
            for g1, g2 in pairs:
                assert projective_order(p, g1) == projective_order(p, g2)
                assert explicit_cycle_count(table, Hp, g1) == \
                    explicit_cycle_count(table, Hp, g2), (p, Hp.order, g1, g2)


def test_cycle_counts_feeding_the_genus_values():
    # order-2 element on the nonsplit-normalizer cosets at p = 13, and the
    # cusp count (order-p cycles) at p = 17
    H13 = psl2_part(SubgroupTable(13, cartan_nonsplit(13, normalizer=True)))
    assert cycle_count(H13, transform(13, 0, -1, 1, 0)) == 42
    H17 = psl2_part(SubgroupTable(17, cartan_nonsplit(17, normalizer=True)))
    assert cycle_count(H17, transform(17, 1, 1, 0, 1)) == 8


def brute_cartan_nonsplit(p, normalizer):
    """Reference: every nonzero [[a, b d], [b, a]], deduplicated up to scalars."""
    d = first_nonsquare(p)
    elems = {
        transform(p, a, b * d, b, a)
        for a in range(p) for b in range(p) if (a * a - d * b * b) % p
    }
    if normalizer:
        w = transform(p, 1, 0, 0, -1)
        elems |= {mul(p, g, w) for g in elems}
    return tuple(sorted(elems))


@pytest.mark.parametrize(
    "p", [p for p in range(5, 60) if is_prime(p)] + [97, 139]
)
def test_cartan_nonsplit_matches_brute_force(p):
    for normalizer in (False, True):
        assert tuple(sorted(SubgroupTable(p, cartan_nonsplit(p, normalizer)).elements)) == \
            brute_cartan_nonsplit(p, normalizer)


def brute_cartan_split(p, normalizer):
    """Reference: every nonsingular diagonal [[a, 0], [0, e]], deduplicated
    up to scalars."""
    elems = {transform(p, a, 0, 0, e) for a in range(1, p) for e in range(1, p)}
    if normalizer:
        w = transform(p, 0, 1, 1, 0)
        elems |= {mul(p, g, w) for g in elems}
    return tuple(sorted(elems))


@pytest.mark.parametrize(
    "p", [p for p in range(5, 60) if is_prime(p)] + [97, 139]
)
def test_cartan_split_matches_brute_force(p):
    for normalizer in (False, True):
        assert tuple(sorted(SubgroupTable(p, cartan_split(p, normalizer)).elements)) == \
            brute_cartan_split(p, normalizer)


def transform_built_cartan(p, split, normalizer):
    """The Cartan images with every torus element sent through transform."""
    if split:
        elems = [transform(p, a, 0, 0, 1) for a in range(1, p)]
        w = transform(p, 0, 1, 1, 0)
    else:
        d = first_nonsquare(p)
        elems = [transform(p, 0, d, 1, 0)] + [transform(p, 1, b * d, b, 1) for b in range(p)]
        w = transform(p, 1, 0, 0, -1)
    if normalizer:
        elems += [mul(p, g, w) for g in elems]
    return elems


@pytest.mark.parametrize("p", [p for p in range(5, 200) if is_prime(p)])
def test_listed_cartan_tables_are_the_transform_built_ones(p):
    # the tori are yielded as already normalized tuples, each class once;
    # as sets they are the tables built one transform per element
    for build, split in ((cartan_split, True), (cartan_nonsplit, False)):
        for normalizer in (False, True):
            listed = list(build(p, normalizer))
            table = SubgroupTable(p, listed)
            assert table.order == len(listed), (p, split, normalizer)
            assert set(table.elements) == set(transform_built_cartan(p, split, normalizer)), \
                (p, split, normalizer)
            assert all(transform(p, *g) == g for g in listed), (p, split, normalizer)


def test_cartan_subgroup_orders():
    for p in (13, 17, 29):
        assert SubgroupTable(p, cartan_nonsplit(p)).order == p + 1
        assert SubgroupTable(p, cartan_nonsplit(p, normalizer=True)).order == 2 * (p + 1)
        assert SubgroupTable(p, cartan_split(p)).order == p - 1
        assert SubgroupTable(p, cartan_split(p, normalizer=True)).order == 2 * (p - 1)
        assert borel(p).order == p * (p - 1)


def test_projective_order_flags():
    p = 13
    assert projective_order(p, transform(p, 1, 1, 0, 1)) == p
    assert projective_order(p, transform(p, 0, -1, 1, -1)) == 3


@pytest.mark.parametrize("p", [5, 7, 13, 101])
def test_projective_order_reaches_p_plus_1(p):
    # the nonsplit torus is cyclic of order p + 1, the largest element
    # order in PGL_2(F_p), so the runaway bound must let it through
    assert max(projective_order(p, g) for g in cartan_nonsplit(p)) == p + 1


def test_projective_order_runaway_stops_after_p_plus_1_products():
    # the singular (1, 1, 0, 0) is its own square, so no power is the
    # identity; at p(p + 1) products this took about 40 s
    p = 10007
    start = time.process_time()
    with pytest.raises(GroupError, match="runaway"):
        projective_order(p, (1, 1, 0, 0))
    assert time.process_time() - start < 1.0
