import random

import pytest

from fibercurve.ffield import is_prime
from fibercurve.projline import (
    GroupError,
    ProjPoint,
    ProjTransform,
    PSL2Handle,
    act,
    all_points,
    borel,
    cartan_nonsplit,
    cartan_split,
    coset_cycle_counts,
    first_nonsquare,
    generate_subgroup,
    orbits,
)


def rand_transform(p, rng):
    while True:
        a, b, c, d = (rng.randrange(p) for _ in range(4))
        if (a * d - b * c) % p:
            return ProjTransform(p, a, b, c, d)


def test_act_identity_fixes_everything():
    p = 13
    e = ProjTransform.identity(p)
    for pt in all_points(p):
        assert act(e, pt) == pt


def test_act_worked_examples():
    p = 13
    S = ProjTransform(p, 3, 0, -1, 9)
    T = ProjTransform(p, 0, -1, 1, 0)
    assert act(S, ProjPoint.infinity(p)) == ProjPoint(p, 10)
    assert act(T, ProjPoint(p, 0)) == ProjPoint.infinity(p)
    assert act(S, ProjPoint(p, 0)) == ProjPoint(p, 0)


def test_act_is_a_group_action():
    rng = random.Random(5)
    for p in (13, 29):
        for _ in range(50):
            g, h = rand_transform(p, rng), rand_transform(p, rng)
            pt = random.Random(rng.random()).choice(all_points(p))
            assert act(g * h, pt) == act(g, act(h, pt))


def test_canonical_form_kills_scalars():
    p = 13
    g = ProjTransform(p, 2, 4, 6, 8)
    h = ProjTransform(p, 5 * 2, 5 * 4, 5 * 6, 5 * 8)
    assert g == h and hash(g) == hash(h)


def test_singular_matrix_rejected():
    with pytest.raises(GroupError):
        ProjTransform(13, 1, 2, 2, 4)


def test_generate_subgroup_identity():
    G = generate_subgroup([ProjTransform.identity(13)])
    assert G.order == 1


def test_generate_subgroup_a4_and_s4():
    S = ProjTransform(13, 3, 0, -1, 9)
    T = ProjTransform(13, 0, -1, 1, 0)
    assert generate_subgroup([S, T]).order == 12
    S = ProjTransform(73, 41, 1, -1, 0)
    T = ProjTransform(73, 1, 27, 27, 0)
    assert generate_subgroup([S, T]).order == 24


def test_generate_subgroup_idempotent():
    S = ProjTransform(13, 3, 0, -1, 9)
    T = ProjTransform(13, 0, -1, 1, 0)
    G = generate_subgroup([S, T])
    again = generate_subgroup(list(G.elements))
    assert again.elements == G.elements


def test_generate_subgroup_cap():
    gens = [ProjTransform(13, 1, 1, 0, 1), ProjTransform(13, 0, -1, 1, 0)]
    with pytest.raises(GroupError):
        generate_subgroup(gens, cap=100)


def test_orbits_trivial_group():
    G = generate_subgroup([ProjTransform.identity(13)])
    orbs = orbits(G)
    assert len(orbs) == 14
    assert all(len(o) == 1 and o.isotropy_order == 1 for o in orbs)


def test_orbits_a4_13_match_published_sets():
    S = ProjTransform(13, 3, 0, -1, 9)
    T = ProjTransform(13, 0, -1, 1, 0)
    G = generate_subgroup([S, T])
    orbs = orbits(G)
    as_sets = sorted(
        (sorted(pt.sort_key() for pt in o.points), o.isotropy_order) for o in orbs
    )
    inf = (1, 0)
    expect = sorted(
        [
            (sorted([(0, 0), (0, 9), (0, 10), inf]), 3),
            (sorted([(0, 1), (0, 2), (0, 6), (0, 12)]), 3),
            (sorted([(0, t) for t in (3, 4, 5, 7, 8, 11)]), 2),
        ]
    )
    assert as_sets == expect


def test_orbit_sizes_partition_the_line():
    rng = random.Random(2)
    for p in (13, 29, 41):
        G = cartan_nonsplit(p, normalizer=True)
        orbs = orbits(G)
        assert sum(len(o) for o in orbs) == p + 1
        for o in orbs:
            assert len(o) * o.isotropy_order == G.order


def test_orbit_multiset_invariant_under_conjugation():
    rng = random.Random(9)
    for p in (13, 29, 97):
        G = cartan_nonsplit(p, normalizer=True)
        sizes = sorted(len(o) for o in orbits(G))
        for _ in range(3):
            g = rand_transform(p, rng)
            conj = generate_subgroup(
                [g * x * g.inverse() for x in G.elements]
            )
            assert conj.order == G.order
            assert sorted(len(o) for o in orbits(conj)) == sizes


def test_coset_cycle_counts_identity_gives_index():
    p = 13
    G = PSL2Handle(p).as_table()
    H = cartan_nonsplit(p, normalizer=True).intersect_psl2()
    e = ProjTransform.identity(p)
    # identity has projective order 1; use the explicit path
    assert coset_cycle_counts(G, H, e) == G.order // H.order


def test_coset_cycle_counts_requires_containment():
    p = 13
    G = cartan_nonsplit(p, normalizer=False)
    H = cartan_split(p, normalizer=False)
    with pytest.raises(GroupError):
        coset_cycle_counts(G, H, G.elements[0])


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_lazy_psl2_counts_match_explicit_transversal(p):
    lazy = PSL2Handle(p)
    table = lazy.as_table(cap=2 * 10 ** 5)
    subgroups = [
        cartan_nonsplit(p, normalizer=True).intersect_psl2(),
        cartan_split(p, normalizer=True).intersect_psl2(),
        borel(p).intersect_psl2(),
    ]
    elements = [
        ProjTransform(p, 0, -1, 1, 0),
        ProjTransform(p, 1, 1, -2, -1),
        ProjTransform(p, 0, -1, 1, -1),
        ProjTransform(p, -1, -1, 1, 0),
        ProjTransform(p, 1, 1, 0, 1),
        ProjTransform(p, 1, 2, 0, 1),
    ]
    for H in subgroups:
        for g in elements:
            assert coset_cycle_counts(table, H, g) == coset_cycle_counts(lazy, H, g)


def test_lazy_counts_match_explicit_on_diverse_subgroups():
    from fibercurve.exceptional import build_exceptional

    for p in (7, 11, 13):
        lazy = PSL2Handle(p)
        table = lazy.as_table(cap=2 * 10 ** 5)
        subgroups = [
            generate_subgroup([ProjTransform(p, 0, -1, 1, 0)]),   # order 2
            generate_subgroup([ProjTransform(p, 1, 1, 0, 1)]),    # order p
            build_exceptional("a4", p),
        ]
        if p % 5 in (1, 4):
            subgroups.append(build_exceptional("a5", p))
        elements = [
            ProjTransform(p, 0, -1, 1, 0),
            ProjTransform(p, 0, -1, 1, -1),
            ProjTransform(p, 1, 1, 0, 1),
        ]
        for H in subgroups:
            assert all(h.in_psl2() for h in H.elements)
            for g in elements:
                assert coset_cycle_counts(table, H, g) == \
                    coset_cycle_counts(lazy, H, g), (p, H.order, g)


def test_cycle_count_independent_of_representative():
    p = 13
    lazy = PSL2Handle(p)
    H = cartan_nonsplit(p, normalizer=True).intersect_psl2()
    pairs = [
        (ProjTransform(p, 0, -1, 1, 0), ProjTransform(p, 1, 1, -2, -1)),
        (ProjTransform(p, 0, -1, 1, -1), ProjTransform(p, -1, -1, 1, 0)),
        (ProjTransform(p, 1, 1, 0, 1), ProjTransform(p, 1, 2, 0, 1)),
    ]
    for g1, g2 in pairs:
        assert coset_cycle_counts(lazy, H, g1) == coset_cycle_counts(lazy, H, g2)


def test_cycle_counts_feeding_the_genus_values():
    # order-2 element on the nonsplit-normalizer cosets at p = 13, and the
    # cusp count (order-p cycles) at p = 17
    H13 = cartan_nonsplit(13, normalizer=True).intersect_psl2()
    assert coset_cycle_counts(PSL2Handle(13), H13, ProjTransform(13, 0, -1, 1, 0)) == 42
    H17 = cartan_nonsplit(17, normalizer=True).intersect_psl2()
    assert coset_cycle_counts(PSL2Handle(17), H17, ProjTransform(17, 1, 1, 0, 1)) == 8


def brute_cartan_nonsplit(p, normalizer):
    """Reference: every nonzero [[a, b d], [b, a]], deduplicated up to scalars."""
    d = first_nonsquare(p)
    elems = {
        ProjTransform(p, a, b * d, b, a)
        for a in range(p) for b in range(p) if (a * a - d * b * b) % p
    }
    if normalizer:
        w = ProjTransform(p, 1, 0, 0, -1)
        elems |= {g * w for g in elems}
    return tuple(sorted(elems))


@pytest.mark.parametrize(
    "p", [p for p in range(5, 60) if is_prime(p)] + [97, 139]
)
def test_cartan_nonsplit_matches_brute_force(p):
    for normalizer in (False, True):
        assert cartan_nonsplit(p, normalizer).elements == \
            brute_cartan_nonsplit(p, normalizer)


def test_cartan_subgroup_orders():
    for p in (13, 17, 29):
        assert cartan_nonsplit(p).order == p + 1
        assert cartan_nonsplit(p, normalizer=True).order == 2 * (p + 1)
        assert cartan_split(p).order == p - 1
        assert cartan_split(p, normalizer=True).order == 2 * (p - 1)
        assert borel(p).order == p * (p - 1)


def test_projective_order_flags():
    p = 13
    assert ProjTransform(p, 0, -1, 1, 0).has_projective_order_2()
    assert ProjTransform(p, 0, -1, 1, -1).has_projective_order_3()
    assert ProjTransform(p, 1, 1, 0, 1).is_unipotent()
    assert ProjTransform(p, 1, 1, 0, 1).projective_order() == p
    assert ProjTransform(p, 0, -1, 1, -1).projective_order() == 3
