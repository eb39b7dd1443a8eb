import pytest

import exceptional_oracle as oracle
from fibercurve import exceptional, ffield
from fibercurve.ffield import inverse_mod, is_prime
from fibercurve.projline import transform
from fibercurve.exceptional import (
    A5_EXPLICIT,
    KINDS,
    PROJECTIVE_ORDER,
    CongruenceError,
    check_congruence,
    build_exceptional,
    orbit_table,
    _cube_root_of_unity,
    _sqrt_pair,
    _trace_data,
)

# published orbit sets; p stands for the point at infinity
A4_13_ORBIT_OF_0 = {0, 9, 10, 13}
A4_13_ORBIT_OF_1 = {1, 2, 6, 12}
A4_13_ORBIT_OF_3 = {3, 4, 5, 7, 8, 11}
A4_103_ORBIT_OF_0 = {0, 56, 57, 103}
A4_103_ORBIT_OF_1 = {1, 10, 102, 72}
S4_73_ORBIT_OF_0 = {0, 5, 16, 17, 26, 32, 39, 46, 52, 61, 62, 73}
S4_73_ORBIT_OF_1 = {
    1, 4, 6, 13, 18, 19, 23, 27, 28, 31, 33, 34, 36, 42, 44, 45, 47, 50,
    51, 55, 59, 60, 65, 72,
}
A5_421_ORBIT_OF_0 = {
    0, 2, 3, 14, 17, 20, 29, 50, 51, 55, 72, 83, 94, 101, 146, 152, 153,
    156, 163, 166, 177, 182, 190, 191, 192, 203, 206, 209, 210, 211, 212,
    215, 218, 220, 222, 225, 230, 234, 236, 242, 250, 257, 264, 266, 279,
    284, 293, 319, 326, 335, 343, 352, 355, 357, 359, 392, 396, 418, 419,
    421,
}
A5_421_ORBIT_OF_1 = {
    1, 5, 23, 25, 26, 27, 35, 40, 60, 61, 81, 92, 93, 105, 107, 115, 127,
    128, 137, 143, 154, 159, 160, 164, 172, 173, 189, 193, 195, 202, 223,
    227, 233, 235, 243, 246, 252, 256, 259, 273, 274, 289, 294, 306, 323,
    324, 325, 327, 348, 350, 361, 363, 370, 373, 374, 379, 382, 388, 389,
    409,
}


def orbit_as_set(orbit):
    return set(orbit.points)


def test_a4_13_uses_published_generators():
    G = build_exceptional("a4", 13)
    assert G.order == 12
    assert transform(13, 3, 0, -1, 9) in set(G.elements)
    assert transform(13, 0, -1, 1, 0) in set(G.elements)


def test_a4_13_orbits_match_published_sets():
    table = orbit_table("a4", 13)
    assert orbit_as_set(table.orbit_of(0)) == A4_13_ORBIT_OF_0
    assert orbit_as_set(table.orbit_of(1)) == A4_13_ORBIT_OF_1
    assert orbit_as_set(table.orbit_of(3)) == A4_13_ORBIT_OF_3
    assert len(table.orbits) == 3
    assert table.flags() == {"O2": True, "O3,1": True, "O3,2": True}


def test_a4_103_orbits_match_published_sets():
    table = orbit_table("a4", 103)
    assert orbit_as_set(table.orbit_of(0)) == A4_103_ORBIT_OF_0
    assert orbit_as_set(table.orbit_of(1)) == A4_103_ORBIT_OF_1
    assert len(table.orbits) == 10
    assert table.flags() == {"O2": False, "O3,1": True, "O3,2": True}


def test_s4_73_orbits_match_published_sets():
    table = orbit_table("s4", 73)
    assert orbit_as_set(table.orbit_of(0)) == S4_73_ORBIT_OF_0
    assert orbit_as_set(table.orbit_of(1)) == S4_73_ORBIT_OF_1
    assert len(table.orbits) == 5


def test_a5_421_orbits_match_published_sets():
    table = orbit_table("a5", 421)
    assert orbit_as_set(table.orbit_of(0)) == A5_421_ORBIT_OF_0
    assert orbit_as_set(table.orbit_of(1)) == A5_421_ORBIT_OF_1
    assert len(table.orbits) == 9


def test_group_orders():
    assert build_exceptional("a4", 13).order == 12
    assert build_exceptional("s4", 73).order == 24
    assert build_exceptional("a5", 421).order == 60


def test_congruence_gates():
    with pytest.raises(CongruenceError):
        build_exceptional("s4", 13)  # 13 = 5 mod 8
    with pytest.raises(CongruenceError):
        build_exceptional("a5", 7)  # 7 = 2 mod 5
    with pytest.raises(CongruenceError):
        check_congruence("a4", 9)  # not prime
    check_congruence("s4", 17)
    check_congruence("a5", 11)


def test_solve_path_produces_correct_orders():
    # primes where no explicit generator convention applies
    for kind, p in (("a4", 11), ("a4", 5), ("s4", 23), ("s4", 31),
                    ("a5", 11), ("a5", 19), ("a5", 29), ("a5", 31)):
        G = build_exceptional(kind, p)
        assert G.order == PROJECTIVE_ORDER[kind], (kind, p)


def test_build_is_deterministic():
    a = build_exceptional("a5", 31)
    b = build_exceptional("a5", 31)
    assert a.elements == b.elements


def test_a5_59_single_orbit():
    table = orbit_table("a5", 59)
    assert len(table.orbits) == 1
    assert table.flags() == {"O2": False, "O3": False, "O5": False}


def test_orbit_table_spot_values():
    # (kind, p, expected N_p)
    cases = [
        ("a4", 13, (13 + 23) // 12),
        ("a4", 103, (103 + 17) // 12),
        ("a4", 5, 1),
        ("a4", 11, 1),
        ("s4", 73, 5),
        ("s4", 7, 1),
        ("s4", 17, 2),
        ("s4", 23, 1),
        ("a5", 59, 1),
        ("a5", 61, 3),
    ]
    for kind, p, np in cases:
        assert len(orbit_table(kind, p).orbits) == np, (kind, p)


def test_orbit_tables_sweep_below_100():
    for p in range(5, 100):
        if not is_prime(p):
            continue
        for kind in KINDS:
            try:
                check_congruence(kind, p)
            except CongruenceError:
                continue
            table = orbit_table(kind, p)  # raises on any table mismatch
            assert sum(len(o) for o in table.orbits) == p + 1


def brute_det1_walk(p):
    """Reference: all of SL_2(F_p) in lexicographic order of the entry tuple."""
    for a in range(p):
        if a == 0:
            for b in range(1, p):
                c = -inverse_mod(b, p) % p
                for d in range(p):
                    yield (0, b, c, d)
        else:
            ainv = inverse_mod(a, p)
            for b in range(p):
                for c in range(p):
                    yield (a, b, c, (1 + b * c) * ainv % p)


@pytest.mark.parametrize("p", [p for p in range(5, 200) if is_prime(p)])
def test_sqrt_pair_matches_brute_force(p):
    # sqrt_mod_p rejects the nonsquares; a square's two roots come back
    # ascending
    for a in range(p):
        roots = [x for x in range(p) if x * x % p == a]
        expected = tuple(sorted((roots[0], -roots[0] % p))) if roots else None
        assert _sqrt_pair(p, a) == expected, (p, a)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23])
def test_det1_matrices_match_filtered_full_walk(p):
    # the scan's own trace sets exist for s4 at 7, 17, 23 and a5 at 11, 19
    trace_sets = [{0}, {1, p - 1}, {2}, {p - 2, 2, 3}, set(range(p))]
    for kind in KINDS:
        try:
            check_congruence(kind, p)
        except CongruenceError:
            continue
        trace_sets.append(_trace_data(kind, p)[0])
    for traces in trace_sets:
        expected = [m for m in brute_det1_walk(p) if (m[0] + m[3]) % p in traces]
        assert list(oracle.det1_matrices(p, traces)) == expected, sorted(traces)


# the first passing (S, T) pairs of the full lexicographic SL_2 walk,
# as scalar-normalized entry tuples
SCAN_PAIRS = {
    ("a4", 449): ((0, 1, 448, 1), (1, 66, 68, 448)),
    ("a5", 449): ((0, 1, 448, 0), (1, 22, 306, 447)),
    ("s4", 991): ((0, 1, 990, 0), (0, 1, 878, 679)),
    ("a5", 991): ((0, 1, 990, 0), (0, 1, 878, 430)),
    ("s4", 23): ((0, 1, 22, 0), (1, 6, 11, 21)),
}


@pytest.mark.parametrize("kind,p", sorted(SCAN_PAIRS))
def test_scan_finds_the_pinned_first_pair(kind, p):
    G = oracle.scan_generators(kind, p)
    assert G.gens == SCAN_PAIRS[kind, p]
    assert G.order == PROJECTIVE_ORDER[kind]
    H = build_exceptional(kind, p)
    assert (H.gens, H.elements) == (G.gens, G.elements)


def solve_path(kind, p):
    """Whether build_exceptional solves for its pair: no explicit
    generators are pinned for (kind, p)."""
    return not ((kind == "a4" and p % 3 == 1) or (kind == "s4" and p % 8 == 1)
                or (kind == "a5" and p in A5_EXPLICIT))


def test_solve_matches_the_scan_below_2000():
    cases = []
    for p in range(5, 2000):
        for kind in KINDS:
            try:
                check_congruence(kind, p)
            except CongruenceError:
                continue
            if solve_path(kind, p):
                cases.append((kind, p))
    assert len(cases) == 376
    for kind, p in cases:
        G, H = oracle.scan_generators(kind, p), build_exceptional(kind, p)
        assert (H.gens, H.elements) == (G.gens, G.elements), (kind, p)


# the scan's pairs at the top of the accepted range, where the scan
# itself takes seconds
TOP_PAIRS = {
    ("a4", 1048571): ((0, 1, 1048570, 1), (1, 218841, 218841, 1048570)),
    ("s4", 1048559): ((0, 1, 1048558, 0), (1, 335473, 335474, 631733)),
    ("a5", 1048571): ((0, 1, 1048570, 0), (0, 1, 822645, 305435)),
}


@pytest.mark.parametrize("kind,p", sorted(TOP_PAIRS))
def test_solve_gives_the_scans_pair_at_the_top_of_the_range(kind, p):
    G = build_exceptional(kind, p)
    assert G.gens == TOP_PAIRS[kind, p]
    assert G.order == PROJECTIVE_ORDER[kind]


def test_cube_root_of_unity_matches_the_scan_below_20000():
    for p in range(7, 20000, 6):  # p = 1 mod 3, odd
        if is_prime(p):
            assert _cube_root_of_unity(p) == oracle.scan_cube_root_of_unity(p), p


def test_every_solve_below_20000_stops_at_first_entry_6(monkeypatch):
    # _solve_generators walks the first entries a = 0, 1, ... of T and
    # returns inside the first row that gives the group; its failure path
    # would walk all p rows.  Below 20000 no accepted (kind, p) needs a
    # row past a = 6: a4 needs 6 at 7127, 8543 and 8951, s4 4 at 16319
    # and a5 2 at 4889, 7499 and 16349
    firsts = []
    real_row = exceptional._row
    monkeypatch.setattr(exceptional, "_row",
                        lambda p, t0, pairs, a: firsts.append(a) or real_row(p, t0, pairs, a))
    worst, builds = {kind: (-1, None) for kind in KINDS}, 0
    for p in range(5, 20000):
        if not is_prime(p):
            continue
        for kind in KINDS:
            try:
                check_congruence(kind, p)
            except CongruenceError:
                continue
            firsts.clear()
            assert build_exceptional(kind, p).order == PROJECTIVE_ORDER[kind]
            builds += 1
            assert bool(firsts) == solve_path(kind, p), (kind, p)
            if firsts:
                worst[kind] = max(worst[kind], (firsts[-1], p))
    assert builds == 4503
    assert worst == {"a4": (6, 8951), "s4": (4, 16319), "a5": (2, 16349)}


def test_every_build_below_1000_creates_no_field(monkeypatch):
    # the traces, sqrt(2), i and the cube roots of unity all lie in F_p,
    # so no build takes a root, or anything else, in F_{p^2}
    def no_field(self, p):
        raise RuntimeError("F_{%d^2} created" % p)

    monkeypatch.setattr(ffield.GF, "__init__", no_field)
    builds = 0
    for p in range(5, 1000):
        if not is_prime(p):
            continue
        for kind in KINDS:
            try:
                check_congruence(kind, p)
            except CongruenceError:
                continue
            assert build_exceptional(kind, p).order == PROJECTIVE_ORDER[kind]
            builds += 1
    assert builds == 324
