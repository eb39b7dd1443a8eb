import itertools
import math
import random

import pytest

from fibercurve.ffield import (
    FieldError,
    field_create,
    inverse_mod,
    is_prime,
    solve_affine_mod_p,
    sqrt_in_field,
    square_table,
)


def test_is_prime_matches_a_sieve_below_1_400_000():
    # crosses MAX_CHAR = 2^20 and 1373653, below which only the
    # Miller-Rabin bases 2 and 3 run
    n = 1_400_000
    sieve = bytearray([1]) * n
    sieve[0] = sieve[1] = 0
    for q in range(2, math.isqrt(n) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytes(len(range(q * q, n, q)))
    assert [m for m in range(n) if is_prime(m) != sieve[m]] == []


@pytest.mark.parametrize("n,prime", [
    (1373653, False),  # 829 * 1657, the least strong pseudoprime to bases 2 and 3
    (25326001, False),  # 2251 * 11251, a strong pseudoprime to bases 2, 3 and 5
    (3215031751, False),  # 151 * 751 * 28351, to bases 2, 3, 5 and 7
    (1373677, True),
    (2 ** 31 - 1, True),
    (10 ** 9 + 7, True),
    (2 ** 61 - 1, True),
    ((2 ** 31 - 1) * (10 ** 9 + 7), False),
])
def test_is_prime_above_the_two_base_bound(n, prime):
    assert is_prime(n) is prime


def test_inverse_mod_known_values():
    assert inverse_mod(3, 7) == 5
    assert inverse_mod(4, 37) == 28
    assert inverse_mod(2, 211) == 106
    for m in (2, 5, 97, 1000):
        assert inverse_mod(1, m) == 1


def test_inverse_mod_all_coprime_pairs_up_to_1000():
    for m in range(2, 1001):
        for a in range(1, m):
            if math.gcd(a, m) == 1:
                assert inverse_mod(a, m) * a % m == 1


def test_inverse_mod_rejects_non_coprime():
    with pytest.raises(ValueError):
        inverse_mod(6, 9)
    with pytest.raises(ValueError):
        inverse_mod(0, 5)


def test_field_create_examples():
    F2 = field_create(13)
    assert F2.order == 169
    x = F2([3, 5])
    assert x ** 13 != x
    assert (x ** 13) ** 13 == x
    F52 = field_create(5)
    assert F52.order == 25


def test_field_create_rejects_bad_input():
    with pytest.raises(FieldError):
        field_create(12)
    with pytest.raises(FieldError):
        field_create(3)  # characteristic must exceed 3
    with pytest.raises(FieldError):
        field_create(1048583)  # beyond the accepted characteristic bound


@pytest.mark.parametrize("p", [5, 7, 13, 1048573])
def test_fp2_adjoins_the_root_of_the_first_nonsquare(p):
    # (a, b) is a + b sqrt(d), d the first nonsquare mod p
    F = field_create(p)
    d = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
    root = F((0, 1))
    assert root * root == F(d)
    rng = random.Random(p)
    for _ in range(20):
        x = F.random_element(rng)
        (a, b), (c, e) = x.coords, F.random_element(rng).coords
        assert (x * F((c, e))).coords == ((a * c + d * b * e) % p, (a * e + b * c) % p)
        assert x.frobenius() == x ** p == F((a, -b))


def test_enumeration_is_lexicographic():
    F = field_create(5)
    assert [e.coords for e in F.elements()] == list(itertools.product(range(5), repeat=2))


def test_frobenius_additivity_exhaustive_small_fields():
    for p in (7, 11):
        F = field_create(p)
        elems = list(F.elements())
        for x in elems:
            xp = x ** p
            for y in elems:
                assert (x + y) ** p == xp + y ** p


def test_field_axioms_sampled():
    rng = random.Random(7)
    for p in (31, 97, 1048573):
        F = field_create(p)
        for _ in range(60):
            x, y, z = (F.random_element(rng) for _ in range(3))
            assert x * (y + z) == x * y + x * z
            assert (x + y) * z == x * z + y * z
            assert x + y == y + x and x * y == y * x
            if not y.is_zero():
                assert (x * y.inverse()) * y == x
                assert y * y.inverse() == F.one()


def test_frobenius_fixes_exactly_the_prime_field():
    for p in (5, 7):
        F = field_create(p)
        fixed = [x for x in F.elements() if x ** p == x]
        assert len(fixed) == p
        assert all(x.in_prime_field() for x in fixed)


def test_sqrt_known_values_in_f73():
    F = field_create(73)
    assert sqrt_in_field(F(2)) == F(32)
    assert sqrt_in_field(F(-1)) == F(27)
    assert sqrt_in_field(F(0)) == F(0)


def test_sqrt_exhaustive_f73():
    # every a in F_73 has a root in F_{73^2}, and it lies in F_73 exactly
    # on the null and square residues, found by brute force
    F = field_create(73)
    squares = {(x * x) % 73 for x in range(73)}
    for a in range(73):
        r = sqrt_in_field(F(a))
        assert r * r == F(a)
        assert r.in_prime_field() == (a in squares), a


def test_fp2_sqrt_squares_back_exactly_on_the_squares():
    for p in (5, 7, 13, 17, 31):
        F = field_create(p)
        pairs = list(itertools.product(range(p), repeat=2))
        squares = {F.mul(x, x) for x in pairs}
        for a in pairs:
            root = F.sqrt(a)
            if a in squares:
                assert F.mul(root, root) == a, (p, a)
            else:
                assert root is None, (p, a)


@pytest.mark.parametrize("p", [13, 5, 89])
def test_sqrt_count_is_half_plus_zero(p):
    F = field_create(p)
    count = sum(1 for a in F.elements() if sqrt_in_field(a) is not None)
    assert count == (F.order + 1) // 2


def test_sqrt_returns_smaller_root():
    F = field_create(73)
    for a in range(1, 73):
        r = sqrt_in_field(F(a))
        assert r.coords < F.neg(r.coords)


def test_sqrt_squares_back_at_every_prime_below_2000():
    # Tonelli-Shanks takes its nonsquare from sqrt(d) when p = 1 mod 4
    # and from 1 + sqrt(d) otherwise; were either a square, some roots
    # of random squares would come out wrong
    rng = random.Random(0)
    for p in range(5, 2000):
        if is_prime(p):
            F = field_create(p)
            for _ in range(8):
                y = F.random_element(rng)
                assert sqrt_in_field(y * y).coords in (y.coords, F.neg(y.coords)), p


def test_square_table_is_euler_criterion_at_every_residue_below_2000():
    # 0 reads as no square, as its Euler value 0 is not 1
    for p in range(3, 2000):
        if is_prime(p):
            table = square_table(p)
            assert len(table) == p
            assert [a for a in range(p) if table[a] != (pow(a, (p - 1) // 2, p) == 1)] == [], p


def test_sqrt_in_fp2_at_p_1999_returns_the_smaller_root():
    F = field_create(1999)
    rng = random.Random(0)
    for _ in range(20):
        y = F.random_element(rng)
        r = sqrt_in_field(y * y)
        assert r.coords in (y.coords, F.neg(y.coords)) and r.coords <= F.neg(r.coords)


def test_solve_affine_mod_p_against_brute_force():
    rng = random.Random(11)
    p = 5
    for _ in range(60):
        rows, cols = rng.randrange(1, 4), rng.randrange(1, 4)
        matrix = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
        rhs = [rng.randrange(p) for _ in range(rows)]
        brute = []
        for idx in range(p ** cols):
            vec = [(idx // p ** j) % p for j in range(cols)]
            if all(
                sum(matrix[i][j] * vec[j] for j in range(cols)) % p == rhs[i] % p
                for i in range(rows)
            ):
                brute.append(vec)
        sol = solve_affine_mod_p(matrix, rhs, p)
        if not brute:
            assert sol is None
        else:
            particular, kernel = sol
            assert particular in brute
            assert len(brute) == p ** len(kernel)
