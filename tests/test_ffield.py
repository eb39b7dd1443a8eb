import itertools
import math
import random

import pytest

from fibercurve.ffield import (
    GF,
    FieldError,
    _first_nonresidue,
    _poly_deg,
    _poly_divmod,
    _poly_gcd,
    _poly_mul,
    _poly_powmod_x_q,
    _poly_sub,
    _prime_divisors,
    field_create,
    inverse_mod,
    is_prime,
    solve_affine_mod_p,
    sqrt_in_field,
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
    F = field_create(13, 1)
    assert F.order == 13
    F2 = field_create(13, 2)
    assert F2.order == 169
    x = F2([3, 5])
    assert x ** 13 != x
    assert (x ** 13) ** 13 == x
    F52 = field_create(5, 2)
    assert F52.order == 25


def test_field_create_rejects_bad_input():
    with pytest.raises(FieldError):
        field_create(12)
    with pytest.raises(FieldError):
        field_create(3)  # characteristic must exceed 3
    with pytest.raises(FieldError):
        field_create(5, 0)
    with pytest.raises(FieldError):
        field_create(1048583)  # beyond the accepted characteristic bound


def test_defining_polynomial_is_deterministic():
    a = field_create(13, 2)
    b = field_create(13, 2)
    assert a.modulus == b.modulus
    assert [e.coords for e in a.elements()] == [e.coords for e in b.elements()]


def test_enumeration_is_lexicographic():
    F = field_create(5, 2)
    elems = list(F.elements())
    assert [e.coords for e in elems] == sorted(e.coords for e in elems)
    assert [e.index() for e in elems] == list(range(25))


def test_frobenius_additivity_exhaustive_small_fields():
    for p, k in ((7, 2), (11, 2), (5, 3)):
        F = field_create(p, k)
        elems = list(F.elements())
        for x in elems:
            xp = x ** p
            for y in elems:
                assert (x + y) ** p == xp + y ** p


def test_field_axioms_sampled():
    rng = random.Random(7)
    for p, k in ((13, 3), (31, 2), (97, 1), (5, 5)):
        F = field_create(p, k)
        for _ in range(60):
            x, y, z = (F.random_element(rng) for _ in range(3))
            assert x * (y + z) == x * y + x * z
            assert (x + y) * z == x * z + y * z
            assert x + y == y + x and x * y == y * x
            if not y.is_zero():
                assert (x * y.inverse()) * y == x
                assert y * y.inverse() == F.one()


def test_frobenius_fixes_exactly_the_prime_field():
    for p, k in ((5, 2), (7, 3)):
        F = field_create(p, k)
        fixed = [x for x in F.elements() if x ** p == x]
        assert len(fixed) == p
        assert all(x.in_prime_field() for x in fixed)


def test_sqrt_known_values_in_f73():
    F = field_create(73)
    assert sqrt_in_field(F(2)) == F(32)
    assert sqrt_in_field(F(-1)) == F(27)
    assert sqrt_in_field(F(0)) == F(0)


def test_sqrt_exhaustive_f73():
    # brute-force oracle: the null and square elements in F_73
    F = field_create(73)
    squares = {(x * x) % 73 for x in range(73)}
    hits = 0
    for a in F.elements():
        r = sqrt_in_field(a)
        if a.lift() in squares:
            assert r is not None and r * r == a
            hits += 1
        else:
            assert r is None
    assert hits == (73 + 1) // 2


@pytest.mark.parametrize("p,k", [(13, 2), (5, 4), (89, 1)])
def test_sqrt_count_is_half_plus_zero(p, k):
    F = field_create(p, k)
    count = sum(1 for a in F.elements() if sqrt_in_field(a) is not None)
    assert count == (F.order + 1) // 2


def test_sqrt_returns_smaller_root():
    F = field_create(73)
    for a in range(1, 73):
        r = sqrt_in_field(F(a))
        if r is not None and not r.is_zero():
            assert r.index() < (-r).index()


def test_nonresidue_of_fp2_is_a_small_shift_of_the_generator():
    # the canonical scan starts with the p - 1 multiples of x, which share
    # one quadratic character; x + c finds a nonresidue within 11 shifts
    for p in range(5, 2000):
        if is_prime(p):
            F = field_create(p, 2)
            n = _first_nonresidue(F)
            assert n.coords[1] == 1 and n.coords[0] <= 10, p
            assert n ** ((F.order - 1) // 2) == F(-1), p


def test_sqrt_in_fp2_at_p_1999_returns_the_smaller_root():
    F = field_create(1999, 2)
    rng = random.Random(0)
    for _ in range(20):
        y = F.random_element(rng)
        r = sqrt_in_field(y * y)
        assert r in (y, -y) and r.index() <= (-r).index()


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


def schoolbook_mul(F, a, b):
    """a b in F_{p^k} by the coefficient convolution, then top-down
    reduction by the defining polynomial one coefficient at a time."""
    p, k, mod = F.p, F.k, F.modulus
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for i in range(2 * k - 2, k - 1, -1):
        c = prod[i] % p
        for j in range(k):
            prod[i - k + j] -= c * mod[j]
    return tuple(c % p for c in prod[:k])


def schoolbook_pow(F, a, n):
    result = F.one().coords
    for bit in bin(n)[2:]:
        result = schoolbook_mul(F, result, result)
        if bit == "1":
            result = schoolbook_mul(F, result, a)
    return result


# the largest accepted characteristic, 1048573 < 2^20, at k = 2 puts the
# packed product's slots nearest their bound (2k - 1) p^2 < 2^64
@pytest.mark.parametrize("p,k", [(5, 2), (5, 6), (7, 10), (31, 6), (31, 8), (101, 4),
                                 (1048573, 2), (999979, 3), (5, 25)])
def test_packed_product_matches_schoolbook(p, k):
    F = field_create(p, k)
    rng = random.Random(p * k)
    top = (p - 1,) * k
    operands = [top, F.one().coords] + [F.random_element(rng).coords for _ in range(40)]
    for a in operands:
        assert F._mul(a, top) == schoolbook_mul(F, a, top)
        b = F.random_element(rng).coords
        assert F._mul(a, b) == schoolbook_mul(F, a, b)
        n = rng.randrange(1, F.order)
        assert F._pow(a, n) == schoolbook_pow(F, a, n)
        if any(a):
            assert schoolbook_mul(F, a, F._inv(a)) == F.one().coords


def mobius(n):
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


@pytest.mark.parametrize("p", [5, 7, 31, 1048573])
def test_poly_divmod_is_the_reduced_euclidean_division(p):
    # q b + r = a, deg r < deg b, coefficients in [0, p) and no zero
    # leading term pin the answer down, however the loop reduces on the way
    rng = random.Random(p)
    for _ in range(400):
        a = tuple(rng.randrange(p) for _ in range(rng.randrange(1, 14)))
        b = tuple(rng.randrange(p) for _ in range(rng.randrange(8))) + (rng.randrange(1, p),)
        q, r = _poly_divmod(a, b, p)
        for c in (q, r):
            assert all(0 <= x < p for x in c) and (len(c) == 1 or c[-1]), (a, b)
        assert _poly_deg(r) < len(b) - 1
        assert _poly_sub(_poly_sub(a, r, p), _poly_mul(q, b, p), p) == (0,)


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("k", [4, 5, 6])
def test_irreducible_count_is_gauss_count(p, k):
    F = GF(p, k)
    accepted = sum(F._is_irreducible(tuple(low) + (1,))
                   for low in itertools.product(range(p), repeat=k))
    gauss = sum(mobius(d) * p ** (k // d) for d in range(1, k + 1) if k % d == 0) // k
    assert accepted == gauss


def powmod_rabin_is_irreducible(coeffs, p):
    """The earlier test: no root in F_p, then (degree > 3) Rabin's
    conditions with each x^(p^j) mod f by square-and-multiply."""
    k = len(coeffs) - 1
    if any(sum(c * u ** i for i, c in enumerate(coeffs)) % p == 0 for u in range(p)):
        return False
    if k <= 3:
        return True
    x = (0, 1)
    if _poly_powmod_x_q(p ** k, coeffs, p) != x:
        return False
    return all(_poly_deg(_poly_gcd(_poly_sub(_poly_powmod_x_q(p ** (k // ell), coeffs, p), x, p),
                                   coeffs, p)) == 0
               for ell in _prime_divisors(k))


def powmod_rabin_modulus(p, k):
    for high_first in itertools.product(range(p), repeat=k):
        coeffs = tuple(reversed(high_first)) + (1,)
        if powmod_rabin_is_irreducible(coeffs, p):
            return coeffs


def test_modulus_matches_the_powmod_rabin_scan():
    for p in (p for p in range(5, 100) if is_prime(p)):
        for k in range(2, 9):
            if p ** k <= 10 ** 18:
                assert GF(p, k).modulus == powmod_rabin_modulus(p, k), (p, k)
