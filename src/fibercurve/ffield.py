"""Exact arithmetic over F_{p^2} = F_p[sqrt(d)], d the first nonsquare mod p.

Fixing d makes every value computed downstream byte-reproducible across
runs.  An element is its coordinate pair (a, b) of residues for
a + b sqrt(d), a plain tuple, and the canonical order on elements is
the lexicographic order on pairs.  `GF(p)` holds p and d and acts on
pairs: add, sub, neg, mul, pow, inv, conj, norm and sqrt.  Frobenius
x -> x^p is conjugation, (a, b) -> (a, -b), the norm x^(p+1) is
a^2 - d b^2, and an inverse is the conjugate over the norm.  F_p itself
is plain ints with the builtin `pow`; its square roots are `sqrt_mod_p`'s
(Tonelli-Shanks), and `GF.sqrt` builds its roots from them through the norm.
"""

from __future__ import annotations

MAX_CHAR = 1 << 20          # largest accepted characteristic


class FieldError(ValueError):
    pass


class InconsistencyError(Exception):
    """Two independent computations of the same quantity disagree.

    Defined in this module, which imports no other, so that a check in
    any layer can raise it; the command line maps it to exit code 3.
    """


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    # deterministic Miller-Rabin, valid far beyond MAX_CHAR; below
    # 1373653, the least strong pseudoprime to bases 2 and 3
    # (Pomerance-Selfridge-Wagstaff 1980), those two bases suffice
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3) if n < 1373653 else (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def first_nonsquare(p: int) -> int:
    """The least quadratic nonresidue mod the odd prime p."""
    for d in range(2, p):
        if pow(d, (p - 1) // 2, p) == p - 1:
            return d
    raise FieldError("no nonsquare mod %d" % p)


def sqrt_mod_p(a: int, p: int):
    """A root of a mod the odd prime p, or None when a is a nonsquare:
    Tonelli-Shanks (Cohen, A Course in Computational Algebraic Number
    Theory, 1993, Alg. 1.5.1).  For p - 1 = 2^e q, q odd, r = a^((q+1)/2)
    squares to a t, t = a^q of order 2^i in the 2-Sylow subgroup of F_p^*
    that c = first_nonsquare(p)^q generates; each step multiplies r by a
    power of c and lowers i, and i = e marks a nonsquare.  For p = 3 mod 4
    (e = 1) the root is a^((p+1)/4)."""
    a %= p
    if not a:
        return 0
    e = ((p - 1) & (1 - p)).bit_length() - 1
    q = (p - 1) >> e
    r, t, c = pow(a, (q + 1) >> 1, p), pow(a, q, p), 0
    while t != 1:
        i, u = 1, t * t % p
        while u != 1:
            i, u = i + 1, u * u % p
        if i == e:
            return None
        b = pow(c or pow(first_nonsquare(p), q, p), 1 << (e - i - 1), p)
        r, c, t, e = r * b % p, b * b % p, t * b * b % p, i
    return r


def square_table(p: int) -> bytearray:
    """t[a] = 1 for the nonzero squares a mod the odd prime p, else 0: the
    residues whose Euler criterion a^((p-1)/2) is 1, in one O(p) pass."""
    table = bytearray(p)
    for x in range(1, (p + 1) // 2):
        table[x * x % p] = 1
    return table


def inverse_table(p: int) -> list:
    """t[a] = 1/a mod the prime p for 0 < a < p, and t[0] = 0, in one O(p)
    pass: p = (p // a) a + p % a, so 1/a = -(p // a)/(p % a), a smaller entry."""
    table = [0, 1] + [0] * (p - 2)
    for a in range(2, p):
        table[a] = (p - p // a) * table[p % a] % p
    return table


def inverse_mod(a: int, m: int) -> int:
    """Least positive residue r with a*r = 1 mod m.

    Raises ValueError when gcd(a, m) != 1; a non-invertible isotropy
    order reaching this point signals a violated side condition.
    """
    if m < 2:
        raise ValueError("modulus must be >= 2")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise ValueError("%d is not invertible mod %d" % (a % m, m)) from None


class GF:
    """The field F_{p^2} = F_p[sqrt(d)], d = first_nonsquare(p).

    add, sub, neg, mul, pow, inv, conj, norm and sqrt take and return
    coordinate pairs (a, b) for a + b sqrt(d), with a and b in [0, p).
    """

    def __init__(self, p: int):
        if not is_prime(p):
            raise FieldError("characteristic %d is not prime" % p)
        if p <= 3 or p >= MAX_CHAR:
            raise FieldError("characteristic %d out of accepted range" % p)
        self.p = p
        self.order = p * p
        self.d = first_nonsquare(p)

    def add(self, a, b):
        p = self.p
        return ((a[0] + b[0]) % p, (a[1] + b[1]) % p)

    def sub(self, a, b):
        p = self.p
        return ((a[0] - b[0]) % p, (a[1] - b[1]) % p)

    def neg(self, a):
        p = self.p
        return (-a[0] % p, -a[1] % p)

    def mul(self, a, b):
        p = self.p
        (a0, a1), (b0, b1) = a, b
        return ((a0 * b0 + self.d * a1 * b1) % p, (a0 * b1 + a1 * b0) % p)

    def pow(self, a, n: int):
        if n < 0:
            a, n = self.inv(a), -n
        out = (1, 0)
        while n:
            if n & 1:
                out = self.mul(out, a)
            a, n = self.mul(a, a), n >> 1
        return out

    def conj(self, a):
        """Frobenius a -> a^p: sqrt(d)^p = d^((p-1)/2) sqrt(d) = -sqrt(d)."""
        return (a[0], -a[1] % self.p)

    def norm(self, a) -> int:
        """a^(p+1) = a conj(a) = a0^2 - d a1^2, which is 0 only at a = 0."""
        return (a[0] * a[0] - self.d * a[1] * a[1]) % self.p

    def inv(self, a):
        n = self.norm(a)
        if not n:
            raise ZeroDivisionError("inversion of zero")
        c = pow(n, -1, self.p)
        return (a[0] * c % self.p, -a[1] * c % self.p)

    def sqrt(self, a):
        """A square root of a, or None when a is not a square, through the
        norm.  A root (x0, x1) has x0^2 + d x1^2 = a0, 2 x0 x1 = a1 and norm
        +-r for r^2 = N(a), so x0^2 = (a0 +- r)/2.  For a1 != 0 these two
        multiply to d a1^2 / 4, a nonsquare, so exactly one is a square, and
        x1 = a1/(2 x0); for a1 = 0 the root is (sqrt(a0), 0) or
        (0, sqrt(a0/d)).  sqrt_in_field fixes the choice of root and checks it."""
        p, (a0, a1) = self.p, a
        if not a1:
            x0 = sqrt_mod_p(a0, p)
            return (0, sqrt_mod_p(a0 * pow(self.d, -1, p), p)) if x0 is None else (x0, 0)
        r = sqrt_mod_p(self.norm(a), p)
        if r is None:
            return None
        half = (p + 1) // 2  # neither candidate is 0, so `or` skips only a None
        x0 = sqrt_mod_p((a0 + r) * half, p) or sqrt_mod_p((a0 - r) * half, p)
        return (x0, a1 * pow(2 * x0, -1, p) % p)

    def __repr__(self):
        return "GF(%d^2)" % self.p

    def __eq__(self, other):
        return isinstance(other, GF) and self.p == other.p

    def __hash__(self):
        return hash(self.p)


def field_create(p: int) -> GF:
    """Field handle for F_{p^2}."""
    return GF(p)


def sqrt_in_field(field: GF, a):
    """Square root of the pair a in `field`, or None when a is not a square.

    When two roots exist the one with the lexicographically smaller
    coordinate pair is returned, so root choices are reproducible.  The
    root is squared back: a wrong one raises InconsistencyError.
    """
    r = field.sqrt(a)
    if r is None:
        return None
    root = min(r, field.neg(r))
    if field.mul(root, root) != a:
        raise InconsistencyError(
            "square root: the computed root of a square does not square "
            "back to it in %r (p = %d)" % (field, field.p))
    return root


def element_of_order(field: GF, n: int, rng):
    """A pair of exact multiplicative order n, found by random search: each
    try draws its two coordinates from rng.randrange(p), in order."""
    p, q = field.p, field.order
    if (q - 1) % n:
        raise FieldError("order %d does not divide %d" % (n, q - 1))
    cof = (q - 1) // n
    primes = prime_divisors(n)
    one = (1, 0)
    while True:
        t = (rng.randrange(p), rng.randrange(p))
        if t == (0, 0):
            continue
        cand = field.pow(t, cof)
        if cand == one and n > 1:
            continue
        if all(field.pow(cand, n // ell) != one for ell in primes):
            return cand


def prime_divisors(n: int):
    """The distinct primes dividing n, in increasing order, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# F_p linear algebra (used by the fiberwise point count over F_{p^2})
# ---------------------------------------------------------------------------


def solve_affine_mod_p(matrix, rhs, p):
    """Solve M x = b over F_p.

    Returns (particular_solution, kernel_basis) or None when the system
    is inconsistent.  Rows of `matrix` are lists of residues.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    aug = [list(matrix[i]) + [rhs[i] % p] for i in range(rows)]
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if aug[i][c] % p:
                pivot = i
                break
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = inverse_mod(aug[r][c], p)
        aug[r] = [v * inv % p for v in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c] % p:
                f = aug[i][c]
                aug[i] = [(v - f * w) % p for v, w in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if aug[i][cols] % p:
            return None
    particular = [0] * cols
    for i, c in enumerate(pivots):
        particular[c] = aug[i][cols]
    free = [c for c in range(cols) if c not in pivots]
    kernel = []
    for fc in free:
        vec = [0] * cols
        vec[fc] = 1
        for i, c in enumerate(pivots):
            vec[c] = -aug[i][fc] % p
        kernel.append(vec)
    return particular, kernel
