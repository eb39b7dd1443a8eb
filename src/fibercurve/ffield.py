"""Exact arithmetic over F_{p^2} = F_p[sqrt(d)], d the first nonsquare mod p.

Fixing d makes every value computed downstream byte-reproducible across
runs.  An element is its coordinate pair (a, b) for a + b sqrt(d), and
the canonical order on elements is the lexicographic order on pairs.
Frobenius x -> x^p is conjugation, (a, b) -> (a, -b), the norm x^(p+1)
is a^2 - d b^2, and an inverse is the conjugate over the norm.  F_p
itself is plain ints with the builtin `pow`.
"""

from __future__ import annotations

import itertools

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


def square_table(p: int) -> bytearray:
    """t[a] = 1 for the nonzero squares a mod the odd prime p, else 0: the
    residues whose Euler criterion a^((p-1)/2) is 1, in one O(p) pass."""
    table = bytearray(p)
    for x in range(1, (p + 1) // 2):
        table[x * x % p] = 1
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

    add, sub, neg, mul, pow, inv, conj, norm and sqrt act on coordinate
    pairs; an FqElement wraps a pair for operator syntax and calls them.
    """

    def __init__(self, p: int):
        if not is_prime(p):
            raise FieldError("characteristic %d is not prime" % p)
        if p <= 3 or p >= MAX_CHAR:
            raise FieldError("characteristic %d out of accepted range" % p)
        self.p = p
        self.order = p * p
        self.d = first_nonsquare(p)
        self._one = FqElement(self, (1, 0))
        # p^2 - 1 = 2^e m with m odd, and c = z^m for a nonsquare z, for
        # sqrt.  An element is a square exactly when its norm is a
        # square in F_p.  The norm of z = x + sqrt(d) is x^2 - d, so x = 0
        # serves when -1 is a square (p = 1 mod 4), and x = 1 otherwise:
        # 1 - d = -(d - 1), where d - 1 is a square, lying below d.
        self._e, self._m = 0, p * p - 1
        while self._m % 2 == 0:
            self._e, self._m = self._e + 1, self._m // 2
        self._c = self.pow((int(p % 4 == 3), 1), self._m)

    # -- element creation ---------------------------------------------

    def __call__(self, value) -> "FqElement":
        if isinstance(value, FqElement):
            if value.field is not self:
                raise FieldError("element belongs to a different field")
            return value
        if isinstance(value, int):
            return FqElement(self, (value % self.p, 0))
        coords = tuple(int(c) % self.p for c in value)
        if len(coords) != 2:
            raise FieldError("expected 2 coordinates")
        return FqElement(self, coords)

    def one(self) -> "FqElement":
        return self._one

    def elements(self):
        """All elements in canonical (lexicographic) order."""
        for coords in itertools.product(range(self.p), repeat=2):
            yield FqElement(self, coords)

    def basis(self):
        """The coordinate basis 1, sqrt(d) of F_{p^2} over F_p."""
        return [self._one, FqElement(self, (0, 1))]

    def random_element(self, rng) -> "FqElement":
        return FqElement(self, (rng.randrange(self.p), rng.randrange(self.p)))

    # -- arithmetic on coordinate pairs -------------------------------

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
        """A square root of a, or None when a is not a square: Tonelli-Shanks
        in the cyclic group F_{p^2}^* of order 2^e m.  a^((p^2-1)/2) is
        N(a)^((p-1)/2), so a is a square exactly when its norm is a square
        in F_p.  sqrt_in_field fixes the choice of root and checks it."""
        p = self.p
        if pow(self.norm(a), (p - 1) // 2, p) == p - 1:
            return None
        if a == (0, 0):
            return a
        one, e, c = (1, 0), self._e, self._c
        r = self.pow(a, (self._m - 1) // 2)
        root = self.mul(r, a)
        t = self.mul(r, root)  # a^m
        while t != one:
            # the least i with t^(2^i) = 1; then c^(2^(e-i-1)) fixes the root
            i, u = 1, self.mul(t, t)
            while u != one:
                i, u = i + 1, self.mul(u, u)
            for _ in range(e - i - 1):
                c = self.mul(c, c)
            root, c = self.mul(root, c), self.mul(c, c)
            t, e = self.mul(t, c), i
        return root

    def __repr__(self):
        return "GF(%d^2)" % self.p

    def __eq__(self, other):
        return isinstance(other, GF) and self.p == other.p

    def __hash__(self):
        return hash(self.p)


class FqElement:
    """Immutable element of a GF instance: its coordinate pair."""

    __slots__ = ("field", "coords")

    def __init__(self, field: GF, coords: tuple):
        self.field = field
        self.coords = coords

    def is_zero(self) -> bool:
        return self.coords == (0, 0)

    def in_prime_field(self) -> bool:
        return not self.coords[1]

    def _coerce(self, other):
        if isinstance(other, FqElement):
            if other.field is not self.field and other.field != self.field:
                raise FieldError("field mismatch")
            return other.coords
        if isinstance(other, int):
            return (other % self.field.p, 0)
        return NotImplemented

    def __add__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FqElement(self.field, self.field.add(self.coords, c))

    __radd__ = __add__

    def __sub__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FqElement(self.field, self.field.sub(self.coords, c))

    def __mul__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FqElement(self.field, self.field.mul(self.coords, c))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return FqElement(self.field, self.field.pow(self.coords, n))

    def inverse(self):
        return FqElement(self.field, self.field.inv(self.coords))

    def frobenius(self):  # self ** p
        return FqElement(self.field, self.field.conj(self.coords))

    def __eq__(self, other):
        if isinstance(other, int):
            return self.coords == self._coerce(other)
        return (
            isinstance(other, FqElement)
            and self.field == other.field
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.field.p, self.coords))

    def __repr__(self):
        return "GF(%d^2)%r" % (self.field.p, list(self.coords))


def field_create(p: int) -> GF:
    """Field handle for F_{p^2}."""
    return GF(p)


def sqrt_in_field(a: FqElement):
    """Square root of a, or None when a is not a square.

    When two roots exist the one with the lexicographically smaller
    coordinate pair is returned, so root choices are reproducible.  The
    root is squared back: a wrong one raises InconsistencyError.
    """
    field = a.field
    r = field.sqrt(a.coords)
    if r is None:
        return None
    root = min(r, field.neg(r))
    if field.mul(root, root) != a.coords:
        raise InconsistencyError(
            "square root: the computed root of a square does not square "
            "back to it in %r (p = %d)" % (field, field.p))
    return FqElement(field, root)


def element_of_order(field: GF, n: int, rng) -> FqElement:
    """A multiplicative element of exact order n, found by random search."""
    q = field.order
    if (q - 1) % n:
        raise FieldError("order %d does not divide %d" % (n, q - 1))
    cof = (q - 1) // n
    primes = _prime_divisors(n)
    while True:
        t = field.random_element(rng)
        if t.is_zero():
            continue
        cand = t ** cof
        if cand.is_zero() or cand == field.one() and n > 1:
            continue
        if all(cand ** (n // ell) != field.one() for ell in primes):
            return cand


def _prime_divisors(n: int):
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
