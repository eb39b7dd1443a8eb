"""Exact arithmetic over F_p and F_{p^2}.

F_{p^2} is F_p[sqrt(d)], d the first nonsquare mod p, so every value
computed downstream is byte-reproducible across runs.  Elements are
coordinate vectors over the prime field: (a,) in F_p and (a, b) for
a + b sqrt(d) in F_{p^2}.  The canonical order on elements,
`FqElement.index()`, is the lexicographic order on those vectors.
Frobenius x -> x^p is conjugation, (a, b) -> (a, -b), and an inverse is
the conjugate over the norm a^2 - d b^2.
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
    """The field F_p (k = 1) or F_{p^2} = F_p[sqrt(d)] (k = 2), d the
    first nonsquare mod p."""

    def __init__(self, p: int, k: int = 1):
        if not is_prime(p):
            raise FieldError("characteristic %d is not prime" % p)
        if p <= 3 or p >= MAX_CHAR:
            raise FieldError("characteristic %d out of accepted range" % p)
        if k not in (1, 2):
            raise FieldError("extension degree %d is not 1 or 2" % k)
        self.p = p
        self.k = k
        self.order = p ** k
        self._zero_coords = (0,) * k
        self._one = FqElement(self, (1,) + self._zero_coords[1:])
        if k == 2:
            self.d = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)

    # -- element creation ---------------------------------------------

    def __call__(self, value) -> "FqElement":
        if isinstance(value, FqElement):
            if value.field is not self:
                raise FieldError("element belongs to a different field")
            return value
        if isinstance(value, int):
            return FqElement(self, (value % self.p,) + self._zero_coords[1:])
        coords = tuple(int(c) % self.p for c in value)
        if len(coords) != self.k:
            raise FieldError("expected %d coordinates" % self.k)
        return FqElement(self, coords)

    def one(self) -> "FqElement":
        return self._one

    def elements(self):
        """All elements in canonical (lexicographic) order."""
        for coords in itertools.product(range(self.p), repeat=self.k):
            yield FqElement(self, coords)

    def basis(self):
        """The coordinate basis 1, sqrt(d) of F_{p^2} (1 of F_p) over F_p."""
        return [self(tuple(int(i == j) for i in range(self.k))) for j in range(self.k)]

    def random_element(self, rng) -> "FqElement":
        return FqElement(self, tuple(rng.randrange(self.p) for _ in range(self.k)))

    # -- raw tuple arithmetic -----------------------------------------

    def _add(self, a, b):
        p = self.p
        if self.k == 1:
            return ((a[0] + b[0]) % p,)
        return ((a[0] + b[0]) % p, (a[1] + b[1]) % p)

    def _sub(self, a, b):
        p = self.p
        if self.k == 1:
            return ((a[0] - b[0]) % p,)
        return ((a[0] - b[0]) % p, (a[1] - b[1]) % p)

    def _neg(self, a):
        return self._sub(self._zero_coords, a)

    def _mul(self, a, b):
        p = self.p
        if self.k == 1:
            return (a[0] * b[0] % p,)
        (a0, a1), (b0, b1) = a, b
        return ((a0 * b0 + self.d * a1 * b1) % p, (a0 * b1 + a1 * b0) % p)

    def _frobenius(self, a):
        if self.k == 1:
            return a
        return (a[0], -a[1] % self.p)

    def _pow(self, a, n: int):
        if n < 0:
            a, n = self._inv(a), -n
        if self.k == 1:
            return (pow(a[0], n, self.p),)
        result = self._one.coords
        while n:
            if n & 1:
                result = self._mul(result, a)
            a = self._mul(a, a)
            n >>= 1
        return result

    def _inv(self, a):
        if not any(a):
            raise ZeroDivisionError("inversion of zero")
        p = self.p
        if self.k == 1:
            return (pow(a[0], -1, p),)
        a0, a1 = a
        c = pow((a0 * a0 - self.d * a1 * a1) % p, -1, p)
        return (a0 * c % p, -a1 * c % p)

    def __repr__(self):
        if self.k == 1:
            return "GF(%d)" % self.p
        return "GF(%d^%d)" % (self.p, self.k)

    def __eq__(self, other):
        return isinstance(other, GF) and (self.p, self.k) == (other.p, other.k)

    def __hash__(self):
        return hash((self.p, self.k))


class FqElement:
    """Immutable element of a GF instance."""

    __slots__ = ("field", "coords")

    def __init__(self, field: GF, coords: tuple):
        self.field = field
        self.coords = coords

    def index(self) -> int:
        """Canonical rank: lexicographic position of the coordinate vector."""
        i = 0
        for c in self.coords:
            i = i * self.field.p + c
        return i

    def is_zero(self) -> bool:
        return not any(self.coords)

    def in_prime_field(self) -> bool:
        return not any(self.coords[1:])

    def lift(self) -> int:
        """Integer residue for prime-field elements."""
        if not self.in_prime_field():
            raise FieldError("element not in the prime field")
        return self.coords[0]

    def _coerce(self, other):
        if isinstance(other, FqElement):
            if other.field is not self.field and other.field != self.field:
                raise FieldError("field mismatch")
            return other.coords
        if isinstance(other, int):
            return (other % self.field.p,) + self.field._zero_coords[1:]
        return NotImplemented

    def __add__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FqElement(self.field, self.field._add(self.coords, c))

    __radd__ = __add__

    def __sub__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FqElement(self.field, self.field._sub(self.coords, c))

    def __neg__(self):
        return FqElement(self.field, self.field._neg(self.coords))

    def __mul__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FqElement(self.field, self.field._mul(self.coords, c))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return FqElement(self.field, self.field._pow(self.coords, n))

    def inverse(self):
        return FqElement(self.field, self.field._inv(self.coords))

    def frobenius(self):  # self ** p: conjugation in F_{p^2}
        return FqElement(self.field, self.field._frobenius(self.coords))

    def __eq__(self, other):
        if isinstance(other, int):
            return self.coords == self._coerce(other)
        return (
            isinstance(other, FqElement)
            and self.field == other.field
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.field.p, self.field.k, self.coords))

    def __repr__(self):
        if self.field.k == 1:
            return "%d" % self.coords[0]
        return "GF(%d^%d)%r" % (self.field.p, self.field.k, list(self.coords))


def field_create(p: int, k: int = 1) -> GF:
    """Field handle for F_p (k = 1) or F_{p^2} (k = 2)."""
    return GF(p, k)


def sqrt_in_field(a: FqElement):
    """Square root of a, or None when a is not a square.

    When two roots exist the one with smaller canonical index is
    returned, so root choices are reproducible.
    """
    field = a.field
    q = field.order
    if a.is_zero():
        return a
    if a ** ((q - 1) // 2) != field.one():
        return None
    r = _tonelli_shanks(a)
    s = -r
    root = r if r.index() <= s.index() else s
    if root * root != a:
        raise InconsistencyError(
            "square root: the computed root of a square does not square "
            "back to it in %r (p = %d)" % (field, field.p))
    return root


def _tonelli_shanks(a: FqElement):
    field = a.field
    q = field.order
    if q % 4 == 3:
        return a ** ((q + 1) // 4)
    m, e = q - 1, 0
    while m % 2 == 0:
        m //= 2
        e += 1
    n = _first_nonresidue(field)
    z = n ** m
    x = a ** ((m + 1) // 2)
    b = a ** m
    while b != field.one():
        t, k = b, 0
        while t != field.one():
            t = t * t
            k += 1
        w = z ** (1 << (e - k - 1))
        x = x * w
        b = b * w * w
        e = k
        z = w * w
    return x


def _first_nonresidue(field: GF) -> FqElement:
    """A quadratic nonresidue: in F_p the first in canonical order, in
    F_{p^2} the first c + sqrt(d), c = 0, 1, ..., that is one.  An
    element of F_{p^2} is a square exactly when its norm is one in F_p.
    The norm of c + sqrt(d) is c^2 - d, so c = 0 serves when -1 is a
    square (p = 1 mod 4), and c = 1 otherwise: 1 - d = -(d - 1), where
    d - 1 is a square, lying below the first nonsquare d."""
    p = field.p
    if field.k == 1:
        cands = (FqElement(field, (c,)) for c in range(1, p))
    else:
        cands = (FqElement(field, (c, 1)) for c in range(p))
    half = (field.order - 1) // 2
    for cand in cands:
        if cand ** half != field.one():
            return cand
    raise FieldError("no quadratic nonresidue found")  # unreachable for q > 1


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
