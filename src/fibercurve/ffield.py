"""Exact arithmetic over F_p and its extensions F_{p^k}.

Fields are created with a deterministically chosen defining polynomial
(the first monic irreducible of the requested degree in lexicographic
coefficient order), so that every value computed downstream is
byte-reproducible across runs.  Elements are coordinate vectors over
the prime field, low degree first, and the canonical order on elements
is the lexicographic order on those vectors.

A product in F_{p^k}, k > 1, is one integer product (Kronecker
substitution): each operand's coordinates are packed into 64-bit slots
of one int, the int product's slots hold the coefficients of the
polynomial product unreduced, and each of the k - 1 high slots is
folded back, mod p, onto a precomputed packed row x^(k+i) mod f.
"""

from __future__ import annotations

import itertools
import struct
from operator import mul

MAX_CHAR = 1 << 20          # largest accepted characteristic
MAX_ORDER = 10 ** 18        # largest constructible field order
MAX_ENUM = 10 ** 6          # largest order for full element enumeration


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
    # deterministic Miller-Rabin, valid far beyond MAX_CHAR
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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
    a %= m
    g, x = _ext_gcd(a, m)
    if g != 1:
        raise ValueError("%d is not invertible mod %d" % (a, m))
    return x % m


def _ext_gcd(a: int, b: int):
    x0, x1 = 1, 0
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
    return a, x0


class GF:
    """The field F_{p^k} with a fixed defining polynomial.

    The polynomial is monic of degree k; its lower coefficients are the
    first tuple (c_0, ..., c_{k-1}) in lexicographic order making
    x^k + c_{k-1} x^{k-1} + ... + c_0 irreducible mod p: f has no root
    in F_p and, for k > 3, passes Rabin's test, x^(p^k) = x mod f and
    gcd(x^(p^(k/l)) - x, f) = 1 for each prime l | k.  g -> g^p is
    F_p-linear mod f, with Berlekamp's matrix B (column i is x^(ip) mod
    f), so x^(p^j) = B^j x: one powering for x^p, then k - 1 products
    for B and k matrix-vector steps.  The field keeps its modulus's B,
    packed one column per int, as its Frobenius map.

    `_mul` packs coordinates into 64-bit slots, and no slot carries into
    the next: a low slot ends below k p^2 from the product plus
    (k - 1) p^2 from the folded rows, so every slot stays below
    (2k - 1) p^2 < 2^64, since p < MAX_CHAR = 2^20 and p^k <= MAX_ORDER
    keeps k <= 25.  A Frobenius image's slots stay below k p^2.
    """

    def __init__(self, p: int, k: int = 1):
        if not is_prime(p):
            raise FieldError("characteristic %d is not prime" % p)
        if p <= 3 or p >= MAX_CHAR:
            raise FieldError("characteristic %d out of accepted range" % p)
        if k < 1:
            raise FieldError("extension degree must be positive")
        if p ** k > MAX_ORDER:
            raise FieldError("field order %d exceeds bound" % p ** k)
        self.p = p
        self.k = k
        self.order = p ** k
        self.modulus = self._find_modulus()
        self._zero = FqElement(self, (0,) * k)
        self._one = FqElement(self, (1,) + (0,) * (k - 1))
        if k > 1:
            self._pack = struct.Struct("<%dQ" % k)
            self._unpack_product = struct.Struct("<%dQ" % (2 * k)).unpack
            self._low_mask = (1 << 64 * k) - 1
            # x^(k+i) mod f for i < k - 1, then Berlekamp's columns
            # x^(jp) mod f = (x^j)^p for j < k, each packed like an operand
            rems = [_poly_divmod((0,) * (k + i) + (1,), self.modulus, p)[1]
                    for i in range(k - 1)]
            packed = [int.from_bytes(self._pack.pack(*r, *(0,) * (k - len(r))), "little")
                      for r in rems + _berlekamp_columns(self.modulus, p, k)]
            self._rows, self._frob_cols = packed[:k - 1], packed[k - 1:]

    # -- construction -------------------------------------------------

    def _find_modulus(self):
        # scan x^k + c_{k-1} x^{k-1} + ... + c_0 in lexicographic order of
        # (c_{k-1}, ..., c_0), constant term varying fastest
        p, k = self.p, self.k
        if k == 1:
            return (0, 1)
        for high_first in itertools.product(range(p), repeat=k):
            coeffs = tuple(reversed(high_first)) + (1,)
            if self._is_irreducible(coeffs):
                return coeffs
        raise FieldError("no irreducible polynomial found")  # unreachable

    def _is_irreducible(self, coeffs) -> bool:
        p, k = self.p, self.k
        for u in range(p):
            acc = 0
            for c in reversed(coeffs):
                acc = (acc * u + c) % p
            if acc == 0:
                return False
        if k <= 3:
            return True  # degree 2 or 3 with no roots is irreducible
        rows = list(zip(*_berlekamp_columns(coeffs, p, k)))
        x = (0, 1) + (0,) * (k - 2)
        powers = [x]  # x^(p^j) for j = 0, ..., k
        for _ in range(k):
            powers.append(tuple(sum(map(mul, row, powers[-1])) % p for row in rows))
        if powers[k] != x:
            return False
        return all(_poly_deg(_poly_gcd(_poly_sub(powers[k // ell], x, p), coeffs, p)) == 0
                   for ell in _prime_divisors(k))

    # -- element creation ---------------------------------------------

    def __call__(self, value) -> "FqElement":
        if isinstance(value, FqElement):
            if value.field is not self:
                raise FieldError("element belongs to a different field")
            return value
        if isinstance(value, int):
            return FqElement(self, (value % self.p,) + (0,) * (self.k - 1))
        coords = tuple(int(c) % self.p for c in value)
        if len(coords) != self.k:
            raise FieldError("expected %d coordinates" % self.k)
        return FqElement(self, coords)

    def zero(self) -> "FqElement":
        return self._zero

    def one(self) -> "FqElement":
        return self._one

    def elements(self):
        """All elements in canonical (lexicographic) order."""
        if self.order > MAX_ENUM:
            raise FieldError("field too large to enumerate")
        for coords in itertools.product(range(self.p), repeat=self.k):
            yield FqElement(self, coords)

    def basis(self):
        """The coordinate basis 1, x, ..., x^(k-1) over F_p."""
        return [self(tuple(int(i == j) for i in range(self.k))) for j in range(self.k)]

    def random_element(self, rng) -> "FqElement":
        return FqElement(self, tuple(rng.randrange(self.p) for _ in range(self.k)))

    # -- raw tuple arithmetic -----------------------------------------

    def _add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def _sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def _neg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def _mul(self, a, b):
        p, k = self.p, self.k
        if k == 1:
            return (a[0] * b[0] % p,)
        # one int product of the packed operands: slot i holds the
        # unreduced coefficient of x^i, and x^(k+i) = row i mod f
        pack = self._pack
        prod = (int.from_bytes(pack.pack(*a), "little")
                * int.from_bytes(pack.pack(*b), "little"))
        high = self._unpack_product(prod.to_bytes(16 * k, "little"))[k:]
        low = prod & self._low_mask
        for h, row in zip(high, self._rows):
            low += h % p * row
        return tuple(c % p for c in pack.unpack(low.to_bytes(8 * k, "little")))

    def _frobenius(self, a):
        # a^p = sum of a_j (x^j)^p: k int products on the packed columns
        if self.k == 1:
            return a
        packed = sum(map(mul, a, self._frob_cols)).to_bytes(8 * self.k, "little")
        return tuple(c % self.p for c in self._pack.unpack(packed))

    def frobenius_columns(self):
        """The matrix of x -> x^p: column j is the coordinates of (x^j)^p."""
        return tuple(self._frobenius(e.coords) for e in self.basis())

    def _pow(self, a, n: int):
        if n < 0:
            return self._pow(self._inv(a), -n)
        result = self._one.coords
        base = a
        while n:
            if n & 1:
                result = self._mul(result, base)
            base = self._mul(base, base)
            n >>= 1
        return result

    def _inv(self, a):
        if not any(a):
            raise ZeroDivisionError("inversion of zero")
        # extended Euclid on polynomials over F_p
        p = self.p
        r0, r1 = self.modulus, _poly_trim(a)
        s0, s1 = (0,), (1,)
        while _poly_deg(r1) > 0:
            q, r = _poly_divmod(r0, r1, p)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1, p), p)
        c = inverse_mod(r1[0], p)
        out = [x * c % p for x in s1]
        out += [0] * (self.k - len(out))
        return tuple(out[: self.k])

    def __repr__(self):
        if self.k == 1:
            return "GF(%d)" % self.p
        return "GF(%d^%d)" % (self.p, self.k)

    def __eq__(self, other):
        return (
            isinstance(other, GF)
            and self.p == other.p
            and self.k == other.k
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))


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
            return self.field(other).coords
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

    def __rsub__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FqElement(self.field, self.field._sub(c, self.coords))

    def __neg__(self):
        return FqElement(self.field, self.field._neg(self.coords))

    def __mul__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FqElement(self.field, self.field._mul(self.coords, c))

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FqElement(self.field, self.field._mul(self.coords, self.field._inv(c)))

    def __rtruediv__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FqElement(self.field, self.field._mul(c, self.field._inv(self.coords)))

    def __pow__(self, n: int):
        return FqElement(self.field, self.field._pow(self.coords, n))

    def inverse(self):
        return FqElement(self.field, self.field._inv(self.coords))

    def frobenius(self):  # self ** p, by the field's linear map
        return FqElement(self.field, self.field._frobenius(self.coords))

    def __eq__(self, other):
        if isinstance(other, int):
            return self.coords == self.field(other).coords
        return (
            isinstance(other, FqElement)
            and self.field == other.field
            and self.coords == other.coords
        )

    def __lt__(self, other):
        return self.coords < self._coerce(other)

    def __hash__(self):
        return hash((self.field.p, self.field.k, self.coords))

    def __repr__(self):
        if self.field.k == 1:
            return "%d" % self.coords[0]
        return "GF(%d^%d)%r" % (self.field.p, self.field.k, list(self.coords))


def field_create(p: int, k: int = 1) -> GF:
    """Field handle for F_{p^k}; deterministic defining polynomial."""
    return GF(p, k)


def sqrt_in_field(a: FqElement):
    """Square root of a, or None when a is not a square.

    When two roots exist the one with smaller canonical index is
    returned, so root choices are reproducible.
    """
    field = a.field
    q = field.order
    if a.is_zero():
        return field.zero()
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
    """A quadratic nonresidue: the first x + c, c = 0, 1, ..., that is one,
    else the first in canonical order.  The canonical order starts with
    the multiples y x of the generator, which in F_{p^2} all share one
    quadratic character; the norm of x + c is (-1)^k f(-c), a
    nonresidue of F_p for about half the c."""
    p, k = field.p, field.k
    shifts = () if k == 1 else (FqElement(field, (c, 1) + (0,) * (k - 2)) for c in range(p))
    canonical = (FqElement(field, coords)
                 for coords in itertools.product(range(p), repeat=k) if any(coords))
    half = (field.order - 1) // 2
    for cand in itertools.chain(shifts, canonical):
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
# dense univariate polynomials over a GF instance
# ---------------------------------------------------------------------------


def _poly_trim(c):
    c = list(c)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_deg(c) -> int:
    for i in range(len(c) - 1, -1, -1):
        if c[i]:
            return i
    return -1


def _poly_sub(a, b, p):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return _poly_trim((x - y) % p for x, y in zip(a, b))


def _poly_mul(a, b, p):
    if _poly_deg(a) < 0 or _poly_deg(b) < 0:
        return (0,)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _poly_trim(out)


def _poly_divmod(a, b, p):
    db = _poly_deg(b)
    if db < 0:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = inverse_mod(b[db], p)
    rem = list(a)
    q = [0] * max(len(a) - db, 1)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] % p
        if c:
            factor = c * inv_lead % p
            q[i - db] = factor
            for j in range(db + 1):
                rem[i - db + j] = (rem[i - db + j] - factor * b[j]) % p
    return _poly_trim(q), _poly_trim(rem)


def _poly_gcd(a, b, p):
    a, b = _poly_trim(a), _poly_trim(b)
    while _poly_deg(b) >= 0:
        a, b = b, _poly_divmod(a, b, p)[1]
    if _poly_deg(a) >= 0:
        c = inverse_mod(a[-1], p)
        a = tuple(x * c % p for x in a)
    return a


def _berlekamp_columns(mod, p, k):
    # x^(jp) mod the monic degree-k `mod` for j < k, each as k coefficients
    xp, cols = _poly_powmod_x_q(p, mod, p), [(1,)]
    for _ in range(k - 1):
        cols.append(_poly_divmod(_poly_mul(cols[-1], xp, p), mod, p)[1])
    return [c + (0,) * (k - len(c)) for c in cols]


def _poly_powmod_x_q(q, mod, p):
    # x^q reduced mod the monic polynomial `mod`, binary exponentiation
    base = _poly_divmod((0, 1), mod, p)[1]
    result = (1,)
    while q:
        if q & 1:
            result = _poly_divmod(_poly_mul(result, base, p), mod, p)[1]
        base = _poly_divmod(_poly_mul(base, base, p), mod, p)[1]
        q >>= 1
    return _poly_trim(result)


# ---------------------------------------------------------------------------
# F_p linear algebra (used by the fiberwise point counts and the
# additive-equation solver for sampling curve points)
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
