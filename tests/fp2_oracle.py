"""Test-side F_{p^2}: operator syntax over the library's pair arithmetic,
and the point count by one linear solve per nonzero x.

`ElementField(p)` is `ffield.GF(p)` with element creation added, and an
`FqElement` wraps a coordinate pair and calls the field's pair methods,
so the reference checks read as formulas: `x ** p`, `x * y - 1`,
`x.inverse()`.
"""

import itertools

from fibercurve.ffield import GF, FieldError, solve_affine_mod_p


class ElementField(GF):
    """GF(p) that also makes FqElements."""

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
        return FqElement(self, (1, 0))

    def elements(self):
        """All elements in canonical (lexicographic) order."""
        for coords in itertools.product(range(self.p), repeat=2):
            yield FqElement(self, coords)

    def basis(self):
        """The coordinate basis 1, sqrt(d) of F_{p^2} over F_p."""
        return [self.one(), FqElement(self, (0, 1))]

    def random_element(self, rng) -> "FqElement":
        """Draws the two coordinates from rng.randrange(p), in order, as
        the library's samplers do."""
        return FqElement(self, (rng.randrange(self.p), rng.randrange(self.p)))


class FqElement:
    """Immutable element of an ElementField: its coordinate pair."""

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
            if other.field != self.field:
                raise FieldError("field mismatch")
            return other.coords
        if isinstance(other, int):
            return (other % self.field.p, 0)
        return NotImplemented

    def _apply(self, op, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FqElement(self.field, op(self.coords, c))

    def __add__(self, other):
        return self._apply(self.field.add, other)

    __radd__ = __add__

    def __sub__(self, other):
        return self._apply(self.field.sub, other)

    def __mul__(self, other):
        return self._apply(self.field.mul, other)

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
        return (isinstance(other, FqElement) and self.field == other.field
                and self.coords == other.coords)

    def __hash__(self):
        return hash((self.field.p, self.coords))

    def __repr__(self):
        return "GF(%d^2)%r" % (self.field.p, list(self.coords))


def enumerated_count_points_fp2(p: int, a) -> int:
    """Projective points of x^p y - x y^p = a z^(p+1) over F_{p^2}, for the
    pair a: one F_p-linear solve for each of the p^2 - 1 nonzero x, and
    the points at infinity enumerated over all of F_{p^2}."""
    F = ElementField(p)
    a = F(a)
    count = 0
    # z = 0: x^p y = x y^p on P^1, enumerate both charts
    for t in F.elements():
        if t.frobenius() == t:  # (x : y) = (t : 1)
            count += 1
    count += 1  # (1 : 0) always satisfies x^p * 0 - x * 0 = 0
    # z = 1: for each x count y with x^p y - x y^p = a, an F_p-linear
    # equation in the coordinates of y
    basis = F.basis()
    basis_p = [e.frobenius() for e in basis]
    for x in F.elements():
        if x.is_zero():
            continue  # 0 - 0 = a is impossible for a != 0
        xp = x.frobenius()
        cols = [xp * e - x * ep for e, ep in zip(basis, basis_p)]
        matrix = [[col.coords[i] for col in cols] for i in range(2)]
        sol = solve_affine_mod_p(matrix, a.coords, p)
        if sol is not None:
            count += p ** len(sol[1])
    return count
