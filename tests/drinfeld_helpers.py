"""Test-side views of Drinfeld data, built on the package's public functions."""

from fibercurve.drinfeld import default_orbit_pair, evaluate_projective
from fibercurve.exceptional import orbit_table
from fibercurve.ffield import square_table
from fibercurve.projline import IDENTITY


def phi_constant_on_orbits(kind: str, p: int) -> bool:
    """Exhaustively check that phi takes one value per orbit."""
    table = orbit_table(kind, p)
    orbit1, orbit2 = default_orbit_pair(table)
    return all(len({evaluate_projective(p, orbit1, orbit2, x) for x in orbit.points}) == 1
               for orbit in table.orbits)


def form_label(curve) -> str:
    """A curve's equation with its closed-form constant written A."""
    if curve.form == "v_power":
        return "U^2 = V^%d + A" % curve.m
    if curve.form == "x_times_power":
        return "Y^2 = X(X^%d + A)" % curve.m
    return curve.text()


def horizontal_genus(p: int, elements, e: int) -> int:
    """Genus of the e-horizontal of X_H at p by Riemann-Hurwitz on the
    Deligne-Lusztig curve DL: x^p y - x y^p = 1, of genus p(p - 1)/2,
    with H given by its elements in PGL_2(F_p).

    The horizontal is the quotient of DL by the preimage in SL_2(F_p) of
    H' = H meet PSL_2 and by mu_e, of degree 2e|H'|, a tame action, so

      2g - 2 = [(p - 2)(p + 1) - R_e] / (2e|H'|),
      R_e = 2e F - (p + 1) + (p + 1) A_e,

    with F the sum over H' of each element's fixed points on P^1(F_p),
    A_1 = 0, A_2 = 2 c_2 and A_3 = 2 c_3, c_k the number of elements of
    order k in H'.  A nontrivial element of trace t and determinant d
    fixes 2, 1 or 0 points as t^2 - 4d is a nonzero square, 0 or neither;
    it has order 2 when t = 0 and order 3 when t^2 = d.
    """
    squares = square_table(p)
    order = fixed = c2 = c3 = 0
    for g in elements:
        a, b, c, d = g
        det = (a * d - b * c) % p
        if not squares[det]:
            continue
        order += 1
        t = (a + d) % p
        disc = (t * t - 4 * det) % p
        fixed += p + 1 if g == IDENTITY else 2 * squares[disc] if disc else 1
        c2 += t == 0
        c3 += t * t % p == det
    ramification = 2 * e * fixed - (p + 1) + (p + 1) * {1: 0, 2: 2 * c2, 3: 2 * c3}[e]
    twice, rem = divmod((p - 2) * (p + 1) - ramification, 2 * e * order)
    if rem or twice % 2:
        raise ValueError("Riemann-Hurwitz: 2g - 2 = %d/%d is not an even integer (p = %d)"
                         % ((p - 2) * (p + 1) - ramification, 2 * e * order, p))
    return twice // 2 + 1
