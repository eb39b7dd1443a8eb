"""Test-side views of Drinfeld data, built on the package's public functions."""

from fibercurve.drinfeld import default_orbit_pair, evaluate_projective, quotient_map
from fibercurve.exceptional import orbit_table


def phi_constant_on_orbits(kind: str, p: int) -> bool:
    """Exhaustively check that phi takes one value per orbit."""
    table = orbit_table(kind, p)
    orbit1, orbit2 = default_orbit_pair(kind, p, table)
    num, den = quotient_map(p, orbit1, orbit2, orbit1.isotropy_order,
                            orbit2.isotropy_order)
    return all(len({evaluate_projective(p, num, den, x) for x in orbit.points}) == 1
               for orbit in table.orbits)


def form_label(curve) -> str:
    """A curve's equation with its closed-form constant written A."""
    if curve.form == "v_power":
        return "U^2 = V^%d + A" % curve.m
    if curve.form == "x_times_power":
        return "Y^2 = X(X^%d + A)" % curve.m
    return curve.text()
