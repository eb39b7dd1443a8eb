"""Exceptional subgroups of PGL_2(F_p) and their orbit tables on P^1.

The three kinds are the projective tetrahedral, octahedral and
icosahedral groups (orders 12, 24, 60).  Each is realized inside
PSL_2(F_p) from a generator pair (S, T) subject to trace conditions:

  - tetrahedral: det 1 traces +-1, 0, +-1 for S, T, ST;
  - octahedral:  traces in {0, +-1, +-sqrt(2)} with
                 tS^2 + tT^2 + tST^2 - tS tT tST = 3;
  - icosahedral: traces in {0, +-m, +-1, +-1/m} for m = (1+sqrt(5))/2,
                 with the same combination in {2+m, 3, 2-1/m}.

Explicit generator matrices are used where a pinned convention exists
(tetrahedral with a cube root of unity, octahedral from sqrt(2) and i,
icosahedral at p = 421); otherwise a lexicographic scan over
determinant-1 matrices finds the first pair passing the criteria, and
the group order is verified in all cases.  The scan enumerates only the
matrices whose trace is admissible, in the same lexicographic order, so
it finds the same first pair as a walk over all of SL_2(F_p).

Orbit decompositions of P^1(F_p) are cross-checked against one rule
(`rational_orbits`): the exceptional orbit of isotropy h lies on
P^1(F_p) exactly when 2h | p - 1, and every other orbit is free, which
fixes the total orbit count N_p.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ffield import InconsistencyError, field_create, inverse_mod, is_prime, sqrt_in_field
from .projline import (
    GroupError,
    Orbit,
    SubgroupTable,
    generate_subgroup,
    orbits,
    projective_order,
    transform,
)

KINDS = ("a4", "s4", "a5")

PROJECTIVE_ORDER = {"a4": 12, "s4": 24, "a5": 60}

# exceptional-orbit profiles: name -> (orbit size, isotropy order)
ORBIT_PROFILE = {
    "a4": {"O2": (6, 2), "O3,1": (4, 3), "O3,2": (4, 3)},
    "s4": {"O2": (12, 2), "O3": (8, 3), "O4": (6, 4)},
    "a5": {"O2": (30, 2), "O3": (20, 3), "O5": (12, 5)},
}

# Root choices for the explicit octahedral generators are pinned per
# prime where a worked-example table fixes the convention; elsewhere the
# canonically smallest roots are taken.  The pair is (sqrt(2), i).
PINNED_S4_ROOTS = {73: (41, 27)}

# Icosahedral generator matrices known by explicit reduction, stored for
# the column-vector action (entries transposed relative to the row
# convention the source tables were drawn with).
A5_EXPLICIT = {421: ((211, 316, 196, 100), (100, 306, 70, 210))}


class UsageError(ValueError):
    """A request names an argument, or a combination of arguments, that
    the program does not accept; the command line maps it to exit code 2."""


class CongruenceError(UsageError):
    """The requested kind does not exist at this prime."""


class VerificationError(InconsistencyError):
    """An orbit table disagrees with its closed form (exit 3, or a failed battery row)."""

    def __init__(self, kind: str, p: int, what: str):
        super().__init__("orbit table: %s (kind %s, p = %d)" % (what, kind, p))


def check_congruence(kind: str, p: int) -> None:
    if kind not in KINDS:
        raise ValueError("unknown kind %r" % kind)
    if not is_prime(p) or p <= 3:
        raise CongruenceError("p must be a prime > 3")
    if kind == "s4" and p % 8 not in (1, 7):
        raise CongruenceError(
            "S4 requires p = +-1 mod 8 (at p = %d mod 8 the curve is a "
            "form of the A4 one)" % (p % 8)
        )
    if kind == "a5" and p % 5 not in (1, 4):
        raise CongruenceError("A5 requires p = +-1 mod 5")


def _sqrt_pair(p: int, a: int):
    """Both square roots of a mod p, ascending; None when a is a nonsquare.

    Every a in F_p is a square in F_{p^2}, and its root there lies in F_p
    exactly when a is a square mod p.
    """
    r, s = sqrt_in_field(field_create(p)(a)).coords
    if s:
        return None
    return tuple(sorted((r, (p - r) % p)))


def _det1_matrices(p: int, traces):
    """The matrices of SL_2(F_p) with trace in `traces`, in lexicographic
    order of the entry tuple (a, b, c, d).

    Only these are enumerated: a = 0 forces c = -1/b and d = t; a, b != 0
    give d = t - a and c = (a d - 1)/b, one c per trace; b = 0 forces
    d = 1/a, with every c, when a + 1/a is an allowed trace.
    """
    allowed = sorted({t % p for t in traces})
    for a in range(p):
        if a == 0:
            for b in range(1, p):
                c = -inverse_mod(b, p) % p
                for t in allowed:
                    yield (0, b, c, t)
            continue
        ainv = inverse_mod(a, p)
        if (a + ainv) % p in allowed:
            for c in range(p):
                yield (a, 0, c, ainv)
        for b in range(1, p):
            binv = inverse_mod(b, p)
            for c, d in sorted(
                ((a * (t - a) - 1) * binv % p, (t - a) % p) for t in allowed
            ):
                yield (a, b, c, d)


def _trace_data(kind: str, p: int):
    """(allowed trace set, allowed combination values) for the scan."""
    if kind == "a4":
        return {0, 1, p - 1}, {2}
    if kind == "s4":
        roots = _sqrt_pair(p, 2)
        if roots is None:
            raise CongruenceError("sqrt(2) does not exist mod %d" % p)
        traces = {0, 1, p - 1, roots[0], roots[1]}
        return traces, {3}
    mu_roots = _sqrt_pair(p, 5)
    if mu_roots is None:
        raise CongruenceError("sqrt(5) does not exist mod %d" % p)
    inv2 = inverse_mod(2, p)
    mu = (1 + mu_roots[0]) * inv2 % p
    mu_inv = inverse_mod(mu, p)
    traces = {0, 1, p - 1, mu, p - mu, mu_inv, p - mu_inv}
    combos = {(2 + mu) % p, 3 % p, (2 - mu_inv) % p}
    return traces, combos


def _scan_generators(kind: str, p: int) -> SubgroupTable:
    """First (S, T) in lexicographic order passing the trace criteria."""
    traces, combos = _trace_data(kind, p)
    target = PROJECTIVE_ORDER[kind]
    if kind == "a4":
        s_traces, t_traces = {1, p - 1}, {0}
        st_traces = {1, p - 1}
    else:
        s_traces = t_traces = st_traces = traces
    for sm in _det1_matrices(p, s_traces):
        ts = (sm[0] + sm[3]) % p
        for tm in _det1_matrices(p, t_traces):
            tt = (tm[0] + tm[3]) % p
            tst = (
                sm[0] * tm[0] + sm[1] * tm[2] + sm[2] * tm[1] + sm[3] * tm[3]
            ) % p
            if tst not in st_traces:
                continue
            if (ts * ts + tt * tt + tst * tst - ts * tt * tst) % p not in combos:
                continue
            S = transform(p, *sm)
            T = transform(p, *tm)
            group = generate_subgroup(p, [S, T], cap=4 * target)
            if group.order == target:
                return group
    raise GroupError("no generator pair found for %s at p=%d" % (kind, p))


def build_exceptional(kind: str, p: int) -> SubgroupTable:
    """A subgroup of PGL_2(F_p) of the requested exceptional kind.

    Explicit generators are used where the convention is pinned, and the
    projective order (12, 24 or 60) is always verified.
    """
    check_congruence(kind, p)
    target = PROJECTIVE_ORDER[kind]
    gens = None
    if kind == "a4" and p % 3 == 1:
        zeta = _cube_root_of_unity(p)
        gens = (
            transform(p, zeta, 0, -1, zeta * zeta),
            transform(p, 0, -1, 1, 0),
        )
    elif kind == "s4" and p % 8 == 1:
        if p in PINNED_S4_ROOTS:
            r2, i = PINNED_S4_ROOTS[p]
        else:
            r2 = _sqrt_pair(p, 2)[0]
            i = _sqrt_pair(p, -1)[0]
        gens = (transform(p, r2, 1, -1, 0), transform(p, 1, i, i, 0))
    elif kind == "a5" and p in A5_EXPLICIT:
        sm, tm = A5_EXPLICIT[p]
        gens = (transform(p, *sm), transform(p, *tm))
    if gens is not None:
        group = generate_subgroup(p, gens, cap=4 * target)
        if group.order != target:
            raise GroupError(
                "explicit generators gave order %d, expected %d"
                % (group.order, target)
            )
        return group
    return _scan_generators(kind, p)


def _cube_root_of_unity(p: int) -> int:
    """Canonically smallest primitive cube root of unity mod p."""
    for z in range(2, p):
        if z * z % p != 1 and pow(z, 3, p) == 1:
            return z
    raise CongruenceError("no primitive cube root of unity mod %d" % p)


@dataclass
class OrbitTable:
    """Orbit decomposition of P^1(F_p) under an exceptional group."""

    kind: str
    p: int
    orbits: list
    exceptional: dict = field(default_factory=dict)
    group: SubgroupTable = None

    def orbit_of(self, point) -> Orbit:
        for o in self.orbits:
            if point in o:
                return o
        raise KeyError(point)

    def flags(self) -> dict:
        return {name: name in self.exceptional for name in ORBIT_PROFILE[self.kind]}


def rational_orbits(kind: str, p: int) -> list:
    """The exceptional orbits on P^1(F_p), as ORBIT_PROFILE's (name, size,
    isotropy h) sorted by (h, name): those with 2h | p - 1.

    A point stabilizer of H is cyclic of order h, prime to p, so it sits
    in a split torus of PSL_2(F_p), of order (p - 1)/2; conversely an
    element of order h | (p - 1)/2 is split and fixes two points of
    P^1(F_p).  So the orbit of isotropy h is there exactly when 2h | p - 1.
    """
    return sorted(((name, size, h) for name, (size, h) in ORBIT_PROFILE[kind].items()
                   if (p - 1) % (2 * h) == 0), key=lambda o: (o[2], o[0]))


def orbit_table(kind: str, p: int) -> OrbitTable:
    """Orbits of P^1(F_p) under the exceptional group, verified.

    The computed orbit count and the exceptional (size, isotropy) pairs
    must match `rational_orbits`, whose other orbits are free; a mismatch
    raises VerificationError.
    """
    group = build_exceptional(kind, p)
    orbs = orbits(group)
    expected = rational_orbits(kind, p)
    profile = [(size, h) for _, size, h in expected]
    free_points = p + 1 - sum(size for size, _ in profile)
    expected_np = len(profile) + free_points // PROJECTIVE_ORDER[kind]
    if len(orbs) != expected_np:
        raise VerificationError(kind, p, "%d orbits computed, the closed form gives %d"
                                % (len(orbs), expected_np))
    pending = sorted((o for o in orbs if o.isotropy_order > 1),
                     key=lambda o: (o.isotropy_order, o.representative))
    found = [(len(o), o.isotropy_order) for o in pending]
    if found != profile:
        raise VerificationError(kind, p, "exceptional orbits (size, isotropy) %s computed, "
                                "the rule 2h | p - 1 gives %s" % (found, profile))
    exceptional = {name: o for (name, _, _), o in zip(expected, pending)}
    _check_cyclic_isotropy(kind, p, exceptional)
    return OrbitTable(kind, p, orbs, exceptional, group)


def _check_cyclic_isotropy(kind: str, p: int, exceptional: dict) -> None:
    # orbits() kept each orbit's stabilizer and checked the
    # orbit-stabilizer identity, so only cyclicity is left
    for name, orbit in exceptional.items():
        stab = orbit.stabilizer
        if not any(projective_order(p, g) == len(stab) for g in stab):
            raise VerificationError(kind, p, "the isotropy group of %s is not cyclic"
                                    % name)
