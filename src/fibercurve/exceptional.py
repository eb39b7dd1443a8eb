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
icosahedral at p = 421); otherwise the first pair, in lexicographic
order of determinant-1 entry tuples, that passes the criteria is solved
for.  S is the least admissible matrix (0, 1, -1, t0): PSL_2(F_p) has
one class each of involutions and of elements of order 3, so some
conjugate of the group maps a generator onto it.  T is solved one first
entry at a time, two quadratic roots per (tr T, tr ST) pair, and each
sorted row is tried in the order of a walk over SL_2(F_p).  The group
order is verified in all cases.

Orbit decompositions of P^1(F_p) are cross-checked against one rule
(`rational_orbits`): the exceptional orbit of isotropy h lies on
P^1(F_p) exactly when 2h | p - 1, and every other orbit is free, which
fixes the total orbit count N_p.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ffield import InconsistencyError, inverse_mod, is_prime, sqrt_mod_p
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
    """Both square roots of a mod p, ascending, from one `sqrt_mod_p`;
    None when a is a nonsquare.  The root is squared back: a wrong one
    raises InconsistencyError."""
    r = sqrt_mod_p(a, p)
    if r is None:
        return None
    if r * r % p != a % p:
        raise InconsistencyError(
            "square root: the computed root of a square does not square "
            "back to it (p = %d)" % p)
    return tuple(sorted((r, -r % p)))


def _quadratic_roots(p: int, b: int, c: int) -> set:
    """The roots of x^2 + b x + c mod p."""
    roots = _sqrt_pair(p, b * b - 4 * c) or ()
    return {(r - b) * ((p + 1) // 2) % p for r in roots}


def _trace_data(kind: str, p: int):
    """(allowed trace set, allowed combination values) for the solve."""
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


def _row(p: int, t0: int, pairs, a: int) -> set:
    """The T = (a, b, c, d) of SL_2(F_p) with first entry a whose trace t
    and tr(ST) = c - b + t0 d form one of `pairs`, for S = (0, 1, -1, t0)."""
    row, ainv = set(), pow(a, -1, p) if a else 0
    for t, tau in pairs:
        # b = 0 forces d = 1/a, so t = a + 1/a, and c = tau - t0/a
        if a and t == (a + ainv) % p:
            row.add((a, 0, (tau - t0 * ainv) % p, ainv))
        # b != 0: d = t - a and c = (a d - 1)/b, so b^2 + (tau - t0 d) b - (a d - 1) = 0
        d = (t - a) % p
        for b in _quadratic_roots(p, tau - t0 * d, 1 - a * d):
            if b:
                row.add((a, b, (a * d - 1) * pow(b, -1, p) % p, d))
    return row


def _solve_generators(kind: str, p: int) -> SubgroupTable:
    """The first (S, T) in lexicographic order passing the trace criteria.

    S is the least admissible matrix, (0, 1, -1, t0); T is solved one
    first entry a at a time, and each row is tried in sorted order.
    """
    traces, combos = _trace_data(kind, p)
    target = PROJECTIVE_ORDER[kind]
    if kind == "a4":
        s_traces, t_traces, st_traces = {1, p - 1}, {0}, {1, p - 1}
    else:
        s_traces = t_traces = st_traces = traces
    t0 = min(s_traces)
    S = transform(p, 0, 1, -1, t0)
    pairs = [(t, tau) for t in t_traces for tau in st_traces
             if (t0 * t0 + t * t + tau * tau - t0 * t * tau) % p in combos]
    for a in range(p):
        for tm in sorted(_row(p, t0, pairs, a)):
            group = generate_subgroup(p, [S, transform(p, *tm)], cap=4 * target)
            if group.order == target:
                return group
    raise InconsistencyError("generator pair: no solved pair generates a group of "
                             "order %d (kind %s, p = %d)" % (target, kind, p))


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
    return _solve_generators(kind, p)


def _cube_root_of_unity(p: int) -> int:
    """Canonically smallest primitive cube root of unity mod p = 1 mod 3:
    the smaller root of z^2 + z + 1, (-1 +- sqrt(-3))/2."""
    return min(_quadratic_roots(p, 1, 1))


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
