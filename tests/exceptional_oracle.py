"""The scans that `exceptional` replaced by solves, the tests' oracle for them.

`scan_generators` walks the determinant-1 matrices of admissible trace
in lexicographic order for the first pair (S, T) passing the trace
criteria whose group has the right order; `build_exceptional` solves for
that pair instead.  `scan_cube_root_of_unity` walks z = 2, 3, ... for
the least primitive cube root of unity, which the package takes as the
smaller root of z^2 + z + 1.
"""

from __future__ import annotations

from fibercurve.exceptional import PROJECTIVE_ORDER, CongruenceError, _trace_data
from fibercurve.ffield import field_create, inverse_mod
from fibercurve.projline import GroupError, SubgroupTable, generate_subgroup, transform


def det1_matrices(p: int, traces):
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


def scan_generators(kind: str, p: int) -> SubgroupTable:
    """First (S, T) in lexicographic order passing the trace criteria."""
    traces, combos = _trace_data(kind, field_create(p))
    target = PROJECTIVE_ORDER[kind]
    if kind == "a4":
        s_traces, t_traces = {1, p - 1}, {0}
        st_traces = {1, p - 1}
    else:
        s_traces = t_traces = st_traces = traces
    for sm in det1_matrices(p, s_traces):
        ts = (sm[0] + sm[3]) % p
        for tm in det1_matrices(p, t_traces):
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


def scan_cube_root_of_unity(p: int) -> int:
    """Canonically smallest primitive cube root of unity mod p."""
    for z in range(2, p):
        if z * z % p != 1 and pow(z, 3, p) == 1:
            return z
    raise CongruenceError("no primitive cube root of unity mod %d" % p)
