"""The action that `projline.orbits` replaced by one table of inverses,
the tests' oracle for it.

`act` sends a point of P^1(F_p) through an element with one `pow`
inverse per image, and `act_orbits` sweeps the line with it the way
`orbits` did: each orbit is the image of its least uncovered point under
the whole group, with the elements that fix that point as its stabilizer.
"""

from __future__ import annotations


def act(p: int, g, x: int) -> int:
    """Column-vector action of PGL_2 on P^1: (x : 1) -> (a x + b : c x + d),
    and infinity (1 : 0) -> (a : c)."""
    a, b, c, d = g
    if x == p:
        nx, ny = a, c
    else:
        nx, ny = (a * x + b) % p, (c * x + d) % p
    if ny == 0:
        return p
    return nx * pow(ny, -1, p) % p


def act_orbits(H):
    """(sorted points, stabilizer) of each H-orbit on P^1(F_p), least
    point first, by one `act` per element and orbit."""
    p = H.p
    remaining = set(range(p + 1))
    out = []
    for x in range(p + 1):
        if x not in remaining:
            continue
        images = [act(p, g, x) for g in H.elements]
        out.append((tuple(sorted(set(images))),
                    tuple(g for g, y in zip(H.elements, images) if y == x)))
        remaining -= set(images)
    return out
