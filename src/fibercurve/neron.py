"""Component groups of Neron models of Cartan fibers.

An edge of width w in the dual graph stands for a chain of w - 1
rational curves in the minimal regular model.  The component group is
the critical group of that model's graph.

A Cartan fiber's dual graph is the complete bipartite graph K_{s,m}
between its horizontals and its verticals, and the edge (x, j) has
width e_x w_j.  The length pairing on H_1 is then a Kronecker product
A (x) B of the banana matrices A = M(e) and B = M(w), where
M(L) = l_1 J + diag(l_2..l_m), so the group is the sum of Z/(a_i b_k)
over their Smith normal forms (`component_group`).  The group therefore
reads two short lists, the supersingular e list and the vertical widths
of `atlas.cartan_verticals`, and never builds the fiber.

One routine takes every Smith form here, that of a diagonal matrix on
runs (`_diagonal_runs`).  SNF(M(L)) is the first m - 2 factors of
diag(L) and det M(L) = banana_order(L) over them
(`smith_normal_form_diagonal`), and the group is SNF(diag(a_i b_k)).
Its order is checked against the closed-form tree count banana(e)^(m-1)
banana(w)^(s-1) of K_{s,m} (`spanning_tree_count`), and the toric rank
(s - 1)(m - 1) of K_{s,m} against its closed form; a disagreement
raises InconsistencyError.  Both are exact Decimals (`power_product`),
so no int of a million digits is built or printed.  The tests keep the
general path, the Smith normal form of a relation matrix on any dual
graph taken modulo the determinant and checked against a Kirchhoff
determinant, as this one's oracle (`tests/neron_oracle.py`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact
from functools import cached_property, reduce
from itertools import accumulate, starmap
from math import gcd, lcm, prod

from .atlas import cartan_verticals, check_toric_rank, supersingular_data
from .ffield import InconsistencyError

_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact])


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class AbelianInvariants:
    """Invariant factors d_1 | d_2 | ... | d_r, each >= 2, as runs (d, k)
    of k >= 1 equal factors d, the factors strictly ascending."""

    runs: tuple

    @cached_property
    def order(self) -> Decimal:
        """Exact, but only to compare and print: arithmetic on it outside
        `_EXACT` rounds to the default context's 28 digits.  Cached, so
        the order check and the printed order share one product."""
        return power_product(self.runs)

    def is_trivial(self) -> bool:
        return not self.runs

    def __post_init__(self):
        prev = 1
        for d, k in self.runs:
            if d < 2:
                raise GraphError("invariant factors must be >= 2")
            if d % prev or d == prev or k < 1:
                raise GraphError("not the canonical runs of a divisibility chain")
            prev = d

    def describe(self) -> str:
        return " x ".join(" x ".join(["Z/%d" % d] * k) for d, k in self.runs) or "trivial"


def _diagonal_runs(entries) -> list:
    """Smith normal form of the diagonal matrix with the (value, count)
    runs `entries`, as (factor, multiplicity) runs, units included.

    A run of r copies of x goes into the chain d_1 | ... | d_n as
    d'_i = lcm(d_(i-r), gcd(d_i, x)), d_i = 1 before the chain and 0 past
    it, which places r copies of x's exponent among the sorted exponents
    at each prime.  One step per overlap of a run of d_(i-r) with one of
    d_i: the cuts are the chain's run starts, the same shifted by r, and n.
    """
    chain = []
    for x, r in entries:
        right, out, kv = iter(chain + [(0, r)]), [], 0  # the runs of d_i
        for u, ku in [(1, r)] + chain:  # the runs of d_(i-r)
            while ku:
                if not kv:
                    v, kv = next(right)
                k = min(ku, kv)
                ku, kv = ku - k, kv - k
                d = lcm(u, gcd(v, x))
                if out and out[-1][0] == d:
                    k += out.pop()[1]
                out.append((d, k))
        chain = out
    return chain


def smith_normal_form_diagonal(lengths) -> list:
    """Smith normal form of the banana matrix M(L) of the length list L,
    as (factor, multiplicity) runs in divisibility order, units included.

    A minor of M(L) on rows S + {r} and columns S + {c}, r != c, is
    +-l_1 prod_S l, and a principal one on rows R is prod_R l +
    l_1 sum_(i in R) prod_(R - i) l.  So for k <= m - 2 the gcd of the
    k x k minors is the gcd of the products of k entries of L at distinct
    places, as it is for diag(L) (Smith 1861: d_1 ... d_k is that gcd).
    The first m - 2 factors are therefore those of diag(L), and the last
    is det M(L) = banana_order(L) over their product.
    """
    m = len(lengths)
    if m < 2:  # the empty matrix
        return []
    chain = _diagonal_runs(Counter(lengths).items())
    starts = accumulate((k for _, k in chain), initial=0)
    runs = [(d, min(k, m - 2 - i)) for (d, k), i in zip(chain, starts) if i < m - 2]
    return runs + [(banana_order(lengths) // prod(d ** k for d, k in runs), 1)]


def component_group(family: str, p: int) -> AbelianInvariants:
    """Invariant factors of the component group of the Cartan family's
    model at p.

    The dual graph is K_{s,m}, each supersingular point x meeting each
    vertical j once with width e_x w_j: the e list of `supersingular_data`
    and the widths of `atlas.cartan_verticals`, the lists the fiber builder
    makes its edges from.  The group is the sum of Z/(a b) over the runs a
    of SNF(A) and b of SNF(B); see the module docstring.
    """
    es = supersingular_data(p).e_values()
    ws = [v.width for v in cartan_verticals(family, p)]
    check_toric_rank(family, p, (len(es) - 1) * (len(ws) - 1))
    snf_a, snf_b = smith_normal_form_diagonal(es), smith_normal_form_diagonal(ws)
    diag = _diagonal_runs((a * b, r * t) for a, r in snf_a for b, t in snf_b)
    invariants = AbelianInvariants(tuple(run for run in diag if run[0] > 1))
    trees = spanning_tree_count(es, ws)
    if invariants.order != trees:
        tree_runs = (banana_order(es), len(ws) - 1), (banana_order(ws), len(es) - 1)
        raise InconsistencyError(
            "component group: the Smith normal form runs %s and the closed-form "
            "spanning-tree count's runs %s differ in order (family %s, p = %d)"
            % (invariants.runs, tree_runs, family, p)
        )
    return invariants


def spanning_tree_count(es, ws) -> Decimal:
    """Spanning trees of K_{s,m} with the edge (x, j) subdivided into
    e_x w_j unit edges: banana(e)^(m-1) banana(w)^(s-1)."""
    return power_product(((banana_order(es), len(ws) - 1), (banana_order(ws), len(es) - 1)))


def power_product(runs) -> Decimal:
    """The product of b^k over the (b, k) runs, as an exact Decimal."""
    return reduce(_EXACT.multiply, starmap(_EXACT.power, runs), Decimal(1))


def banana_order(lengths) -> int:
    """Order of the critical group of two vertices joined by paths of the
    given lengths: the sum over i of the product of the others."""
    whole = prod(lengths)
    return sum(whole // length for length in lengths)


def expected_invariants_nsplus(p: int, s: int):
    """(Z/8nZ) x (Z/8Z)^(S-2) with n = num((p-1)/12), for p = 1 mod 4
    and S >= 2; None marks the degenerate S <= 1 case."""
    if s <= 1:
        return None
    n = (p - 1) // gcd(p - 1, 12)  # > 1, since s > 1 leaves out p = 5, 13
    return AbelianInvariants(tuple(run for run in ((8, s - 2), (8 * n, 1)) if run[1]))


def component_group_prediction(p: int, invariants: AbelianInvariants) -> str:
    """The verdict on `invariants`, the component group of ns+ at p,
    against its predicted invariants: "match", "mismatch",
    "vacuous-trivial" or "trivial"."""
    if p % 4 == 3:
        return "trivial" if invariants.is_trivial() else "mismatch"
    expected = expected_invariants_nsplus(p, supersingular_data(p).s)
    if expected is None:
        return "vacuous-trivial" if invariants.is_trivial() else "mismatch"
    return "match" if invariants == expected else "mismatch"
