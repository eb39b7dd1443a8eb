"""Component groups of Neron models of Cartan fibers.

An edge of width w in the dual graph stands for a chain of w - 1
rational curves in the minimal regular model.  The component group is
the critical group of that model's graph.

A Cartan fiber's dual graph is the complete bipartite graph K_{s,m}
between its horizontals and its verticals, and the edge (x, j) has
width e_x w_j.  The length pairing on H_1 is then a Kronecker product
A (x) B of the banana matrices A = M(e) and B = M(w), where
M(L) = l_1 J + diag(l_2..l_m), so the group is the sum of Z/(a_i b_k)
over their Smith normal forms (`component_group`).

The Smith form of M(L) has a closed form on L
(`smith_normal_form_diagonal`): for k <= m - 2 the k-th invariant
factor is the product over primes q of q^(the k-th smallest exponent of
q in L), and the last is det M(L) = banana_order(L) over the others.
The group order is checked against the closed-form tree count
banana(e)^(m-1) banana(w)^(s-1) of K_{s,m} (`spanning_tree_count`); a
disagreement raises InconsistencyError.  The tests keep the general
path, the Smith normal form of a relation matrix on any dual graph
taken modulo the determinant and checked against a Kirchhoff
determinant, as this one's oracle (`tests/neron_oracle.py`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod

from .ffield import InconsistencyError, prime_divisors


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class AbelianInvariants:
    """Invariant factors d_1 | d_2 | ... | d_r, each >= 2."""

    factors: tuple

    def order(self) -> int:
        # one power per distinct factor: a product of the factors one by
        # one is quadratic in the digits of the order
        return prod(d ** self.factors.count(d) for d in set(self.factors))

    def is_trivial(self) -> bool:
        return not self.factors

    def __post_init__(self):
        prev = None
        for d in self.factors:
            if d < 2:
                raise GraphError("invariant factors must be >= 2")
            if prev is not None and d % prev:
                raise GraphError("divisibility chain broken")
            prev = d

    def describe(self) -> str:
        if not self.factors:
            return "trivial"
        return " x ".join("Z/%d" % d for d in self.factors)


def smith_normal_form_diagonal(lengths) -> list:
    """Smith normal form of the banana matrix M(L) of the length list L,
    as (factor, multiplicity) runs in divisibility order, units included.

    A minor of M(L) on rows S + {r} and columns S + {c}, r != c, is
    +-l_1 prod_S l, and a principal one on rows R is prod_R l +
    l_1 sum_(i in R) prod_(R - i) l.  So for k <= m - 2 the gcd of the
    k x k minors is the gcd of the products of k entries of L at distinct
    places, whose exponent at q is the sum of the k smallest exponents of
    q in L (Smith 1861: d_1 ... d_k is that gcd).  Only the distinct
    entries of L are factored, never the last factor.
    """
    m = len(lengths)
    if m < 3:  # no k <= m - 2: (det M(L)) or the empty matrix
        return [(banana_order(lengths), 1)] * (m - 1)
    # the k-th smallest exponent of q is >= j when at most k - 1 entries
    # miss q^j, so d_(k+1) gains a q over d_k for each q^j that exactly k
    # entries miss, k < m - 2 while more than 2 entries have q^j
    steps = {0: 1}
    for q in {q for x in set(lengths) for q in prime_divisors(x)}:
        power = q
        while (hits := sum(x % power == 0 for x in lengths)) > 2:
            steps[m - hits] = steps.get(m - hits, 1) * q
            power *= q
    starts = sorted(steps)
    runs, d = [], 1
    for k, end in zip(starts, starts[1:] + [m - 2]):
        d *= steps[k]
        runs.append((d, end - k))
    runs.append((banana_order(lengths) // prod(f ** r for f, r in runs), 1))
    return runs


def _insert_factor(chain, x, r) -> list:
    """The Smith form of diag(chain, x, ..., x) with r copies of x, chain
    a divisibility chain d_i: d'_i = lcm(d_(i-r), gcd(d_i, x)) with
    d_i = 1 before the chain and 0 past it, which places r copies of x's
    exponent among the sorted exponents at each prime."""
    return [lcm(prev, gcd(d, x)) for prev, d in zip([1] * r + chain, chain + [0] * r)]


def component_group(fiber) -> AbelianInvariants:
    """Invariant factors of the component group of a Cartan fiber's model.

    Every horizontal x must meet every vertical j once, with width
    e_x w_j, where w_j is the vertical's `width`.  The group is the sum
    of Z/(a b) over the runs a of SNF(A) and b of SNF(B); see the module
    docstring.  Each run of r equal products goes into the chain at once,
    in time linear in the chain.
    """
    horizontals, verticals = fiber.horizontals(), fiber.verticals()
    if not horizontals or not fiber.incidence_complete:
        raise GraphError("not a Cartan dual graph: family %r" % fiber.family)
    edges = fiber.edges
    if len(set(edges)) != len(edges) or set(edges) != {
            (h.name, v.name, h.e * v.width) for h in horizontals for v in verticals}:
        raise GraphError("not a Cartan dual graph: the edges are not one per "
                         "horizontal x and vertical j, of width e_x w_j")
    es = [h.e for h in horizontals]
    ws = [v.width for v in verticals]
    snf_a, snf_b = smith_normal_form_diagonal(es), smith_normal_form_diagonal(ws)
    diag = []
    for a, r in snf_a:
        for b, t in snf_b:
            diag = _insert_factor(diag, a * b, r * t)
    invariants = AbelianInvariants(tuple(d for d in diag if d > 1))
    trees = spanning_tree_count(es, ws)
    if invariants.order() != trees:
        raise InconsistencyError(
            "component group: Smith normal form order %d disagrees with the "
            "closed-form spanning-tree count %d (family %s, p = %d)"
            % (invariants.order(), trees, fiber.family, fiber.p)
        )
    return invariants


def spanning_tree_count(es, ws) -> int:
    """Spanning trees of K_{s,m} with the edge (x, j) subdivided into
    e_x w_j unit edges: banana(e)^(m-1) banana(w)^(s-1)."""
    return banana_order(es) ** (len(ws) - 1) * banana_order(ws) ** (len(es) - 1)


def banana_order(lengths) -> int:
    """Order of the critical group of two vertices joined by paths of the
    given lengths: the sum over i of the product of the others."""
    whole = prod(lengths)
    return sum(whole // length for length in lengths)


@dataclass
class PredictionCheck:
    """Outcome of the nonsplit-normalizer component-group prediction."""

    p: int
    invariants: AbelianInvariants
    expected: AbelianInvariants
    verdict: str  # "match" | "mismatch" | "vacuous-trivial" | "trivial"


def expected_invariants_nsplus(p: int, s: int):
    """(Z/8nZ) x (Z/8Z)^(S-2) with n = num((p-1)/12), for p = 1 mod 4
    and S >= 2; None marks the degenerate S <= 1 case."""
    if p % 4 != 1:
        return AbelianInvariants(())
    if s <= 1:
        return None
    n = (p - 1) // gcd(p - 1, 12)
    return AbelianInvariants(tuple([8] * (s - 2) + [8 * n]))


def component_group_prediction(fiber) -> PredictionCheck:
    """The component group of the ns+ fiber at p against its predicted
    invariants."""
    p = fiber.p
    if fiber.family != "ns+":
        raise ValueError("expected the ns+ fiber at p = %d, not the %s fiber"
                         % (p, fiber.family))
    invariants = component_group(fiber)
    expected = expected_invariants_nsplus(p, fiber.supersingular.s)
    if p % 4 == 3:
        verdict = "trivial" if invariants.is_trivial() else "mismatch"
        expected = AbelianInvariants(())
    elif expected is None:
        verdict = "vacuous-trivial" if invariants.is_trivial() else "mismatch"
        expected = AbelianInvariants(())
    else:
        verdict = "match" if invariants == expected else "mismatch"
    return PredictionCheck(p, invariants, expected, verdict)
