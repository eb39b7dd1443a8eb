"""Special fibers as metrized dual graphs, with genus bookkeeping.

For each family (Cartan subgroups and their normalizers, plus the three
exceptional kinds) and prime p this module assembles the component
inventory of the semistable special fiber: vertical Igusa-quotient
parts, horizontal components with their equations, crossing widths, and
the toric rank of the Jacobian's reduction.

Sanity is enforced from two directions.  The supersingular counts come
from the classical closed form and are cross-checkable against a
brute-force search over F_{p^2}.  Total genera come from a coset-action
count (Riemann-Hurwitz over the j-line with ramification orders 2, 3
and p), and the identity

    g(X) = sum of component genera + toric rank

is solved for the one unknown Igusa-quotient genus and cross-checked
across families.

Exceptional families expose component counts, quotient types and local
widths only: the sources state which parts exist and how wide their
crossings are, but not a per-component incidence table, so no edges and
no toric rank are emitted for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ffield import is_prime
from .projline import (
    ProjTransform,
    PSL2Handle,
    SubgroupTable,
    borel,
    cartan_nonsplit,
    cartan_split,
    coset_cycle_counts,
    first_nonsquare,
)
from .exceptional import (
    KINDS as EXCEPTIONAL_KINDS,
    build_exceptional,
    orbit_table,
)
from .drinfeld import SuperellipticCurve, cartan_drinfeld, exceptional_drinfeld

CARTAN_FAMILIES = ("ns", "ns+", "s", "s+")
ALL_FAMILIES = CARTAN_FAMILIES + EXCEPTIONAL_KINDS

LABEL_PM = "Ig(p)/{+-1}"
LABEL_C4 = "Ig(p)/C4"
LABEL_C6 = "Ig(p)/C6"
LABEL_C8 = "Ig(p)/C8"
LABEL_C10 = "Ig(p)/C10"
LABEL_P1 = "P^1"

QUOTIENT_WIDTH = {LABEL_PM: 2, LABEL_C4: 4, LABEL_C6: 6, LABEL_C8: 8, LABEL_C10: 10}
ISOTROPY_LABEL = {1: LABEL_PM, 2: LABEL_C4, 3: LABEL_C6, 4: LABEL_C8, 5: LABEL_C10}


# ---------------------------------------------------------------------------
# supersingular bookkeeping
# ---------------------------------------------------------------------------


def genus_x0(p: int) -> int:
    """Genus of the degree-(p+1) modular cover of the j-line."""
    r = p % 12
    if r == 1:
        return (p - 13) // 12
    if r == 5:
        return (p - 5) // 12
    if r == 7:
        return (p - 7) // 12
    return (p + 1) // 12


@dataclass(frozen=True)
class SupersingularData:
    p: int
    s: int
    j0_supersingular: bool
    j1728_supersingular: bool

    def e_values(self):
        """Automorphism order e per supersingular point: generic first."""
        out = [1] * (self.s - self.j0_supersingular - self.j1728_supersingular)
        if self.j1728_supersingular:
            out.append(2)
        if self.j0_supersingular:
            out.append(3)
        return out


def supersingular_data(p: int) -> SupersingularData:
    """Closed-form count of supersingular j-invariants and the 0/1728 flags."""
    if not is_prime(p) or p <= 3:
        raise ValueError("p must be a prime > 3")
    return SupersingularData(
        p=p,
        s=genus_x0(p) + 1,
        j0_supersingular=(p % 3 == 2),
        j1728_supersingular=(p % 4 == 3),
    )


class _Fp2:
    """Minimal F_{p^2} arithmetic on pairs, for the brute-force oracles.

    Deliberately independent of the ffield module so the oracle and the
    production arithmetic cannot share a bug.
    """

    def __init__(self, p):
        self.p = p
        self.d = first_nonsquare(p)

    def mul(self, a, b):
        p, d = self.p, self.d
        return ((a[0] * b[0] + d * a[1] * b[1]) % p, (a[0] * b[1] + a[1] * b[0]) % p)

    def add(self, a, b):
        p = self.p
        return ((a[0] + b[0]) % p, (a[1] + b[1]) % p)

    def scale(self, c, a):
        p = self.p
        return (c * a[0] % p, c * a[1] % p)

    def inv(self, a):
        # (x + y w)^-1 = (x - y w) / (x^2 - d y^2)
        p, d = self.p, self.d
        nrm = (a[0] * a[0] - d * a[1] * a[1]) % p
        ninv = pow(nrm, p - 2, p)
        return (a[0] * ninv % p, -a[1] * ninv % p)

    def elements(self):
        for x in range(self.p):
            for y in range(self.p):
                yield (x, y)

    def squares(self):
        out = set()
        for z in self.elements():
            out.add(self.mul(z, z))
        return out


def brute_supersingular_data(p: int) -> SupersingularData:
    """Point-count oracle: try every j in F_{p^2}, count a curve with
    that j over F_{p^2}, and test whether the trace vanishes mod p."""
    K = _Fp2(p)
    q = p * p
    sq = K.squares()
    ss = set()
    for j in K.elements():
        a, b = _curve_with_j(K, j)
        n = 1  # the point at infinity
        for x in K.elements():
            v = K.add(K.add(K.mul(K.mul(x, x), x), K.mul(a, x)), b)
            if v == (0, 0):
                n += 1
            elif v in sq:
                n += 2
        trace = (q + 1 - n) % p
        if trace == 0:
            ss.add(j)
    return SupersingularData(
        p=p,
        s=len(ss),
        j0_supersingular=(0, 0) in ss,
        j1728_supersingular=(1728 % p, 0) in ss,
    )


def _curve_with_j(K, j):
    # y^2 = x^3 + 3j(1728-j) x + 2j(1728-j)^2 has j-invariant j;
    # supersingularity does not depend on the twist
    if j == (0, 0):
        return (0, 0), (1, 0)
    if j == (1728 % K.p, 0):
        return (1, 0), (0, 0)
    u = K.add((1728 % K.p, 0), K.scale(-1, j))  # 1728 - j
    c = K.mul(j, u)
    return K.scale(3, c), K.scale(2, K.mul(c, u))


def hasse_supersingular_data(p: int) -> SupersingularData:
    """Second oracle: roots over F_{p^2} of the degree-(p-1)/2 polynomial
    sum C(m, i)^2 L^i (m = (p-1)/2), whose roots are exactly the
    supersingular Legendre parameters; each root is mapped to its j."""
    K = _Fp2(p)
    m = (p - 1) // 2
    coeffs = [1] * (m + 1)
    c = 1
    for i in range(1, m + 1):
        c = c * (m - i + 1) % p * pow(i, p - 2, p) % p
        coeffs[i] = c * c % p
    ss = set()
    for lam in K.elements():
        if lam in ((0, 0), (1, 0)):
            continue
        acc = (0, 0)
        for co in reversed(coeffs):
            acc = K.add(K.mul(acc, lam), (co, 0))
        if acc == (0, 0):
            ss.add(_legendre_j(K, lam))
    return SupersingularData(
        p=p,
        s=len(ss),
        j0_supersingular=(0, 0) in ss,
        j1728_supersingular=(1728 % p, 0) in ss,
    )


def _legendre_j(K, lam):
    # j = 256 (L^2 - L + 1)^3 / (L^2 (L - 1)^2)
    one = (1, 0)
    l2 = K.mul(lam, lam)
    num = K.add(K.add(l2, K.scale(-1, lam)), one)
    num = K.mul(K.mul(num, num), num)
    den = K.mul(l2, K.mul(K.add(lam, K.scale(-1, one)), K.add(lam, K.scale(-1, one))))
    return K.scale(256 % K.p, K.mul(num, K.inv(den)))


# ---------------------------------------------------------------------------
# fiber graphs
# ---------------------------------------------------------------------------


@dataclass
class ComponentDescriptor:
    name: str
    role: str  # vertical-igusa | vertical-rational | horizontal-drinfeld
    label: str
    count: int = 1
    curve: SuperellipticCurve = None
    genus: int = None
    genus_provenance: str = "unknown"
    e: int = None
    width: int = None  # local crossing width, exceptional families only


@dataclass
class FiberGraph:
    family: str
    p: int
    supersingular: SupersingularData
    vertices: list
    edges: list  # (from_name, to_name, width, ss_label)
    incidence_complete: bool = True
    notes: list = field(default_factory=list)

    def vertex(self, name: str) -> ComponentDescriptor:
        for v in self.vertices:
            if v.name == name:
                return v
        raise KeyError(name)

    def verticals(self):
        return [v for v in self.vertices if v.role.startswith("vertical")]

    def horizontals(self):
        return [v for v in self.vertices if v.role == "horizontal-drinfeld"]

    def toric_rank(self):
        """First Betti number E - V + C of the dual graph; None when the
        incidence is not fully specified."""
        if not self.incidence_complete:
            return None
        names = [v.name for v in self.vertices]
        index = {n: i for i, n in enumerate(names)}
        parent = list(range(len(names)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for a, b, _, _ in self.edges:
            ra, rb = find(index[a]), find(index[b])
            if ra != rb:
                parent[ra] = rb
        components = len({find(i) for i in range(len(names))})
        return len(self.edges) - len(names) + components

    def widths(self):
        return sorted(w for _, _, w, _ in self.edges)

    def to_json_dict(self):
        vertical = [
            {
                "label": v.label,
                "count": v.count,
                "genus": v.genus,
                "genus_provenance": v.genus_provenance,
            }
            for v in self.verticals()
        ]
        horizontal = [
            {
                "equation": v.curve.text() if v.curve else None,
                "genus": v.genus,
                "e": v.e,
            }
            for v in self.horizontals()
        ]
        return {
            "family": self.family,
            "p": self.p,
            "s": self.supersingular.s,
            "vertical": vertical,
            "horizontal": horizontal,
            "edges": [
                {"from": a, "to": b, "width": w} for a, b, w, _ in self.edges
            ],
            "toric_rank": self.toric_rank(),
            "total_genus": total_genus(self.family, self.p),
        }

    def to_dot(self) -> str:
        lines = ["graph fiber {"]
        for v in self.vertices:
            genus = "?" if v.genus is None else str(v.genus)
            label = "%s:%s:%s" % (v.role, v.label, genus)
            if v.count != 1:
                label += " x%d" % v.count
            lines.append('  "%s" [label="%s"];' % (v.name, label))
        for a, b, w, _ in self.edges:
            lines.append('  "%s" -- "%s" [label="%d"];' % (a, b, w))
        lines.append("}")
        return "\n".join(lines)


def _igusa_label(family: str, p: int) -> str:
    if family in ("ns+", "s+") and p % 4 == 1:
        return LABEL_C4
    return LABEL_PM


def special_fiber(family: str, p: int) -> FiberGraph:
    """The special-fiber inventory for a family at p.

    Cartan families get the full metrized dual graph.  Exceptional
    families get the vertical inventory with local widths; their edge
    incidence is not specified by the classification, so none is
    emitted.
    """
    if family in CARTAN_FAMILIES:
        return _cartan_fiber(family, p)
    if family in EXCEPTIONAL_KINDS:
        return _exceptional_fiber(family, p)
    raise ValueError("unknown family %r" % family)


def _horizontal_descriptor(family: str, p: int, idx: int, e: int) -> ComponentDescriptor:
    curve = cartan_drinfeld(family, p, e)
    genus = curve.genus()
    return ComponentDescriptor(
        name="D%d" % idx,
        role="horizontal-drinfeld",
        label="P^1" if curve.is_line() else "Drinfeld",
        curve=curve,
        genus=genus,
        genus_provenance="known" if curve.is_line() else "equation",
        e=e,
    )


def _cartan_fiber(family: str, p: int) -> FiberGraph:
    if not is_prime(p) or p <= 3:
        raise ValueError("p must be a prime > 3")
    ss = supersingular_data(p)
    igusa_label = _igusa_label(family, p)
    igusa_width_factor = 4 if (family in ("ns+", "s+") and p % 4 == 1) else 2
    vertices = []
    if family == "ns":
        vertices += [
            ComponentDescriptor("Ig1", "vertical-igusa", LABEL_PM),
            ComponentDescriptor("Igd", "vertical-igusa", LABEL_PM),
        ]
        igusa_names = ["Ig1", "Igd"]
        rational_names = []
    elif family == "ns+":
        if p % 4 == 1:
            vertices += [
                ComponentDescriptor("IgA", "vertical-igusa", igusa_label),
                ComponentDescriptor("IgB", "vertical-igusa", igusa_label),
            ]
            igusa_names = ["IgA", "IgB"]
        else:
            vertices.append(ComponentDescriptor("Ig", "vertical-igusa", LABEL_PM))
            igusa_names = ["Ig"]
        rational_names = []
    elif family == "s":
        vertices += [
            ComponentDescriptor("R1", "vertical-rational", LABEL_P1, genus=0,
                                genus_provenance="known"),
            ComponentDescriptor("R2", "vertical-rational", LABEL_P1, genus=0,
                                genus_provenance="known"),
            ComponentDescriptor("Ig1", "vertical-igusa", LABEL_PM),
            ComponentDescriptor("Igd", "vertical-igusa", LABEL_PM),
        ]
        igusa_names = ["Ig1", "Igd"]
        rational_names = ["R1", "R2"]
    else:  # s+
        vertices.append(
            ComponentDescriptor("R", "vertical-rational", LABEL_P1, genus=0,
                                genus_provenance="known")
        )
        if p % 4 == 1:
            vertices += [
                ComponentDescriptor("IgA", "vertical-igusa", igusa_label),
                ComponentDescriptor("IgB", "vertical-igusa", igusa_label),
            ]
            igusa_names = ["IgA", "IgB"]
        else:
            vertices.append(ComponentDescriptor("Ig", "vertical-igusa", LABEL_PM))
            igusa_names = ["Ig"]
        rational_names = ["R"]

    edges = []
    notes = []
    for idx, e in enumerate(ss.e_values(), start=1):
        horiz = _horizontal_descriptor(family, p, idx, e)
        vertices.append(horiz)
        ss_label = "ss%d" % idx
        for name in igusa_names:
            edges.append((horiz.name, name, igusa_width_factor * e, ss_label))
        for name in rational_names:
            edges.append((horiz.name, name, (p - 1) * e, ss_label))
    if family == "ns+" and p % 4 == 3:
        notes.append(
            "single crossing per horizontal forced by the trivial homology "
            "of the dual graph (derived, not stated as a crossing count)"
        )
    graph = FiberGraph(family, p, ss, vertices, edges, notes=notes)
    assert graph.toric_rank() == toric_rank_closed_form(family, p)
    return graph


# vertical inventories of the exceptional families, keyed by congruence
# class: extra quotient labels beyond the generic Ig(p)/{+-1} parts
A4_INVENTORY = {
    1: {LABEL_C4: 2, LABEL_C6: 4},
    5: {LABEL_C4: 2},
    7: {LABEL_C6: 4},
    11: {},
}
S4_INVENTORY = {
    1: {LABEL_C4: 2, LABEL_C6: 2, LABEL_C8: 2},
    7: {LABEL_C6: 2},
    17: {LABEL_C4: 2, LABEL_C8: 2},
    23: {},
}
A5_INVENTORY = {
    1: {LABEL_C4: 2, LABEL_C6: 2, LABEL_C10: 2},
    11: {LABEL_C10: 2},
    19: {LABEL_C6: 2},
    29: {LABEL_C4: 2},
    31: {LABEL_C6: 2, LABEL_C10: 2},
    41: {LABEL_C4: 2, LABEL_C10: 2},
    49: {LABEL_C4: 2, LABEL_C6: 2},
    59: {},
}


def exceptional_inventory(kind: str, p: int) -> dict:
    if kind == "a4":
        return dict(A4_INVENTORY[p % 12])
    if kind == "s4":
        return dict(S4_INVENTORY[p % 24])
    return dict(A5_INVENTORY[p % 60])


def _exceptional_fiber(kind: str, p: int) -> FiberGraph:
    table = orbit_table(kind, p)
    ss = supersingular_data(p)
    # quotient type of each vertical pair is read off the orbit isotropy
    counts = {}
    for orbit in table.orbits:
        label = ISOTROPY_LABEL[orbit.isotropy_order]
        counts[label] = counts.get(label, 0) + 2
    declared = exceptional_inventory(kind, p)
    expected = {LABEL_PM: 2 * table.total - 2 * sum(
        1 for o in table.orbits if o.isotropy_order > 1)}
    expected.update(declared)
    if counts != {k: v for k, v in expected.items() if v}:
        raise AssertionError(
            "%s at p=%d: inventory %r does not match declared %r"
            % (kind, p, counts, expected)
        )
    vertices = []
    for label in (LABEL_PM, LABEL_C4, LABEL_C6, LABEL_C8, LABEL_C10):
        if counts.get(label):
            vertices.append(
                ComponentDescriptor(
                    name="Ig[%s]" % label,
                    role="vertical-igusa",
                    label=label,
                    count=counts[label],
                    width=QUOTIENT_WIDTH[label],
                )
            )
    if table.total >= 2:
        curve = exceptional_drinfeld(kind, p, table=table)
        vertices.append(
            ComponentDescriptor(
                name="D",
                role="horizontal-drinfeld",
                label="Drinfeld",
                count=0,  # per-point multiplicity not specified
                curve=curve,
                genus=curve.genus(),
                genus_provenance="equation",
            )
        )
    notes = [
        "horizontal components cross above each of the %d supersingular "
        "points; the per-component incidence is not specified, so no "
        "edges or toric rank are emitted" % ss.s
    ]
    return FiberGraph(kind, p, ss, vertices, edges=[],
                      incidence_complete=False, notes=notes)


def toric_rank_closed_form(family: str, p: int) -> int:
    """Piecewise closed forms for the Cartan-family toric ranks."""
    s = genus_x0(p) + 1
    r = p % 12
    if family == "ns":
        return s - 1
    if family == "s":
        return 3 * (s - 1)
    if family == "ns+":
        if r == 1:
            return (p - 13) // 12
        if r == 5:
            return (p - 5) // 12
        return 0
    if family == "s+":
        return {1: (p - 13) // 6, 5: (p - 5) // 6, 7: (p - 7) // 12,
                11: (p + 1) // 12}[r]
    raise ValueError("no closed form for family %r" % family)


# ---------------------------------------------------------------------------
# the genus oracle
# ---------------------------------------------------------------------------


def family_group_image(family: str, p: int) -> SubgroupTable:
    """The image in PGL_2(F_p) of the subgroup defining the family."""
    if family == "ns":
        return cartan_nonsplit(p, normalizer=False)
    if family == "ns+":
        return cartan_nonsplit(p, normalizer=True)
    if family == "s":
        return cartan_split(p, normalizer=False)
    if family == "s+":
        return cartan_split(p, normalizer=True)
    if family == "x0":
        return borel(p)
    if family in EXCEPTIONAL_KINDS:
        return build_exceptional(family, p)
    raise ValueError("unknown family %r" % family)


def genus_oracle(H: SubgroupTable, p: int) -> int:
    """Geometric genus of the coarse curve attached to H <= PGL_2(F_p).

    Riemann-Hurwitz over the j-line: with H' = H intersect PSL_2 and
    n = [PSL_2 : H'], 2g - 2 = -2n + sum over e in {2, 3, p} of
    (n - cycles_e), where cycles_e counts the orbits of an order-e
    element on the coset space.  The counts only depend on the cyclic
    subgroup generated, which is checked by evaluating two independent
    representatives of each order.
    """
    if H.p != p:
        raise ValueError("prime mismatch")
    G = PSL2Handle(p)
    Hp = H.intersect_psl2()
    n, rem = divmod(G.order, Hp.order)
    if rem:
        raise ValueError("|H'| does not divide |PSL2|")
    reps = {
        2: (ProjTransform(p, 0, -1, 1, 0), ProjTransform(p, 1, 1, -2, -1)),
        3: (ProjTransform(p, 0, -1, 1, -1), ProjTransform(p, -1, -1, 1, 0)),
        p: (
            ProjTransform(p, 1, 1, 0, 1),
            ProjTransform(p, 1, first_nonsquare(p), 0, 1),
        ),
    }
    rhs = -2 * n
    for order, (g1, g2) in reps.items():
        c1 = coset_cycle_counts(G, Hp, g1)
        c2 = coset_cycle_counts(G, Hp, g2)
        assert c1 == c2, "cycle count depends on the order-%d representative" % order
        rhs += n - c1
    assert rhs % 2 == 0 and rhs >= -2
    return (rhs + 2) // 2


def total_genus(family: str, p: int) -> int:
    return genus_oracle(family_group_image(family, p), p)


# ---------------------------------------------------------------------------
# genus-consistency ledger
# ---------------------------------------------------------------------------


@dataclass
class ConsistencyReport:
    family: str
    p: int
    total_genus: int
    toric_rank: int
    unknown_label: str
    unknown_count: int
    derived_genus: int
    ok: bool
    ledger: list = field(default_factory=list)

    def entry(self, quantity, value, provenance, ok=True):
        self.ledger.append(
            {"quantity": quantity, "value": value, "provenance": provenance, "ok": ok}
        )
        if not ok:
            self.ok = False


def _identity_parts(family: str, p: int):
    graph = _cartan_fiber(family, p)
    total = total_genus(family, p)
    toric = graph.toric_rank()
    known = 0
    unknown_labels = []
    for v in graph.vertices:
        if v.genus is None:
            unknown_labels.append(v.label)
        else:
            known += v.genus
    labels = set(unknown_labels)
    assert len(labels) == 1, "one unknown quotient genus expected"
    return graph, total, toric, known, unknown_labels[0], len(unknown_labels)


def consistency_report(family: str, p: int) -> ConsistencyReport:
    """Solve g(X) = sum of component genera + toric rank for the unknown
    Igusa-quotient genus and cross-check it everywhere it reappears.

    Inconsistencies are reported (ok = False, ledger entries), never
    adjusted.
    """
    if family not in CARTAN_FAMILIES:
        raise ValueError("consistency ledger applies to Cartan families only")
    graph, total, toric, known, label, count = _identity_parts(family, p)
    residual = total - toric - known
    derived, rem = divmod(residual, count)
    report = ConsistencyReport(
        family=family,
        p=p,
        total_genus=total,
        toric_rank=toric,
        unknown_label=label,
        unknown_count=count,
        derived_genus=derived,
        ok=True,
    )
    report.entry("g(X_%s)" % family, total, "oracle")
    report.entry("toric rank", toric, "graph")
    for v in graph.horizontals():
        report.entry("g(%s)" % (v.curve.text() if v.curve else v.label),
                     v.genus, v.genus_provenance)
    report.entry("g(%s)" % label, derived, "derived-by-consistency",
                 ok=(rem == 0 and derived >= 0))
    # cross-check in every other family whose fiber uses the same quotient
    for other in CARTAN_FAMILIES:
        if other == family:
            continue
        _, ototal, otoric, oknown, olabel, ocount = _identity_parts(other, p)
        if olabel != label:
            continue
        closes = ototal == otoric + oknown + ocount * derived
        report.entry(
            "identity closes in %s with g(%s) = %d" % (other, label, derived),
            ototal,
            "cross-check",
            ok=closes,
        )
    if label == LABEL_C4 and p % 12 == 5:
        closed = (p - 5) * (p - 17) // 96
        report.entry(
            "closed form (p-5)(p-17)/96 for g(%s)" % LABEL_C4,
            closed,
            "closed-form",
            ok=(closed == derived),
        )
    return report
