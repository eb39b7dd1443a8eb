"""Special fibers of prime-level modular curves.

Component inventories, horizontal-component equations, metrized dual
graphs, toric ranks and Neron component groups for the Cartan families
(split and nonsplit, with or without normalizer) and the exceptional
families, together with the verification battery that desk-checks every
computable claim.
"""

from .ffield import FqElement, GF, field_create, inverse_mod, sqrt_in_field
from .projline import (
    SubgroupTable,
    act,
    coset_cycle_counts,
    generate_subgroup,
    mul,
    orbits,
    point_str,
    transform,
)
from .exceptional import OrbitTable, build_exceptional, orbit_table
from .drinfeld import (
    SuperellipticCurve,
    cartan_drinfeld,
    count_points_fp2,
    cyclic_cover_genus,
    exceptional_drinfeld,
    verify_quotient_maps,
)
from .atlas import (
    ComponentDescriptor,
    FiberGraph,
    SupersingularData,
    consistency_report,
    genus_oracle,
    special_fiber,
    supersingular_data,
)
from .neron import AbelianInvariants, component_group

__version__ = "0.1.0"

__all__ = [
    "AbelianInvariants",
    "ComponentDescriptor",
    "FiberGraph",
    "FqElement",
    "GF",
    "OrbitTable",
    "SubgroupTable",
    "SuperellipticCurve",
    "SupersingularData",
    "act",
    "build_exceptional",
    "cartan_drinfeld",
    "component_group",
    "consistency_report",
    "coset_cycle_counts",
    "count_points_fp2",
    "cyclic_cover_genus",
    "exceptional_drinfeld",
    "field_create",
    "generate_subgroup",
    "genus_oracle",
    "inverse_mod",
    "mul",
    "orbit_table",
    "orbits",
    "point_str",
    "special_fiber",
    "sqrt_in_field",
    "supersingular_data",
    "transform",
    "verify_quotient_maps",
]
