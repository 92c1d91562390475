"""Line bundle cohomology on wonderful varieties of minimal rank.

The package computes, for every line bundle weight lam in pic(X) and
every degree d, the decomposition of H^d(X, L_lam) into irreducible
G-modules, together with independent oracles (Borel-Weil-Bott, projective
space closed forms, Serre duality, degree constraints) used to falsify
the computation.
"""

from .cohomology import (
    CohomologyTable,
    Contribution,
    cohomology_table,
    contributions,
    enumerate_candidates,
    omega_signature,
    serre_dual_weight,
)
from .degrees import DivisibilityRule, allowed_degrees, check_table_against_rule, rule_for
from .oracles import (
    brion_h0,
    bwb_direct,
    projective_space_cohomology,
    quadric_cohomology,
    serre_involution_check,
    vanishing_profile,
    weyl_group_bruteforce,
)
from .regions import region_plot
from .roots import InvariantError, RootSystem, Weight, build_root_system, parse_type
from .varieties import (
    CATALOG_NAMES,
    CatalogError,
    WonderfulVariety,
    build_case,
    catalog,
    flag_variety,
    group_compactification,
    load_variety,
    validate,
    variety_from_dict,
)

__all__ = [
    "CATALOG_NAMES",
    "CatalogError",
    "CohomologyTable",
    "Contribution",
    "DivisibilityRule",
    "InvariantError",
    "RootSystem",
    "Weight",
    "WonderfulVariety",
    "allowed_degrees",
    "brion_h0",
    "build_case",
    "build_root_system",
    "bwb_direct",
    "catalog",
    "check_table_against_rule",
    "cohomology_table",
    "contributions",
    "enumerate_candidates",
    "flag_variety",
    "group_compactification",
    "load_variety",
    "omega_signature",
    "parse_type",
    "projective_space_cohomology",
    "quadric_cohomology",
    "region_plot",
    "rule_for",
    "serre_dual_weight",
    "serre_involution_check",
    "validate",
    "vanishing_profile",
    "variety_from_dict",
    "weyl_group_bruteforce",
]

__version__ = "0.1.0"
