"""Sweep map on generalized Dyck paths, with linear-time inversion.

The sweep map reorders a path's steps by their starting levels.  This package
computes it for plain rise-vector paths, their plus/minus variants with fractional
rises, and rational (m, n) paths, and inverts it in linear time by fill, rank and
walk: all of them, rational ones when m mod n is 0, 1 or n - 1.  An exhaustive
oracle certifies bijectivity on small instances, rational families included.
"""

from .oracle import (
    BijectionReport,
    FamilyEnumeration,
    OracleError,
    brute_invert,
    certify_bijection,
    enumerate_family,
)
from .paths import (
    Diagnostic,
    FamilySpec,
    PathError,
    StepSequence,
    SWWord,
    dyck_diagnostic,
    emit_steps,
    from_minus,
    from_plus,
    infer_family,
    parse_steps,
    path_from_json,
    path_to_json,
    ranks,
    to_minus,
    to_plus,
    validate,
)
from .ranking import rank_tableau
from .render import path_ascii, path_svg, rank_ascii, tableau_ascii, tableau_svg
from .sweep import sweep, sweep_order
from .tableau import (
    Tableau,
    TableauError,
    extend_plus,
    fill,
    is_minus_admissible,
)
from .walking import (
    WalkError,
    invert,
    sigma_to_preimage,
    walk,
    walk_minus,
    walk_plus,
)

__version__ = "0.1.0"

__all__ = [
    "BijectionReport",
    "Diagnostic",
    "FamilyEnumeration",
    "FamilySpec",
    "OracleError",
    "PathError",
    "StepSequence",
    "SWWord",
    "Tableau",
    "TableauError",
    "WalkError",
    "brute_invert",
    "certify_bijection",
    "dyck_diagnostic",
    "emit_steps",
    "enumerate_family",
    "extend_plus",
    "fill",
    "from_minus",
    "from_plus",
    "infer_family",
    "invert",
    "is_minus_admissible",
    "parse_steps",
    "path_ascii",
    "path_from_json",
    "path_svg",
    "path_to_json",
    "rank_ascii",
    "rank_tableau",
    "ranks",
    "sigma_to_preimage",
    "sweep",
    "sweep_order",
    "tableau_ascii",
    "tableau_svg",
    "to_minus",
    "to_plus",
    "validate",
    "walk",
    "walk_minus",
    "walk_plus",
]
