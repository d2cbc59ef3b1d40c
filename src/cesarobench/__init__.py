"""Numerical workbench for measure-induced averaging operators between
coefficient-weighted sequence spaces.

A positive measure on [0,1) induces a lower-triangular coefficient
operator through its moment sequence.  This package evaluates moments
through independent routes, builds finite matrix sections of the induced
operator between weighted spaces, estimates their norms, and runs
cross-checking verdict engines for boundedness and compactness.
"""

from .analysis import (
    EquivalenceConfig,
    EquivalenceReport,
    Prop1Bound,
    Verdict,
    carleson_exponent,
    check_equivalence,
    classify_boundedness,
    classify_carleson,
    classify_compactness,
    classify_moments,
    est_ratio_check,
    evaluate_panel,
    prop1_bound_check,
    reports_to_csv,
    reports_to_json,
)
from .measures import (
    Measure,
    MeasureParseError,
    MeasureSemanticError,
    MeasureSyntaxError,
    dyadic_grid,
    format_measure,
    moment,
    moment_by_parts,
    moment_sequence,
    parse_measure,
    tail,
    tail_values,
)
from .operators import (
    OpNormEstimate,
    SectionOp,
    apply,
    norm_growth_profile,
    profile_to_csv,
    section_norm,
    tail_section,
)
from .spaces import (
    CoeffVec,
    SpaceIndex,
    counterexample_family,
    norm,
    truncated_geometric_family,
    weak_null_family,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # measures
    "Measure",
    "MeasureParseError",
    "MeasureSyntaxError",
    "MeasureSemanticError",
    "parse_measure",
    "format_measure",
    "tail",
    "tail_values",
    "moment",
    "moment_sequence",
    "moment_by_parts",
    "dyadic_grid",
    # spaces
    "SpaceIndex",
    "CoeffVec",
    "norm",
    "counterexample_family",
    "truncated_geometric_family",
    "weak_null_family",
    # operators
    "SectionOp",
    "OpNormEstimate",
    "apply",
    "tail_section",
    "section_norm",
    "norm_growth_profile",
    "profile_to_csv",
    # analysis
    "Verdict",
    "EquivalenceConfig",
    "EquivalenceReport",
    "Prop1Bound",
    "carleson_exponent",
    "classify_carleson",
    "classify_moments",
    "classify_boundedness",
    "classify_compactness",
    "check_equivalence",
    "evaluate_panel",
    "reports_to_json",
    "reports_to_csv",
    "est_ratio_check",
    "prop1_bound_check",
]
