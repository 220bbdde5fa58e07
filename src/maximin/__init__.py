"""Maximin-effect estimation for grouped linear regression.

Estimate the coefficient vector that maximizes the explained variance
in the worst group, aggregate per-group least-squares fits through a
simplex-constrained quadratic program, and wrap the estimate in an
asymptotically valid confidence ellipsoid. A Monte-Carlo harness
measures coverage over synthetic scenario grids, and a covering-based
conservative region is available when the design covariance is known.
"""

from .asymvar import (
    TIE_PROBE_LEVEL,
    AsymptoticCovariance,
    assemble_W,
    empirical_C,
)
from .confidence import (
    ConfidenceRegion,
    build_region,
    chi2_cdf,
    chi2_quantile,
    contains,
    max_eigenvalue,
)
from .errors import (
    BudgetError,
    ConditioningError,
    ConvergenceError,
    CsvFormatError,
    DefinitenessError,
    DegenerateGeometryError,
    DimensionError,
    EstimationError,
    RankError,
    SingularFitError,
)
from .geometry import Face, SigmaMetric
from .linmodel import (
    GroupedDataset,
    GroupEstimates,
    ScenarioSpec,
    fit,
    generate,
    load_group_csvs,
    load_grouped_csv,
    true_coefficients,
)
from .magging import MaggingSolution, maximin_point
from .pipeline import Analysis, analyze_dataset, estimate_dataset
from .relaxation import (
    CoveringRegion,
    GroupBoxes,
    contains_relaxed,
    covering_region,
    group_confidence_boxes,
)
from .simulate import (
    CoverageReport,
    grid_to_csv,
    grid_to_json,
    run_cell,
    run_grid,
    scenario_presets,
    true_maximin,
)

__version__ = "0.1.0"

__all__ = [
    "Analysis",
    "AsymptoticCovariance",
    "BudgetError",
    "ConditioningError",
    "ConfidenceRegion",
    "ConvergenceError",
    "CoverageReport",
    "CoveringRegion",
    "CsvFormatError",
    "DefinitenessError",
    "DegenerateGeometryError",
    "DimensionError",
    "EstimationError",
    "Face",
    "GroupBoxes",
    "GroupedDataset",
    "GroupEstimates",
    "MaggingSolution",
    "RankError",
    "ScenarioSpec",
    "SigmaMetric",
    "SingularFitError",
    "TIE_PROBE_LEVEL",
    "analyze_dataset",
    "assemble_W",
    "build_region",
    "chi2_cdf",
    "chi2_quantile",
    "contains",
    "contains_relaxed",
    "covering_region",
    "empirical_C",
    "estimate_dataset",
    "fit",
    "generate",
    "grid_to_csv",
    "grid_to_json",
    "group_confidence_boxes",
    "load_group_csvs",
    "load_grouped_csv",
    "max_eigenvalue",
    "maximin_point",
    "run_cell",
    "run_grid",
    "scenario_presets",
    "true_coefficients",
    "true_maximin",
]
