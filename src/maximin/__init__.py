"""Maximin-effect estimation for grouped linear regression.

Estimate the coefficient vector that maximizes the explained variance
in the worst group, aggregate per-group least-squares fits through a
simplex-constrained quadratic program, and wrap the estimate in an
asymptotically valid confidence ellipsoid. A Monte-Carlo harness
measures coverage over synthetic scenario grids, and a covering-based
conservative region is available when the design covariance is known.

The package namespace loads its modules on first use: ``import maximin``
imports none of them, and reading a public name (``maximin.fit``) or a
module (``maximin.simulate``) imports the module that owns it. So each
entry point compiles only the modules it runs: ``maximin estimate`` and
``maximin region`` never load ``simulate`` or ``relaxation``.
"""

import importlib

__version__ = "0.1.0"

# Each public name, listed once beside the module that defines it.
_EXPORTS = {
    "asymvar": ("TIE_PROBE_LEVEL", "AsymptoticCovariance", "assemble_W", "empirical_C"),
    "confidence": ("ConfidenceRegion", "build_region", "chi2_cdf", "chi2_quantile",
                   "contains", "max_eigenvalue"),
    "errors": ("BudgetError", "ConditioningError", "ConvergenceError", "CsvFormatError",
               "DefinitenessError", "DegenerateGeometryError", "DimensionError",
               "EstimationError", "RankError", "SingularFitError"),
    "geometry": ("Face", "SigmaMetric"),
    "linmodel": ("GroupedDataset", "GroupEstimates", "ScenarioSpec", "fit", "generate",
                 "load_group_csvs", "load_grouped_csv", "true_coefficients"),
    "magging": ("MaggingSolution", "maximin_point"),
    "pipeline": ("Analysis", "analyze_dataset", "estimate_dataset"),
    "relaxation": ("CoveringRegion", "GroupBoxes", "contains_relaxed", "covering_region",
                   "group_confidence_boxes"),
    "simulate": ("CoverageReport", "grid_to_csv", "grid_to_json", "run_cell", "run_grid",
                 "scenario_presets", "true_maximin"),
}
_OWNERS = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULES = {*_EXPORTS, "cli", "selfcheck"}

__all__ = sorted(_OWNERS)


def __getattr__(name):
    """A public name or a module of the package, imported on first use.

    A public name is then kept in the package's globals, so the next
    read is a plain attribute; importing a module binds it there itself.
    """
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_OWNERS[name]), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
