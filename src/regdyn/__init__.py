"""Certified arithmetic dynamics for regular polynomial endomorphisms of
the affine plane: local Green functions at all places of Q, canonical
heights with preperiodicity certificates, the dynamics on the line at
infinity, local normal forms at its fixed points, and curve-level orbit
analysis.

The public names below are those of the submodules.  Each resolves on
first use (PEP 562), so `import regdyn` loads no submodule and sympy only
where a computation needs it (`regdyn.exactnum.sp`)."""

import importlib

__version__ = "0.1.0"

# the submodule that defines each public name
_EXPORTS = {
    "exactnum": ("AlgebraicNumber", "ComplexInterval", "FactoringCap", "Place",
                 "abs_at_place_exact", "conjugates", "find_expanding_place",
                 "is_root_of_unity", "valuation"),
    "intervals": ("RealInterval", "log_of_fraction"),
    "polyalg": ("MultiPoly", "PolyParseError", "homogeneous_top", "parse_poly"),
    "series": ("TruncSeries", "TruncSeries2", "exp_series", "log_unit"),
    "maps": ("DegreeTooLow", "NotRegular", "RegularMap", "make_regular_map"),
    "padic": ("PrecisionLoss",),
    "green": ("GreenContext", "bad_places", "green_homog", "green_value",
              "nullstellensatz_constant"),
    "heights": ("HeightResult", "PreperiodicityVerdict", "canonical_height",
                "height_support", "is_preperiodic"),
    "infinity": ("ExpandingPlace", "InfinityPoint", "RootOfUnity", "Superattracting",
                 "classify_multiplier", "compose_forms", "fixed_points_infinity",
                 "infinity_orbit_preperiodicity", "multiplier", "projective_roots"),
    "localdyn": ("ContractionError", "GermShapeError", "LocalGerm", "NormalFormResult",
                 "ResonanceError", "SectorMap", "VerticalGraphSample", "bottcher_series",
                 "graph_pullback", "koenigs_series", "localize_at_infinity",
                 "parabolic_normal_form", "reduce_form", "rescaling_check",
                 "saddle_normal_form", "super_stable_series"),
    "curves": ("CurveOrbitStatus", "DmmReport", "PlaneCurve", "curve_preperiodicity",
               "dmm_report", "find_preperiodic_points", "points_at_infinity", "pushforward"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "numberfield", "cli")

__all__ = list(_SOURCE)


def __getattr__(name):
    if name in _SOURCE:
        return getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_SOURCE, *_SUBMODULES})
