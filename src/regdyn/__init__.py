"""Certified arithmetic dynamics for regular polynomial endomorphisms of
the affine plane: local Green functions at all places of Q, canonical
heights with preperiodicity certificates, the dynamics on the line at
infinity, local normal forms at its fixed points, and curve-level orbit
analysis."""

from .exactnum import (AlgebraicNumber, ComplexInterval, FactoringCap, Place,
                       abs_at_place_exact, conjugates, find_expanding_place,
                       is_root_of_unity, valuation)
from .intervals import RealInterval, log_of_fraction
from .polyalg import MultiPoly, PolyParseError, homogeneous_top, parse_poly
from .series import TruncSeries, TruncSeries2, exp_series, log_unit
from .maps import DegreeTooLow, NotRegular, RegularMap, make_regular_map
from .padic import PrecisionLoss
from .green import GreenContext, bad_places, green_homog, green_value, \
    nullstellensatz_constant
from .heights import (HeightResult, PreperiodicityVerdict, canonical_height,
                      height_support, is_preperiodic)
from .infinity import (ExpandingPlace, InfinityPoint, RootOfUnity,
                       Superattracting, classify_multiplier, compose_forms,
                       fixed_points_infinity, infinity_orbit_preperiodicity,
                       multiplier, projective_roots)
from .localdyn import (ContractionError, GermShapeError, LocalGerm,
                       NormalFormResult, ResonanceError, SectorMap,
                       VerticalGraphSample, bottcher_series, graph_pullback,
                       koenigs_series, localize_at_infinity,
                       parabolic_normal_form, reduce_form,
                       rescaling_check, saddle_normal_form, super_stable_series)
from .curves import (CurveOrbitStatus, DmmReport, PlaneCurve,
                     curve_preperiodicity, dmm_report, find_preperiodic_points,
                     points_at_infinity, pushforward)

__version__ = "0.1.0"
