"""What each CLI call imports: only the modules its subcommand runs, and
sympy only where a computation needs it.  Each call runs in a fresh
interpreter, so that no other test has imported anything yet."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import regdyn

SRC = os.path.dirname(os.path.dirname(regdyn.__file__))
HEAVY = ("sympy", "regdyn.curves", "regdyn.series", "regdyn.localdyn")


def _loaded_after(*argv) -> set:
    """The modules of HEAVY in sys.modules after `regdyn.cli.run(argv)`."""
    code = ("import contextlib, io, json, sys\n"
            "from regdyn import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    exit_code = cli.run({list(argv)!r})\n"
            f"print(json.dumps([exit_code, [m for m in {HEAVY!r} if m in sys.modules]]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    exit_code, loaded = json.loads(out.splitlines()[-1])
    assert exit_code == 0
    return set(loaded)


MAP = "z^2+w, w^2-z"


@pytest.mark.parametrize("argv", [
    ("height", "--map", MAP, "--point=1,2"),
    ("height", "--map", "z^2 + 1/3*w, w^2 - 1/2*z", "--point=1/2,1/3"),
    ("green", "--map", MAP, "--point=1,2"),
    ("green", "--map", MAP, "--point=1,2", "--place", "3"),
    ("green", "--map", MAP, "--homog=0,1,2"),
    ("orbit", "--map", MAP, "--point=1,2", "-n", "5"),
])
def test_heights_greens_and_orbits_load_neither_sympy_nor_the_other_layers(argv):
    assert _loaded_after(*argv) == set()


def test_a_stable_manifold_loads_neither_sympy_nor_curves():
    loaded = _loaded_after("stable-manifold", "--map", "2*z^2+w, w^2", "--order", "8")
    assert "sympy" not in loaded and "regdyn.curves" not in loaded
    assert "regdyn.localdyn" in loaded


def test_a_curve_loads_curves_and_no_localdyn():
    loaded = _loaded_after("curve", "--map", "z^2, w^2", "--curve", "w - z")
    assert "regdyn.curves" in loaded and "regdyn.localdyn" not in loaded


def test_a_monomial_dmm_on_a_line_loads_no_sympy():
    # the norm gives its curve orbit, and the cyclotomic fields of its roots
    # of unity come from integers
    loaded = _loaded_after("dmm", "--map", "-z^2, -w^2", "--curve", "-z + w", "--max-iters",
                           "4", "--max-degree", "8", "--height-bound", "1", "--max-order", "16")
    assert loaded == {"regdyn.curves"}


# every name the package exported when it imported each submodule at once
EXPORTS = {
    "exactnum": ["AlgebraicNumber", "ComplexInterval", "FactoringCap", "Place",
                 "abs_at_place_exact", "conjugates", "find_expanding_place",
                 "is_root_of_unity", "valuation"],
    "intervals": ["RealInterval", "log_of_fraction"],
    "polyalg": ["MultiPoly", "PolyParseError", "homogeneous_top", "parse_poly"],
    "series": ["TruncSeries", "TruncSeries2", "exp_series", "log_unit"],
    "maps": ["DegreeTooLow", "NotRegular", "RegularMap", "make_regular_map"],
    "padic": ["PrecisionLoss"],
    "green": ["GreenContext", "bad_places", "green_homog", "green_value",
              "nullstellensatz_constant"],
    "heights": ["HeightResult", "PreperiodicityVerdict", "canonical_height",
                "height_support", "is_preperiodic"],
    "infinity": ["ExpandingPlace", "InfinityPoint", "RootOfUnity", "Superattracting",
                 "classify_multiplier", "compose_forms", "fixed_points_infinity",
                 "infinity_orbit_preperiodicity", "multiplier", "projective_roots"],
    "localdyn": ["ContractionError", "GermShapeError", "LocalGerm", "NormalFormResult",
                 "ResonanceError", "SectorMap", "VerticalGraphSample", "bottcher_series",
                 "graph_pullback", "koenigs_series", "localize_at_infinity",
                 "parabolic_normal_form", "reduce_form", "rescaling_check",
                 "saddle_normal_form", "super_stable_series"],
    "curves": ["CurveOrbitStatus", "DmmReport", "PlaneCurve", "curve_preperiodicity",
               "dmm_report", "find_preperiodic_points", "points_at_infinity", "pushforward"],
}


@pytest.mark.parametrize("module", EXPORTS)
def test_every_exported_name_is_its_submodules_object(module):
    sub = importlib.import_module(f"regdyn.{module}")
    for name in EXPORTS[module]:
        assert getattr(regdyn, name) is getattr(sub, name), name
        assert name in regdyn.__all__ and name in dir(regdyn)
    assert getattr(regdyn, module) is sub


def test_the_package_resolves_submodules_and_refuses_other_names():
    assert regdyn.numberfield is importlib.import_module("regdyn.numberfield")
    assert regdyn.__version__ == "0.1.0"
    assert sorted(regdyn.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    with pytest.raises(AttributeError):
        regdyn.no_such_name
    assert not hasattr(regdyn, "sympy")


def test_curves_reexports_the_zeta_of_exactnum():
    from regdyn import curves, exactnum
    assert curves.Zeta is exactnum.Zeta
