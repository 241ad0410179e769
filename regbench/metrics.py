"""Names and units of the metrics the benchmark reports.

BENCHMARK.json lists END_TO_END under "end_to_end" and PER_LAYER under
"per_layer"; regbench/test_regbench.py keeps the two in step.
"""

from .tracer import LAYERS

END_TO_END = [("throughput_qps", "1/s"), ("latency_p50_s", "s"), ("latency_p90_s", "s"),
              ("answered_frac", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
# printed with every untraced run; the gate is answered_frac, which is
# 1 - failed_frac - unknown_frac and, unlike them, never 0
REPORTED = [("failed_frac", "ratio"), ("unknown_frac", "ratio")]

# per-layer metrics of the traced run
PER_LAYER = [
    ("cli.run_self_s", "s"),
    ("maps.make_regular_map_s", "s"), ("maps.make_regular_map_calls", "count"),
    ("maps.apply_calls", "count"),
    ("polyalg.eval_calls_fraction", "count"), ("polyalg.eval_calls_padic", "count"),
    ("polyalg.eval_calls_nf", "count"), ("polyalg.eval_calls_other", "count"),
    ("polyalg.eval_s", "s"), ("polyalg.parse_poly_s", "s"),
    ("padic.mul_calls", "count"), ("padic.from_rational_calls", "count"),
    ("green.padic_attempts_per_badprime_green", "ratio"),
    ("intervals.log_of_fraction_calls", "count"), ("intervals.log_of_fraction_s", "s"),
    ("green.green_value_arch_s", "s"), ("green.green_value_badprime_s", "s"),
    ("green.green_value_good_s", "s"), ("green.green_homog_s", "s"),
    ("green.context_s", "s"), ("green.context_calls", "count"),
    ("green.bad_places_s", "s"),
    ("heights.canonical_height_calls_per_query", "ratio"),
    ("heights.canonical_height_s", "s"), ("heights.is_preperiodic_s", "s"),
    ("infinity.fixed_points_infinity_s", "s"), ("infinity.classify_multiplier_s", "s"),
    ("exactnum.find_expanding_place_s", "s"), ("exactnum.is_root_of_unity_s", "s"),
    ("numberfield.mul_calls", "count"), ("numberfield.mul_s", "s"),
    ("series.mul_calls", "count"), ("series.compose_calls", "count"),
    ("series.reversion_s", "s"),
    ("series.mul2_calls", "count"), ("series.mul2_s", "s"),
    ("series.compose2_calls", "count"), ("series.compose2_s", "s"),
    ("localdyn.localize_at_infinity_s", "s"), ("localdyn.super_stable_series_s", "s"),
    ("localdyn.reduce_form_s", "s"), ("localdyn.saddle_normal_form_s", "s"),
    ("localdyn.parabolic_normal_form_s", "s"), ("localdyn.verify_s", "s"),
    ("curves.pushforward_s", "s"), ("curves.pushforward_calls_per_query", "ratio"),
    ("curves.resultant_calls_per_pushforward", "ratio"),
    ("curves.resultant_s", "s"), ("curves.factor_list_s", "s"),
    ("curves.find_preperiodic_points_s", "s"),
] + [(f"{layer}.self_frac", "ratio") for layer in LAYERS] + [
    ("failed_frac", "ratio"), ("unknown_frac", "ratio"),
    ("tracing.overhead_frac", "ratio"),
]
