"""Per-layer metrics of the traced run, and what each one should move.

``PER_LAYER`` lists every per-layer metric as (name, unit, better, moves).
``moves`` names the end-to-end metric the layer metric should move and on
which workload; performance changes cite these names.  ``.calls`` counts
depend only on the seed and must repeat exactly; ``.self_s`` is a span's
duration minus its traced children.  BENCHMARK.json lists the same
metrics (a test keeps the two in step).
"""

from __future__ import annotations

ANALYSES = ("frames", "reconstruct", "identity", "regions", "lipschitz",
            "jacobian", "landscape", "train")

PER_LAYER = (
    ("seeding.rng.calls", "count", "lower", "verdict_s on census-d16"),
    ("seeding.rng.self_s", "s", "lower", "verdict_s on census-d16"),
    ("netbuild.realize.calls", "count", "lower",
     "verdict_s on train-d16 (one call per Armijo trial); setup_s everywhere"),
    ("netbuild.realize.self_s", "s", "lower",
     "verdict_s on train-d16; setup_s everywhere"),
    ("netbuild.forward_matrices.calls", "count", "lower",
     "verdict_s on all three workloads, most on verify-d64"),
    ("netbuild.forward_matrices.self_s", "s", "lower",
     "verdict_s on all three workloads, most on verify-d64"),
    ("netbuild.forward_matrices.flops_computed", "flop", "lower",
     "verdict_s on all three workloads, most on verify-d64"),
    # verdicts load their bank from a file, so building it is set-up cost only
    ("frames.frame_bank.self_s", "s", "lower", "setup_s on verify-d64"),
    ("frames.frame_residual.self_s", "s", "lower", "verdict_s on verify-d64"),
    ("analysis.region_census.calls", "count", "lower",
     "verdict_s and peak_rss_mb on census-d16 and verify-d64; no change on train-d16"),
    ("analysis.spectral_norm.calls", "count", "lower",
     "verdict_s and peak_rss_mb on census-d16 and verify-d64; no change on train-d16"),
    ("analysis.spectral_norm.self_s", "s", "lower",
     "verdict_s and peak_rss_mb on census-d16 and verify-d64; no change on train-d16"),
    ("analysis.extract_pattern.self_s", "s", "lower",
     "verdict_s and peak_rss_mb on census-d16 and verify-d64; no change on train-d16"),
    ("analysis.linear_rep.self_s", "s", "lower",
     "verdict_s and peak_rss_mb on census-d16 and verify-d64; no change on train-d16"),
    ("analysis.jacobian_analytic.calls", "count", "lower", "verdict_s on verify-d64"),
    ("analysis.fd_jacobian.self_s", "s", "lower", "verdict_s on verify-d64"),
    ("analysis.jacobian.accept_ratio", "ratio", "higher", "verdict_s on verify-d64"),
    ("analysis.census.distinct_ratio", "ratio", "lower",
     "census saturation on census-d16 and verify-d64"),
    ("landscape.tap_gradients.self_s", "s", "lower", "verdict_s on train-d16"),
    ("landscape.loss.calls", "count", "lower", "verdict_s on train-d16"),
    ("landscape.armijo.accept_ratio", "ratio", "higher", "verdict_s on train-d16"),
    ("landscape.certify_bounds_skip.self_s", "s", "lower",
     "verdict_s on train-d16; the certificates on verify-d64"),
    ("landscape.check_stationarity.self_s", "s", "lower",
     "verdict_s on train-d16; the certificates on verify-d64"),
    *((f"cli.{name}.s", "s", "lower", "verdict_s on every workload") for name in ANALYSES),
    ("cli.write_report.self_s", "s", "lower", "verdict_s on every workload"),
    ("trace.verdict_s", "s", "lower", "tracing overhead, next to verdict_s"),
    ("trace.overhead_ratio", "ratio", "lower", "tracing overhead, next to verdict_s"),
    ("gate.failed_frac", "ratio", "lower", "correctness: must be 0 on every workload"),
)

UNITS = {name: unit for name, unit, _, _ in PER_LAYER}

# spans whose call count or self time is reported as <target>.calls / .self_s
_SPAN_FIELDS = tuple(
    tuple(name.rsplit(".", 1)) for name, *_ in PER_LAYER
    if name.endswith((".calls", ".self_s"))
)


def forward_flops(network: dict) -> int:
    """Flops of one forward pass: two per entry of every layer operator."""
    q, m, skip = network["q"], network["m"], network["skip"]
    entries = 0
    for l in range(1, network["kappa"] + 1):
        rows = m[l - 1] * q[l - 1]
        entries += 2 * rows * m[l] * q[l]  # E and D
        if skip:
            entries += 2 * rows * m[l - 1] * q[l]  # S and S_tilde
    return 2 * entries


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer, report: dict, network: dict, analysis_s: dict,
                      traced_s: float, untraced_s: float, failed_frac: float) -> dict:
    """Every metric of PER_LAYER, from one traced verdict and its report.

    ``analysis_s`` holds the untraced per-analysis wall seconds from the
    report's own ``timings`` block; ``traced_s`` and ``untraced_s`` are
    verdict seconds at the nominal pace.  Wall and self times include the
    pace samples (about 2 %).
    """
    summary = tracer.summary()
    values = {f"{span}.{field}": summary.get(span, {"calls": 0, "self_s": 0.0})[field]
              for span, field in _SPAN_FIELDS}

    def calls(span):
        return summary.get(span, {"calls": 0})["calls"]

    values["netbuild.forward_matrices.flops_computed"] = (
        calls("netbuild.forward_matrices") * forward_flops(network))
    values["analysis.jacobian.accept_ratio"] = _ratio(
        calls("analysis.fd_jacobian"), calls("analysis.jacobian_analytic"))
    results = report["results"]
    if "regions" in results:
        census = (results["regions"]["distinct"], results["regions"]["samples"])
    elif "lipschitz" in results:
        census = (results["lipschitz"]["distinct_regions"], results["lipschitz"]["samples"])
    else:
        census = (0, 0)
    values["analysis.census.distinct_ratio"] = _ratio(*census)
    train_losses = tracer.calls_under("landscape.loss", "landscape.train_gd")
    iterations = results.get("train", {}).get("iterations_run", 0)
    values["landscape.armijo.accept_ratio"] = _ratio(iterations, max(train_losses - 1, 0))
    for name in ANALYSES:
        values[f"cli.{name}.s"] = analysis_s.get(name, 0.0)
    values["trace.verdict_s"] = traced_s
    values["trace.overhead_ratio"] = _ratio(traced_s, untraced_s)
    values["gate.failed_frac"] = failed_frac
    return values
