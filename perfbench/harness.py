"""Drive one workload: set-up, timed passes, traced pass, output checks.

An untraced run (``trace=False``) runs whole passes, each on inputs
from a fresh ``setup``, until the passes' timed calls have taken
``seconds`` (at least two passes, so the cross-pass check has something
to compare), and reports the end-to-end metrics.  ``setup_s`` is the
median over every set-up of the run (at least :data:`SETUP_REPS`),
interleaved with the passes.  Every time is divided by the host factor
read around its clock segment (:mod:`calibrate`), so it is in
nominal-host seconds; the raw wall-clock figures are printed next to
them.

A traced run (``trace=True``) runs untraced passes for half of
``seconds`` as the overhead baseline, then one set-up plus one pass
under the span tracer, then one pass under cProfile, and reports the
per-layer metrics.  Its passes join the cross-pass check too, so
tracing that changed an output would fail the run.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro import audit
from calibrate import HostClock
from spans import TARGETS, Tracer, profile_layer_shares, span_name
from workloads import ENGINE_COUNTERS, PassResult

SETUP_REPS = 5

#: End-to-end metrics every workload reports in its result line.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("peak_rss_mb", "MB"),
)

#: Layers whose cProfile self-time share is reported.
SHARE_LAYERS: Tuple[str, ...] = (
    "audit", "calibration", "net", "pages", "browser", "replay", "core",
    "baselines", "analysis", "service", "scenario", "longrun",
    "experiments", "root",
)

#: Program counters the workloads report (0 where a workload has none).
COUNTER_METRICS: Tuple[Tuple[str, str], ...] = tuple(
    (metric, "count") for _key, metric in ENGINE_COUNTERS
) + (
    ("replay.cache.hit_rate", "fraction"),
    ("service.resolutions", "count"),
    ("service.loads_spent", "count"),
    ("service.inserts", "count"),
    ("service.replica_inserts", "count"),
    ("service.failovers", "count"),
    ("service.read_repairs", "count"),
    ("service.hits", "count"),
    ("service.stale_hits", "count"),
    ("service.misses", "count"),
    ("service.unavailable", "count"),
    ("service.coalesced_ratio", "fraction"),
    ("service.budget_utilization", "fraction"),
    ("longrun.rollups", "count"),
)

#: Metrics computed from spans, tallies and counters together.
DERIVED_METRICS: Tuple[Tuple[str, str], ...] = (
    ("net.host_us_per_event", "us"),
    ("core.stable_set.memo_ratio", "fraction"),
    ("core.digest.urls", "count"),
    ("core.digest.filtered_ratio", "fraction"),
    ("service.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_share", "fraction"),
    ("trace.engine_counters_absent", "count"),
)


def span_metrics() -> List[Tuple[str, str]]:
    out = []
    for target in TARGETS:
        name = span_name(target)
        out += [(f"{name}.calls", "count"), (f"{name}.s", "s"),
                (f"{name}.self_s", "s")]
    return out


def per_layer_metrics() -> List[Tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    return (
        span_metrics()
        + list(COUNTER_METRICS)
        + list(DERIVED_METRICS)
        + [(f"{layer}.self_share", "fraction") for layer in SHARE_LAYERS]
    )


@dataclass
class Outcome:
    workload: str
    seed: int
    correct: bool
    attempted: int
    failed: int
    #: Result-line metrics: name -> (value, unit).
    metrics: Dict[str, Tuple[float, str]]
    #: Everything else worth printing: (name, value, unit).
    report: List[Tuple[str, object, str]] = field(default_factory=list)
    fingerprint: str = ""
    problems: List[str] = field(default_factory=list)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up_and_run(workload, seed: int, run_pass: bool):
    """One fresh set-up (its own clock segment), optionally one pass on it.

    Returns ``(set-up clock, pass or None)``.
    """
    setup = HostClock()
    start = time.perf_counter()
    state = workload.setup(seed)
    setup.record(time.perf_counter() - start)
    setup.close()
    result = workload.run_pass(state, HostClock()) if run_pass else None
    del state
    gc.collect()  # the next pass starts from the same heap
    return setup, result


def timed_passes(workload, seed: int, seconds: float, min_passes: int):
    """Fresh set-up plus one pass, until the passes have taken ``seconds``.

    Only the passes' own timed calls count toward ``seconds``.  Returns
    the set-up clocks and the passes.
    """
    setups: List[HostClock] = []
    passes: List[PassResult] = []
    while len(passes) < min_passes or sum(p.wall_s for p in passes) < seconds:
        setup, result = set_up_and_run(workload, seed, True)
        setups.append(setup)
        passes.append(result)
    while len(setups) < SETUP_REPS:
        setups.append(set_up_and_run(workload, seed, False)[0])
    return setups, passes


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(share * len(ordered))) - 1]


def layer_values(
    workload, tracer: Tracer, traced_state, traced: PassResult,
    shares: Dict[str, float], unattributed: float, overhead: float,
) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metric values from one traced pass and the profile.

    Also returns the engine-counter keys the program did not report.
    """
    values: Dict[str, float] = {name: 0 for name, _unit in COUNTER_METRICS}
    counters, absent = workload.counters(traced_state, traced)
    values.update(counters)
    stats = tracer.stats()
    scale = traced.nominal_s / traced.wall_s
    for target in TARGETS:
        name = span_name(target)
        row = stats.get(name)
        values[f"{name}.calls"] = row.calls if row else 0
        values[f"{name}.s"] = row.total_s * scale if row else 0.0
        values[f"{name}.self_s"] = row.self_s * scale if row else 0.0
    executed = values["net.events_executed"]
    values["net.host_us_per_event"] = (
        values["browser.load_page.s"] / executed * 1e6 if executed else 0.0
    )
    stable = values["core.stable_set.calls"]
    values["core.stable_set.memo_ratio"] = (
        1.0 - values["core.offline_loads.calls"] / stable if stable else 0.0
    )
    builds = tracer.tallies.get("core.digest_build", {})
    filters = tracer.tallies.get("core.digest_filter", {})
    values["core.digest.urls"] = builds.get("urls", 0)
    urls_in = filters.get("urls_in", 0)
    values["core.digest.filtered_ratio"] = (
        1.0 - filters.get("urls_kept", 0) / urls_in if urls_in else 0.0
    )
    values["service.self_s"] = scale * sum(
        row.self_s for name, row in stats.items()
        if name.startswith("service.")
    )
    values["trace.overhead_ratio"] = overhead
    values["trace.unattributed_share"] = unattributed
    values["trace.engine_counters_absent"] = len(absent)
    for layer in SHARE_LAYERS:
        values[f"{layer}.self_share"] = shares.get(layer, 0.0)
    return values, absent


def run_workload(workload, seed: int, seconds: float, trace: bool) -> Outcome:
    audit.disable()
    budget = seconds / 2.0 if trace else seconds
    setups, passes = timed_passes(
        workload, seed, budget, 1 if trace else 2
    )
    rss = peak_rss_mb()
    untraced = list(passes)

    absent: List[str] = []
    if trace:
        tracer = Tracer()
        with tracer.installed():
            traced_state = workload.setup(seed)
            traced = workload.run_pass(traced_state, HostClock())
        profiled_state = workload.setup(seed)
        profiled, shares, unattributed = profile_layer_shares(
            lambda: workload.run_pass(profiled_state, HostClock(False))
        )
        passes += [traced, profiled]
        baseline = statistics.mean(p.nominal_s for p in untraced)
        layer, absent = layer_values(
            workload, tracer, traced_state, traced, shares, unattributed,
            traced.nominal_s / baseline,
        )

    # -- output checks --------------------------------------------------
    first = passes[0]
    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    problems: List[str] = []
    for index, result in enumerate(passes):
        problems += [f"pass {index}: {text}" for text in result.problems]
        if result.fingerprint != first.fingerprint:
            failed += result.ops - result.failed
            problems.append(
                f"pass {index}: output fingerprint {result.fingerprint[:16]} "
                f"!= first pass {first.fingerprint[:16]}"
            )
    checked, check_failed, check_problems = workload.final_problems(
        seed, first
    )
    attempted += checked
    failed += check_failed
    problems += check_problems
    correct = failed == 0 and not problems

    # -- metrics ----------------------------------------------------------
    ops = sum(p.ops for p in untraced)
    wall = sum(p.wall_s for p in untraced)
    ops_per_s = ops / sum(p.nominal_s for p in untraced)
    setup_median = statistics.median(clock.nominal_s for clock in setups)
    report: List[Tuple[str, object, str]] = [
        ("setup_s", setup_median, "s"),
        ("ops_per_s", ops_per_s, "ops/s"),
    ]
    op_s = [value for p in untraced for value in p.op_s]
    if op_s:
        report += [
            ("op_ms_p50", statistics.median(op_s) * 1e3, "ms"),
            ("op_ms_p95", percentile(op_s, 0.95) * 1e3, "ms"),
            ("op_samples", len(op_s), "count"),
        ]
    report += [
        ("peak_rss_mb", rss, "MB"),
        ("error_rate", failed / attempted if attempted else 0.0, "fraction"),
    ]
    if first.output is not None:
        report += workload.sim_metrics(first)
    report += [
        ("passes", len(untraced), "count"),
        (workload.op_name, ops, "count"),
        ("timed_s", wall, "s"),
        ("host_factor", wall / sum(p.nominal_s for p in untraced), "ratio"),
        ("raw_setup_s", statistics.median(c.wall_s for c in setups), "s"),
        ("raw_ops_per_s", ops / wall, "ops/s"),
    ]
    if absent:
        report.append(("engine_counters_absent", ",".join(absent), "keys"))

    if trace:
        units = dict(per_layer_metrics())
        metrics = {name: (layer[name], units[name]) for name in units}
    else:
        values = {"setup_s": setup_median, "ops_per_s": ops_per_s,
                  "peak_rss_mb": rss}
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    return Outcome(
        workload=workload.name,
        seed=seed,
        correct=correct,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        report=report,
        fingerprint=first.fingerprint,
        problems=problems,
    )
