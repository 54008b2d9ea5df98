"""Engine micro-benchmark: the two page-load engines, head to head.

Each scenario loads one page once per engine (``NetworkConfig.engine``) —

* ``reference`` — the oracle: every link refresh tick and every
  microtask deferral is its own heap event, and the preload scanner
  polls on a standing 5 ms grid.
* ``production`` — the array-backed executor with inline fast-forward
  and homogeneous-run batch loops in the link, memoised assignment and
  closed-form water-filling, lazy tick reschedules, coalesced microtask
  deferrals, and demand-driven scanner wakeups on the poll's own grid.

— and asserts the two :class:`LoadMetrics` are bit-identical before
reporting anything.  The report then carries two kinds of numbers:

* **Deterministic counters** (heap events scheduled/executed/cancelled,
  link pokes, fast-forward steps, batch runs, scanner wakeups): pure
  functions of the event trace, stable across machines, pinned as CI
  goldens by ``repro bench engine --smoke``.
* **Wall-clock** (seconds per load, speedup): machine-dependent,
  recorded in ``BENCH_engine.json`` for the trajectory.  CI only asserts
  the deliberately conservative per-scenario *speedup floors* — the
  production engine must not lose its edge over the reference — never
  the raw seconds.

Scenario shapes:

* ``corpus-news`` — a realistic synthetic News/Sports page under the
  push-all + fetch-asap configuration at LTE latency.  Thresholds
  (completions, preload-scanner watches) dominate; the production win
  here is the elided scanner polls and coalesced microtasks.
* ``push-all-high-rtt`` — the slow-start-heavy shape from the paper's
  motivation: high RTT, lossy link, server push keeping many streams
  concurrent while windows are still opening.  Refresh ticks dominate
  and batch runs collapse the heap traffic.
* ``single-stream-drain`` — one long cwnd-limited body drain, the purest
  hot-path microbench: nearly every tick is absorbed by the scalar
  batch loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import audit
from repro.browser.engine import BrowserConfig, load_page
from repro.browser.metrics import LoadMetrics
from repro.calibration import DEFAULT_EVAL_HOUR
from repro.core.push_policy import PushPolicy
from repro.core.scheduler import FetchAsapScheduler
from repro.core.server import vroom_servers
from repro.net.http import ENGINES, NetworkConfig
from repro.net.link import StreamScheduling
from repro.pages.corpus import news_sports_corpus
from repro.pages.dynamics import LoadStamp
from repro.pages.page import PageBlueprint, PageSnapshot
from repro.pages.resources import ResourceSpec, ResourceType
from repro.replay.recorder import record_snapshot
from repro.replay.store import ReplayStore


@dataclass(frozen=True)
class EngineScenario:
    """One benchmarked page/network shape."""

    name: str
    description: str
    #: "corpus" uses a generated News/Sports page; "synthetic" builds a
    #: root document plus ``images`` bodies of ``image_bytes`` each.
    kind: str
    images: int = 0
    image_bytes: int = 0
    #: None keeps the :class:`NetworkConfig` default (LTE).
    base_rtt: Optional[float] = None
    loss_rate: float = 0.0


SCENARIOS: Tuple[EngineScenario, ...] = (
    EngineScenario(
        name="corpus-news",
        description="realistic News/Sports page, push-all + fetch-asap, LTE",
        kind="corpus",
    ),
    EngineScenario(
        name="push-all-high-rtt",
        description="8 large pushed bodies, 500 ms RTT, 3% loss (slow-start-heavy)",
        kind="synthetic",
        images=8,
        image_bytes=900_000,
        base_rtt=0.5,
        loss_rate=0.03,
    ),
    EngineScenario(
        name="single-stream-drain",
        description="one 40 MB body, 200 ms RTT, 3% loss (pure hot-path drain)",
        kind="synthetic",
        images=1,
        image_bytes=40_000_000,
        base_rtt=0.2,
        loss_rate=0.03,
    ),
)

#: Counter keys copied from ``LoadMetrics.engine_counters`` into reports.
COUNTER_KEYS: Tuple[str, ...] = (
    "events_scheduled",
    "events_executed",
    "events_cancelled",
    "heap_compactions",
    "inline_advances",
    "link_pokes",
    "link_fast_forward_steps",
    "link_rate_recomputes",
    "link_batch_runs",
    "link_batch_steps",
    "link_wf_fast_hits",
    "link_tick_keeps",
    "soon_coalesced",
    "browser_wakeups",
    "scanner_polls_elided",
)


def _scenario_page(scenario: EngineScenario) -> PageBlueprint:
    if scenario.kind == "corpus":
        return news_sports_corpus(count=1)[0]
    page = PageBlueprint(
        name=f"bench_{scenario.name.replace('-', '_')}", root="bench_root"
    )
    root = page.add(
        ResourceSpec(
            name="bench_root",
            rtype=ResourceType.HTML,
            domain="bench.com",
            size=60_000,
            parent=None,
            cacheable=False,
        )
    )
    for index in range(scenario.images):
        page.add(
            ResourceSpec(
                name=f"bench_img{index}",
                rtype=ResourceType.IMAGE,
                domain="bench.com",
                size=scenario.image_bytes,
                parent=root.name,
                position=0.1,
            )
        )
    return page


def _materialize(
    scenario: EngineScenario,
) -> Tuple[PageBlueprint, PageSnapshot, ReplayStore]:
    page = _scenario_page(scenario)
    snapshot = page.materialize(LoadStamp(when_hours=DEFAULT_EVAL_HOUR))
    return page, snapshot, record_snapshot(snapshot)


def _load_once(
    page: PageBlueprint,
    snapshot: PageSnapshot,
    store: ReplayStore,
    scenario: EngineScenario,
    engine: str,
) -> Tuple[LoadMetrics, float]:
    """One push-all + fetch-asap load; returns (metrics, wall seconds)."""
    servers = vroom_servers(
        page, snapshot, store, push_policy=PushPolicy.ALL_LOCAL
    )
    net_kwargs: Dict[str, object] = {
        "h2_scheduling": StreamScheduling.FAIR,
        "loss_rate": scenario.loss_rate,
        "engine": engine,
    }
    if scenario.base_rtt is not None:
        net_kwargs["base_rtt"] = scenario.base_rtt
    started = time.perf_counter()
    metrics = load_page(
        snapshot,
        servers,
        NetworkConfig(**net_kwargs),
        BrowserConfig(when_hours=DEFAULT_EVAL_HOUR),
        policy=FetchAsapScheduler(),
    )
    return metrics, time.perf_counter() - started


def bench_scenario(scenario: EngineScenario, repeats: int = 3) -> dict:
    """Benchmark one scenario; raises if the engines ever diverge."""
    page, snapshot, store = _materialize(scenario)
    wall: Dict[str, float] = {}
    metrics: Dict[str, LoadMetrics] = {}
    # Repeats alternate between the engines, so a burst of host load
    # lands on both sides of the ratio instead of on one engine's runs.
    for _ in range(max(1, repeats)):
        for mode in ENGINES:
            result, elapsed = _load_once(page, snapshot, store, scenario, mode)
            metrics[mode] = result
            wall[mode] = min(wall.get(mode, elapsed), elapsed)
    reference = metrics["reference"]
    production = metrics["production"]
    if production != reference:
        raise AssertionError(
            f"scenario {scenario.name!r}: production diverged from the "
            f"reference engine (plt {reference.plt!r} vs "
            f"{production.plt!r})"
        )
    counters = {
        mode: {
            key: metrics[mode].engine_counters[key] for key in COUNTER_KEYS
        }
        for mode in ENGINES
    }
    return {
        "scenario": scenario.name,
        "description": scenario.description,
        "plt": reference.plt,
        "bit_identical": True,
        "counters_reference": counters["reference"],
        "counters_production": counters["production"],
        "event_reduction": (
            counters["reference"]["events_scheduled"]
            / max(1, counters["production"]["events_scheduled"])
        ),
        "wall_reference_sec": wall["reference"],
        "wall_production_sec": wall["production"],
        "wall_speedup": (
            wall["reference"] / wall["production"]
            if wall["production"] > 0
            else 0.0
        ),
    }


def engine_benchmark(
    scenarios: Tuple[EngineScenario, ...] = SCENARIOS, repeats: int = 3
) -> dict:
    """Run every scenario; returns the ``BENCH_engine.json`` payload."""
    return {
        "benchmark": "engine",
        "scenarios": [
            bench_scenario(scenario, repeats=repeats)
            for scenario in scenarios
        ],
    }


#: Golden deterministic counters per scenario, asserted by ``--smoke``,
#: as ``counter -> (reference, production)``.  Any hot-path change that
#: alters the event trace shows up here — without the flakiness of
#: asserting wall-clock in CI.  Regenerate by running ``repro bench
#: engine --smoke`` and copying the printed counters after verifying the
#: change is intentional.
SMOKE_GOLDENS: Dict[str, Dict[str, Tuple[int, int]]] = {
    "corpus-news": {
        "events_scheduled": (1636, 1004),
        "events_executed": (1338, 958),
        "events_cancelled": (298, 46),
        "heap_compactions": (2, 0),
        "inline_advances": (0, 8),
        "link_pokes": (553, 553),
        "link_fast_forward_steps": (0, 8),
        "link_rate_recomputes": (158, 128),
        "link_batch_runs": (0, 2),
        "link_batch_steps": (0, 3),
        "link_wf_fast_hits": (0, 60),
        "link_tick_keeps": (0, 1),
        "soon_coalesced": (0, 113),
        "browser_wakeups": (261, 2),
        "scanner_polls_elided": (0, 259),
    },
    "push-all-high-rtt": {
        "events_scheduled": (317, 64),
        "events_executed": (292, 63),
        "events_cancelled": (25, 1),
        "heap_compactions": (0, 0),
        "inline_advances": (0, 207),
        "link_pokes": (246, 246),
        "link_fast_forward_steps": (0, 207),
        "link_rate_recomputes": (0, 0),
        "link_batch_runs": (0, 3),
        "link_batch_steps": (0, 204),
        "link_wf_fast_hits": (0, 0),
        "link_tick_keeps": (0, 0),
        "soon_coalesced": (0, 22),
        "browser_wakeups": (1, 1),
        "scanner_polls_elided": (0, 0),
    },
    "single-stream-drain": {
        "events_scheduled": (1281, 23),
        "events_executed": (1277, 22),
        "events_cancelled": (4, 1),
        "heap_compactions": (0, 0),
        "inline_advances": (0, 1254),
        "link_pokes": (1266, 1266),
        "link_fast_forward_steps": (0, 1254),
        "link_rate_recomputes": (0, 0),
        "link_batch_runs": (0, 2),
        "link_batch_steps": (0, 1251),
        "link_wf_fast_hits": (0, 0),
        "link_tick_keeps": (0, 0),
        "soon_coalesced": (0, 1),
        "browser_wakeups": (1, 1),
        "scanner_polls_elided": (0, 0),
    },
}

#: Minimum acceptable ``wall_speedup`` (production over reference) per
#: scenario: at least 25% below the lowest best-of-three ``--smoke``
#: measurement (1.40x / 1.37x / 1.90x on a 2-CPU container) so
#: shared-runner noise cannot trip CI, while losing the production
#: engine's edge still fails the smoke job.  See
#: ``docs/PERFORMANCE.md`` for the full census.
SPEEDUP_FLOORS: Dict[str, float] = {
    "corpus-news": 1.05,
    "push-all-high-rtt": 1.00,
    "single-stream-drain": 1.40,
}


def smoke_counters(report: dict) -> Dict[str, Dict[str, Tuple[int, int]]]:
    """The golden-comparable slice of an :func:`engine_benchmark` report."""
    return {
        row["scenario"]: {
            key: (
                row["counters_reference"][key],
                row["counters_production"][key],
            )
            for key in COUNTER_KEYS
        }
        for row in report["scenarios"]
    }


def profile_scenario(
    stats_path: str,
    scenario_name: str = "corpus-news",
    loads: int = 5,
    top: int = 25,
    mode: str = "production",
) -> str:
    """cProfile ``loads`` loads of one scenario under one engine.

    ``mode`` is either engine name; the default profiles the
    production engine.  Dumps the raw ``pstats`` data to ``stats_path``
    (for ``snakeviz`` / ``pstats`` digging offline) and returns the
    top-``top`` cumulative table as text — the CI engine-bench job
    archives both, so every run carries the evidence of where the hot
    path's time actually went.
    """
    import cProfile
    import io
    import pstats

    scenario = next(
        item for item in SCENARIOS if item.name == scenario_name
    )
    if mode not in ENGINES:
        raise ValueError(
            f"unknown engine mode {mode!r} (one of: {', '.join(ENGINES)})"
        )
    page, snapshot, store = _materialize(scenario)

    def run() -> None:
        for _ in range(loads):
            _load_once(page, snapshot, store, scenario, mode)

    run()  # warm caches so the profile reflects steady state
    profiler = cProfile.Profile()
    profiler.enable()
    run()
    profiler.disable()
    profiler.dump_stats(stats_path)
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    return buffer.getvalue()


def smoke_run() -> dict:
    """Best-of-three benchmark over every scenario (for CI).

    Counters are exact on any repeat count; three wall repeats keep the
    speedup-floor check out of single-sample noise.
    """
    return engine_benchmark(repeats=3)


#: Production counters that measure which *implementation* ran, not
#: the trace.  Under ``REPRO_AUDIT=1`` the batch loops stand down (the
#: generic loop validates every step individually, so runs/steps read
#: zero), the memoised allocator is bypassed (so the closed-form and
#: general solvers are hit a different number of times), and microtask
#: batching stands down (the seq-gap coalescing guard is an
#: implementation shortcut the auditor refuses), so the heap totals shift
#: by exactly the coalesced count.  These are not comparable to the
#: goldens there — but every trace-shaped counter (cancellations, pokes,
#: fast-forward steps, wakeups, elided polls, tick keeps) and every
#: reference counter must still match exactly, and that is what the
#: audited smoke run asserts.
_IMPLEMENTATION_COUNTERS = (
    "events_scheduled",
    "events_executed",
    "link_rate_recomputes",
    "link_batch_runs",
    "link_batch_steps",
    "link_wf_fast_hits",
    "soon_coalesced",
)


def smoke_check(report: dict) -> List[str]:
    """Mismatches between a benchmark report and the pinned goldens."""
    problems: List[str] = []
    observed = smoke_counters(report)
    audited = audit.ENABLED
    speedups = {
        row["scenario"]: row["wall_speedup"] for row in report["scenarios"]
    }
    for scenario, golden in SMOKE_GOLDENS.items():
        actual = observed.get(scenario)
        if actual is None:
            problems.append(f"{scenario}: missing from report")
            continue
        for key, expected in golden.items():
            got = actual[key]
            for mode, want, have in zip(ENGINES, expected, got):
                if mode == "production" and audited and (
                    key in _IMPLEMENTATION_COUNTERS
                ):
                    continue
                if have != want:
                    problems.append(
                        f"{scenario}.{key} ({mode}): expected {want!r}, "
                        f"got {have!r}"
                    )
        if audited:
            # Audited walls time the stand-down engine plus per-step
            # validation, not the production engine; no floor applies.
            continue
        floor = SPEEDUP_FLOORS.get(scenario)
        speedup = speedups.get(scenario)
        if floor is not None and speedup is not None and speedup < floor:
            problems.append(
                f"{scenario}.wall_speedup: {speedup:.2f}x fell below the "
                f"{floor:.2f}x floor — the production engine lost its "
                "wall-clock edge over the reference engine"
            )
    return problems
