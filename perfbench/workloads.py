"""The benchmark's three workloads and their output checks.

Each workload has the same shape:

* ``setup(seed)`` builds the inputs (timed by the harness as
  ``setup_s``);
* ``run_pass(state, clock)`` runs one fixed unit of work, timing the
  program's calls on ``clock`` (a :class:`calibrate.HostClock`) in
  segments of under a second, and returns a :class:`PassResult`: the
  ops done, their wall and nominal-host seconds, an output fingerprint
  and per-op problems;
* ``final_problems(seed, first)`` runs the checks that need a whole
  pass to compare against (audited re-runs, checkpoint round trip);
* ``sim_metrics(first)`` / ``counters(state, traced)`` read simulated
  results and program counters from a pass's outputs.

Every check is an invariant that holds for any seed — conservation
identities, a differential re-run through ``repro.audit`` and equality
across passes — never a golden value pinned to one seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import LoadStamp, audit, news_sports_corpus
from repro.baselines import configs as baseline_configs
from repro.calibration import DEFAULT_EVAL_HOUR
from repro.experiments.longrun_bench import DEFAULT_SPEC
from repro.longrun import LongRunner, checkpoint_roundtrip
from repro.replay.cache import SnapshotCache
from repro.service import HintService, ServiceConfig
from repro.service.placement import shard_outage_rule

from calibrate import HostClock

#: ``LoadMetrics.engine_counters`` keys the benchmark reports, with the
#: per-layer metric each one feeds.  A key the engine no longer emits is
#: reported as absent, never as a failure.
ENGINE_COUNTERS: Tuple[Tuple[str, str], ...] = (
    ("events_scheduled", "net.events_scheduled"),
    ("events_executed", "net.events_executed"),
    ("link_rate_recomputes", "net.link_rate_recomputes"),
    ("link_pokes", "net.link_pokes"),
    ("link_wf_fast_hits", "net.link_wf_fast_hits"),
    ("link_batch_steps", "net.link_batch_steps"),
    ("browser_wakeups", "browser.wakeups"),
    ("scanner_polls_elided", "browser.scanner_polls_elided"),
)


def derive_seed(seed: int, salt: str) -> int:
    """A 31-bit seed for one input stream, stable across Pythons."""
    digest = hashlib.sha256(f"{salt}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


@dataclass
class PassResult:
    """One pass of a workload."""

    ops: int
    #: Wall seconds inside the timed program calls.
    wall_s: float
    #: The same in nominal-host seconds (see :mod:`calibrate`).
    nominal_s: float
    fingerprint: str
    #: Ops that raised, did not complete or failed a per-op check.
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Nominal-host seconds per op, where ops are timed one by one.
    op_s: List[float] = field(default_factory=list)
    #: Workload-specific outputs (metrics rows, reports).
    output: object = None


# -- output checks ----------------------------------------------------------


def load_problems(metrics) -> List[str]:
    """Why one page load is not a complete, fault-free load (if it isn't)."""
    problems = []
    for name in ("plt", "aft", "speed_index"):
        value = getattr(metrics, name)
        if not math.isfinite(value) or value < 0:
            problems.append(f"{name}={value!r}")
    if not metrics.plt > 0:
        problems.append(f"plt={metrics.plt!r} is not positive")
    if metrics.failed_fetches != 0:
        problems.append(f"failed_fetches={metrics.failed_fetches}")
    return problems


def load_record(page: str, config: str, metrics) -> bytes:
    """The fingerprinted outputs of one load (floats by exact repr)."""
    return (
        f"{page}|{config}|{metrics.plt!r}|{metrics.aft!r}|"
        f"{metrics.speed_index!r}|{metrics.bytes_fetched!r}|"
        f"{metrics.wasted_bytes!r}|{metrics.cpu_busy_time!r}|"
        f"{metrics.failed_fetches}|{len(metrics.timelines)}\n"
    ).encode()


def serving_problems(
    totals: dict,
    tenants: Dict[str, dict],
    expected_lookups: Optional[int] = None,
    rollups: Optional[List[dict]] = None,
) -> List[str]:
    """Conservation identities of a hint-service report.

    Every lookup ends as exactly one of hit, stale hit, miss or expired
    (an unavailable lookup is counted as a miss too), and the per-tenant
    and per-rollup-window breakdowns sum to the totals.
    """
    problems = []
    lookups = totals["lookups"]
    outcomes = (
        totals["hits"] + totals["stale_hits"] + totals["misses"]
        + totals["expired"]
    )
    if outcomes != lookups:
        problems.append(
            f"hits+stale+misses+expired={outcomes} != lookups={lookups}"
        )
    if not 0 <= totals["unavailable"] <= totals["misses"]:
        problems.append(
            f"unavailable={totals['unavailable']} outside "
            f"[0, misses={totals['misses']}]"
        )
    if expected_lookups is not None and lookups != expected_lookups:
        problems.append(f"lookups={lookups}, workload sent {expected_lookups}")
    tenant_sums = {
        key: sum(row[key] for row in tenants.values())
        for key in ("lookups", "hits", "stale_hits", "misses")
    }
    expected = {
        "lookups": lookups,
        "hits": totals["hits"],
        "stale_hits": totals["stale_hits"],
        "misses": totals["misses"] + totals["expired"],
    }
    for key, want in expected.items():
        if tenant_sums[key] != want:
            problems.append(f"tenant {key} sum {tenant_sums[key]} != {want}")
    if rollups is not None:
        expected_rows = {
            "lookups": lookups,
            "hits": totals["hits"],
            "stale_hits": totals["stale_hits"],
            "cold": totals["misses"] + totals["expired"],
            "unavailable": totals["unavailable"],
        }
        for key, want in expected_rows.items():
            got = sum(row[key] for row in rollups)
            if got != want:
                problems.append(f"rollup {key} sum {got} != {want}")
    return problems


def json_fingerprint(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def scheduler_counters(totals: dict, scheduler: dict) -> Dict[str, float]:
    """The ``service.*`` program counters from a report's totals."""
    attempts = scheduler["enqueued"] + scheduler["coalesced"]
    return {
        "service.resolutions": scheduler["executed"],
        "service.loads_spent": scheduler["loads_spent"],
        "service.inserts": totals["inserts"],
        "service.replica_inserts": totals["replica_inserts"],
        "service.failovers": totals["failovers"],
        "service.read_repairs": totals["read_repairs"],
        "service.hits": totals["hits"],
        "service.stale_hits": totals["stale_hits"],
        "service.misses": totals["misses"],
        "service.unavailable": totals["unavailable"],
        "service.coalesced_ratio": (
            scheduler["coalesced"] / attempts if attempts else 0.0
        ),
        "service.budget_utilization": scheduler["budget_utilization"],
    }


def served_rate(totals: dict) -> float:
    lookups = totals["lookups"]
    return (totals["hits"] + totals["stale_hits"]) / lookups if lookups else 0.0


# -- sweep ------------------------------------------------------------------


@dataclass
class SweepState:
    pages: list
    #: (snapshot, store) per page, from a private SnapshotCache.
    pairs: list
    cache: SnapshotCache
    #: (page index, config) in run order.
    jobs: List[Tuple[int, str]]
    #: Job indices re-run under the audit.
    audited: List[int]


@dataclass
class SweepOutput:
    #: (page, config) -> (plt, aft, speed_index).
    results: Dict[Tuple[str, str], Tuple[float, float, float]]
    #: Output record of each audited job, by job index.
    records: Dict[int, bytes]
    #: Summed engine counters, and the keys some load did not report.
    counters: Dict[str, int]
    absent: List[str]


class Sweep:
    """The Fig 13 headline grid: pages x {http1, http2, vroom}."""

    name = "sweep"
    why = (
        "Fig 13 grid (http1/http2/vroom page loads): exercises the link, "
        "DES and browser engine; bypasses service, longrun and digest"
    )
    op_name = "loads"

    configs = ("http1", "http2", "vroom")

    def __init__(self, pages: int = 24, audited_per_config: int = 3):
        self.page_count = pages
        self.audited_per_config = audited_per_config

    def stamp(self, seed: int) -> LoadStamp:
        """The seeded load stamp: evaluation hour within a week, and nonce.

        The corpus is the pinned Fig 13 corpus; the seed moves the load
        through a week of content churn and per-load entropy.
        """
        return LoadStamp(
            when_hours=DEFAULT_EVAL_HOUR + derive_seed(seed, "sweep-hour") % 168,
            nonce=derive_seed(seed, "sweep-nonce") % 1_000_000,
        )

    def setup(self, seed: int) -> SweepState:
        pages = news_sports_corpus(count=self.page_count)
        stamp = self.stamp(seed)
        cache = SnapshotCache()
        pairs = [cache.materialized(page, stamp) for page in pages]
        jobs = [
            (index, config)
            for index in range(len(pages))
            for config in self.configs
        ]
        rng = random.Random(derive_seed(seed, "sweep-audit"))
        audited = []
        for offset, _config in enumerate(self.configs):
            picks = rng.sample(
                range(len(pages)), min(self.audited_per_config, len(pages))
            )
            audited.extend(
                page * len(self.configs) + offset for page in picks
            )
        return SweepState(pages, pairs, cache, jobs, sorted(audited))

    def _load(self, state: SweepState, job: Tuple[int, str]):
        index, config = job
        snapshot, store = state.pairs[index]
        # Looked up through the module so the tracer's wrapper applies.
        return baseline_configs.run_config(
            config, state.pages[index], snapshot, store
        )

    def run_pass(self, state: SweepState, host: HostClock) -> PassResult:
        """Every job once; one clock segment per page (its three loads)."""
        clock = time.perf_counter
        digest = hashlib.sha256()
        problems: List[str] = []
        failed = 0
        results = {}
        records = {}
        counters = {key: 0 for key, _metric in ENGINE_COUNTERS}
        absent = set()
        audited = set(state.audited)
        for job_index, job in enumerate(state.jobs):
            page = state.pages[job[0]].name
            if job_index % len(self.configs) == 0:
                host.close()
            start = clock()
            try:
                metrics = self._load(state, job)
            except Exception as exc:  # one failed load must not end the run
                host.record(clock() - start)
                failed += 1
                problems.append(f"{page}/{job[1]} raised {exc!r}")
                digest.update(f"{page}|{job[1]}|raised\n".encode())
                continue
            host.record(clock() - start)
            bad = load_problems(metrics)
            if bad:
                failed += 1
                problems.append(f"{page}/{job[1]}: {', '.join(bad)}")
            digest.update(load_record(page, job[1], metrics))
            results[(page, job[1])] = (
                metrics.plt, metrics.aft, metrics.speed_index
            )
            if job_index in audited:
                records[job_index] = load_record(page, job[1], metrics)
            engine = metrics.engine_counters
            for key in counters:
                if key in engine:
                    counters[key] += engine[key]
                else:
                    absent.add(key)
        host.close()
        return PassResult(
            ops=len(state.jobs),
            wall_s=host.wall_s,
            nominal_s=host.nominal_s,
            fingerprint=digest.hexdigest(),
            failed=failed,
            problems=problems,
            op_s=host.calls_nominal_s,
            output=SweepOutput(results, records, counters, sorted(absent)),
        )

    def final_problems(
        self, seed: int, first: PassResult
    ) -> Tuple[int, int, List[str]]:
        """Re-run the audited jobs with and without ``repro.audit`` armed.

        Audit mode arms the runtime invariants and makes the batch loops
        and microtask batching stand down, so ``==`` LoadMetrics is a
        differential check of the production engine against that path.
        The plain re-run must also reproduce the first pass's outputs.
        """
        state = self.setup(seed)
        problems = []
        failed = 0
        for job_index in state.audited:
            job = state.jobs[job_index]
            page = state.pages[job[0]].name
            label = f"{page}/{job[1]}"
            try:
                plain = self._load(state, job)
                audit.enable()
                try:
                    audited = self._load(state, job)
                finally:
                    audit.disable()
            except Exception as exc:  # an AuditError is a finding, not a crash
                failed += 1
                problems.append(f"audited {label} raised {exc!r}")
                continue
            if audited != plain:
                failed += 1
                problems.append(f"audited {label} diverged from the plain load")
            elif load_record(page, job[1], plain) != first.output.records.get(
                job_index
            ):
                failed += 1
                problems.append(f"re-run of {label} diverged from the timed load")
        return 2 * len(state.audited), failed, problems

    def sim_metrics(self, first: PassResult) -> List[Tuple[str, float, str]]:
        """Median over pages of http2 minus vroom, for PLT, AFT and SI."""
        results = first.output.results
        pages = sorted({page for page, _config in results})
        gains = {0: [], 1: [], 2: []}
        for page in pages:
            base = results.get((page, "http2"))
            vroom = results.get((page, "vroom"))
            if base is None or vroom is None:
                continue
            for slot in gains:
                gains[slot].append(base[slot] - vroom[slot])
        if not gains[0]:
            return []
        return [
            ("vroom_plt_gain_p50_s", statistics.median(gains[0]), "sim_s"),
            ("vroom_aft_gain_p50_s", statistics.median(gains[1]), "sim_s"),
            ("vroom_si_gain_p50", statistics.median(gains[2]), "sim_ms"),
        ]

    def counters(
        self, state: SweepState, traced: PassResult
    ) -> Tuple[Dict[str, float], List[str]]:
        output = traced.output
        values: Dict[str, float] = {
            metric: output.counters[key] for key, metric in ENGINE_COUNTERS
        }
        values["replay.cache.hit_rate"] = state.cache.stats.hit_rate
        return values, output.absent


# -- service ----------------------------------------------------------------


@dataclass
class ServiceState:
    config: ServiceConfig
    #: A fresh service: it holds per-run counters and refuses reuse.
    service: HintService


class Service:
    """One cold ``HintService.run`` with a shard outage mid-run."""

    name = "service"
    why = (
        "cold 50-page hint service at replication 2 with a shard outage: "
        "misses drive resolution and store writes; no page loads or digest"
    )
    op_name = "lookups"

    def __init__(self, pages: int = 50, lookups: int = 100_000):
        self.page_count = pages
        self.lookups = lookups

    def config(self, seed: int) -> ServiceConfig:
        base = ServiceConfig()
        duration = self.lookups / base.rate_per_hour
        down_at = base.start_hour + 0.4 * duration
        return ServiceConfig(
            pages=self.page_count,
            lookups=self.lookups,
            replication=2,
            shard_fault_rules=(
                shard_outage_rule(
                    derive_seed(seed, "service-shard") % base.shards,
                    down_at_hours=down_at,
                    up_at_hours=down_at + 0.2 * duration,
                ),
            ),
            prewarm=False,
            bridge_sample_every=0,
            seed=derive_seed(seed, "service-traffic"),
        )

    def setup(self, seed: int) -> ServiceState:
        pages = news_sports_corpus(count=self.page_count)
        config = self.config(seed)
        return ServiceState(config, HintService(pages, config))

    def run_pass(self, state: ServiceState, host: HostClock) -> PassResult:
        """One ``HintService.run``: a single clock segment."""
        lookups = state.config.lookups
        start = time.perf_counter()
        try:
            report = state.service.run()
        except Exception as exc:  # reported as failed lookups
            host.record(time.perf_counter() - start)
            host.close()
            return PassResult(
                ops=lookups,
                wall_s=host.wall_s,
                nominal_s=host.nominal_s,
                fingerprint="raised",
                failed=lookups,
                problems=[f"HintService.run raised {exc!r}"],
            )
        host.record(time.perf_counter() - start)
        host.close()
        problems = serving_problems(report.totals, report.tenants, lookups)
        return PassResult(
            ops=lookups,
            wall_s=host.wall_s,
            nominal_s=host.nominal_s,
            fingerprint=json_fingerprint(report.as_dict()),
            failed=lookups if problems else 0,
            problems=problems,
            output=report,
        )

    def final_problems(self, seed: int, first: PassResult):
        return 0, 0, []

    def sim_metrics(self, first: PassResult) -> List[Tuple[str, float, str]]:
        report = first.output
        return [
            ("hint_served_rate", served_rate(report.totals), "fraction"),
            ("lookup_sim_ms_p99", report.latency["p99_ms"], "sim_ms"),
        ]

    def counters(self, state, traced: PassResult):
        report = traced.output
        return scheduler_counters(report.totals, report.scheduler), []


# -- longrun ----------------------------------------------------------------


@dataclass
class LongrunState:
    spec: object
    #: A fresh runner: it refuses to run past its horizon twice.
    runner: LongRunner


class Longrun:
    """A horizon slice of the pinned continuous-operation scenario."""

    name = "longrun"
    why = (
        "8 h slice of the longrun scenario (8-bit digest filter, one shard "
        "fail/heal, hourly rollups): read-heavy, digest-hashing bound"
    )
    op_name = "lookups"

    def __init__(self, horizon_hours: float = 8.0, **overrides):
        self.horizon_hours = horizon_hours
        self.overrides = overrides

    def spec(self, seed: int):
        return dataclasses.replace(
            DEFAULT_SPEC,
            horizon_hours=self.horizon_hours,
            workload_seed=derive_seed(seed, "longrun-traffic"),
            **self.overrides,
        )

    def setup(self, seed: int) -> LongrunState:
        spec = self.spec(seed)
        return LongrunState(spec, LongRunner(spec))

    def run_pass(self, state: LongrunState, host: HostClock) -> PassResult:
        """The whole slice, run to each simulated hour as a clock segment.

        ``run_to`` resumes exactly at any boundary, so the steps change
        no output (the cross-pass and resume checks would show it).
        """
        horizon = state.spec.horizon_hours
        try:
            for hour in range(1, math.ceil(horizon) + 1):
                start = time.perf_counter()
                state.runner.run_to(min(float(hour), horizon))
                host.record(time.perf_counter() - start)
                host.close()
            report = state.runner.report()
        except Exception as exc:  # reported as failed lookups
            lookups = state.spec.lookups_estimate()
            return PassResult(
                ops=lookups,
                wall_s=host.wall_s,
                nominal_s=host.nominal_s,
                fingerprint="raised",
                failed=lookups,
                problems=[f"LongRunner raised {exc!r}"],
            )
        totals = report["totals"]
        problems = serving_problems(
            totals, report["tenants"], rollups=report["rollups"]
        )
        return PassResult(
            ops=totals["lookups"],
            wall_s=host.wall_s,
            nominal_s=host.nominal_s,
            fingerprint=report["fingerprint"],
            failed=totals["lookups"] if problems else 0,
            problems=problems,
            output=report,
        )

    def final_problems(self, seed: int, first: PassResult):
        """Checkpoint at mid-horizon, resume, and compare fingerprints."""
        lookups = first.ops
        try:
            roundtrip = checkpoint_roundtrip(self.spec(seed))
        except Exception as exc:  # reported as failed lookups
            return lookups, lookups, [f"checkpoint_roundtrip raised {exc!r}"]
        problems = []
        if not roundtrip["match"]:
            problems.append("resumed run diverged from straight-through")
        if roundtrip["straight_fingerprint"] != first.fingerprint:
            problems.append("round-trip straight run differs from the timed run")
        return lookups, (lookups if problems else 0), problems

    def sim_metrics(self, first: PassResult) -> List[Tuple[str, float, str]]:
        report = first.output
        return [
            ("hint_served_rate", served_rate(report["totals"]), "fraction"),
            ("lookup_sim_ms_p99", report["latency"]["p99_ms"], "sim_ms"),
        ]

    def counters(self, state, traced: PassResult):
        report = traced.output
        values = scheduler_counters(report["totals"], report["scheduler"])
        values["longrun.rollups"] = len(report["rollups"])
        return values, []


WORKLOADS = {workload.name: workload for workload in (Sweep, Service, Longrun)}
