"""Self-tests of the benchmark harness.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

They run every workload at a tiny size, check that the output checks
trip on corrupted outputs, and check the metric names against
``BENCHMARK.json`` and against ``repro.devtools.layering.layer_of``.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import calibrate  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.devtools.layering import LAYER_DEPS, layer_of  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

TINY = {
    "sweep": lambda: workloads.Sweep(pages=2, audited_per_config=1),
    "service": lambda: workloads.Service(pages=6, lookups=3000),
    "longrun": lambda: workloads.Longrun(
        horizon_hours=1.0,
        pages=4,
        shard_cycle_every_hours=0.5,
        shard_cycle_down_hours=0.1,
        shard_cycle_start_hours=0.25,
        rollup_hours=0.25,
    ),
}


def wall_clock():
    return calibrate.HostClock(read_host=False)


def names(section):
    return [row["name"] for row in BENCHMARK[section]]


# -- every workload, tiny -----------------------------------------------------


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_tiny(name, trace):
    outcome = harness.run_workload(TINY[name](), seed=3, seconds=0, trace=trace)
    assert outcome.problems == []
    assert outcome.correct and outcome.failed == 0 and outcome.attempted >= 1
    section = "per_layer" if trace else "end_to_end"
    assert list(outcome.metrics) == names(section)
    for metric, (value, unit) in outcome.metrics.items():
        assert isinstance(value, (int, float)) and math.isfinite(value), metric
    if not trace:
        assert all(value > 0 for value, _unit in outcome.metrics.values())


def test_seed_changes_inputs_not_validity():
    first = harness.run_workload(TINY["sweep"](), seed=1, seconds=0, trace=False)
    other = harness.run_workload(TINY["sweep"](), seed=2, seconds=0, trace=False)
    again = harness.run_workload(TINY["sweep"](), seed=1, seconds=0, trace=False)
    assert first.correct and other.correct
    assert first.fingerprint == again.fingerprint != other.fingerprint


# -- the output checks trip -----------------------------------------------------


@pytest.fixture(scope="module")
def sweep_pass():
    workload = TINY["sweep"]()
    return workload, workload.run_pass(workload.setup(5), wall_clock())


def test_load_check_trips_on_corrupted_metrics():
    workload = TINY["sweep"]()
    state = workload.setup(5)
    metrics = workload._load(state, state.jobs[0])
    assert workloads.load_problems(metrics) == []
    for change in (
        {"plt": math.inf},
        {"plt": 0.0},
        {"aft": math.nan},
        {"speed_index": -1.0},
        {"failed_fetches": 1},
    ):
        broken = dataclasses.replace(metrics, **change)
        assert workloads.load_problems(broken), change


def test_audit_check_trips_on_a_diverged_load(sweep_pass, monkeypatch):
    from repro import audit
    from repro.baselines import configs

    workload, result = sweep_pass
    checked, failed, problems = workload.final_problems(5, result)
    assert checked > 0 and failed == 0 and problems == []

    real = configs.run_config

    def skewed_under_audit(*args, **kwargs):
        metrics = real(*args, **kwargs)
        if audit.enabled():
            metrics = dataclasses.replace(metrics, aft=metrics.aft + 1e-9)
        return metrics

    monkeypatch.setattr(configs, "run_config", skewed_under_audit)
    _checked, failed, problems = workload.final_problems(5, result)
    assert failed == checked // 2 and "diverged from the plain" in problems[0]


def test_audit_check_trips_when_the_timed_load_differs(sweep_pass):
    workload, result = sweep_pass
    records = result.output.records
    index = min(records)
    good = records[index]
    records[index] = good.replace(b"|", b"|0", 1)
    try:
        _checked, failed, problems = workload.final_problems(5, result)
    finally:
        records[index] = good
    assert failed == 1 and "diverged from the timed" in problems[0]


def test_cross_pass_check_trips_when_outputs_differ(monkeypatch):
    workload = TINY["service"]()
    real = workload.run_pass
    calls = []

    def drifting(state, clock):
        result = real(state, clock)
        calls.append(1)
        if len(calls) == 2:
            result.fingerprint = "0" * 64
        return result

    monkeypatch.setattr(workload, "run_pass", drifting)
    outcome = harness.run_workload(workload, seed=3, seconds=0, trace=False)
    assert not outcome.correct and outcome.failed > 0
    assert any("fingerprint" in text for text in outcome.problems)


@pytest.fixture(scope="module")
def service_report():
    workload = TINY["service"]()
    return workload.run_pass(workload.setup(4), wall_clock()).output


def test_conservation_check_holds_and_trips(service_report):
    totals = dict(service_report.totals)
    tenants = {key: dict(row) for key, row in service_report.tenants.items()}
    assert workloads.serving_problems(totals, tenants, totals["lookups"]) == []

    broken = dict(totals, hits=totals["hits"] + 1)
    assert workloads.serving_problems(broken, tenants)
    assert workloads.serving_problems(totals, tenants, totals["lookups"] + 1)
    assert workloads.serving_problems(
        dict(totals, unavailable=totals["misses"] + 1), tenants
    )
    tenant = next(iter(tenants))
    moved = dict(tenants)
    moved[tenant] = dict(tenants[tenant], lookups=tenants[tenant]["lookups"] - 1)
    assert workloads.serving_problems(totals, moved)


def test_rollup_identity_trips():
    workload = TINY["longrun"]()
    report = workload.run_pass(workload.setup(2), wall_clock()).output
    totals, tenants, rows = report["totals"], report["tenants"], report["rollups"]
    assert workloads.serving_problems(totals, tenants, rollups=rows) == []
    rows = [dict(row) for row in rows]
    rows[0]["cold"] += 1
    assert workloads.serving_problems(totals, tenants, rollups=rows)


def test_engine_counter_drift_is_reported_not_failed(monkeypatch):
    from repro.baselines import configs

    real = configs.run_config

    def renamed(*args, **kwargs):
        metrics = real(*args, **kwargs)
        counters = dict(metrics.engine_counters)
        counters["link_wf_fast_hits_renamed"] = counters.pop("link_wf_fast_hits")
        metrics.engine_counters = counters
        return metrics

    monkeypatch.setattr(configs, "run_config", renamed)
    workload = TINY["sweep"]()
    result = workload.run_pass(workload.setup(1), wall_clock())
    assert result.failed == 0 and result.problems == []
    assert result.output.absent == ["link_wf_fast_hits"]
    assert result.output.counters["link_wf_fast_hits"] == 0


def test_host_clock_divides_by_the_readings_around_a_segment(monkeypatch):
    readings = iter([1.0, 3.0, 1.0])
    monkeypatch.setattr(calibrate, "host_factor", lambda: next(readings))
    clock = calibrate.HostClock()
    clock.record(1.0)
    clock.record(3.0)
    clock.close()
    clock.close()  # nothing open: no reading taken
    clock.record(2.0)
    clock.close()
    assert clock.wall_s == 6.0
    assert clock.calls_nominal_s == [0.5, 1.5, 1.0]
    assert clock.nominal_s == 3.0


# -- names -------------------------------------------------------------------


def test_benchmark_json_matches_the_harness():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert BENCHMARK["paths"] == ["perfbench"]
    assert [row["name"] for row in BENCHMARK["workloads"]] == list(
        workloads.WORKLOADS
    )
    for row in BENCHMARK["workloads"]:
        assert row["why"] == workloads.WORKLOADS[row["name"]].why
        assert len(row["why"]) <= 200 and "\n" not in row["why"]
    assert [(r["name"], r["unit"]) for r in BENCHMARK["end_to_end"]] == list(
        harness.END_TO_END
    )
    assert [(r["name"], r["unit"]) for r in BENCHMARK["per_layer"]] == list(
        harness.per_layer_metrics()
    )
    bounds = {row["name"]: row["bound"] for row in BENCHMARK["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_names_and_units_are_well_formed():
    all_names = (
        names("workloads") + names("end_to_end") + names("per_layer")
    )
    assert len(all_names) == len(set(all_names))
    for name in all_names:
        assert NAME.match(name) and re.fullmatch(r"[A-Za-z0-9_.-]+", name)
    for row in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(row["unit"]), row


def test_layer_names_come_from_layer_of():
    package = spans.package_dir()
    for target in spans.TARGETS:
        module = sys.modules[inspect.unwrap(target.resolve()).__module__]
        expected = layer_of(Path(module.__file__).resolve().relative_to(package))
        assert spans.span_name(target) == f"{expected}.{target.op}"
    for name in names("per_layer"):
        prefix = name.split(".")[0]
        assert prefix in LAYER_DEPS or prefix == "trace", name


def test_tracer_restores_the_program():
    before = [target.resolve() for target in spans.TARGETS]
    tracer = spans.Tracer()
    with tracer.installed():
        assert all(
            hasattr(target.resolve(), "__wrapped__") for target in spans.TARGETS
        )
    assert [target.resolve() for target in spans.TARGETS] == before


# -- a checkout without the program --------------------------------------------


def test_run_without_program_source_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
