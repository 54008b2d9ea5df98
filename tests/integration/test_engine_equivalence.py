"""Reference vs production engine: bit-for-bit.

``NetworkConfig.engine`` picks one of two page-load engines.  The
``"reference"`` engine is the oracle: one heap event per link refresh
tick and per microtask deferral, eager tick rescheduling, and a standing
5 ms preload-scanner poll.  The ``"production"`` engine runs on the
array-backed executor with inline fast-forward and batch runs in the
link, memoised and closed-form allocation, lazy tick reschedules,
coalesced microtasks and demand-driven scanner wakeups on the poll's own
time grid.  Production may only ever be *faster*: every observable —
PLT, speed index, byte counts, timelines, the critical path, every
scanner discovery timestamp — must equal the reference's, because each
shortcut is confined to windows no other event can observe.

Every comparison asserts full :class:`LoadMetrics` equality
(``engine_counters`` is excluded from dataclass comparison by design —
the counters are *supposed* to differ) along each axis:

* the configs × fault-plan grid, across two corpus pages;
* two seeded random samples of (loss, fault rate, config, page) triples
  — each run re-checks the same deterministic points, but the samples
  reach corners (lossy + faulted + pushed) no hand-picked grid lists;
* lossy links under push-all;
* audited loads: arming ``REPRO_AUDIT`` changes nothing, and the two
  engines agree with the audit armed on both sides.

The whole module also passes under ``REPRO_AUDIT=1``, which audits every
comparison above.
"""

import contextlib
import random

import pytest

from repro import audit
from repro.baselines.configs import run_config
from repro.browser.engine import BrowserConfig, load_page
from repro.calibration import DEFAULT_EVAL_HOUR
from repro.core.push_policy import PushPolicy
from repro.core.scheduler import FetchAsapScheduler
from repro.core.server import vroom_servers
from repro.net.faults import ResiliencePolicy, hint_fault_plan
from repro.net.http import ENGINES, NetworkConfig
from repro.net.link import StreamScheduling
from repro.replay.recorder import record_snapshot

#: The configurations exercising distinct engine paths (client-driven,
#: hint-driven, and push-everything server behaviour).
CONFIGS = ["http2", "vroom", "push-all-fetch-asap"]

#: fault plan × resilience pairs: faulted runs need retries/timeouts or
#: the load legitimately wedges (that guard is its own test elsewhere).
FAULT_PLANS = {
    "no-faults": (None, None),
    "hint-faults": (hint_fault_plan(0.3, seed=7), ResiliencePolicy()),
}

LOSS_RATES = [0.0, 0.01, 0.03]
FAULT_RATES = [0.0, 0.2, 0.4]

#: Deterministic property samples as ``(rng seed, fault-plan seed)``: 8
#: random triples each, seeded differently so the two cover different
#: corners.  Bump a seed to resample after engine work.
SAMPLES = [(0xBA7C4, 11), (0xE7D12, 23)]


def _triples(rng_seed, fault_seed):
    rng = random.Random(rng_seed)
    return [
        (
            fault_seed,
            rng.choice(LOSS_RATES),
            rng.choice(FAULT_RATES),
            rng.choice(CONFIGS),
            rng.randrange(4),  # corpus page index
        )
        for _ in range(8)
    ]


TRIPLES = [
    triple for rng_seed, fault_seed in SAMPLES
    for triple in _triples(rng_seed, fault_seed)
]


def _run_both(page, snapshot, store, config, **kwargs):
    """(reference, production) loads of one shared materialization —
    the comparison is about engines, never snapshot drift."""
    reference, production = (
        run_config(config, page, snapshot, store, engine=engine, **kwargs)
        for engine in ENGINES
    )
    return reference, production


def _faulted(page, snapshot, store, config, loss, fault_rate, fault_seed):
    plan = hint_fault_plan(fault_rate, seed=fault_seed) if fault_rate else None
    return _run_both(
        page,
        snapshot,
        store,
        config,
        loss_rate=loss,
        fault_plan=plan,
        resilience=ResiliencePolicy() if plan else None,
    )


@contextlib.contextmanager
def _audit_armed(armed):
    """Run the block with the audit armed or disarmed, then restore."""
    was = audit.ENABLED
    (audit.enable if armed else audit.disable)()
    try:
        yield
    finally:
        (audit.enable if was else audit.disable)()


def _scanner_discoveries(metrics):
    """url -> discovery timestamp, for scanner-discovered resources."""
    return {
        url: timeline.discovered_at
        for url, timeline in metrics.timelines.items()
        if timeline.discovered_via == "scanner"
    }


def _assert_identical(reference, production, label):
    assert production == reference, (
        f"{label}: the production engine changed observables "
        f"(plt {reference.plt!r} vs {production.plt!r})"
    )
    # The scanner contract, stated explicitly even though the metrics
    # equality above already covers timelines: every scanner discovery
    # lands at the identical virtual-grid timestamp.
    assert _scanner_discoveries(production) == (
        _scanner_discoveries(reference)
    ), label
    # Every reference poll tick is accounted for: either a demand-driven
    # wakeup ran the sweep at that grid point, or the tick was elided.
    counters = production.engine_counters
    assert (
        counters["browser_wakeups"] + counters["scanner_polls_elided"]
        == reference.engine_counters["browser_wakeups"]
    ), label


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("faults", sorted(FAULT_PLANS))
def test_metrics_bit_identical(corpus, stamp, config, faults):
    """reference == production for every config × fault plan, across
    two pages."""
    fault_plan, resilience = FAULT_PLANS[faults]
    for page in corpus[:2]:
        snapshot = page.materialize(stamp)
        store = record_snapshot(snapshot)
        reference, production = _run_both(
            page,
            snapshot,
            store,
            config,
            fault_plan=fault_plan,
            resilience=resilience,
        )
        _assert_identical(
            reference, production, f"{page.name} under {config!r}/{faults}"
        )


@pytest.mark.parametrize(
    "fault_seed,loss,fault_rate,config,page_index",
    TRIPLES,
    ids=[
        f"loss{loss}-fault{fault}-{config}-p{idx}-plan{seed}"
        for seed, loss, fault, config, idx in TRIPLES
    ],
)
def test_random_triples_bit_identical(
    corpus, stamp, fault_seed, loss, fault_rate, config, page_index
):
    """reference == production on a random (loss, faults, scenario)
    triple."""
    page = corpus[page_index]
    snapshot = page.materialize(stamp)
    store = record_snapshot(snapshot)
    reference, production = _faulted(
        page, snapshot, store, config, loss, fault_rate, fault_seed
    )
    _assert_identical(
        reference,
        production,
        f"{page.name} under {config!r} loss={loss} faults={fault_rate}",
    )


@pytest.mark.parametrize("loss_rate", [0.0, 0.02])
def test_lossy_link_bit_identical(page, snapshot, store, loss_rate):
    """Loss RNG draws line up between batched and per-tick link steps."""

    def run(engine):
        servers = vroom_servers(
            page, snapshot, store, push_policy=PushPolicy.ALL_LOCAL
        )
        return load_page(
            snapshot,
            servers,
            NetworkConfig(
                h2_scheduling=StreamScheduling.FAIR,
                loss_rate=loss_rate,
                engine=engine,
            ),
            BrowserConfig(when_hours=DEFAULT_EVAL_HOUR),
            policy=FetchAsapScheduler(),
        )

    _assert_identical(run("reference"), run("production"), f"loss={loss_rate}")


@pytest.mark.parametrize(
    "loss,fault_rate,fault_seed",
    [(0.0, 0.0, 0), (0.01, 0.2, 11), (0.01, 0.2, 23)],
    ids=["clean", "lossy-plan11", "lossy-plan23"],
)
def test_audit_run_passes_and_stays_identical(
    corpus, stamp, loss, fault_rate, fault_seed
):
    """REPRO_AUDIT=1 on a full corpus Vroom load: every invariant hook
    (fast-forward bounds, busy-set and allocator cross-checks, the
    scanner-wakeup bound) holds on both engines, and arming the audit
    perturbs neither."""
    page = corpus[0]
    snapshot = page.materialize(stamp)
    store = record_snapshot(snapshot)
    with _audit_armed(False):
        plain = _faulted(
            page, snapshot, store, "vroom", loss, fault_rate, fault_seed
        )
    with _audit_armed(True):
        audited = _faulted(
            page, snapshot, store, "vroom", loss, fault_rate, fault_seed
        )
    assert audited == plain
    _assert_identical(*audited, f"audited vroom loss={loss}")


def test_audited_reference_vs_production_identical(corpus, stamp):
    """The engines compared end to end *with the audit armed on both
    sides*, so the invariant hooks police the very runs being compared."""
    page = corpus[1]
    snapshot = page.materialize(stamp)
    store = record_snapshot(snapshot)
    with _audit_armed(True):
        reference, production = _faulted(
            page, snapshot, store, "push-all-fetch-asap", 0.01, 0.0, 0
        )
    _assert_identical(reference, production, "audited push-all")


def _counters(page, snapshot, store):
    """(reference, production) counter blocks of one push-all load —
    asserting first that the two loads are otherwise identical."""
    reference, production = _run_both(
        page, snapshot, store, "push-all-fetch-asap"
    )
    _assert_identical(reference, production, "push-all-fetch-asap")
    return reference.engine_counters, production.engine_counters


def test_counters_surface_on_metrics(page, snapshot, store):
    """LoadMetrics carries the deterministic engine counter block, and
    the fast-forward counters stay inert on the reference."""
    ref, prod = _counters(page, snapshot, store)
    for counters in (ref, prod):
        assert counters["events_scheduled"] > 0
        assert counters["events_executed"] > 0
        assert counters["link_pokes"] > 0
    assert prod["inline_advances"] >= prod["link_fast_forward_steps"] > 0
    assert ref["inline_advances"] == 0
    assert ref["link_fast_forward_steps"] == 0
    # Pokes mirror one-per-tick no matter the engine: inline and batched
    # steps replace heap events one for one, never skipping or adding
    # work.
    assert prod["link_pokes"] == ref["link_pokes"]


def test_batched_counters_expose_batch_activity(page, snapshot, store):
    """The batch-run counters surface on production and stay zero on the
    reference."""
    ref, prod = _counters(page, snapshot, store)
    assert prod["link_batch_steps"] >= prod["link_batch_runs"]
    for key in ("link_batch_runs", "link_batch_steps", "link_wf_fast_hits"):
        assert ref[key] == 0, key


def test_event_driven_counters_expose_wakeup_activity(page, snapshot, store):
    """The wakeup counters surface on production and stay inert on the
    reference."""
    ref, prod = _counters(page, snapshot, store)
    # The poll pierced every silent window; the demand-driven driver
    # skips nearly all of those grid ticks — fewer heap events overall.
    assert prod["scanner_polls_elided"] > 0
    assert prod["browser_wakeups"] < ref["browser_wakeups"]
    assert prod["events_scheduled"] < ref["events_scheduled"]
    for key in ("link_tick_keeps", "soon_coalesced", "scanner_polls_elided"):
        assert ref[key] == 0, key
