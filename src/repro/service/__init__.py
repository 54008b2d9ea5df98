"""Simulated production hint-serving backend (``repro.service``).

The paper's server side is an operational loop: Vroom servers load each
page periodically, intersect recent loads into stable sets, and serve
dependency hints out of a store (Sec 4.1.2).  Everything below
``repro.service`` models that loop *per page*; this package models
*running it for a fleet of pages under traffic*:

* :mod:`repro.service.store` — dependency-store shards holding
  per-(page, device-class) hint entries with TTL, a per-shard memory
  budget and deterministic LRU eviction.
* :mod:`repro.service.placement` — the fleet store over those shards:
  replicated consistent-hash placement by page URL, failover reads and
  live resharding.
* :mod:`repro.service.scheduler` — a batched offline-resolution job
  scheduler that prioritises by staleness × request popularity under a
  crawl budget (page loads per hour).
* :mod:`repro.service.workload` — a seeded arrival stream (Zipf page
  popularity × Poisson arrivals) behind one picklable cursor.
* :mod:`repro.service.backend` — the :class:`HintService` simulation
  tying them together in one time-ordered loop, with per-shard and
  per-tenant counters, latency percentiles and a cold-start story
  (miss ⇒ serve no hints ⇒ enqueue resolution — Vroom's graceful
  fallback to vanilla HTTP/2).
* :mod:`repro.service.bridge` — the end-to-end accuracy bridge:
  sampled lookups materialise a real ``browser.engine`` load with the
  hints the store *actually* held at that instant, so the accuracy
  machinery quantifies the cost of staleness against oracle hints.

Every run is a pure function of its :class:`ServiceConfig` (seed
included): two runs produce bit-identical reports.
"""

from repro.service.backend import HintService, ServiceConfig, ServiceReport
from repro.service.bridge import BridgeSample, evaluate_samples
from repro.service.placement import (
    FleetLookup,
    FleetStore,
    FrontendCache,
    PlacementMap,
    shard_outage_rule,
)
from repro.service.scheduler import BatchScheduler, ResolutionJob
from repro.service.store import LookupStatus, StoreEntry
from repro.service.workload import ArrivalStream, Workload, ZipfPopularity

__all__ = [
    "ArrivalStream",
    "HintService",
    "ServiceConfig",
    "ServiceReport",
    "BridgeSample",
    "evaluate_samples",
    "BatchScheduler",
    "ResolutionJob",
    "FleetLookup",
    "FleetStore",
    "FrontendCache",
    "PlacementMap",
    "shard_outage_rule",
    "LookupStatus",
    "StoreEntry",
    "Workload",
    "ZipfPopularity",
]
