"""Fleet placement: replication, failover, live resharding, hot keys."""

import pytest

from repro import audit
from repro.audit import AuditError
from repro.net.faults import FaultPlan
from repro.service.placement import (
    FleetStore,
    FrontendCache,
    PlacementMap,
    shard_outage_rule,
    shard_url,
)
from repro.service.store import (
    LookupStatus,
    StoreConfig,
    StoreEntry,
)

KEYS = [f"page{i}.com/" for i in range(400)]

#: ``PlacementMap(8).shard_for(KEYS[i])`` as digit ``i``: the shard table
#: of the classic static ring (``shard{i}#v{j}`` points, sha1, first point
#: clockwise), frozen when that ring was retired for the fleet map.
GOLDEN_SHARDS = (
    "41602237742270576641331270001650546462454417666127"
    "45450726653501317364242105252507505624135741713771"
    "26250235751753467551660010011102731026541136144302"
    "40670372634040652560257426612602071361212662151461"
    "62656022425131211352131174256260273041320642675513"
    "21126337542067074745365722122664067073774266315562"
    "76124041767632032117611507561262573025203574103615"
    "54201721365616603645012100622377235677001030432410"
)


def entry(page="news0", device="phone", at=0.0, size=100):
    return StoreEntry(
        page=page,
        device_class=device,
        payload={"urls": [f"{page}.com/app.js"], "exemplars": {}},
        computed_at_hours=at,
        size_bytes=size,
    )


@pytest.fixture
def audited():
    """Arm the audit for one test, restoring the prior state after."""
    was = audit.ENABLED
    audit.enable()
    yield
    if not was:
        audit.disable()


class TestPlacementMap:
    def test_matches_hashring_at_replication_one(self):
        # The fleet map is the static ring at replication 1: same
        # labels, same sha1, same tie-break — not one key moves.
        placement = PlacementMap(8)
        routed = "".join(str(placement.shard_for(key)) for key in KEYS)
        assert routed == GOLDEN_SHARDS

    def test_routing_is_stable(self):
        first = PlacementMap(4, replication=2)
        second = PlacementMap(4, replication=2)
        for key in KEYS[:100]:
            assert first.shards_for(key) == second.shards_for(key)

    def test_routes_all_shards(self):
        placement = PlacementMap(8, vnodes=64)
        assert {placement.shard_for(key) for key in KEYS} == set(range(8))

    def test_growth_moves_a_minority_of_keys(self):
        small = PlacementMap(8)
        grown = PlacementMap(9)
        keys = [f"page{i}.com/" for i in range(1000)]
        moved = sum(
            1 for key in keys if small.shard_for(key) != grown.shard_for(key)
        )
        # Consistent hashing: ~1/9 of the keyspace moves, not most of it.
        assert moved < 350

    def test_preference_list_is_distinct_and_prefix_stable(self):
        placement = PlacementMap(8, replication=3)
        for key in KEYS[:50]:
            owners = placement.shards_for(key)
            assert len(owners) == 3
            assert len(set(owners)) == 3
            # Raising the replication factor only appends replicas; it
            # never changes who the primary is.
            assert owners[0] == placement.shards_for(key, 1)[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            PlacementMap(0)
        with pytest.raises(ValueError):
            PlacementMap(4, vnodes=0)
        with pytest.raises(ValueError):
            PlacementMap(4, replication=0)
        with pytest.raises(ValueError):
            PlacementMap(4, replication=5)

    def test_join_moves_keys_only_to_the_joiner(self):
        placement = PlacementMap(8)
        before = {key: placement.shard_for(key) for key in KEYS}
        joiner = placement.begin_add_shard()
        while placement.pending_points():
            placement.step(16)
        moved = [key for key in KEYS if placement.shard_for(key) != before[key]]
        # Consistent hashing: a join steals arcs, it never shuffles
        # keys between existing shards — and it steals about 1/n.
        assert all(placement.shard_for(key) == joiner for key in moved)
        assert 0 < len(moved) <= len(KEYS) // 8

    def test_map_stays_valid_between_steps(self):
        placement = PlacementMap(4, vnodes=16)
        before = {key: placement.shard_for(key) for key in KEYS}
        joiner = placement.begin_add_shard()
        versions = {placement.version}
        while placement.pending_points():
            placement.step(1)
            versions.add(placement.version)
            for key in KEYS[:100]:
                owner = placement.shard_for(key)
                # Mid-migration every key routes to its old owner or the
                # joiner — never to some third shard.
                assert owner in (before[key], joiner)
        assert len(versions) == 1 + placement.vnodes

    def test_remove_shard_drains_fully(self):
        placement = PlacementMap(4)
        placement.begin_remove_shard(2)
        while placement.pending_points():
            placement.step(8)
        assert placement.shard_ids == [0, 1, 3]
        assert all(placement.shard_for(key) != 2 for key in KEYS)

    def test_reshard_guards(self):
        placement = PlacementMap(2, replication=2)
        with pytest.raises(ValueError):
            placement.begin_remove_shard(0)  # would drop below replication
        with pytest.raises(ValueError):
            placement.begin_remove_shard(9)
        placement.begin_add_shard()
        with pytest.raises(RuntimeError):
            placement.begin_add_shard()  # one reshard at a time


class TestShardOutageRule:
    def test_window_and_trailing_dot(self):
        plan = FaultPlan(
            seed=0,
            rules=(shard_outage_rule(1, down_at_hours=2.0, up_at_hours=4.0),),
        )

        def down(url, now):
            return (
                plan.transport_fault(url, "store.internal", now=now, attempt=0)
                is not None
            )

        assert not down(shard_url(1), 1.0)
        assert down(shard_url(1), 2.0)
        assert not down(shard_url(1), 4.5)
        # "shard1." must not match shard 11's URL.
        assert not down(shard_url(11), 3.0)


def fleet(
    shards=4,
    replication=1,
    rules=(),
    frontend_entries=0,
    frontend_ttl=0.5,
):
    config = StoreConfig(
        shard_count=shards,
        replication=replication,
        frontend_cache_entries=frontend_entries,
        frontend_cache_ttl_hours=frontend_ttl,
    )
    plan = FaultPlan(seed=0, rules=tuple(rules)) if rules else None
    return FleetStore(config, fault_plan=plan)


class TestFleetStoreFailover:
    def url_and_owners(self, store):
        url = "news0.com/"
        return url, store.placement.shards_for(url)

    def test_replica_serves_through_primary_outage(self):
        probe = fleet(shards=4, replication=2)
        url, owners = self.url_and_owners(probe)
        rule = shard_outage_rule(owners[0], down_at_hours=1.0, up_at_hours=2.0)
        store = fleet(shards=4, replication=2, rules=[rule])
        store.sync_health(0.0)
        store.insert(url, entry(at=0.0))
        store.sync_health(1.5)  # primary dies, losing its copy
        got = store.lookup(url, "news0", "phone", 1.5)
        assert got.entry is not None
        assert got.shard.index == owners[1]
        assert store.counters.failovers == 1
        assert store.counters.shard_wipes == 1
        assert store.counters.entries_lost == 1

    def test_replication_one_loses_the_keyspace(self):
        probe = fleet(shards=4, replication=1)
        url, owners = self.url_and_owners(probe)
        rule = shard_outage_rule(owners[0], down_at_hours=1.0, up_at_hours=2.0)
        store = fleet(shards=4, replication=1, rules=[rule])
        store.sync_health(0.0)
        store.insert(url, entry(at=0.0))
        store.sync_health(1.5)
        down = store.lookup(url, "news0", "phone", 1.5)
        assert down.unavailable and down.entry is None
        assert store.counters.unavailable == 1
        store.sync_health(2.5)  # healed — but the shard came back empty
        healed = store.lookup(url, "news0", "phone", 2.5)
        assert healed.entry is None
        assert healed.status is LookupStatus.MISS

    def test_read_repair_heals_the_healed_primary(self):
        probe = fleet(shards=4, replication=2)
        url, owners = self.url_and_owners(probe)
        rule = shard_outage_rule(owners[0], down_at_hours=0.0, up_at_hours=1.0)
        store = fleet(shards=4, replication=2, rules=[rule])
        store.sync_health(0.5)
        store.insert(url, entry(at=0.5))  # primary down: replica only
        store.sync_health(1.5)  # primary back, empty
        first = store.lookup(url, "news0", "phone", 1.5)
        assert first.shard.index == owners[1]
        assert first.probes == 2
        assert store.counters.read_repairs == 1
        # The repaired primary serves the next read itself.
        second = store.lookup(url, "news0", "phone", 1.6)
        assert second.shard.index == owners[0]
        assert store.counters.failovers == 1

    def test_failover_is_deterministic(self):
        probe = fleet(shards=6, replication=3)
        url, owners = self.url_and_owners(probe)
        rule = shard_outage_rule(owners[0], down_at_hours=1.0, up_at_hours=9.0)

        def run():
            store = fleet(shards=6, replication=3, rules=[rule])
            store.sync_health(0.0)
            for i, key in enumerate(KEYS[:60]):
                store.insert(
                    key, entry(page=f"page{i}", at=0.0)
                )
            outcomes = []
            for hour in (1.5, 2.5, 3.5):
                store.sync_health(hour)
                for i, key in enumerate(KEYS[:60]):
                    got = store.lookup(key, f"page{i}", "phone", hour)
                    outcomes.append(
                        (
                            got.status.value,
                            got.shard.index if got.shard else None,
                            got.probes,
                        )
                    )
            return outcomes, store.counters.as_dict()

        assert run() == run()


class TestFleetReshard:
    def populate(self, store, count=40):
        for i in range(count):
            store.insert(f"page{i}.com/", entry(page=f"page{i}", at=0.0))

    def test_audited_reshard_serves_every_key(self, audited):
        # The acceptance run: lookups interleave with segment-by-segment
        # migration under REPRO_AUDIT; a single wrong-shard routing (or
        # stranded copy) raises AuditError instead of passing.
        store = fleet(shards=4, replication=2)
        self.populate(store)
        store.begin_add_shard()
        while store.reshard_pending():
            store.reshard_step(points=8)
            for i in range(40):
                got = store.lookup(f"page{i}.com/", f"page{i}", "phone", 0.1)
                assert got.entry is not None
        assert store.migration.keys_moved > 0
        assert sorted(store.shards) == [0, 1, 2, 3, 4]

    def test_audit_catches_a_stranded_copy(self, audited):
        store = fleet(shards=4, replication=1)
        url = "news0.com/"
        store.insert(url, entry(at=0.0))
        owner = store.placement.shard_for(url)
        stray = next(i for i in store.shards if i != owner)
        store.shards[stray].insert(entry(at=0.0))
        with pytest.raises(AuditError, match="placement-residency"):
            store.lookup(url, "news0", "phone", 0.1)

    def test_remove_shard_migrates_and_retires(self):
        store = fleet(shards=4, replication=2)
        self.populate(store)
        store.begin_remove_shard(1)
        while store.reshard_pending():
            store.reshard_step(points=16)
        assert sorted(store.shards) == [0, 2, 3]
        assert [s.index for s in store.retired_shards] == [1]
        for i in range(40):
            got = store.lookup(f"page{i}.com/", f"page{i}", "phone", 0.1)
            assert got.entry is not None
            assert got.shard.index != 1

    def test_migration_keeps_copies_exactly_on_owners(self):
        store = fleet(shards=4, replication=2)
        self.populate(store)
        store.begin_add_shard()
        while store.reshard_pending():
            store.reshard_step(points=4)
            for i in range(40):
                key = (f"page{i}", "phone")
                owners = set(store.placement.shards_for(f"page{i}.com/"))
                holders = {
                    index
                    for index, shard in store.shards.items()
                    if shard.get(key) is not None
                }
                assert holders == owners


class TestFrontendCache:
    def test_lru_eviction_and_hits(self):
        cache = FrontendCache(2, ttl_hours=1.0)
        cache.put(("a", "phone"), entry(page="a"), 0.0)
        cache.put(("b", "phone"), entry(page="b"), 0.0)
        assert cache.get(("a", "phone"), 0.1) is not None  # promotes a
        cache.put(("c", "phone"), entry(page="c"), 0.2)  # evicts b
        assert cache.get(("b", "phone"), 0.3) is None
        assert cache.get(("a", "phone"), 0.3) is not None
        assert (cache.hits, cache.misses, cache.evictions) == (2, 1, 1)

    def test_ttl_expiry_counts_a_miss(self):
        cache = FrontendCache(2, ttl_hours=0.5)
        cache.put(("a", "phone"), entry(page="a"), 0.0)
        assert cache.get(("a", "phone"), 1.0) is None
        assert len(cache) == 0

    def test_invalidate_counts_only_real_removals(self):
        cache = FrontendCache(2, ttl_hours=1.0)
        cache.put(("a", "phone"), entry(page="a"), 0.0)
        cache.invalidate(("a", "phone"))
        cache.invalidate(("a", "phone"))
        assert cache.invalidations == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            FrontendCache(0, ttl_hours=1.0)
        with pytest.raises(ValueError):
            FrontendCache(2, ttl_hours=0.0)


class TestFleetFrontend:
    def test_hot_key_absorbed_by_frontend(self):
        store = fleet(shards=4, replication=1, frontend_entries=2)
        url = "news0.com/"
        store.insert(url, entry(at=0.0))
        first = store.lookup(url, "news0", "phone", 0.1)
        assert not first.frontend
        second = store.lookup(url, "news0", "phone", 0.2)
        assert second.frontend and second.probes == 0
        assert store.counters.frontend_hits == 1
        # Front-door accounting still sees exactly one hit per lookup.
        assert store.counters.hits == 2

    def test_insert_invalidates_the_frontend(self):
        store = fleet(shards=4, replication=1, frontend_entries=2)
        url = "news0.com/"
        store.insert(url, entry(at=0.0))
        store.lookup(url, "news0", "phone", 0.1)
        store.insert(url, entry(at=0.2))
        refreshed = store.lookup(url, "news0", "phone", 0.3)
        assert not refreshed.frontend
        assert refreshed.entry.computed_at_hours == 0.2
