"""Tests for the declarative scenario layer."""

import json

import pytest

from repro.calibration import DEFAULT_EVAL_HOUR
from repro.net.faults import FaultKind, FaultRule
from repro.scenario import ScenarioSpec, fault_rule_from_dict, fault_rule_to_dict


def spec_with_extras() -> ScenarioSpec:
    return ScenarioSpec(
        pages=4,
        horizon_hours=6.0,
        shard_cycle_every_hours=2.0,
        shard_cycle_down_hours=0.5,
        shard_cycle_start_hours=1.0,
        extra_fault_rules=(
            FaultRule(
                kind=FaultKind.STALL,
                rate=0.5,
                url_substring="cdn.",
                not_before=1.0,
            ),
            FaultRule(kind=FaultKind.SERVER_ERROR, rate=1.0, domain="ads.example"),
        ),
    )


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"corpus": "nope"}, "unknown corpus"),
            ({"pages": 0}, "at least one page"),
            ({"horizon_hours": 0.0}, "horizon must be positive"),
            ({"rate_per_hour": -1.0}, "arrival rate"),
            ({"phone_fraction": 1.5}, "phone fraction"),
            ({"user_pool": 0}, "user pool"),
            ({"network_profile": "carrier-pigeon"}, "network profile"),
            ({"shards": 0}, "at least one shard"),
            ({"shards": 2, "replication": 3}, "replication"),
            ({"ttl_hours": 0.0}, "TTL and freshness"),
            ({"batch_period_hours": 0.0}, "batch period"),
            ({"crawl_budget_per_hour": 0.0}, "crawl budget"),
            ({"digest_filter_bits": 40}, "digest_filter_bits"),
            ({"digest_filter_bits": -1}, "digest_filter_bits"),
            ({"shard_cycle_every_hours": -1.0}, "cycle period"),
            (
                {
                    "shard_cycle_every_hours": 1.0,
                    "shard_cycle_down_hours": 1.5,
                },
                "inside the cycle period",
            ),
            (
                {
                    "shard_cycle_every_hours": 1.0,
                    "shard_cycle_down_hours": 0.5,
                    "shard_cycle_start_hours": -0.5,
                },
                "predate the run",
            ),
            ({"rollup_hours": 0.0}, "rollup window"),
            ({"digest_filter_bits": 8.5}, "digest_filter_bits"),
            ({"digest_filter_bits": 8.0}, "digest_filter_bits"),
            ({"digest_filter_bits": True}, "digest_filter_bits"),
            ({"digest_filter_bits": "8"}, "digest_filter_bits"),
        ],
    )
    def test_bad_values_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ScenarioSpec(**kwargs)

    @pytest.mark.parametrize("bits", [8.5, 8.0, True])
    def test_non_int_digest_bits_rejected_from_dict(self, bits):
        wire = json.loads(json.dumps(ScenarioSpec().as_dict()))
        wire["digest_filter_bits"] = bits
        with pytest.raises(ValueError, match="digest_filter_bits"):
            ScenarioSpec.from_dict(wire)

    def test_defaults_valid(self):
        spec = ScenarioSpec()
        assert spec.corpus == "news"
        assert spec.horizon_hours == 48.0
        assert spec.start_hour == DEFAULT_EVAL_HOUR


class TestRoundTrip:
    def test_json_round_trip_identity(self):
        spec = spec_with_extras()
        wire = json.loads(json.dumps(spec.as_dict()))
        back = ScenarioSpec.from_dict(wire)
        assert back == spec
        assert back.fingerprint() == spec.fingerprint()

    def test_open_ended_fault_window_survives_json(self):
        rule = FaultRule(kind=FaultKind.SERVER_ERROR, rate=1.0, domain="x.example")
        assert rule.not_after == float("inf")
        wire = fault_rule_to_dict(rule)
        assert wire["not_after"] is None
        json.dumps(wire)  # no Infinity token in the payload
        assert fault_rule_from_dict(wire) == rule


class TestFingerprint:
    def test_stable_across_constructions(self):
        assert ScenarioSpec().fingerprint() == ScenarioSpec().fingerprint()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"pages": 13},
            {"workload_seed": 1},
            {"replication": 3},
            {"digest_filter_bits": 8},
            {"shard_cycle_every_hours": 12.0},
            {
                "extra_fault_rules": (
                    FaultRule(kind=FaultKind.SERVER_ERROR, rate=1.0, domain="a"),
                )
            },
        ],
    )
    def test_any_field_change_changes_fingerprint(self, kwargs):
        assert (
            ScenarioSpec(**kwargs).fingerprint()
            != ScenarioSpec().fingerprint()
        )


class TestComposition:
    def test_cycle_rules_rotate_victims(self):
        spec = ScenarioSpec(
            shards=3,
            horizon_hours=6.0,
            shard_cycle_every_hours=1.0,
            shard_cycle_down_hours=0.25,
            shard_cycle_start_hours=0.5,
        )
        rules = spec.cycle_rules()
        # k = 0..5: 0.5 + k * 1.0 < 6.0
        assert len(rules) == 6
        assert [r.url_substring for r in rules[:4]] == [
            "shard0.",
            "shard1.",
            "shard2.",
            "shard0.",
        ]
        first = rules[0]
        assert first.not_before == spec.start_hour + 0.5
        assert first.not_after == spec.start_hour + 0.75

    def test_no_cycle_means_no_fault_plan(self):
        spec = ScenarioSpec()
        assert spec.cycle_rules() == ()
        assert spec.fault_plan() is None

    def test_fault_plan_appends_extra_rules(self):
        spec = spec_with_extras()
        plan = spec.fault_plan()
        assert plan is not None
        assert len(plan.rules) == len(spec.cycle_rules()) + 2
        assert plan.rules[-1].domain == "ads.example"

    def test_service_config_compiles_knobs(self):
        spec = spec_with_extras()
        config = spec.service_config()
        assert config.pages == spec.pages
        assert config.lookups == spec.lookups_estimate()
        assert len(config.shard_fault_rules) == len(spec.cycle_rules()) + 2
        assert config.fingerprint is False
        assert config.bridge_sample_every == 0

    def test_build_pages_honours_count_and_seed(self):
        spec = ScenarioSpec(pages=3)
        pages = spec.build_pages()
        assert len(pages) == 3
        reseeded = ScenarioSpec(pages=3, corpus_seed=99).build_pages()
        # The seed drives the generated page structure, not the names.
        assert [sorted(p.specs) for p in pages] != [
            sorted(p.specs) for p in reseeded
        ]

    def test_network_resolves_profile(self):
        assert ScenarioSpec(network_profile="5g").network().name == "5g"
