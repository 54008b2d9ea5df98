"""Checkpoint/resume determinism: resumed == straight, bit for bit."""

import pickle

import pytest

from repro import audit
from repro.longrun import (
    CHECKPOINT_VERSION,
    LongRunner,
    checkpoint_roundtrip,
    run_scenario,
)
from repro.scenario import ScenarioSpec

QUIET = dict(
    pages=4,
    horizon_hours=1.5,
    rate_per_hour=300.0,
    shards=3,
    replication=2,
    rollup_hours=0.5,
)

#: Same stream, but a shard fail/heal cycle is live the whole run; the
#: default checkpoint point (mid-run, hour 0.75) falls *inside* the
#: 0.75–0.95 outage window, so resume must also restore fault state.
FAULTY = dict(
    QUIET,
    shard_cycle_every_hours=0.5,
    shard_cycle_down_hours=0.2,
    shard_cycle_start_hours=0.25,
    digest_filter_bits=8,
)


@pytest.fixture
def armed_audit():
    audit.enable()
    try:
        yield
    finally:
        audit.disable()


class TestRoundTrip:
    def test_resume_matches_straight(self):
        result = checkpoint_roundtrip(ScenarioSpec(**QUIET))
        assert result["match"]
        assert (
            result["straight_fingerprint"]
            == result["resumed_fingerprint"]
        )

    def test_resume_matches_under_active_faults(self, armed_audit):
        spec = ScenarioSpec(**FAULTY)
        result = checkpoint_roundtrip(spec)
        assert result["match"]
        # The scenario actually exercised the fault machinery.
        assert result["report"]["totals"]["shard_wipes"] >= 1

    def test_resume_mid_outage_window(self):
        result = checkpoint_roundtrip(
            ScenarioSpec(**FAULTY), checkpoint_at_hours=0.85
        )
        assert result["checkpoint_at_hours"] == 0.85
        assert result["match"]

    def test_checkpoint_file_round_trip(self, tmp_path):
        spec = ScenarioSpec(**FAULTY)
        straight = run_scenario(spec)
        path = str(tmp_path / "runner.ckpt")
        runner = LongRunner(spec)
        runner.run_to(0.6)
        runner.save_checkpoint(path)
        resumed = LongRunner.load_checkpoint(path)
        resumed.run_to(spec.horizon_hours)
        assert resumed.report()["fingerprint"] == straight["fingerprint"]


class TestEnvelope:
    def _blob(self):
        runner = LongRunner(ScenarioSpec(**QUIET))
        runner.run_to(0.5)
        return runner.to_checkpoint_bytes()

    def test_version_mismatch_rejected(self):
        envelope = pickle.loads(self._blob())
        envelope["version"] = 99
        with pytest.raises(ValueError, match="version"):
            LongRunner.from_checkpoint_bytes(pickle.dumps(envelope))

    def test_corrupted_state_rejected(self):
        envelope = pickle.loads(self._blob())
        envelope["state"] = envelope["state"][:-1] + b"X"
        with pytest.raises(ValueError, match="digest"):
            LongRunner.from_checkpoint_bytes(pickle.dumps(envelope))

    def test_wrong_scenario_rejected(self):
        envelope = pickle.loads(self._blob())
        envelope["spec_fingerprint"] = "0" * 64
        with pytest.raises(ValueError, match="fingerprint"):
            LongRunner.from_checkpoint_bytes(pickle.dumps(envelope))

    @pytest.mark.parametrize(
        "data, problem",
        [
            (b"", "unpickle"),
            (b"garbage", "unpickle"),
            (pickle.dumps(["not", "an", "envelope"]), "list, not a dict"),
            (pickle.dumps({"version": 1}), "version 1"),
            (pickle.dumps({"version": CHECKPOINT_VERSION}), "lacks"),
        ],
        ids=["empty", "garbage", "list", "v1-stub", "no-state"],
    )
    def test_malformed_envelope_rejected(self, data, problem):
        with pytest.raises(ValueError, match=problem):
            LongRunner.from_checkpoint_bytes(data)
