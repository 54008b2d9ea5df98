"""Digest reuse on repeat visits that are served unchanged hints.

A digest remembers the exact URL list it was built from.  Filtering that
list again returns ``[]`` without hashing (no false negatives), and the
runner keeps the digest instead of rebuilding an identical one.  Neither
shortcut may change a single served hint.
"""

import pytest

import repro.core.cache_digest as cache_digest
import repro.longrun.runner as runner_mod
from repro import audit
from repro.core.cache_digest import CacheDigest, filter_pushes
from repro.longrun import LongRunner, checkpoint_roundtrip, run_scenario
from repro.scenario import ScenarioSpec

SMALL = dict(
    pages=4,
    horizon_hours=1.0,
    rate_per_hour=300.0,
    shards=3,
    rollup_hours=0.5,
    digest_filter_bits=8,
)

URLS = sorted(f"https://cdn.example/asset{i}.js" for i in range(30))


class _TupleDigest(CacheDigest):
    """A digest whose remembered list is a tuple: it never equals a
    list, so neither the filter nor the runner can take the shortcut."""

    def __init__(self, urls, bits_per_entry=8):
        super().__init__(urls, bits_per_entry=bits_per_entry)
        self.built_from = tuple(self.built_from)


def test_unchanged_hints_filter_without_hashing(monkeypatch):
    monkeypatch.setattr(audit, "ENABLED", False)
    digest = CacheDigest(URLS)

    def no_hashing(url):
        raise AssertionError(f"hashed {url!r} on the shortcut")

    monkeypatch.setattr(cache_digest, "_url_prefix", no_hashing)
    assert filter_pushes(list(URLS), digest) == []


def test_changed_hints_take_the_full_filter():
    digest = CacheDigest(URLS)
    fresh = "https://cdn.example/fresh.css"
    assert fresh not in digest
    assert filter_pushes(URLS[1:] + [fresh], digest) == [fresh]


def _counted_run(monkeypatch, base):
    """Run SMALL with ``base`` as the runner's digest class; return the
    runner, the digests built and the full-filter (hashing) calls."""
    built, hashed = [], []
    real_unheld = cache_digest._unheld

    class Counting(base):
        def __init__(self, urls, bits_per_entry=8):
            super().__init__(urls, bits_per_entry=bits_per_entry)
            built.append(self)

    def counting_unheld(pushes, digest):
        hashed.append(len(pushes))
        return real_unheld(pushes, digest)

    monkeypatch.setattr(runner_mod, "CacheDigest", Counting)
    monkeypatch.setattr(cache_digest, "_unheld", counting_unheld)
    runner = LongRunner(ScenarioSpec(**SMALL))
    runner.run_to(SMALL["horizon_hours"])
    return runner, built, hashed


def test_repeat_visit_reuses_its_digest(monkeypatch):
    monkeypatch.setattr(audit, "ENABLED", False)
    runner, built, hashed = _counted_run(monkeypatch, CacheDigest)
    shortcuts = runner.digest_lookups - len(hashed)
    assert shortcuts > 0, "no repeat visit took the shortcut"
    _, built_defeated, hashed_defeated = _counted_run(
        monkeypatch, _TupleDigest
    )
    assert len(hashed_defeated) == runner.digest_lookups
    # Every shortcut is a visit that kept its digest instead of
    # building an identical one.
    assert len(built) == len(built_defeated) - shortcuts


def test_shortcut_changes_nothing(monkeypatch):
    spec = ScenarioSpec(**SMALL)
    with_shortcut = run_scenario(spec)
    monkeypatch.setattr(runner_mod, "CacheDigest", _TupleDigest)
    defeated = run_scenario(spec)
    assert defeated["digest"] == with_shortcut["digest"]
    assert defeated["chain"] == with_shortcut["chain"]
    assert defeated["fingerprint"] == with_shortcut["fingerprint"]


def test_audit_catches_a_wrong_shortcut(monkeypatch):
    digest = CacheDigest(URLS)
    stranger = "https://cdn.example/stranger.png"
    assert stranger not in digest
    # Forge the remembered list so the shortcut fires on hints the
    # digest does not hold.
    digest.built_from = URLS + [stranger]
    monkeypatch.setattr(audit, "ENABLED", True)
    with pytest.raises(audit.AuditError, match="digest-reuse"):
        filter_pushes(URLS + [stranger], digest)
    monkeypatch.setattr(audit, "ENABLED", False)
    assert filter_pushes(URLS + [stranger], digest) == []


def test_checkpoint_resume_with_reused_digests():
    outcome = checkpoint_roundtrip(ScenarioSpec(**SMALL))
    assert outcome["match"]
