"""Tests for cache digests (push suppression, footnote 2)."""

import pytest

from repro.browser.cache import BrowserCache
from repro.core.cache_digest import (
    CacheDigest,
    _url_prefix,
    digest_from_cache,
    filter_pushes,
)


class TestCacheDigest:
    def test_no_false_negatives(self):
        """One-sided error: everything inserted is always found."""
        urls = [f"a.com/r{i}.js" for i in range(500)]
        digest = CacheDigest(urls)
        for url in urls:
            assert url in digest

    def test_false_positive_rate_bounded(self):
        cached = [f"a.com/in{i}.js" for i in range(1000)]
        digest = CacheDigest(cached, bits_per_entry=8)
        probes = [f"b.com/out{i}.js" for i in range(2000)]
        false_positives = sum(1 for url in probes if url in digest)
        # Expected ~2^-8 = 0.4%; allow generous slack.
        assert false_positives / len(probes) < 0.05

    def test_bits_per_entry_bounds(self):
        with pytest.raises(ValueError):
            CacheDigest([], bits_per_entry=0)
        with pytest.raises(ValueError):
            CacheDigest([], bits_per_entry=40)

    @pytest.mark.parametrize("bits", [8.5, 8.0, True, "8"])
    def test_non_int_bits_per_entry_rejected(self, bits):
        with pytest.raises(ValueError, match="bits_per_entry"):
            CacheDigest(["a.com/x.js"], bits_per_entry=bits)

    def test_prefix_memo_is_bounded(self):
        assert _url_prefix.cache_info().maxsize is not None

    def test_size_scales_with_entries(self):
        small = CacheDigest([f"u{i}" for i in range(10)])
        large = CacheDigest([f"u{i}" for i in range(1000)])
        assert large.size_bytes > small.size_bytes
        # ~10 bits/entry: 1000 entries ~ 1.25 KB, far below the URLs.
        assert large.size_bytes < 2000

    def test_empty_digest(self):
        digest = CacheDigest([])
        assert "anything" not in digest
        assert digest.size_bytes >= 2

    def test_precision_improves_with_bits(self):
        assert (
            CacheDigest([], bits_per_entry=12).false_positive_rate
            < CacheDigest([], bits_per_entry=6).false_positive_rate
        )


class TestIntegration:
    def test_digest_from_cache_honours_freshness(self):
        cache = BrowserCache()
        cache.store("fresh.com/x", 1, when_hours=90.0, max_age_hours=24.0)
        cache.store("stale.com/y", 1, when_hours=0.0, max_age_hours=1.0)
        digest = digest_from_cache(cache, when_hours=100.0)
        assert "fresh.com/x" in digest
        assert "stale.com/y" not in digest

    def test_filter_pushes(self):
        digest = CacheDigest(["a.com/cached.js"])
        pushes = ["a.com/cached.js", "a.com/new.js"]
        assert filter_pushes(pushes, digest) == ["a.com/new.js"]

    def test_filter_preserves_order(self):
        digest = CacheDigest([])
        pushes = [f"a.com/p{i}.js" for i in range(5)]
        assert filter_pushes(pushes, digest) == pushes
