"""Tests for stable-set persistence (the server's offline database)."""

import json

import pytest

from repro.core.offline import (
    OfflineResolver,
    stable_set_from_dict,
    stable_set_to_dict,
)


class TestStableSetPersistence:
    def test_round_trip(self, page, stamp):
        resolver = OfflineResolver(page)
        original = resolver.stable_set(stamp.when_hours, "phone")
        data = stable_set_to_dict(original)
        restored = stable_set_from_dict(data, page)
        assert restored.urls == original.urls
        assert set(restored.exemplars) == set(original.exemplars)
        for url in original.exemplars:
            assert (
                restored.exemplars[url].name
                == original.exemplars[url].name
            )
            assert (
                restored.exemplars[url].process_order
                == original.exemplars[url].process_order
            )

    def test_json_serialisable(self, page, stamp):
        resolver = OfflineResolver(page)
        stable = resolver.stable_set(stamp.when_hours, "phone")
        text = json.dumps(stable_set_to_dict(stable))
        assert json.loads(text)["page"] == page.name

    def test_unknown_exemplar_rejected(self, page, stamp):
        resolver = OfflineResolver(page)
        stable = resolver.stable_set(stamp.when_hours, "phone")
        data = stable_set_to_dict(stable)
        any_url = next(iter(data["exemplars"]))
        data["exemplars"][any_url]["name"] = "ghost_resource"
        with pytest.raises(ValueError, match="unknown to page"):
            stable_set_from_dict(data, page)

    def test_restored_set_drives_resolver(self, page, snapshot, stamp):
        """A resolver fed a persisted stable set serves the very hints
        direct resolution does: same URLs, priorities, order keys and
        size estimates, in the same sequence."""
        from repro.core.resolver import VroomResolver

        resolver = VroomResolver(page)
        direct = resolver.hints_for(
            snapshot.root, as_of_hours=stamp.when_hours
        )
        data = stable_set_to_dict(
            resolver.offline.stable_set(stamp.when_hours, "phone")
        )
        restored = stable_set_from_dict(data, page)
        # Patch the cache so the resolver reuses the persisted set.
        key = (round(stamp.when_hours, 6), "phone")
        fresh = VroomResolver(page)
        fresh.offline._cache[key] = restored
        rehydrated = fresh.hints_for(
            snapshot.root, as_of_hours=stamp.when_hours
        )
        assert set(rehydrated.urls()) == set(direct.urls())

        def facts(bundle):
            return [
                (hint.url, hint.priority, hint.order, hint.size_estimate)
                for hint in bundle.hints
            ]

        assert facts(rehydrated) == facts(direct)

    def test_restored_exemplars_keep_frame_flags(self, corpus, stamp):
        """Iframe documents and their descendants stay UNIMPORTANT."""
        framed = 0
        for page in corpus:
            original = OfflineResolver(page).stable_set(
                stamp.when_hours, "phone"
            )
            restored = stable_set_from_dict(
                stable_set_to_dict(original), page
            )
            for url, exemplar in original.exemplars.items():
                back = restored.exemplars[url]
                assert (back.in_iframe, back.is_iframe_doc) == (
                    exemplar.in_iframe,
                    exemplar.is_iframe_doc,
                )
                assert back.priority == exemplar.priority
                framed += exemplar.in_iframe or exemplar.is_iframe_doc
        assert framed, "corpus exercised no iframe exemplar"
