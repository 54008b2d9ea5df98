"""Resource bodies are rendered on first read, never at materialisation."""

import pickle

from repro.core.offline import OfflineResolver
from repro.pages import markup


def test_stable_set_window_renders_no_body(monkeypatch, page, stamp):
    calls = []
    real = markup.render_body

    def counting(resource):
        calls.append(resource.name)
        return real(resource)

    monkeypatch.setattr(markup, "render_body", counting)
    resolver = OfflineResolver(page)
    stable = resolver.stable_set(stamp.when_hours, "phone")
    assert stable.urls
    assert calls == []
    # Reading a body is what renders it, through the same function.
    next(iter(stable.exemplars.values())).body
    assert len(calls) == 1


def test_lazy_body_equals_eager_render(page, stamp):
    snapshot = page.materialize(stamp)
    eager = {r.name: markup.render_body(r) for r in snapshot.all_resources()}
    processable = [r for r in snapshot.all_resources() if r.processable]
    assert processable
    for resource in snapshot.all_resources():
        assert resource.body == eager[resource.name]
        if resource.processable:
            assert len(resource.body) == resource.size
        else:
            assert resource.body == ""


def test_pickled_unread_snapshot_renders_same_bodies(page, stamp):
    unread = page.materialize(stamp)
    assert all(r._body is None for r in unread.all_resources())
    restored = pickle.loads(pickle.dumps(unread))
    reference = page.materialize(stamp)
    for resource in restored.all_resources():
        assert resource.body == reference.find(resource.name).body
    # The unread original still renders the same strings afterwards.
    for resource in unread.all_resources():
        assert resource.body == reference.find(resource.name).body


def test_body_stays_assignable(page, stamp):
    snapshot = page.materialize(stamp)
    root = snapshot.root
    root.body = "<html></html>"
    assert root.body == "<html></html>"
    assert markup.extract_urls(root.body) == []
