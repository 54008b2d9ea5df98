"""The memoised blueprint layout against the per-resource walk it replaced.

``PageBlueprint.layout`` computes frame flags and processing order in one
pre-order pass.  The oracle below is the original two-step marking:
every descendant that is a document is an iframe document, every
resource with a non-root document among its ancestors is inside an
iframe, and processing order is a plain pre-order index.
"""

import pytest

from repro.pages.corpus import news_sports_corpus
from repro.pages.dynamics import LoadStamp
from repro.pages.page import PageBlueprint
from repro.pages.resources import ResourceSpec, ResourceType

STAMP = LoadStamp(when_hours=10.0)


def oracle_layout(root):
    """(name, process_order, in_iframe, is_iframe_doc) by the old walk."""
    in_iframe, is_iframe_doc = {}, {}
    for resource in root.subtree():
        is_iframe_doc[resource.name] = (
            resource is not root and resource.is_document
        )
        flagged = False
        parent = resource.parent
        while parent is not None:
            if parent.is_document and parent.parent is not None:
                flagged = True
                break
            parent = parent.parent
        in_iframe[resource.name] = flagged
    order = {}
    stack = [root]
    while stack:
        node = stack.pop()
        order[node.name] = len(order)
        stack.extend(reversed(node.children))
    return sorted(
        (name, order[name], in_iframe[name], is_iframe_doc[name])
        for name in order
    )


def snapshot_layout(snapshot):
    return sorted(
        (r.name, r.process_order, r.in_iframe, r.is_iframe_doc)
        for r in snapshot.all_resources()
    )


def spec(name, rtype, parent=None, **kw):
    return ResourceSpec(
        name=name,
        rtype=rtype,
        domain=kw.pop("domain", "a.com"),
        size=1000,
        parent=parent,
        **kw,
    )


def nested_frames_page():
    """root > frame > inner_frame > deep_js > (nothing); plus siblings."""
    page = PageBlueprint(name="nested", root="root")
    page.add(spec("root", ResourceType.HTML))
    page.add(spec("css", ResourceType.CSS, "root", position=0.1))
    page.add(spec("frame", ResourceType.HTML, "root", position=0.6))
    page.add(spec("frame_js", ResourceType.JS, "frame", position=0.2))
    page.add(spec("inner_frame", ResourceType.HTML, "frame", position=0.7))
    page.add(spec("deep_js", ResourceType.JS, "inner_frame", position=0.3))
    page.add(spec("deep_img", ResourceType.IMAGE, "inner_frame"))
    page.add(spec("late_img", ResourceType.IMAGE, "root", position=0.9))
    page.validate()
    return page


@pytest.fixture(scope="module")
def corpus24():
    return news_sports_corpus(24)


@pytest.mark.parametrize("index", range(24))
def test_layout_matches_oracle_on_corpus(corpus24, index):
    page = corpus24[index]
    snapshot = page.materialize(STAMP)
    assert snapshot_layout(snapshot) == oracle_layout(snapshot.root)
    assert sorted(page.layout()) == oracle_layout(snapshot.root)


def test_layout_matches_oracle_on_nested_iframes():
    page = nested_frames_page()
    snapshot = page.materialize(STAMP)
    assert snapshot_layout(snapshot) == oracle_layout(snapshot.root)
    flags = {name: (inside, doc) for name, _, inside, doc in page.layout()}
    assert flags["root"] == (False, False)
    assert flags["frame"] == (False, True)
    assert flags["frame_js"] == (True, False)
    assert flags["inner_frame"] == (True, True)
    assert flags["deep_js"] == (True, False)
    assert flags["late_img"] == (False, False)


def test_add_after_materialize_invalidates_layout():
    page = nested_frames_page()
    page.materialize(STAMP)
    before = page.layout()
    page.add(spec("early_js", ResourceType.JS, "root", position=0.05))
    after = page.layout()
    assert after is not before
    assert len(after) == len(before) + 1
    snapshot = page.materialize(STAMP)
    assert snapshot.find("early_js").process_order == 1
    assert snapshot_layout(snapshot) == oracle_layout(snapshot.root)
