"""Combined offline + online dependency resolution (Secs 4.1-4.2).

For every HTML object a server is about to return, the resolver produces
the dependency set the server may describe to the client:

* **Envelope** — only resources derived from this document's subtree
  *without crossing embedded HTML* (Fig 10).  Content behind an iframe may
  be personalised by another domain, so the iframe URL itself is hinted
  but nothing below it.
* **Offline component** — URLs present in every recent offline load
  (the stable set), restricted to the envelope, minus anything derived
  from user-state-dependent script execution (Sec 4.2).
* **Online component** — URLs statically visible in the exact HTML body
  being served (captures fresh rotated content nonce-accurate).

The same machinery also produces the paper's strawmen: offline-only,
online-only (a full on-the-fly server load, including its *own* nonce URLs
— the false-positive source in Fig 21c) and deps-from-previous-load
(Fig 17).
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Set

from repro.core.hints import DependencyHint, HintBundle, bundle_from_hints
from repro.core.offline import SERVER_USER, OfflineResolver, StableSet
from repro.core.online import analyze_html
from repro.pages.dynamics import LoadStamp, stable_nonce
from repro.pages.page import PageBlueprint
from repro.pages.resources import (
    Priority,
    Resource,
    ResourceSpec,
    ResourceType,
    priority_of,
)


class ResolutionStrategy(enum.Enum):
    """How the server computes the dependency set to return."""

    VROOM = "vroom"                  # offline stable set + online analysis
    OFFLINE_ONLY = "offline_only"    # stable set alone
    ONLINE_ONLY = "online_only"      # full on-the-fly server load
    PREV_LOAD = "prev_load"          # everything in the single latest load
    NONE = "none"                    # no dependency information at all


class VroomResolver:
    """Per-page dependency resolver used by Vroom-compliant servers."""

    def __init__(
        self,
        page: PageBlueprint,
        strategy: ResolutionStrategy = ResolutionStrategy.VROOM,
        offline: Optional[OfflineResolver] = None,
        atf_first: bool = False,
    ):
        self.page = page
        self.strategy = strategy
        self.offline = offline or OfflineResolver(page)
        #: Extension: order above-the-fold media ahead of the rest of the
        #: x-unimportant class so visual completeness converges sooner.
        self.atf_first = atf_first
        self._envelope_cache: Dict[str, Set[str]] = {}

    # -- structural helpers ---------------------------------------------------

    def envelope_names(self, doc_name: str) -> Set[str]:
        """Spec names derived from ``doc_name`` without crossing HTML.

        Embedded documents are included; their descendants are not.
        The structure comes from the server's own loads of the page, so it
        is expressed over stable spec names, not per-load URLs.
        """
        cached = self._envelope_cache.get(doc_name)
        if cached is not None:
            return cached
        names: Set[str] = set()
        stack = [spec.name for spec in self.page.children_of(doc_name)]
        while stack:
            name = stack.pop()
            names.add(name)
            spec = self.page.specs[name]
            if spec.rtype is ResourceType.HTML:
                continue
            stack.extend(
                child.name for child in self.page.children_of(name)
            )
        self._envelope_cache[doc_name] = names
        return names

    def _user_state_derived(self) -> Set[str]:
        """Spec names whose URLs depend on user-specific script state."""
        derived: Set[str] = set()
        for spec in self.page.specs.values():
            parent = spec.parent and self.page.specs[spec.parent]
            if parent is not None and parent.user_state_script:
                derived.add(spec.name)
        return derived

    # -- hint construction ------------------------------------------------------

    def hints_for(
        self,
        doc: Resource,
        *,
        as_of_hours: float,
        device_class: str = "phone",
    ) -> HintBundle:
        """The hint bundle a server attaches to ``doc``'s response."""
        if self.strategy is ResolutionStrategy.NONE:
            return HintBundle(source_url=doc.url)
        envelope = self.envelope_names(doc.name)
        hints: List[DependencyHint] = []
        if self.strategy is ResolutionStrategy.ONLINE_ONLY:
            hints = self._online_full_load(doc, as_of_hours, device_class)
        else:
            if self.strategy is ResolutionStrategy.PREV_LOAD:
                stable = self.offline.single_prior_load(
                    as_of_hours, device_class
                )
            else:
                stable = self.offline.stable_set(as_of_hours, device_class)
            hints.extend(self._offline_hints(doc, stable, envelope))
            if self.strategy is ResolutionStrategy.VROOM:
                hints.extend(self._online_hints(doc))
        hints.sort(key=lambda hint: (hint.priority, hint.order))
        return bundle_from_hints(doc.url, hints)

    def _offline_hints(
        self,
        doc: Resource,
        stable: StableSet,
        envelope: Set[str],
    ) -> List[DependencyHint]:
        user_state = self._user_state_derived()
        hints = []
        for url, exemplar in stable.exemplars.items():
            if exemplar.name not in envelope:
                continue
            if exemplar.name in user_state:
                continue
            hints.append(self._hint_from_resource(exemplar))
        return hints

    def _online_hints(self, doc: Resource) -> List[DependencyHint]:
        """URLs parsed out of the exact body being served."""
        analysis = analyze_html(doc.url, doc.body)
        by_url = {child.url: child for child in doc.children}
        hints = []
        for index, url in enumerate(analysis.urls):
            child = by_url.get(url)
            if child is not None:
                hints.append(self._hint_from_resource(child))
            else:
                # A URL in markup with no known structure: type and
                # priority come from the visible extension alone.
                hints.append(
                    DependencyHint(
                        url=url,
                        priority=_priority_from_url(url),
                        order=10_000 + index,
                    )
                )
        return hints

    def _online_full_load(
        self, doc: Resource, as_of_hours: float, device_class: str
    ) -> List[DependencyHint]:
        """Strawman 1: the server loads the page on the fly, with its own
        cookies and its own nonce draw, and returns everything it fetched
        inside the envelope."""
        from repro.core.offline import CLASS_EMULATION_DEVICE

        stamp = LoadStamp(
            when_hours=as_of_hours,
            device=CLASS_EMULATION_DEVICE[device_class],
            user=SERVER_USER,
            nonce=stable_nonce(self.page.name, "online", round(as_of_hours, 3)),
        )
        server_snapshot = self.page.materialize(stamp)
        server_doc = server_snapshot.resources.get(doc.name)
        if server_doc is None:
            return []
        return [
            self._hint_from_resource(resource)
            for resource in server_snapshot.hintable_descendants(server_doc)
        ]

    def _hint_from_resource(self, resource: Resource) -> DependencyHint:
        order = processing_order_key(self.page, resource.name)
        if (
            self.atf_first
            and resource.priority is Priority.UNIMPORTANT
            and resource.spec.above_fold
            and not resource.in_iframe
        ):
            order -= 1_000.0  # front of the x-unimportant list
        return DependencyHint(
            url=resource.url,
            priority=resource.priority,
            order=order,
            size_estimate=resource.size,
        )

    # -- accuracy-analysis support ------------------------------------------------

    def dependency_urls(
        self,
        doc: Resource,
        *,
        as_of_hours: float,
        device_class: str = "phone",
    ) -> Set[str]:
        """Flat URL set (what Fig 21's accuracy metrics score)."""
        return set(
            self.hints_for(
                doc, as_of_hours=as_of_hours, device_class=device_class
            ).urls()
        )


def processing_order_key(page: PageBlueprint, name: str) -> float:
    """Estimated position of spec ``name`` in the client's processing
    timeline, learned from the server's own loads (Sec 5.1: "the server
    discovers this order during its offline and online dependency
    resolution").

    A static child of a document unlocks when the parser reaches its
    position; a script-computed child unlocks a full round after its
    parent executes; a CSS reference unlocks when the sheet is parsed.
    The sum runs up the blueprint's parent chain — the same chain every
    materialised load links — so a resource rehydrated from a persisted
    stable set, which has no parent links, keys exactly as the one it
    was saved from.
    """
    specs = page.specs
    key = 0.0
    spec = specs[name]
    while spec.parent is not None:
        discovery = spec.discovery.value
        if discovery == "static":
            key += spec.position
        elif discovery == "script":
            key += 1.0
        else:  # css
            key += 0.5
        spec = specs[spec.parent]
    return key


_EXT_PRIORITY = {
    "js": Priority.PRELOAD,
    "css": Priority.PRELOAD,
    "html": Priority.UNIMPORTANT,  # iframes: footnote 4
}


def _priority_from_url(url: str) -> Priority:
    ext = url.rsplit(".", 1)[-1].lower()
    return _EXT_PRIORITY.get(ext, Priority.UNIMPORTANT)


def spec_priority(spec: ResourceSpec, in_iframe: bool = False) -> Priority:
    """Priority for a spec outside any snapshot (used by analyses)."""
    return priority_of(
        spec.rtype,
        exec_async=spec.exec_async,
        in_iframe=in_iframe,
        is_iframe_doc=spec.rtype is ResourceType.HTML
        and spec.parent is not None,
    )
