"""Page blueprints and materialised snapshots.

A :class:`PageBlueprint` is the timeless description of a page: the resource
specs and their parent/child structure.  :meth:`PageBlueprint.materialize`
resolves every spec under a :class:`~repro.pages.dynamics.LoadStamp` into a
:class:`PageSnapshot` — the exact set of resources one load fetches, with
URLs, sizes and a root-document processing order.  Bodies are rendered on
first read (:attr:`~repro.pages.resources.Resource.body`), so a load whose
bodies nobody reads never renders one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.pages.dynamics import LoadStamp, resolve_size, resolve_url
from repro.pages.resources import (
    Discovery,
    Resource,
    ResourceSpec,
    ResourceType,
)


@dataclass
class PageBlueprint:
    """The stable structure of a page across loads."""

    name: str
    root: str
    specs: Dict[str, ResourceSpec] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._children_cache: Optional[Dict[str, List[ResourceSpec]]] = None
        self._layout_cache: Optional[List[Tuple[str, int, bool, bool]]] = None

    def add(self, spec: ResourceSpec) -> ResourceSpec:
        if spec.name in self.specs:
            raise ValueError(f"duplicate resource name {spec.name!r}")
        if spec.parent is not None and spec.parent not in self.specs:
            raise ValueError(
                f"{spec.name!r} declares unknown parent {spec.parent!r}"
            )
        self.specs[spec.name] = spec
        self._children_cache = None
        self._layout_cache = None
        return spec

    @property
    def root_spec(self) -> ResourceSpec:
        return self.specs[self.root]

    def children_of(self, name: str) -> List[ResourceSpec]:
        """Direct children of ``name``, sorted by (position, name).

        Memoised over the whole blueprint (dependency resolution asks
        for children hundreds of times per simulated load) and rebuilt
        on :meth:`add`.  Callers treat the result as read-only.
        """
        cache = self._children_cache
        if cache is None:
            cache = {spec_name: [] for spec_name in self.specs}
            for spec in self.specs.values():
                if spec.parent is not None:
                    cache[spec.parent].append(spec)
            for kids in cache.values():
                kids.sort(key=lambda spec: (spec.position, spec.name))
            self._children_cache = cache
        kids = cache.get(name)
        return kids if kids is not None else []

    def layout(self) -> List[Tuple[str, int, bool, bool]]:
        """``(name, process_order, in_iframe, is_iframe_doc)`` per spec.

        One pre-order walk from the root (children in
        :meth:`children_of` order) that carries an "inside an iframe"
        flag down the tree: a resource is ``in_iframe`` when some
        ancestor is an embedded (non-root) HTML document, and every
        non-root document is an ``is_iframe_doc``.  ``process_order`` is
        the walk index — the client's processing order.  Specs not
        reachable from the root are absent.  Memoised like
        :meth:`children_of` and rebuilt on :meth:`add`; callers treat
        the result as read-only.
        """
        layout = self._layout_cache
        if layout is None:
            layout = []
            specs, root = self.specs, self.root
            stack = [(root, False)]
            while stack:
                name, in_iframe = stack.pop()
                is_iframe_doc = (
                    specs[name].rtype is ResourceType.HTML and name != root
                )
                layout.append((name, len(layout), in_iframe, is_iframe_doc))
                below = in_iframe or is_iframe_doc
                stack.extend(
                    (child.name, below)
                    for child in reversed(self.children_of(name))
                )
            self._layout_cache = layout
        return layout

    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on failure."""
        if self.root not in self.specs:
            raise ValueError(f"root {self.root!r} not among specs")
        if self.specs[self.root].parent is not None:
            raise ValueError("root resource must not have a parent")
        for spec in self.specs.values():
            if spec.name == self.root:
                continue
            if spec.parent is None:
                raise ValueError(f"non-root {spec.name!r} has no parent")
            parent = self.specs[spec.parent]
            if spec.discovery is Discovery.CSS_REF:
                if parent.rtype is not ResourceType.CSS:
                    raise ValueError(
                        f"{spec.name!r}: CSS_REF child of non-CSS parent"
                    )
            elif spec.discovery is Discovery.SCRIPT_COMPUTED:
                if parent.rtype is not ResourceType.JS:
                    raise ValueError(
                        f"{spec.name!r}: SCRIPT_COMPUTED child of non-JS parent"
                    )
            else:
                if parent.rtype is not ResourceType.HTML:
                    raise ValueError(
                        f"{spec.name!r}: STATIC_MARKUP child of non-HTML parent"
                    )
        # Reject cycles: walk up from every node.
        for spec in self.specs.values():
            seen = set()
            node: Optional[str] = spec.name
            while node is not None:
                if node in seen:
                    raise ValueError(f"parent cycle involving {node!r}")
                seen.add(node)
                node = self.specs[node].parent

    def materialize(self, stamp: LoadStamp) -> "PageSnapshot":
        """Resolve every spec under ``stamp`` into a concrete snapshot.

        Only URLs, sizes and the tree are built here; each body is
        rendered the first time it is read.
        """
        resources: Dict[str, Resource] = {}
        for spec in self.specs.values():
            resources[spec.name] = Resource(
                spec=spec,
                url=resolve_url(spec, stamp),
                size=resolve_size(spec, stamp),
            )
        for name, resource in resources.items():
            for child_spec in self.children_of(name):
                child = resources[child_spec.name]
                child.parent = resource
                resource.children.append(child)
        for name, order, in_iframe, is_iframe_doc in self.layout():
            resource = resources[name]
            resource.process_order = order
            resource.in_iframe = in_iframe
            resource.is_iframe_doc = is_iframe_doc
        return PageSnapshot(
            page=self.name,
            stamp=stamp,
            root=resources[self.root],
            resources=resources,
        )


@dataclass
class PageSnapshot:
    """One concrete load of a page: what the client would actually fetch.

    The resource tree is fixed once :meth:`PageBlueprint.materialize`
    returns, so the pre-order walk and its derived views are computed once
    and memoised — the browser engine's discovery loop and completion
    checks hit these accessors thousands of times per simulated load.
    """

    page: str
    stamp: LoadStamp
    root: Resource
    resources: Dict[str, Resource]

    def __post_init__(self) -> None:
        self._walk_cache: Optional[List[Resource]] = None
        self._documents_cache: Optional[List[Resource]] = None

    def __iter__(self):
        return iter(self.all_resources())

    def _walk(self) -> List[Resource]:
        walk = self._walk_cache
        if walk is None:
            walk = self._walk_cache = self.root.subtree()
        return walk

    def all_resources(self) -> List[Resource]:
        return list(self._walk())

    def by_url(self) -> Dict[str, Resource]:
        return {resource.url: resource for resource in self._walk()}

    def urls(self) -> List[str]:
        return [resource.url for resource in self._walk()]

    def total_bytes(self) -> int:
        return sum(resource.size for resource in self._walk())

    def processable_bytes(self) -> int:
        return sum(
            resource.size
            for resource in self._walk()
            if resource.processable
        )

    def domains(self) -> List[str]:
        seen: Dict[str, None] = {}
        for resource in self._walk():
            seen.setdefault(resource.domain, None)
        return list(seen)

    def documents(self) -> List[Resource]:
        documents = self._documents_cache
        if documents is None:
            documents = self._documents_cache = [
                resource
                for resource in self._walk()
                if resource.is_document
            ]
        return documents

    def find(self, name: str) -> Resource:
        return self.resources[name]

    def hintable_descendants(self, doc: Resource) -> List[Resource]:
        """Descendants of ``doc`` reachable without crossing embedded HTML.

        This is the envelope a Vroom server serving ``doc`` may describe
        (Sec 4.2, Fig 10): embedded documents themselves are included, but
        nothing *derived from* them is, because their content may be
        personalised by another domain.
        """
        out: List[Resource] = []
        stack = list(reversed(doc.children))
        while stack:
            node = stack.pop()
            out.append(node)
            if node.is_document:
                continue
            stack.extend(reversed(node.children))
        return out


def shared_urls(a: PageSnapshot, b: PageSnapshot) -> List[str]:
    """URLs fetched by both snapshots (order follows ``a``)."""
    b_urls = set(b.urls())
    return [url for url in a.urls() if url in b_urls]


def merge_url_sets(snapshots: Iterable[PageSnapshot]) -> Dict[str, int]:
    """URL -> number of snapshots containing it."""
    counts: Dict[str, int] = {}
    for snapshot in snapshots:
        # dict.fromkeys deduplicates while keeping snapshot order, so the
        # result's insertion order is hash-seed independent.
        for url in dict.fromkeys(snapshot.urls()):
            counts[url] = counts.get(url, 0) + 1
    return counts
