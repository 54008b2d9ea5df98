"""Span tracing around the program's public layer entry points.

The tracer wraps a fixed list of public functions (:data:`TARGETS`) for
the duration of one traced pass, records one span per call (name,
start, end, parent span) in memory, and restores the originals when the
pass ends.  A span's *self* time is its duration minus the durations of
the spans opened directly inside it.

Every span is named ``<layer>.<op>``, where ``<layer>`` is what
``repro.devtools.layering.layer_of`` (the path -> layer function the
LAY301 lint uses) returns for the module that *defines* the wrapped
function.  The benchmark keeps no layer table of its own.

:func:`profile_layer_shares` is the complementary cProfile pass: it
buckets every function's self time by the same ``layer_of`` mapping,
which is the only way to split ``net`` from ``browser`` from outside.
"""

from __future__ import annotations

import cProfile
import importlib
import inspect
import pstats
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class Target:
    """One public entry point: where to patch it, and its metric name."""

    #: Metric op name: the span is called ``<layer>.<op>``.
    op: str
    #: Module whose namespace the program looks the callable up in.
    module: str
    #: Attribute path inside ``module``: ``"name"`` or ``"Class.method"``.
    attr: str
    #: Optional ``(args, result) -> ((key, count), ...)`` tallied per call.
    tally: Optional[Callable[[tuple, object], Tuple[Tuple[str, int], ...]]] = None

    def owner_and_name(self) -> Tuple[object, str]:
        owner: object = importlib.import_module(self.module)
        *path, name = self.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, name

    def resolve(self) -> Callable:
        owner, name = self.owner_and_name()
        return vars(owner)[name]


#: The public calls the benchmark spans.  Each is patched where the
#: program looks it up at call time (a module global or a class
#: attribute), so the program itself is not modified.
TARGETS: Tuple[Target, ...] = (
    Target("run_config", "repro.baselines.configs", "run_config"),
    Target("load_page", "repro.baselines.configs", "load_page"),
    Target("vroom_servers", "repro.baselines.configs", "vroom_servers"),
    Target("stable_set", "repro.core.offline", "OfflineResolver.stable_set"),
    Target(
        "offline_loads", "repro.core.offline", "OfflineResolver.offline_loads"
    ),
    Target(
        "digest_build",
        "repro.longrun.runner",
        "CacheDigest",
        tally=lambda args, digest: (("urls", digest.entry_count),),
    ),
    Target(
        "digest_filter",
        "repro.longrun.runner",
        "filter_pushes",
        tally=lambda args, kept: (
            ("urls_in", len(args[0])),
            ("urls_kept", len(kept)),
        ),
    ),
    Target("materialize", "repro.pages.page", "PageBlueprint.materialize"),
    Target("record", "repro.replay.cache", "record_snapshot"),
    Target("store_lookup", "repro.service.placement", "FleetStore.lookup"),
    Target(
        "take_batch", "repro.service.scheduler", "BatchScheduler.take_batch"
    ),
    Target("run", "repro.service.backend", "HintService.run"),
    Target("build_pages", "repro.scenario.spec", "ScenarioSpec.build_pages"),
    Target("run_to", "repro.longrun.runner", "LongRunner.run_to"),
)


def package_dir() -> Path:
    import repro

    return Path(repro.__file__).resolve().parent


def layer_of_module(module_name: str) -> str:
    """The ``layer_of`` layer of a ``repro`` module, by its file path."""
    from repro.devtools.layering import layer_of

    path = Path(sys.modules[module_name].__file__).resolve()
    return layer_of(path.relative_to(package_dir()))


def layer_of_target(target: Target) -> str:
    """Layer of the module that defines the target's callable."""
    return layer_of_module(inspect.unwrap(target.resolve()).__module__)


def span_name(target: Target) -> str:
    return f"{layer_of_target(target)}.{target.op}"


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self) -> None:
        #: (name, start, end, parent index or -1), in open order.
        self.spans: List[Tuple[str, float, float, int]] = []
        #: span name -> tally key -> summed count.
        self.tallies: Dict[str, Dict[str, int]] = {}
        self._stack: List[int] = []

    def _wrap(self, name: str, fn: Callable, tally) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tallies = self.tallies.setdefault(name, {})

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name, 0.0, 0.0, parent))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if tally is not None:
                for key, count in tally(args, result):
                    tallies[key] = tallies.get(key, 0) + count
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every target for the duration of the block."""
        saved = []
        try:
            for target in TARGETS:
                owner, attr = target.owner_and_name()
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                wrapped = self._wrap(span_name(target), original, target.tally)
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def stats(self) -> Dict[str, SpanStats]:
        """Per span name: calls, total seconds and self seconds."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: Dict[str, SpanStats] = {}
        for index, (name, start, end, _parent) in enumerate(self.spans):
            row = out.setdefault(name, SpanStats())
            row.calls += 1
            row.total_s += end - start
            row.self_s += end - start - child_s[index]
        return out


def profile_layer_shares(
    run: Callable[[], object]
) -> Tuple[object, Dict[str, float], float]:
    """Run ``run()`` under cProfile; bucket self time by layer.

    Returns ``(run's result, layer -> share of total self time,
    unattributed share)``.  Functions outside the ``repro`` package
    (builtins such as sha256 or heappush, stdlib helpers) have their
    self time split across their callers and carried up until it
    reaches a ``repro`` function; what never does (the interpreter's
    own frames, the benchmark's) stays unattributed.
    """
    from repro.devtools.layering import layer_of

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = run()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    root = package_dir()

    layer_cache: Dict[str, Optional[str]] = {}

    def layer(func: tuple) -> Optional[str]:
        filename = func[0]
        if filename not in layer_cache:
            try:
                rel = Path(filename).resolve().relative_to(root)
            except ValueError:
                layer_cache[filename] = None
            else:
                layer_cache[filename] = layer_of(rel)
        return layer_cache[filename]

    buckets: Dict[str, float] = {}
    unattributed = 0.0
    total = 0.0

    def attribute(func: tuple, amount: float, depth: int) -> None:
        nonlocal unattributed
        home = layer(func)
        if home is not None:
            buckets[home] = buckets.get(home, 0.0) + amount
            return
        callers = stats[func][4] if func in stats else {}
        caller_total = sum(entry[2] for entry in callers.values())
        if depth >= 6 or caller_total <= 0:
            unattributed += amount
            return
        for caller, entry in callers.items():
            attribute(caller, amount * entry[2] / caller_total, depth + 1)

    for func, (_cc, _nc, self_s, _ct, _callers) in stats.items():
        total += self_s
        attribute(func, self_s, 0)
    if total <= 0:
        return result, {}, 0.0
    shares = {name: value / total for name, value in buckets.items()}
    return result, shares, unattributed / total
