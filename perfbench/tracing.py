"""Spans around the library's layer boundaries, recorded from outside.

:class:`Tracer` replaces a fixed list of public functions and methods
(:data:`TARGETS`) with timing wrappers while a traced run is active and
puts every original back afterwards.  Each wrapped call records one span
``(id, parent, name, start_ns, end_ns)``; the parent comes from a
``contextvars`` variable holding the innermost open span, so nesting is
tracked per thread and per asyncio task.  Spans stay in memory until the
run ends.  Calls made inside pool worker processes are not seen: the
workers are forked before the wrappers go in.
"""

from __future__ import annotations

import contextvars
import functools
import gzip
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_CURRENT = contextvars.ContextVar("perfbench_current_span", default=0)


def _chz_name(method: str) -> Callable:
    """Span name of a ``BatchedCHZonotope`` method: subclasses (the plain
    Zonotope and Parallelotope stacks) belong to ``batched_domains``."""

    def name(args) -> str:
        if type(args[0]).__name__ == "BatchedCHZonotope":
            return f"chz.{method}"
        return f"batched_domains.{method}"

    return name


#: ``(span name or naming function, module, qualified attribute)``.
TARGETS: Tuple[Tuple[object, str, str], ...] = (
    ("solvers.solve_fixpoint_batch", "repro.mondeq.solvers", "solve_fixpoint_batch"),
    ("craft.prediction_pass", "repro.engine.craft", "prediction_pass"),
    ("craft.phase1", "repro.engine.craft", "BatchedCraft._containment_phase"),
    ("craft.phase2", "repro.engine.craft", "BatchedCraft._tighten_and_certify"),
    *(
        (_chz_name(method), "repro.engine.batched_chzonotope", f"BatchedCHZonotope.{method}")
        for method in ("affine", "relu", "sum", "concretize_bounds", "contains", "consolidate", "select")
    ),
    ("batched_domains.affine", "repro.engine.batched_domains", "BatchedBox.affine"),
    ("batched_domains.relu", "repro.engine.batched_domains", "BatchedBox.relu"),
    ("batched_domains.relu", "repro.engine.batched_domains", "BatchedZonotope.relu"),
    ("batched_domains.relu", "repro.engine.batched_domains", "BatchedParallelotope.relu"),
    ("cache.lookup", "repro.engine.cache", "TieredVerdictCache.lookup"),
    ("cache.admit", "repro.engine.cache", "TieredVerdictCache.admit"),
    ("cache.refresh", "repro.engine.cache", "TieredVerdictCache.refresh"),
    ("scheduler.certify", "repro.engine.scheduler", "BatchCertificationScheduler.certify"),
    ("sharded.certify", "repro.engine.sharded", "ShardedScheduler.certify"),
    ("frontend.submit", "repro.service.frontend", "CertificationFrontend.submit"),
    ("frontend.run_batch", "repro.service.frontend", "CertificationFrontend._run_batch"),
)


def resolve(module_name: str, qualname: str) -> Tuple[object, str]:
    """``(owner, attribute)`` of a target: a class for methods, else the module."""
    owner = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attribute


class Tracer:
    """Records spans and per-layer observations while installed.

    ``observers`` maps a span name to ``callback(args, kwargs, result,
    start_ns, end_ns)``, called after the wrapped call returns; the
    workload runners use them to read reports and shapes the spans alone
    do not carry.
    """

    def __init__(self, observers: Optional[Dict[str, Callable]] = None):
        self.spans: List[Tuple[int, int, str, int, int]] = []
        self.observers = dict(observers or {})
        self._ids = itertools.count(1)
        self._patches: List[Tuple[object, str, object]] = []
        self._lock = threading.Lock()

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, original):
        spans, ids, observers = self.spans, self._ids, self.observers
        naming = name if callable(name) else None

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def async_wrapper(*args, **kwargs):
                label = naming(args) if naming else name
                span_id = next(ids)
                token = _CURRENT.set(span_id)
                start = time.perf_counter_ns()
                try:
                    result = await original(*args, **kwargs)
                finally:
                    end = time.perf_counter_ns()
                    _CURRENT.reset(token)
                    spans.append((span_id, _CURRENT.get(), label, start, end))
                observer = observers.get(label)
                if observer is not None:
                    observer(args, kwargs, result, start, end)
                return result

            return async_wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = naming(args) if naming else name
            span_id = next(ids)
            token = _CURRENT.set(span_id)
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                _CURRENT.reset(token)
                spans.append((span_id, _CURRENT.get(), label, start, end))
            observer = observers.get(label)
            if observer is not None:
                observer(args, kwargs, result, start, end)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target; module functions are replaced in every
        ``repro`` module that imported them by name."""
        with self._lock:
            if self._patches:
                raise RuntimeError("tracer already installed")
            for name, module_name, qualname in TARGETS:
                owner, attribute = resolve(module_name, qualname)
                original = owner.__dict__[attribute]
                wrapper = self._wrap(name, original)
                owners = [owner]
                if inspect.ismodule(owner):
                    owners = [
                        module
                        for module_key, module in list(sys.modules.items())
                        if module_key.startswith("repro")
                        and module is not None
                        and module.__dict__.get(attribute) is original
                    ]
                for target in owners:
                    self._patches.append((target, attribute, original))
                    setattr(target, attribute, wrapper)

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        with self._lock:
            while self._patches:
                owner, attribute, original = self._patches.pop()
                setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- analysis ----------------------------------------------------------

    def _resolved_spans(self) -> List[Tuple[int, int, str, int, int]]:
        """Spans with each parent replaced by the nearest ancestor whose
        interval encloses the span.  An asyncio task inherits the context
        of the call that created it, so it can outlive its recorded
        parent; such a span is not part of that parent's time."""
        by_id = {span[0]: span for span in self.spans}
        resolved = []
        for span_id, parent, name, start, end in self.spans:
            ancestor = by_id.get(parent)
            while ancestor is not None and not (ancestor[3] <= start and end <= ancestor[4]):
                ancestor = by_id.get(ancestor[1])
            resolved.append((span_id, ancestor[0] if ancestor else 0, name, start, end))
        return resolved

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, inclusive ``seconds`` and ``self_seconds``.

        Inclusive time counts only the outermost span of a name, so a
        method that calls itself through ``super()`` is not counted
        twice.  Self time is a span's duration minus the durations of its
        direct children.
        """
        spans = self._resolved_spans()
        by_id = {span[0]: span for span in spans}
        child_ns: Dict[int, int] = defaultdict(int)
        for _span_id, parent, _name, start, end in spans:
            if parent:
                child_ns[parent] += end - start
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "seconds": 0.0, "self_seconds": 0.0}
        )
        for span_id, parent, name, start, end in spans:
            row = table[name]
            row["calls"] += 1
            row["self_seconds"] += (end - start - child_ns[span_id]) / 1e9
            ancestor = by_id.get(parent)
            while ancestor is not None and ancestor[2] != name:
                ancestor = by_id.get(ancestor[1])
            if ancestor is None:
                row["seconds"] += (end - start) / 1e9
        return dict(table)

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span_id, parent, name, start, end in self._resolved_spans():
                handle.write(
                    json.dumps({"id": span_id, "parent": parent, "name": name, "start_ns": start, "end_ns": end})
                )
                handle.write("\n")
