"""Per-layer tracing of one ``doa`` job from outside the package.

`Tracer.install` wraps the public functions listed in `TARGETS` at every
name their callers look up: a module attribute bound by ``from .x import f``
is replaced by a wrapper, and a module alias bound by ``from . import x as
_x`` is replaced by a copy of the module namespace holding the wrappers.  A
recursive function's own module global is left alone, so only its outermost
calls are seen.  ``numpy.linalg.svd/det/inv/cond`` are wrapped too and
charged to the innermost open span.  `Tracer.remove` puts every original
back; no file of the package is edited.

A span records its name, start, end, thread and parent.  A span opened on a
thread with no open span of its own (a spectrum pool worker) takes the
innermost open span of the thread that installed the tracer as its parent,
which is where the pool was started.  Self time is a span's duration minus
the part of it covered by the union of its children's intervals, so
children that overlap on pool threads are not counted twice.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import pkgutil
import threading
import time
import types
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

_clock = time.perf_counter


@dataclass(frozen=True)
class Target:
    module: str
    name: str
    span: str | None  # None: count calls only, cheaply (hot functions)
    recursive: bool = False


TARGETS = (
    Target("doa.document", "load_document", "document.load"),
    Target("doa.document", "build_operator", "document.build"),
    Target("doa.document", "dumps17", "document.dumps", recursive=True),
    Target("doa.expr", "parse", None),
    Target("doa.expr", "evaluate", None, recursive=True),
    Target("doa.grid", "sample", "grid.sample"),
    Target("doa.operator", "compose", "operator.compose"),
    Target("doa.operator", "compress", "operator.compress"),
    Target("doa.elimination", "eliminate", "elimination.eliminate"),
    Target("doa.functional", "spectrum_scan", "functional.spectrum_scan"),
    Target("doa.functional", "power_traces", "functional.power_traces"),
    Target("doa.functional", "trace", "functional.trace"),
    Target("doa.functional", "trace_norm", "functional.trace_norm"),
)
LINALG = ("svd", "det", "inv", "cond")
ROOT = "cli.main"


@dataclass
class Span:
    name: str
    start: float
    thread: int
    parent: "Span | None"
    end: float = 0.0
    children: list = field(default_factory=list)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _total_width(op) -> int:
    return sum(t.width for t in op.terms.values())


def _after(name: str, args, kwargs, result) -> dict:
    """Counts attached to a finished span, read from its arguments and result."""
    if name == "grid.sample":
        return {"grid.sampled_values": result.data.size}
    if name == "operator.compose":
        return {"operator.compose_width_out": _total_width(result)}
    if name == "operator.compress":
        first = args[0] if args else next(iter(kwargs.values()))
        return {
            "operator.compress_width_in": _total_width(first),
            "operator.compress_width_out": _total_width(result),
        }
    if name == "elimination.eliminate":
        return {"elimination.noninvertible": int(type(result).__name__ == "NonInvertible")}
    return {}


class Tracer:
    """Records the spans and counts of one job while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self._hot = {t.module + "." + t.name: itertools.count() for t in TARGETS if t.span is None}
        self._lock = threading.Lock()
        self._stacks: dict[int, list[Span]] = {}
        self._home = threading.get_ident()
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> Span:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        parent = stack[-1] if stack else self._innermost(self._home)
        span = Span(name, _clock(), tid, parent)
        stack.append(span)
        return span

    def _close(self, span: Span):
        span.end = _clock()
        self._stacks[span.thread].pop()
        with self._lock:
            self.spans.append(span)
            if span.parent is not None:
                span.parent.children.append(span)

    def _innermost(self, tid: int) -> Span | None:
        stack = self._stacks.get(tid)
        return stack[-1] if stack else None

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            extra = _after(name, args, kwargs, result)
            if extra:
                with self._lock:
                    for key, value in extra.items():
                        self.counts[key] += value
                        self.maxima[key] = max(self.maxima[key], value)
            return result

        return wrapper

    def _count_wrapper(self, key: str, fn):
        counter = self._hot[key]

        def wrapper(*args, **kwargs):
            next(counter)  # atomic under the GIL, so safe on pool threads
            return fn(*args, **kwargs)

        return wrapper

    def _linalg_wrapper(self, name: str, fn):
        def wrapper(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                tid = threading.get_ident()
                span = self._innermost(tid) or self._innermost(self._home)
                layer = span.layer if span is not None else "none"
                with self._lock:
                    self.counts[f"{layer}.{name}_calls"] += 1
                    self.seconds[f"{layer}.{name}_s"] += dt

        return wrapper

    # -- installation --------------------------------------------------------

    def _set(self, obj, attr: str, value):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self):
        import doa

        modules = [
            importlib.import_module(f"doa.{info.name}")
            for info in pkgutil.iter_modules(doa.__path__)
        ]
        wrapped: dict[tuple[str, str], object] = {}
        for t in TARGETS:
            module = importlib.import_module(t.module)
            original = getattr(module, t.name, None)
            if original is None:
                continue
            key = t.module + "." + t.name
            wrapper = (
                self._span_wrapper(t.span, original)
                if t.span is not None
                else self._count_wrapper(key, original)
            )
            wrapped[(t.module, t.name)] = wrapper
            for caller in modules:
                if caller is module and t.recursive:
                    continue
                for attr, value in list(vars(caller).items()):
                    if value is original:
                        self._set(caller, attr, wrapper)
        # module aliases (``from . import expr as _expr``) get a namespace copy
        for caller in modules:
            for attr, value in list(vars(caller).items()):
                if isinstance(value, types.ModuleType):
                    names = {n: w for (m, n), w in wrapped.items() if m == value.__name__}
                    if names:
                        proxy = types.SimpleNamespace(**{**vars(value), **names})
                        self._set(caller, attr, proxy)
        for name in LINALG:
            self._set(np.linalg, name, self._linalg_wrapper(name, getattr(np.linalg, name)))

    def remove(self):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    # -- results -------------------------------------------------------------

    def hot_count(self, key: str) -> int:
        """Calls counted so far; reading advances the counter, so read once."""
        counter = self._hot.get(key)
        return next(counter) if counter is not None else 0


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def self_time(span: Span) -> float:
    inside = [
        (max(c.start, span.start), min(c.end, span.end))
        for c in span.children
        if c.end > span.start and c.start < span.end
    ]
    return (span.end - span.start) - _covered(inside)


LAYERS = ("document", "grid", "operator", "elimination", "functional", "cli")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced job (see README.md for each one).

    Times are shares of the job's wall time (the ``cli.main`` root span), so
    a layer the job never calls reads 0 rather than a time of 0 s.
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in tracer.spans:
        by_name[s.name].append(s)
    (root,) = by_name[ROOT]
    job_s = root.end - root.start

    def busy(name):
        return sum((s.end - s.start for s in by_name[name]), 0.0) / job_s

    def wall(name):
        return _covered([(s.start, s.end) for s in by_name[name]]) / job_s

    def calls(name):
        return len(by_name[name])

    c, t = tracer.counts, tracer.seconds
    out = {
        "document.load_share": busy("document.load"),
        "document.build_share": busy("document.build"),
        "document.build_wall_share": wall("document.build"),
        "document.build_calls": calls("document.build"),
        "document.dumps_share": busy("document.dumps"),
        "expr.parse_calls": tracer.hot_count("doa.expr.parse"),
        "expr.evaluate_calls": tracer.hot_count("doa.expr.evaluate"),
        "grid.sample_share": busy("grid.sample"),
        "grid.sample_wall_share": wall("grid.sample"),
        "grid.sample_calls": calls("grid.sample"),
        "grid.sampled_values": c["grid.sampled_values"],
        "operator.compose_share": busy("operator.compose"),
        "operator.compose_calls": calls("operator.compose"),
        "operator.compose_width_out_max": tracer.maxima["operator.compose_width_out"],
        "operator.compress_share": busy("operator.compress"),
        "operator.compress_calls": calls("operator.compress"),
        "operator.compress_width_in": c["operator.compress_width_in"],
        "operator.compress_width_out": c["operator.compress_width_out"],
        "operator.svd_calls": c["operator.svd_calls"],
        "operator.svd_share": t["operator.svd_s"] / job_s,
        "elimination.eliminate_share": busy("elimination.eliminate"),
        "elimination.eliminate_wall_share": wall("elimination.eliminate"),
        "elimination.eliminate_calls": calls("elimination.eliminate"),
        "elimination.det_calls": c["elimination.det_calls"],
        "elimination.inv_calls": c["elimination.inv_calls"],
        "elimination.cond_calls": c["elimination.cond_calls"],
        "elimination.cond_share": t["elimination.cond_s"] / job_s,
        "elimination.noninvertible_frac": (
            c["elimination.noninvertible"] / calls("elimination.eliminate")
            if by_name["elimination.eliminate"]
            else 0.0
        ),
        "functional.spectrum_scan_share": busy("functional.spectrum_scan"),
        "functional.power_traces_share": busy("functional.power_traces"),
        "functional.trace_share": busy("functional.trace"),
    }
    for layer in LAYERS:
        own = sum((self_time(s) for s in tracer.spans if s.layer == layer), 0.0)
        out[f"{layer}.self_share"] = own / job_s
    return out


def span_records(tracer: Tracer) -> list[dict]:
    """The spans of one job as plain records, in start order, for a trace file."""
    ordered = sorted(tracer.spans, key=lambda s: s.start)
    index = {id(s): i for i, s in enumerate(ordered)}
    t0 = ordered[0].start if ordered else 0.0
    return [
        {
            "name": s.name,
            "start_s": s.start - t0,
            "dur_s": s.end - s.start,
            "self_s": self_time(s),
            "parent": index.get(id(s.parent)),
            "thread": s.thread,
        }
        for s in ordered
    ]
