"""Spans and counters recorded around riverdense's public functions.

The tracer patches module attributes from outside the package: each name is
wrapped where the caller looks it up (``riverdense.cli.read_gauge_csv``, not
``riverdense.preprocess.read_gauge_csv``), so nothing under ``src/`` changes.
Spans stay in memory and are reduced to self times after the workload ends.

A span's self time is its interval minus the union of its children's
intervals. Spans started on worker threads (``cmd_qc``'s pool) have no stack
of their own; their parent is the command that is running. Self intervals
are unioned per metric name, so concurrent calls of one function are counted
once, and per command the named self times partition the command's interval.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.gauge_paths: list[str] = []
        self.command: int | None = None  # span index of the running command
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def count(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[key] += amount

    def begin(self) -> tuple[int, int | None]:
        stack = self._stack()
        parent = stack[-1] if stack else self.command
        with self._lock:
            index = len(self.spans)
            self.spans.append(("", 0.0, 0.0, parent))
        stack.append(index)
        return index, parent

    def end(self, index: int, parent: int | None, name: str, t0: float, t1: float) -> None:
        self._stack().pop()
        self.spans[index] = (name, t0, t1, parent)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, module, attr: str, name: str, *, span: bool = True,
             suffix=None, after=None) -> None:
        """Replace ``module.attr`` with a recording wrapper.

        ``suffix(args, kwargs)`` extends the span name (graph_laplacian's
        mode); ``after(tracer, args, kwargs, result)`` records counters once
        the span has closed, so its own cost stays out of the callee's time.
        """
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.count(f"{name}.calls")
            if not span:
                return fn(*args, **kwargs)
            full = f"{name}.{suffix(args, kwargs)}" if suffix else name
            index, parent = self.begin()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index, parent, full, t0, time.perf_counter())
            if after is not None:
                after(self, args, kwargs, result)
            return result

        setattr(module, attr, traced)

    # -- reduction ---------------------------------------------------------

    def breakdown(self) -> list[dict]:
        """Per command span: inclusive seconds, and self seconds per name."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        root_of: list[int] = []
        for index, (_, t0, t1, parent) in enumerate(self.spans):
            if parent is None:
                root_of.append(index)
            else:
                children[parent].append((t0, t1))
                root_of.append(root_of[parent])

        self_ivs: dict[int, dict[str, list]] = defaultdict(lambda: defaultdict(list))
        for index, (name, t0, t1, _) in enumerate(self.spans):
            gaps = _subtract((t0, t1), _union(children[index]))
            self_ivs[root_of[index]][name].extend(gaps)

        commands = []
        for index, (name, t0, t1, parent) in enumerate(self.spans):
            if parent is not None:
                continue
            self_s = {key: _measure(_union(ivs)) for key, ivs in self_ivs[index].items()}
            commands.append({"name": name, "inclusive_s": t1 - t0, "self_s": self_s})
        return commands


def _union(intervals):
    merged = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return merged


def _subtract(interval, merged):
    lo, hi = interval
    gaps, cursor = [], lo
    for c_lo, c_hi in merged:
        if c_lo > cursor:
            gaps.append((cursor, min(c_lo, hi)))
        cursor = max(cursor, c_hi)
    if cursor < hi:
        gaps.append((cursor, hi))
    return gaps


def _measure(intervals) -> float:
    return sum(hi - lo for lo, hi in intervals)


# -- what gets wrapped -----------------------------------------------------

_MODULES = ("preprocess", "network", "adjacency", "resistance", "forecast")


def _file_bytes(arg: int, key: str):
    def after(tracer, args, kwargs, result):
        tracer.count(key, os.path.getsize(args[arg]))
    return after


def _qc_verdict(tracer, args, kwargs, result):
    tracer.count("preprocess.qc_station.passed", int(result.passed))


def _gauge_path(tracer, args, kwargs, result):
    tracer.gauge_paths.append(str(args[0]))


def install(tracer: Tracer) -> None:
    """Wrap every public riverdense function that ``cli`` calls, plus the
    inner lookups the per-layer metrics name."""
    import riverdense.cli as cli
    import riverdense.forecast as forecast
    import riverdense.preprocess as preprocess
    import riverdense.resistance as resistance

    after = {
        "read_gauge_csv": _gauge_path,
        "qc_station": _qc_verdict,
        "write_adjacency_csv": _file_bytes(1, "adjacency.write_adjacency_csv.bytes"),
        "read_adjacency_csv": _file_bytes(0, "adjacency.read_adjacency_csv.bytes"),
        "save_model": _file_bytes(1, "forecast.save_model.bytes"),
    }
    for attr, value in sorted(vars(cli).items()):
        module = getattr(value, "__module__", "") or ""
        short = module.rpartition(".")[2]
        if (attr.startswith("_") or not callable(value) or isinstance(value, type)
                or not module.startswith("riverdense.") or short not in _MODULES):
            continue
        tracer.wrap(cli, attr, f"{short}.{attr}", after=after.get(attr))

    # bypass_remove runs once per dropped station inside extract_subgraph;
    # it is counted, and its time stays in extract_subgraph's self time
    tracer.wrap(preprocess, "bypass_remove", "preprocess.bypass_remove", span=False)
    tracer.wrap(resistance, "graph_laplacian", "resistance.graph_laplacian",
                suffix=lambda args, kwargs: kwargs.get(
                    "mode", args[1] if len(args) > 1 else "symmetric"))
    tracer.wrap(resistance, "pairwise_resistances", "resistance.pairwise_resistances")
    tracer.wrap(forecast, "loss_and_gradients", "forecast.loss_and_gradients")
