"""Span tracing of the program's public functions, installed from outside.

``Tracer.install`` wraps every public function and public method defined in
the ``tradelab`` modules. Each function is replaced wherever it is looked
up: in the module that defines it and in every module that imported it by
name (``tradelab.agents.td3.forward`` is the same function object as
``tradelab.neuralnet.forward``, and td3 calls its own binding), and methods
are replaced on their class. Every call records one span (name, start, end,
parent) in memory; statistics are derived after the traced call ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

PERCENTILE_MIN_CALLS = 1000


def self_times(starts, ends, parents) -> np.ndarray:
    """Each span's duration minus the part of its interval its children cover.

    Siblings never overlap in a single-threaded call tree, so the covered
    part is the sum of the children's intervals clipped to the parent's.
    """
    starts, ends = np.asarray(starts, dtype=np.float64), np.asarray(ends, dtype=np.float64)
    parents = np.asarray(parents, dtype=np.int64)
    child = np.flatnonzero(parents >= 0)
    p = parents[child]
    clipped = np.minimum(ends[child], ends[p]) - np.maximum(starts[child], starts[p])
    covered = np.bincount(p, weights=np.maximum(clipped, 0.0), minlength=len(starts))
    return (ends - starts) - covered


def _matmul_macs(net) -> int:
    dims = net.layer_dims
    return sum(a * b for a, b in zip(dims, dims[1:]))


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    return 1 if shape is None or len(shape) < 2 else int(shape[0])


class Tracer:
    """Spans and counters for one traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.errors = 0
        self.module_of: dict[str, str] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str, module: str | None) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            if module is not None:
                self.module_of[name] = module
        return nid

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn, name: str, module: str | None = None, on_call=None):
        """``fn`` recording one span per call under ``name``.

        ``module`` adds the span's self time to ``<module>.self_s``;
        ``on_call(tracer, args, kwargs)`` updates counters.
        """
        nid = self._name_id(name, module)
        stack, clock = self._stack, self.clock
        span_name, span_start = self.span_name, self.span_start
        span_end, span_parent = self.span_end, self.span_parent

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                try:
                    on_call(self, args, kwargs)
                except Exception:  # a tracer fault must not change the traced program
                    self.errors += 1
            idx = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1] if stack else -1)
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                span_start[idx] = start
                span_end[idx] = end
                if stack and stack[-1] == idx:
                    stack.pop()
                else:
                    self.errors += 1

        return traced

    def wrap_evaluate_policy(self, fn, name: str, module: str):
        """``harness.evaluate_policy`` under two span names: the passes made for
        checkpoint selection (strategy ``"validation"``) go to ``<name>.validation``."""
        test = self.wrap(fn, name, module)
        validation = self.wrap(fn, f"{name}.validation", module)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            strategy = args[3] if len(args) > 3 else kwargs.get("strategy")
            return (validation if strategy == "validation" else test)(*args, **kwargs)

        return traced

    def patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched.clear()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and method of the imported tradelab modules."""
        modules = {n: m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "tradelab" or n.startswith("tradelab."))}
        prefix = "tradelab."
        wrapped: dict[int, object] = {}
        for mod_name, module in modules.items():
            short = mod_name[len(prefix):] if mod_name != "tradelab" else mod_name
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod_name:
                    continue
                if inspect.isfunction(obj):
                    name = f"{short}.{attr}"
                    if name == "harness.evaluate_policy":
                        wrapped[id(obj)] = self.wrap_evaluate_policy(obj, name, short)
                    else:
                        wrapped[id(obj)] = self.wrap(obj, name, short, _COUNTERS.get(name))
                elif inspect.isclass(obj):
                    self._install_class(obj, short, f"{short}.{attr}")
        # replace every binding of a wrapped function, wherever it is looked up
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self.patch(module, attr, wrapped[id(obj)])

    def _install_class(self, cls, module: str, qualname: str) -> None:
        for attr, raw in sorted(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{qualname}.{attr}"
            on_call = _COUNTERS.get(name)
            if isinstance(raw, (classmethod, staticmethod)):
                self.patch(cls, attr, type(raw)(self.wrap(raw.__func__, name, module, on_call)))
            elif inspect.isfunction(raw):
                self.patch(cls, attr, self.wrap(raw, name, module, on_call))

    # -- statistics --------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Flat ``<span>.<stat>`` metrics plus the counters.

        p50/p99 are nearest-rank percentiles of the per-call duration,
        children included, for spans with at least 1,000 calls.
        """
        names = np.frombuffer(self.span_name, dtype=np.int32)
        durations = (np.frombuffer(self.span_end, dtype=np.float64)
                     - np.frombuffer(self.span_start, dtype=np.float64))
        selfs = self_times(self.span_start, self.span_end, self.span_parent)
        calls = np.bincount(names, minlength=len(self.names))
        self_sum = np.bincount(names, weights=selfs, minlength=len(self.names))
        order = np.argsort(names, kind="stable")
        bounds = np.concatenate([[0], np.cumsum(calls)])
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[nid])
            out[f"{name}.self_s"] = float(self_sum[nid])
            module = self.module_of.get(name)
            if module is not None:
                out[f"{module}.self_s"] = out.get(f"{module}.self_s", 0.0) + float(self_sum[nid])
            if calls[nid] >= PERCENTILE_MIN_CALLS:
                ds = durations[order[bounds[nid]:bounds[nid + 1]]]
                p50, p99 = np.percentile(ds, (50, 99), method="inverted_cdf")
                out[f"{name}.p50_us"] = float(p50) * 1e6
                out[f"{name}.p99_us"] = float(p99) * 1e6
        out.update(self.counters)
        out["trace.errors"] = self.errors + len(self._stack)  # spans still open count too
        return out


# -- per-function work counters ---------------------------------------------

def _count_forward(tracer, args, kwargs):
    net, x = args[0], args[1] if len(args) > 1 else kwargs["x"]
    rows = _rows(x)
    tracer.count("neuralnet.forward.rows", rows)
    tracer.count("neuralnet.macs", rows * _matmul_macs(net))


def _count_backward(tracer, args, kwargs):
    net, x = args[0], args[1] if len(args) > 1 else kwargs["x"]
    rows = _rows(x)
    tracer.count("neuralnet.backward.rows", rows)
    # the weight and input gradients are two matmuls per layer; the forward
    # pass that backward repeats internally is not counted as useful work
    tracer.count("neuralnet.macs", 2 * rows * _matmul_macs(net))


def _count_sample(tracer, args, kwargs):
    batch = args[1] if len(args) > 1 else kwargs["batch_size"]
    tracer.count("agents.replay.ReplayBuffer.sample.rows", batch)


_COUNTERS = {
    "neuralnet.forward": _count_forward,
    "neuralnet.backward": _count_backward,
    "agents.replay.ReplayBuffer.sample": _count_sample,
}
