"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` replaces every public function of the package's modules
(those in each module's ``__all__``) and a few public methods with wrappers
that record one span per call: an id, the parent span's id, a name, the
start and end times and the round the call belongs to.  ``uninstall`` puts
the originals back, so traced and untraced rounds run the same code.  Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import inspect
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

MODULES = ("mesh", "fem", "flowfield", "sensing", "filters", "experiment")

# (module, class, method): public methods that carry layer work
METHODS = (
    ("sensing", "SensorNetwork", "build"),
    ("sensing", "SensorNetwork", "log_likelihood"),
    ("sensing", "SensorNetwork", "quantise"),
    ("experiment", "ModelProvider", "model_at"),
    ("fem", "DispersionModel", "augmented_transition"),
)

# private functions at a layer boundary: building the flow field
PRIVATE = (("experiment", "_build_flow"),)


class Tracer:
    """Records nested spans; one instance per benchmark run."""

    def __init__(self):
        self.spans: list = []      # (id, parent, name, start, end, round)
        self.round = -1
        self.ess_fractions: list = []   # (round, ESS / M) per RBPF step
        self.bytes_written: dict = defaultdict(int)   # round -> bytes
        self._stack: list = []
        self._patched: list = []

    # -- recording -------------------------------------------------------
    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((sid, parent, name, time.perf_counter(), None,
                           self.round))
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        sid_, parent, name, start, _, rnd = self.spans[sid]
        self.spans[sid] = (sid_, parent, name, start, end, rnd)

    def _wrap(self, name: str, fn, after=None):
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- observers -------------------------------------------------------
    def _after_normalise(self, args, kwargs, weights) -> None:
        weights = np.asarray(weights)
        ess = 1.0 / float(weights @ weights)
        self.ess_fractions.append((self.round, ess / weights.size))

    def _after_write(self, args, kwargs, result) -> None:
        path = kwargs.get("path", args[1] if len(args) > 1 else None)
        self.bytes_written[self.round] += Path(path).stat().st_size

    # -- installation ----------------------------------------------------
    def install(self, package) -> None:
        """Wrap the public functions and listed methods of ``package``."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for mod_name in MODULES:
            module = getattr(package, mod_name)
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn):
                    continue
                after = None
                if attr == "normalise_weights":
                    after = self._after_normalise
                elif mod_name == "experiment" and attr.startswith("write_"):
                    after = self._after_write
                self._patch(module, attr, fn,
                            self._wrap(f"{mod_name}.{attr}", fn, after))
        for mod_name, attr in PRIVATE:
            module = getattr(package, mod_name)
            fn = getattr(module, attr)
            self._patch(module, attr, fn, self._wrap(f"{mod_name}.{attr}", fn))
        for mod_name, cls_name, attr in METHODS:
            cls = getattr(getattr(package, mod_name), cls_name)
            raw = inspect.getattr_static(cls, attr)
            name = f"{mod_name}.{cls_name}.{attr}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            self._patch(cls, attr, raw, wrapped)

    def _patch(self, owner, attr, original, replacement) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- summaries -------------------------------------------------------
    def totals(self, rnd: int) -> dict:
        """Per-name ``(seconds, calls, self seconds)`` for one round."""
        child_time: dict = defaultdict(float)
        for sid, parent, name, start, end, r in self.spans:
            if r == rnd and parent >= 0:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: [0.0, 0, 0.0])
        for sid, parent, name, start, end, r in self.spans:
            if r != rnd:
                continue
            entry = out[name]
            entry[0] += end - start
            entry[1] += 1
            entry[2] += end - start - child_time[sid]
        return out

    def write(self, path) -> None:
        """Write every span as CSV: id, parent, name, start, end, round."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start,end,round\n")
            for sid, parent, name, start, end, rnd in self.spans:
                fh.write(f"{sid},{parent},{name},{start!r},{end!r},{rnd}\n")


def span_cost(calls: int = 5000, batches: int = 7) -> float:
    """Seconds that recording one span adds to a call.

    Times a wrapped no-op against the bare no-op, ``calls`` at a time, and
    returns the median batch difference divided by ``calls``.
    """
    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer._wrap("noop", noop)
    costs = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append(time.perf_counter() - start - bare)
        tracer.spans.clear()
    return statistics.median(costs) / calls
