"""Spans around the library's public functions, recorded from outside.

``Tracer.installed()`` replaces each traced public function with a
wrapper wherever a module of the package holds a reference to it, so
calls from one layer into another are recorded as well as the
benchmark's own calls; leaving the block puts the originals back.  No
library file is changed.  Spans (name, start, end, parent) are kept in
memory and turned into one integer table at the end.  While
``recording`` is set, each call's arguments are kept too, so that the
call can be replayed and timed untraced later.
"""

from __future__ import annotations

import contextlib
import itertools
import time

import numpy as np

import lambertw
from lambertw import accuracy, api, approx, branches, iteration, oracle, physics

# Span name -> (module that defines it, attribute).  The name's first
# part is the layer, i.e. the module of the package.
TRACED = {
    "branches.Branch": (branches, "Branch"),
    "api.dispatch_region": (api, "dispatch_region"),
    "api.lambert_w_approximation": (api, "lambert_w_approximation"),
    "api.lambert_w": (api, "lambert_w"),
    "approx.branch_point_series": (approx, "branch_point_series"),
    "approx.rational_fit_eval": (approx, "rational_fit_eval"),
    "approx.asymptotic_series": (approx, "asymptotic_series"),
    "approx.continued_log_recursion_wm1": (approx, "continued_log_recursion_wm1"),
    "iteration.fritsch_step": (iteration, "fritsch_step"),
    "iteration.defining_residual": (iteration, "defining_residual"),
    "iteration.halley_step": (iteration, "halley_step"),
    "oracle.reference_w": (oracle, "reference_w"),
    "accuracy.accuracy_sweep": (accuracy, "accuracy_sweep"),
    "physics.moyal_inverse": (physics, "moyal_inverse"),
    "physics.gh_inverse": (physics, "gh_inverse"),
}
# Modules whose references to traced functions are replaced.
MODULES = (lambertw, api, approx, accuracy, branches, iteration, oracle, physics)
# Calls whose arguments and results are kept while ``recording`` is set.
RECORDED = ("api.lambert_w", "api.lambert_w_approximation", "iteration.fritsch_step")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (span, name id, start ns, end ns, parent span)
        self.calls: dict[str, list] = {name: [] for name in RECORDED}
        self.arguments: dict[int, tuple] = {}  # span -> (args, kwargs), while recording
        self.originals: dict[str, object] = {}
        self.recording = False
        self._ids = itertools.count()
        self._stack = [-1]
        self._wrappers: dict = {}

    def __len__(self) -> int:
        return len(self.spans)

    def count(self, name: str) -> int:
        if name not in self.names:
            return 0
        nid = self.names.index(name)
        return sum(1 for span in self.spans if span[1] == nid)

    def recorded(self) -> dict[tuple[str, str], list]:
        """Recorded calls as (args, kwargs), grouped by (name, caller's name);
        the caller is "" for calls made by the benchmark itself."""
        table = self.table()
        groups: dict[tuple[str, str], list] = {}
        for idx, call in self.arguments.items():
            parent = table[idx, 3]
            caller = self.names[table[parent, 0]] if parent >= 0 else ""
            groups.setdefault((self.names[table[idx, 0]], caller), []).append(call)
        return groups

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around every call."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns
        calls = self.calls.get(name)
        arguments = self.arguments
        self.originals[name] = fn
        tracer = self

        def traced(*args, **kwargs):
            idx = next(ids)
            parent = stack[-1]
            stack.append(idx)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                result = exc
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((idx, nid, start, end, parent))
                if tracer.recording:
                    arguments[idx] = (args, kwargs)
                    if calls is not None:
                        calls.append((args, result))

        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def traced(self, fn, name: str | None = None):
        """The wrapper installed for ``fn``, or a new one named ``name``."""
        if fn in self._wrappers:
            return self._wrappers[fn]
        if name is None:
            return fn
        self._wrappers[fn] = self.wrap(name, fn)
        return self._wrappers[fn]

    @contextlib.contextmanager
    def installed(self):
        replaced = []
        try:
            for name, (module, attr) in TRACED.items():
                original = getattr(module, attr)
                wrapper = self.traced(original, name)
                if original is branches.Branch:
                    for member in original:  # Branch.PRINCIPAL etc. stay reachable
                        setattr(wrapper, member.name, member)
                for mod in MODULES:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            replaced.append((mod, key, original))
            yield self
        finally:
            for mod, key, original in reversed(replaced):
                setattr(mod, key, original)

    def table(self) -> np.ndarray:
        """Spans as rows (name id, start, end, parent), indexed by span id."""
        rows = np.array(self.spans, dtype=np.int64).reshape(-1, 5)
        table = np.empty((len(rows), 4), dtype=np.int64)
        table[rows[:, 0]] = rows[:, 1:]
        return table
