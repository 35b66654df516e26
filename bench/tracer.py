"""Span tracer that wraps hpflow's public functions from outside the package.

`Tracer.install()` replaces every public function defined in an hpflow
module by a recording wrapper, in every hpflow module namespace that binds
it: a from-import such as `soliton_flows.make_state` binds the same object
as `biham_ops.make_state`, and both names get the one wrapper.
`Tracer.uninstall()` puts the original objects back.  Calls made through a
name bound before `install()` (a local alias, a dict of functions) are not
seen.

Each call records one span `(name id, start, end, parent span, op id)`;
the benchmark opens one root span per op with `Tracer.op()`.  A span's self
time is its duration minus the durations of its direct children, which
never overlap because the program is single-threaded.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time

import numpy as np

ROOT = "op"
PACKAGE = "hpflow"


class Tracer:
    def __init__(self):
        self.names = [ROOT]
        self.spans = []
        self._stack = [-1]
        self._op = -1
        self._saved = []

    # -- wrappers ------------------------------------------------------------

    def _modules(self):
        return [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def _traceable(self, obj) -> bool:
        return (
            inspect.isfunction(obj)
            and obj.__module__.startswith(PACKAGE + ".")
            and obj.__name__.isidentifier()
            and not obj.__name__.startswith("_")
        )

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for module in self._modules():
            for attr, obj in list(vars(module).items()):
                if not self._traceable(obj):
                    continue
                if obj not in wrappers:
                    layer = obj.__module__.rsplit(".", 1)[1]
                    wrappers[obj] = self._wrap(obj, f"{layer}.{obj.__name__}")
                self._saved.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])

    def uninstall(self):
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def bound_functions(self) -> dict:
        """Every (module, attribute) bound to a traceable function, by identity."""
        return {
            (module.__name__, attr): obj
            for module in self._modules()
            for attr, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__.startswith(PACKAGE)
        }

    def _wrap(self, fn, name: str):
        key = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (key, start, end, parent, tracer._op)

        return traced

    # -- ops and spans -------------------------------------------------------

    @contextlib.contextmanager
    def op(self):
        """Root span around one benchmark op; library spans nest under it."""
        if self._stack != [-1]:
            raise RuntimeError("ops do not nest")
        self._op += 1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (0, start, end, -1, self._op)

    def reset(self):
        del self.spans[:]
        self._op = -1

    def table(self) -> dict:
        """Span columns as arrays: key, start, end, parent, op, self time."""
        arr = np.array(self.spans, dtype=float).reshape(-1, 5)
        key = arr[:, 0].astype(np.int64)
        parent = arr[:, 3].astype(np.int64)
        dur = arr[:, 2] - arr[:, 1]
        child = np.zeros(len(dur))
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return {
            "key": key,
            "start": arr[:, 1],
            "end": arr[:, 2],
            "parent": parent,
            "op": arr[:, 4].astype(np.int64),
            "self": dur - child,
        }

    def summary(self) -> dict:
        """Per function name: calls and total self time."""
        t = self.table()
        n = len(self.names)
        calls = np.bincount(t["key"], minlength=n)
        self_s = np.bincount(t["key"], weights=t["self"], minlength=n)
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }

    def calls_within(self, names, ancestor: str) -> int:
        """Calls of `names` that run inside a call of `ancestor`."""
        wanted = {self.names.index(n) for n in names if n in self.names}
        if ancestor not in self.names:
            return 0
        anc = self.names.index(ancestor)
        inside = []
        count = 0
        for key, _, _, parent, _ in self.spans:
            flag = parent >= 0 and (inside[parent] or self.spans[parent][0] == anc)
            inside.append(flag)
            if flag and key in wanted:
                count += 1
        return count
