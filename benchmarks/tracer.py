"""Spans around the public calls of ``eurmem``, recorded from outside it.

``Tracer.install`` wraps every public function defined in the traced
modules and puts the wrapper into every ``eurmem`` module namespace that
holds the original, so calls between modules (``holevo`` inside ``bounds``
and ``apps``, ``partial_trace`` inside ``states``) are recorded too.
``DensityMatrix`` is traced through its ``__init__`` so that ``isinstance``
checks keep working.  ``uninstall`` puts every original back.

A span is (op, name, start, end, parent, failed); spans stay in memory
until ``write`` is called at the end of the run.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import inspect
import sys
import time

TRACED_MODULES = ("states", "matops", "measure", "infoquant", "bounds", "apps", "cli")
_CLI_FUNCTIONS = ("main",)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = -1
        self.correlation_calls: list[tuple[int, int, float]] = []
        self.labels: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self):
        originals = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"eurmem.{short}"]
            names = _CLI_FUNCTIONS if short == "cli" else _public_functions(mod)
            for name in names:
                originals[id(getattr(mod, name))] = f"{short}.{name}"
        self.labels = set(originals.values()) | {"states.DensityMatrix"}
        wrappers = {}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "eurmem" or mod_name.startswith("eurmem.")):
                continue
            for attr, value in list(vars(mod).items()):
                label = originals.get(id(value))
                if label is None:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(value, label)
                self._undo.append((mod, attr, value))
                setattr(mod, attr, wrappers[id(value)])
        density = sys.modules["eurmem.states"].DensityMatrix
        self._undo.append((density, "__init__", density.__init__))
        density.__init__ = self._wrap(density.__init__, "states.DensityMatrix")

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _wrap(self, fn, label):
        spans, stack = self.spans, self._stack
        observe = self._observe_correlation if label == "infoquant.classical_correlation" else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                spans[index] = (self.op, label, start, end, parent, not ok)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe_correlation(self, args, kwargs, report):
        """Optimizer trace fields, from the public config and CorrelationReport."""
        config = args[1] if len(args) > 1 else kwargs.get("config")
        if config is None:
            config = sys.modules["eurmem.infoquant"].OptimizerConfig()
        self.correlation_calls.append(
            (config.grid_theta * config.grid_phi, report.iterations, report.refined_best - report.grid_best)
        )

    # -- results ------------------------------------------------------------

    def layer_totals(self):
        """label -> [calls, self seconds, failures], for every traced label."""
        child_time = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {label: [0, 0.0, 0] for label in self.labels}
        for k, (_, name, start, end, _, failed) in enumerate(self.spans):
            entry = totals[name]
            entry[0] += 1
            entry[1] += (end - start) - child_time[k]
            entry[2] += int(failed)
        return totals

    def write(self, path):
        """One line per span: op, name, start_ns, end_ns, parent, failed."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,name,start_ns,end_ns,parent,failed\n")
            for op, name, start, end, parent, failed in self.spans:
                fh.write(f"{op},{name},{int(start * 1e9)},{int(end * 1e9)},{parent},{int(failed)}\n")


def _public_functions(mod):
    return [
        name
        for name, value in vars(mod).items()
        if not name.startswith("_") and inspect.isfunction(value) and value.__module__ == mod.__name__
    ]
