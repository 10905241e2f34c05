"""Public API surface: the names the benchmark traces and the package
re-exports must keep resolving."""

import importlib
import inspect
import json
from pathlib import Path

import eurmem

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MODULES = ("apps", "bounds", "cli", "infoquant", "matops", "measure", "states")


def _module(short):
    return importlib.import_module(f"eurmem.{short}")


def test_per_layer_labels_are_public_functions():
    # benchmarks/run.py --trace 1 reports a per-layer metric only for a label
    # that names a public function of its module (or the DensityMatrix class).
    per_layer = json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]
    labels = {tuple(m["name"].split(".")[:2]) for m in per_layer}
    missing = []
    for short, name in sorted(labels):
        if short not in MODULES:
            continue
        if (short, name) == ("states", "DensityMatrix"):
            assert inspect.isclass(eurmem.states.DensityMatrix)
            continue
        fn = getattr(_module(short), name, None)
        if not (inspect.isfunction(fn) and fn.__module__ == f"eurmem.{short}"):
            missing.append(f"{short}.{name}")
    assert not missing, f"per-layer labels without a public function: {missing}"


def test_module_all_names_resolve():
    for short in MODULES:
        mod = _module(short)
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"eurmem.{short}.__all__ lists missing {name!r}"


def test_package_reexports_are_in_module_all():
    stray = []
    for name, value in vars(eurmem).items():
        if name.startswith("_") or inspect.ismodule(value):
            continue
        owner = getattr(value, "__module__", None)
        if owner is None or not owner.startswith("eurmem."):
            # Arrays and constants carry no owner; find the module that lists them.
            owners = [s for s in MODULES if getattr(_module(s), name, None) is value]
            if not any(name in getattr(_module(s), "__all__", ()) for s in owners):
                stray.append(name)
            continue
        if name not in getattr(importlib.import_module(owner), "__all__", ()):
            stray.append(f"{owner}.{name}")
    assert not stray, f"re-exported names missing from their module's __all__: {stray}"
