"""Public API surface: the names the benchmark traces and the package
re-exports must keep resolving, the package's public names are exactly the
listed set, and the README's Python examples run."""

import ast
import importlib
import inspect
import json
import re
from pathlib import Path

import eurmem

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
MODULES = ("apps", "bounds", "cli", "infoquant", "matops", "measure", "states")

# Every public name of the ``eurmem`` package.  A change that adds or drops
# one edits this set and says so in CHANGES.md.
PUBLIC_NAMES = {
    # states
    "DensityMatrix", "Row", "StateStack", "StateValidationError", "bell_diagonal",
    "bell_diagonal_special", "family_stack", "from_spec", "maximally_mixed", "pure_schmidt",
    "pure_state", "to_spec", "validate", "werner", "x_state_special",
    # matops
    "I2", "PAULIS", "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "basis_ket", "hermitian_eigvals",
    "partial_trace", "projector", "tensor",
    # measure
    "ProjectiveObservable", "observable_from_basis", "observable_from_bloch",
    "observable_from_spec", "outcome_ensemble", "pauli_observable", "post_measurement_state",
    "q_mu", "q_prime",
    # infoquant
    "OptimizerConfig", "binary_entropy", "classical_correlation", "classical_correlation_stack",
    "holevo", "von_neumann_entropy",
    # bounds
    "actual_uncertainty", "bounds_report", "bounds_table", "closed_form_curves",
    # apps
    "applications_report", "applications_table", "helstrom_error", "witness",
}


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


def test_package_public_names_are_the_listed_set():
    public = {
        name for name, value in vars(eurmem).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == PUBLIC_NAMES, (
        f"added: {sorted(public - PUBLIC_NAMES)}, dropped: {sorted(PUBLIC_NAMES - public)}"
    )


def test_readme_python_examples_run():
    # The README's python blocks run in order in one namespace, and every
    # top-level comparison in them holds.
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)
    assert blocks
    namespace: dict = {}
    comparisons = 0
    for block in blocks:
        for node in ast.parse(block).body:
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Compare):
                expr = ast.Expression(node.value)
                assert eval(compile(expr, "README.md", "eval"), namespace), ast.unparse(node)
                comparisons += 1
            else:
                exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert comparisons
