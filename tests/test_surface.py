"""The package's public surface: the names the benchmark's tracer wraps,
and the names retired from the package."""

import ast
import importlib
from pathlib import Path

import pytest

import qflow
from qflow.checks import CHECK_NAMES

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

RETIRED = ("QPoint", "Matching", "make_qpoint", "matching_distance",
           "sorted_embedding", "branch_mean_field", "read_snapshot_csv")


def layer_functions():
    """`LAYER_FUNCTIONS` of the tracer, read from its source without
    importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["LAYER_FUNCTIONS"]):
            return ast.literal_eval(node.value)
    raise AssertionError("no LAYER_FUNCTIONS assignment in the tracer")


def test_every_traced_function_is_a_callable_of_its_module():
    """The tracer wraps each of these by name when it installs; a name
    missing here would fail only a traced benchmark run."""
    layers = layer_functions()
    assert layers
    for layer, names in layers.items():
        module = importlib.import_module(f"qflow.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"qflow.{layer}.{name}"
    for name in CHECK_NAMES:
        assert callable(getattr(qflow.checks, "check_" + name, None)), name


@pytest.mark.parametrize("module", ["qflow", "qflow.qspace", "qflow.grid"])
def test_retired_names_are_gone(module):
    mod = importlib.import_module(module)
    for name in RETIRED:
        assert not hasattr(mod, name), f"{module}.{name}"
        assert name not in getattr(mod, "__all__", ())


def test_package_exports_exactly_its_layers_names():
    """`qflow.__all__` is each layer's `__all__` and the two check names,
    each written once, every name the object of its module."""
    layers = (qflow.qspace, qflow.grid, qflow.morseflow, qflow.oracle)
    names = qflow.__all__
    assert len(names) == len(set(names))
    assert set(names) == {"__version__", "CHECK_NAMES", "CheckResult"}.union(
        *(layer.__all__ for layer in layers))
    for layer in (*layers, qflow.checks):
        for name in set(layer.__all__) & set(names):
            assert getattr(qflow, name) is getattr(layer, name), name


def test_check_module_exports_one_function_per_check_name():
    names = qflow.checks.__all__
    assert len(names) == len(set(names))
    assert set(names) == {"CheckResult", "CHECK_NAMES", "evaluate",
                          *("check_" + name for name in CHECK_NAMES)}


def test_optimal_matching_stays_importable():
    from qflow.qspace import optimal_matching

    assert qflow.optimal_matching is optimal_matching
    assert "optimal_matching" in qflow.__all__
    assert "optimal_matching" in qflow.qspace.__all__
