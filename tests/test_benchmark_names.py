"""The benchmark reaches into the package by name: the traced run's span
tracer wraps functions and methods listed in `benchmarks/spans.py`, and
silently skips a name it does not find, and the stage table in
`benchmarks/stages.py` calls module functions and model methods. Every such
name exists in the package, but for one known list."""
import ast
import importlib.util
from pathlib import Path

from devdan import dae, model, monitors, streams

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
MODULES = {"dae": dae, "monitors": monitors, "streams": streams, "model": model}
MODELS = ("m", "frozen")  # the names stages.py gives a DevdanModel
# the numpy step's structural edits, listed in spans.py by the names they had
# before DevdanModel._grow and _prune took them over (ROADMAP item 1)
EXPECTED_MISSING = {"dae.grow_node_generative", "dae.grow_node_xavier", "dae.prune_node"}


def spans_names():
    """(shown name, owner, attribute) of every function and method spans.py wraps."""
    spec = importlib.util.spec_from_file_location("spans", BENCHMARKS / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for owner, attr, *_ in spans._FUNCTIONS:
        yield f"{owner.__name__.rpartition('.')[2]}.{attr}", owner, attr
    for cls, attr, *_ in spans._METHODS:
        yield f"{cls.__name__}.{attr}", cls, attr


def stages_names():
    """(shown name, owner, attribute) of every module attribute stages.py
    reads from MODULES and every method it calls on a model."""
    for node in ast.walk(ast.parse((BENCHMARKS / "stages.py").read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in MODULES:
            yield f"{node.value.id}.{node.attr}", MODULES[node.value.id], node.attr
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and isinstance(node.func.value, ast.Name) and node.func.value.id in MODELS:
            yield f"DevdanModel.{node.func.attr}", model.DevdanModel, node.func.attr


def test_every_name_the_benchmark_reaches_exists():
    names = {*spans_names(), *stages_names()}
    shown = {name for name, _, _ in names}
    assert {"DevdanModel._grow_generative", "DevdanModel._grow_discriminative",
            "DevdanModel._prune", "monitors.should_grow", "model.DevdanModel"} <= shown
    assert len(shown) > 40
    assert {name for name, owner, attr in names if not hasattr(owner, attr)} == EXPECTED_MISSING
