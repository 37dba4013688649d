import ast
import importlib
import inspect
from pathlib import Path

import morphsurf

SRC = Path(morphsurf.__file__).parent

# Top-level functions and classes that no other code in src/ names and that
# stay as the library's entry points: the paper's kinematic constraints, the
# single-cell law on its own, and the trace reader.  (Each must be unnamed in
# src/: convergence_time is not listed, since RunMetrics has an attribute of
# that name.)
PUBLIC_ENTRY_POINTS = (
    "dof_count",
    "planar_completion",
    "read_trace_csv",
    "single_cell_feedback",
)

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def test_star_import_provides_every_exported_name():
    namespace = {}
    exec("from morphsurf import *", namespace)
    assert set(morphsurf.__all__) <= set(namespace)


def test_exports_are_sorted():
    assert morphsurf.__all__ == sorted(morphsurf.__all__)


def test_every_definition_is_used_in_src_or_an_entry_point():
    """A top-level function or class of src/morphsurf (``__init__.py``
    aside) is named, as a Name or an Attribute, by code outside its own
    definition, or it is listed in PUBLIC_ENTRY_POINTS."""
    defined, named = [], set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)  # functions and classes
            if own is not None:
                defined.append((path.stem, own))
            named |= {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(top)
                if isinstance(node, (ast.Name, ast.Attribute))
            } - {own}
    unused = [f"{module}.{name}" for module, name in defined
              if name not in named and name not in PUBLIC_ENTRY_POINTS]
    assert unused == []
    assert set(PUBLIC_ENTRY_POINTS) <= {name for _, name in defined} - named


def benchmark_spans() -> dict:
    """The SPANS table of perfbench/layers.py, read from its source: layer
    name to the (module, function) of morphsurf that the benchmark wraps."""
    for node in ast.parse(LAYERS.read_text()).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == ["SPANS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPANS table in {LAYERS}")


def test_every_benchmark_span_wraps_a_function():
    # the benchmark skips a function it cannot find, so a renamed one would
    # read 0 in its per-layer metrics with no error
    spans = benchmark_spans()
    assert spans
    for name, (module, function) in spans.items():
        fn = getattr(importlib.import_module(f"morphsurf.{module}"), function, None)
        assert callable(fn), name
    # layers.Tracer counts objects as the size of advance's first argument
    # and substeps from its substeps parameter
    advance = importlib.import_module("morphsurf.dynamics").advance
    params = list(inspect.signature(advance).parameters)
    assert params[0] == "x" and "substeps" in params
