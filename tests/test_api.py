import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import morphsurf

SRC = Path(morphsurf.__file__).parent

# Top-level functions and classes that no other code in src/ names and that
# stay as the library's entry points: the paper's kinematic constraints, the
# single-cell law on its own, and the trace reader.
PUBLIC_ENTRY_POINTS = (
    "dof_count",
    "planar_completion",
    "read_trace_csv",
    "single_cell_feedback",
)

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
README = Path(__file__).resolve().parent.parent / "README.md"


def test_star_import_provides_every_exported_name():
    namespace = {}
    exec("from morphsurf import *", namespace)
    assert set(morphsurf.__all__) <= set(namespace)


def test_exports_are_sorted():
    assert morphsurf.__all__ == sorted(morphsurf.__all__)


def module_aliases(tree: ast.Module) -> set[str]:
    """The names under which a module of src/morphsurf imports its sibling
    modules (``from . import engine, scenario as sio``)."""
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
        for alias in node.names
    }


def names_used(node: ast.AST, modules: set[str]) -> set[str]:
    """The top-level names ``node`` reads: bare names, and attributes of a
    morphsurf module named in ``modules`` (``engine.run``).  An attribute of
    anything else (``metrics.convergence_time``) names no top-level
    definition, and neither does a name that is only assigned, such as a
    dataclass field."""
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(getattr(sub, "ctx", None), ast.Load)
        and (isinstance(sub, ast.Name)
             or isinstance(sub, ast.Attribute)
             and isinstance(sub.value, ast.Name)
             and sub.value.id in modules)
    }


def test_every_definition_is_used_in_src_or_an_entry_point():
    """A top-level function or class of src/morphsurf (``__init__.py``
    aside) is used by code outside its own definition, as a bare name or as
    an attribute of a morphsurf module, or it is listed in
    PUBLIC_ENTRY_POINTS."""
    defined, named = [], set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        modules = module_aliases(tree)
        for top in tree.body:
            own = getattr(top, "name", None)  # functions and classes
            if own is not None:
                defined.append((path.stem, own))
            named |= names_used(top, modules) - {own}
    unused = [f"{module}.{name}" for module, name in defined
              if name not in named and name not in PUBLIC_ENTRY_POINTS]
    assert unused == []
    assert set(PUBLIC_ENTRY_POINTS) <= {name for _, name in defined} - named


def test_instance_attributes_do_not_count_as_uses():
    # a RunMetrics field of the same name as a top-level function does not
    # keep that function alive
    tree = ast.parse("from . import engine as e\n"
                     "class M:\n    compute_metrics: float\n"
                     "def f(m):\n    return m.run, e.batch, seed_sweep\n")
    modules = module_aliases(tree)
    assert modules == {"e"}
    assert names_used(tree.body[1], modules) == {"float"}
    assert names_used(tree.body[2], modules) == {"m", "e", "batch", "seed_sweep"}


def benchmark_spans() -> dict:
    """The SPANS table of perfbench/layers.py, read from its source: layer
    name to the (module, function) of morphsurf that the benchmark wraps."""
    for node in ast.parse(LAYERS.read_text()).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == ["SPANS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPANS table in {LAYERS}")


# Benchmark spans whose function the program no longer has: each reads 0
# until perfbench/layers.py drops it.
RETIRED_SPANS = ("control.occupancy",)


def test_every_benchmark_span_wraps_a_function():
    # the benchmark skips a function it cannot find, so a renamed one would
    # read 0 in its per-layer metrics with no error; only a retired span's
    # function is gone
    spans = benchmark_spans()
    assert spans
    for name, (module, function) in spans.items():
        fn = getattr(importlib.import_module(f"morphsurf.{module}"), function, None)
        if name in RETIRED_SPANS:
            assert fn is None, f"{name} is retired but morphsurf.{module}.{function} exists"
        else:
            assert callable(fn), name
    # layers.Tracer counts objects as the size of advance's first argument
    # and substeps from its substeps parameter
    advance = importlib.import_module("morphsurf.dynamics").advance
    params = list(inspect.signature(advance).parameters)
    assert params[0] == "x" and "substeps" in params


def checked_dataclasses() -> list[type]:
    """The dataclasses of src/morphsurf whose own code calls check_fields."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"morphsurf.{path.stem}")
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.ClassDef) and "check_fields" in names_used(top, set()):
                cls = getattr(module, top.name)
                assert dataclasses.is_dataclass(cls), top.name
                found.append(cls)
    return found


def test_every_field_kind_is_in_use():
    # a kind of surface._KINDS that no checked field is annotated with is
    # dead code in checked and check_fields
    surface = importlib.import_module("morphsurf.surface")
    classes = checked_dataclasses()
    assert {"SurfaceConfig", "SingleCellGains", "Scenario"} <= {c.__name__ for c in classes}
    used = {f.type for cls in classes for f in dataclasses.fields(cls)}
    assert set(surface._KINDS) <= used


def test_readme_python_examples_run():
    # the ```python blocks, in order and in one namespace, as a reader would
    # paste them; the library use block converges at 96.7 s
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) >= 3
    namespace: dict = {}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k + 1}", "exec"), namespace)
    assert namespace["metrics"].convergence_time == 96.7
