"""The benchmark's tracer (perfbench/spans.py) wraps library functions by
name, from its TRACED table of module -> function names.  A name that no
longer resolves on its home module would fail only in a traced benchmark
run, so every one is checked here.  spans.py is read, never imported as a
package module, so the test writes nothing under perfbench/."""

import importlib
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans() -> types.ModuleType:
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves_on_its_home_module():
    spans = load_spans()
    assert spans.TRACED
    for modname, functions in spans.TRACED.items():
        home = importlib.import_module(f"{spans.PACKAGE}.{modname}")
        for fname in functions:
            assert callable(getattr(home, fname, None)), f"{modname}.{fname}"
