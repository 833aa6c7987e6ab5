"""Every hhalf attribute the benchmark binds by name must exist.

perfbench/ wraps functions by (module, name) and reads `_accel`
kernels by attribute.  Its own tests run outside this suite, so a
renamed or deleted function would otherwise break only a traced
benchmark run.
"""

import importlib
import importlib.util
import pathlib
import re

import hhalf

perfbench = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", perfbench / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    tracing = load_tracing()
    bound = list(tracing.SPANS.items()) + list(tracing.COUNTERS.items())
    assert bound
    for name, (home, attr) in bound:
        assert callable(getattr(importlib.import_module(home), attr, None)), name


def test_accel_names_exist():
    names = set()
    for script in ("reference.py", "run.py"):
        text = (perfbench / script).read_text()
        names.update(re.findall(r"\b_?accel\.([A-Za-z_]\w*)", text))
    assert {"NUMBA_AVAILABLE", "synth_at_reference", "douglas_pair_reference"} <= names
    for name in sorted(names):
        assert hasattr(hhalf._accel, name), name
