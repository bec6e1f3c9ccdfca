"""The benchmark's tracer wraps ``cellsched`` functions by name.

``perfbench/run.py --trace 1`` fails when one of them is renamed or deleted,
and no other test imports the tracer, so this checks every name it wraps.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for mod_name, fn_name in tracer.TRACED:
        module = importlib.import_module(f"cellsched.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"cellsched.{mod_name}.{fn_name}"
