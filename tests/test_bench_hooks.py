"""The benchmark tracer's hook points must exist in the package.

The tracer wraps pdnet callables by attribute and reports a layer's
metrics as null when a hook point is gone, so a rename would otherwise
only show up as missing benchmark numbers.
"""

import importlib.util
from pathlib import Path


def test_benchmark_hook_points_resolve():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module}.{attr}"
               for points in tracer.HOOKS.values() for module, attr in points
               if getattr(tracer._resolve(module), attr, None) is None]
    assert missing == []
