"""The benchmark's traced mode wraps package functions by name; every name
it lists must exist, or `perfbench/run.py --trace 1` fails when it installs
its wrappers."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve():
    missing = []
    for module, path, _ in _load_tracing().TARGETS:
        mod = importlib.import_module("mckeanflow." + module)
        if "." in path:
            cls_name, attr = path.split(".")
            found = attr in vars(getattr(mod, cls_name, object))
        else:
            found = callable(getattr(mod, path, None))
        if not found:
            missing.append("%s.%s" % (module, path))
    assert not missing
