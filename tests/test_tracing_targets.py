"""The traced benchmark wraps reducto functions by name; a rename inside the
package must not silently break ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for home, function, _ in tracing.LAYER_TARGETS:
        module = importlib.import_module(f"reducto.{home}")
        assert callable(getattr(module, function, None)), f"reducto.{home}.{function}"
