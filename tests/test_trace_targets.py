"""The benchmark tracer's layer boundaries must exist in the package.

bench/trace_cli.py wraps each (module, qualname) in its TARGETS list and
only prints "not found; untraced" for a missing one, so a rename would
silently drop per-layer metrics.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACE_CLI = Path(__file__).resolve().parents[1] / "bench" / "trace_cli.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("trace_cli", TRACE_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("mod_name,qualname",
                         [(mod, qual) for mod, qual, _ in load_targets()])
def test_trace_target_resolves(mod_name, qualname):
    owner = importlib.import_module(f"sbrl.{mod_name}")
    for part in qualname.split("."):
        owner = getattr(owner, part, None)
        assert owner is not None, f"sbrl.{mod_name}.{qualname} not found"
    assert callable(owner)
