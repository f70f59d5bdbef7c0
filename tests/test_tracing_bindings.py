"""The benchmark's traced run binds wrappers to names inside domcore modules.

bench/tracing.py lists them in BINDINGS and looks each one up without a
default, so a name dropped from a module's imports only fails when the
traced benchmark runs.  This test makes it fail here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _bindings() -> dict[str, dict[str, str]]:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BINDINGS


def test_every_traced_name_resolves():
    for caller, names in _bindings().items():
        module = importlib.import_module(f"domcore.{caller}")
        for name, layer in names.items():
            defining = importlib.import_module(f"domcore.{layer}")
            assert getattr(module, name) is getattr(defining, name), f"domcore.{caller}.{name}"
