"""Every call that the benchmark's tracer wraps still exists in the package.

``jobbench/tracing.py`` is loaded read-only from its file.  For each target
``(module, path)`` the name must resolve as ``Tracer.install`` resolves it:
the attribute path from the module, and the last name in its owner's own
``__dict__``, bound to a function.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "jobbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_jobbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(module_name, path) for module_name, path, *_ in module.TARGETS]


@pytest.mark.parametrize("module_name, path", _targets())
def test_trace_target_resolves_to_a_function(module_name, path):
    owner = importlib.import_module(f"hypermap_codes.{module_name}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert inspect.isfunction(owner.__dict__.get(attr)), f"{module_name}.{path}"
