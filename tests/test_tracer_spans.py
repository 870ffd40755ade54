"""The benchmark tracer's span table against the package.

``perfbench/tracer.py`` wraps library functions by name when a run asks
for a trace.  A rename or deletion in the library would break only traced
runs, so every name in its tables is resolved here, the way ``install``
looks it up.  The tracer file is only read.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_resolves_in_the_package():
    tracer = _tracer()
    missing = []
    for layer, name, owner_path, attr in tracer.SPANS:
        module_name, _, class_name = owner_path.partition(".")
        owner = importlib.import_module(f"coheyting.{module_name}")
        if class_name:
            owner = getattr(owner, class_name, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{layer}.{name}: {owner_path}.{attr}")
    assert missing == []
    assert tracer.SPANS


def test_every_traced_checker_is_registered():
    tracer = _tracer()
    checkers = importlib.import_module("coheyting.suites").CHECKERS
    assert [name for name in tracer.CHECKERS if name not in checkers] == []
    assert tracer.CHECKERS
