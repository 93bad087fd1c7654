"""The benchmark's per-layer tracer (perfbench/tracer.py) wraps library
functions at the module attributes named in its WRAPPED table.  A name that
no longer resolves is reported as missing there and its metrics vanish, so
every name must resolve here."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_wrapped_name_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPPED
    for module_name, attr, span_name, _ in tracer.WRAPPED:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{module_name}.{attr} (span {span_name}) is gone"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr} is not callable"
