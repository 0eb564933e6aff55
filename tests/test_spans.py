"""The benchmark's trace wrappers find every binding they name.

`perfbench/spans.py` replaces package bindings by (module, attribute); a
binding the package drops shows up only in a traced benchmark run.  This
loads spans.py by path, writing no bytecode next to it, and resolves each
binding on the package.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from spinnet.radical import Radical

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_binding_exists(monkeypatch):
    spans = _load_spans(monkeypatch)
    bindings = [b for table in (spans.SPANS, spans.COUNTERS) for bs in table.values() for b in bs]
    assert len(bindings) > 20
    missing = []
    for owner_name, attr in bindings:
        owner = Radical if owner_name == "Radical" else importlib.import_module(f"spinnet.{owner_name}")
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{owner_name}.{attr}")
    assert missing == []
