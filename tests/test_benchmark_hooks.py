"""The benchmark's traced runs wrap library functions by name
(`perfbench/worker.py`, table `LAYER_CALLS`).  A renamed or deleted function
breaks only those runs, so each name is checked here."""

import importlib.util
from pathlib import Path

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def test_every_wrapped_layer_call_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    entries = [entry for calls in worker.LAYER_CALLS.values() for entry in calls]
    assert entries
    missing = [
        f"{module.__name__}.{name}"
        for module, name, _span, _counts in entries
        if not callable(getattr(module, name, None))
    ]
    assert missing == []
