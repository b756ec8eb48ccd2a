"""The benchmark wraps solver names from outside (`perfbench/spans.py`).

A renamed or deleted hook target would only show as a HookError in a
benchmark run; this test catches it in the unit suite, in well under a second.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_hook_resolves_to_a_callable():
    spans = load_spans()
    missing = [f"{target}.{attr}" for target, attr, _ in spans.TARGETS
               if not callable(getattr(spans.resolve(target), attr, None))]
    assert not missing, f"benchmark hooks missing from the solver: {missing}"
