"""The benchmark's traced run wraps lithovid functions by module and name.

perfbench is not part of this suite, so a refactor that moves one of
those call sites would otherwise pass here and only break the traced
benchmark run. This loads the benchmark's span table and checks that
every target still resolves and is put back after the trace.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_and_is_restored():
    spans = load_spans()
    owners = [spans._resolve(module, path) for _, module, path, _ in spans.TARGETS]
    before = [vars(owner)[attr] for owner, attr in owners]
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = [vars(owner)[attr] for owner, attr in owners]
    finally:
        tracer.uninstall()
    assert all(w is not b for w, b in zip(wrapped, before))
    assert [vars(owner)[attr] for owner, attr in owners] == before
