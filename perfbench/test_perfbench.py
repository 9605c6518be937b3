"""Tests of the benchmark itself, at a tiny size.

    PYTHONPATH=src python3 -m pytest -q perfbench

Each workload runs once, traced, with a few one-second videos. The tests
check that every metric named in BENCHMARK.json is produced, that every
traced name records calls, and that the output checks catch bad output.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "clean-cohort-oracle": workloads.Sizes(per_class=1, duration=1.0, stills=2, cal_stills=0),
    "hd30-chroma": workloads.Sizes(per_class=1, duration=1.0, stills=2, cal_stills=2),
    "adversarial-ablation": workloads.Sizes(per_class=1, duration=2.0, stills=2, cal_stills=0),
}


@pytest.fixture(scope="module", params=sorted(TINY))
def traced_run(request):
    name = request.param
    w = dataclasses.replace(workloads.WORKLOADS[name], sizes=TINY[name])
    return name, run.run_benchmark(name, seed=3, seconds=0.1, trace=True, root=ROOT, w=w)


def test_run_is_correct(traced_run):
    name, out = traced_run
    assert out["problems"] == []
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 5


def test_every_metric_is_produced(traced_run):
    name, out = traced_run
    for section in ("end_to_end", "per_layer"):
        names = {m["name"] for m in BENCHMARK[section]}
        assert names <= set(out["values"][section]), (name, section)
    assert out["values"]["end_to_end"]["completed_frac"] == 1.0


def test_workload_layers_do_work(traced_run):
    """Where a layer runs, its work counts are positive and exact."""
    name, out = traced_run
    v = out["values"]["per_layer"]
    assert v["segmentation.segment.calls_per_stream_frame"] == (
        2 if name == "adversarial-ablation" else 1)
    assert v["video_io.normalize_video.calls_per_video"] == (
        3 if name == "adversarial-ablation" else 1)
    assert v["classify.features.calls_per_stream_frame"] > 0
    assert v["classify.model_load.calls_per_video"] > 0
    assert sum(v[k] for k in v if k.startswith("qc.") and k.endswith("ratio")) == pytest.approx(1)
    if name == "adversarial-ablation":
        assert v["phantom.render_frame.calls_per_stream_frame"] == 1
        assert v["evaluate.run_ablation.self_s"] > 0
        assert v["video_io.load_stream.native_frames_per_stream_frame"] == 0
    else:
        assert v["video_io.load_stream.native_frames_per_stream_frame"] == (
            30 / 8 if name == "hd30-chroma" else 1)
        assert v["video_io.store_stream.ms_per_frame"] > 0
        assert v["cli.run.self_ms_per_video"] > 0 and v["cli.eval.s"] > 0
    chroma = name == "hd30-chroma"
    assert (v["segmentation.distances_sq.ms_per_frame"] > 0) == chroma
    assert (v["segmentation.clean_mask.ms_per_frame"] > 0) == chroma


def test_every_span_name_gets_calls():
    seen = set()
    for name in TINY:
        seen |= workloads.EXPECTED_SPANS[name]
    assert seen == set(spans.SPAN_NAMES)


def test_spans_seen_match_expectation(traced_run):
    name, out = traced_run
    assert workloads.EXPECTED_SPANS[name] <= set(out["report"]["spans_seen"])


def test_moved_call_site_fails_loudly(monkeypatch):
    import lithovid.pipeline

    monkeypatch.delattr(lithovid.pipeline, "check_frame")
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError, match="check_frame"):
        tracer.install()
    tracer.uninstall()


def test_tracer_records_span_and_restores():
    import lithovid.pipeline

    original = lithovid.pipeline.decide
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert lithovid.pipeline.decide is not original
        from lithovid.decision import LabelCensus
        from lithovid.core import MorphClass
        lithovid.pipeline.decide(LabelCensus.from_labels([MorphClass.IA]))
    finally:
        tracer.uninstall()
    assert lithovid.pipeline.decide is original
    (name, start, end, parent, _, _), = tracer.spans
    assert name == "decision.decide" and parent == -1 and end >= start


def test_self_time_subtracts_children():
    dump = {"spans": [["cli.run", 0.0, 10.0, -1, "v", "timed"],
                      ["classify.predict", 1.0, 5.0, 0, "v", "timed"],
                      ["classify.features", 2.0, 4.0, 1, "v", "timed"]],
            "counts": {"timed": {"qc.Pass": 1}}}
    st = metrics.SpanStats([dump])
    assert st.self_s("cli.run") == 6.0
    assert st.self_s("classify.predict") == 2.0
    assert st.total_s("classify.predict") == 4.0
    assert st.root_s["timed"] == 10.0
    assert st.count("qc.Pass") == 1 and st.calls("classify.features", ("setup",)) == 0


def test_reference_decision_matches_lithovid():
    from lithovid.core import CANONICAL_ORDER
    from lithovid.decision import LabelCensus, decide

    for counts in itertools.product(range(5), repeat=5):
        if not sum(counts):
            continue
        labels = [c.tag for c, n in zip(CANONICAL_ORDER, counts) for _ in range(n)]
        got, path = decide(LabelCensus(counts=dict(zip(CANONICAL_ORDER, counts))))
        assert checks.reference_decision(labels) == (got.tag, path.value)


def test_check_timeline_catches_bad_output():
    from lithovid.core import PredictionRecord, QcTag, QcVerdict, VideoTimeline, MorphClass
    from lithovid.decision import decide_labels
    from lithovid.evaluate import timeline_to_json

    scores = {c: 0.2 for c in MorphClass}
    scores[MorphClass.IIB] = 0.6
    scores = {c: s / sum(scores.values()) for c, s in scores.items()}
    records = (PredictionRecord.rejected(0, QcVerdict(QcTag.REJECTED_NO_REFERENCE)),
               PredictionRecord.passing(1, scores, dsc=0.95))
    decision, path = decide_labels([MorphClass.IIB])
    text = timeline_to_json(VideoTimeline("v", records, decision, path))
    checks.check_timeline(text, 2)
    with pytest.raises(checks.CheckFailed, match="records"):
        checks.check_timeline(text, 3)
    with pytest.raises(checks.CheckFailed, match="decision"):
        checks.check_timeline(text.replace('"decision": "IIb"', '"decision": "Ia"'), 2)
    with pytest.raises(checks.CheckFailed, match="timeline_from_json"):
        checks.check_timeline(text[:-10], 2)


def test_stream_frame_count():
    assert checks.stream_frames(360, 30) == 96
    assert checks.stream_frames(24, 8) == 24
    assert checks.stream_frames(1, 30) == 1


def test_benchmark_json_meets_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["perfbench"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for s in ("workloads", "end_to_end", "per_layer") for m in BENCHMARK[s]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    for w in BENCHMARK["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in BENCHMARK["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in BENCHMARK["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]) and m["better"] in (
            "higher", "lower")
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_refuses_directory_without_program(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "hd30-chroma", "--seed", "1", "--seconds", "1"]) != 0
