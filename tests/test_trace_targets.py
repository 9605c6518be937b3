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


def test_traced_run_records_every_layer_of_the_run_path(tmp_path, monkeypatch):
    """A traced `run` still succeeds and each wrapped step of its path is called."""
    import shutil

    from lithovid.cli import main

    assert main(["phantom", "--out", str(tmp_path / "all"), "--per-class", "1",
                 "--seed", "5", "--duration", "2"]) == 0
    shutil.move(tmp_path / "all" / "Ia-clean-000", tmp_path / "cohort" / "Ia-clean-000")
    model, calibration = tmp_path / "model.json", tmp_path / "cal.json"
    assert main(["train-cls", "--stills", "4", "--out", str(model)]) == 0
    assert main(["calibrate-seg", "--stills", "3", "--out", str(calibration)]) == 0
    monkeypatch.delenv("LITHO_WORKERS", raising=False)

    tracer = load_spans().Tracer()
    tracer.install()
    try:
        code = main(["run", "--videos", str(tmp_path / "cohort"), "--out", str(tmp_path / "o"),
                     "--segmenter", "chroma", "--calibration", str(calibration),
                     "--classifier", "centroid", "--model", str(model)])
    finally:
        tracer.uninstall()
    assert code == 0
    called = {span[0] for span in tracer.spans}
    for name in ("video_io.load_stream", "video_io.read_ppm", "video_io.normalize_video",
                 "segmentation.segment", "pipeline.run_timeline"):
        assert name in called, name


def test_traced_ablation_records_every_layer_of_the_adversarial_path(small_model,
                                                                    oracle_factory):
    """A traced run_ablation over short adversarial phantoms, one per class as scoring needs,
    records each run-path span that perfbench's adversarial-ablation workload expects."""
    from lithovid import evaluate, phantom
    from lithovid.core import CANONICAL_ORDER

    specs = [phantom.adversarial_spec(6, c, 2.0) for c in CANONICAL_ORDER]
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        evaluate.run_ablation(((phantom.generate_phantom(s)[0], s.label) for s in specs),
                              oracle_factory, small_model)
    finally:
        tracer.uninstall()
    called = {span[0] for span in tracer.spans}
    for name in ("evaluate.run_ablation", "pipeline.run_raw_video", "video_io.normalize_video",
                 "phantom.generate_phantom", "phantom.render_frame", "segmentation.segment",
                 "qc.check_frame", "classify.features", "classify.predict", "decision.decide",
                 "pipeline.run_timeline"):
        assert name in called, name


def test_traced_phantom_records_one_render_per_frame():
    """phantom.render_frame stays the module-level function a phantom calls once per frame,
    when the frames and masks are read rather than when generate_phantom returns."""
    from lithovid import phantom
    from lithovid.core import MorphClass

    spec = phantom.adversarial_spec(3, MorphClass.IA_IIB, 2.0)
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        video, masks, _ = phantom.generate_phantom(spec)
        at_return = [span[0] for span in tracer.spans]
        for _ in zip(video.frames, masks):
            pass
    finally:
        tracer.uninstall()
    assert at_return == ["phantom.generate_phantom"]
    names = [span[0] for span in tracer.spans]
    assert names.count("phantom.generate_phantom") == 1
    assert names.count("phantom.render_frame") == spec.n_frames == len(video.frames)
