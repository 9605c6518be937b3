"""The three workloads: their set-up commands, inputs and timed loops.

All three are closed loops with one client in one process: the next
video starts when the previous one has its decision.

- clean-cohort-oracle: many short clean phantoms on disk at 8 Hz with
  truth masks; one ``lithovid run`` (oracle + centroid) per video, then
  one ``lithovid eval``. Classification dominates; resampling is the
  identity and segmentation a lookup.
- hd30-chroma: a few longer ``default``-profile phantoms that the input
  shaper below turns into 640x480 video at 30 fps without masks; one
  ``lithovid run`` (chroma + centroid) per video, then one eval. Read,
  resample + resize, chroma segmentation and memory dominate.
- adversarial-ablation: adversarial phantoms rendered lazily inside the
  timed region and fed to ``evaluate.run_ablation`` (oracle + centroid,
  all three variants). No disk read; rendering, repeated normalization
  and segmentation, and the QC gate dominate.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import (
    CLASSES,
    CheckFailed,
    balanced_accuracy_pct,
    check_report_csv,
    check_timeline,
    stream_frames,
)


@dataclass(frozen=True)
class Sizes:
    per_class: int     # videos per morphology class
    duration: float    # seconds of phantom video
    stills: int        # train-cls stills per class
    cal_stills: int    # calibrate-seg stills per class (chroma only)


@dataclass(frozen=True)
class Workload:
    name: str
    profile: str       # phantom profile
    segmenter: str     # oracle | chroma
    on_disk: bool      # False: rendered lazily inside the timed region
    hd: bool           # True: shaped to 640x480 at 30 fps, no masks
    sizes: Sizes


WORKLOADS = {
    w.name: w
    for w in (
        Workload("clean-cohort-oracle", "clean", "oracle", True, False, Sizes(3, 3.0, 10, 0)),
        Workload("hd30-chroma", "default", "chroma", True, True, Sizes(2, 6.0, 10, 8)),
        Workload("adversarial-ablation", "adversarial", "oracle", False, False,
                 Sizes(3, 10.0, 10, 0)),
    )
}

# Span names each workload must record at least once (set-up included);
# a name missing from the traced run means a call site moved.
_COMMON = {"cli.train_cls", "classify.train_centroid", "phantom.render_frame",
           "classify.features", "classify.predict", "classify.model_load",
           "video_io.normalize_video", "segmentation.segment", "qc.check_frame",
           "decision.decide", "pipeline.run_timeline", "evaluate.timeline_to_json",
           "phantom.generate_phantom"}
_DISK = _COMMON | {"cli.phantom", "video_io.store_stream", "cli.run", "cli.eval",
                   "video_io.load_stream", "video_io.read_ppm",
                   "evaluate.timeline_from_json"}
EXPECTED_SPANS = {
    "clean-cohort-oracle": _DISK | {"video_io.read_pgm"},
    "hd30-chroma": _DISK | {"cli.calibrate_seg", "segmentation.calibrate_chroma",
                            "segmentation.distances_sq", "segmentation.clean_mask"},
    "adversarial-ablation": _COMMON | {"evaluate.run_ablation", "pipeline.run_raw_video"},
}

HD_WIDTH, HD_HEIGHT, HD_FPS = 640, 480, 30


def sub_seed(seed: int, purpose: str) -> int:
    """Independent 31-bit seed for one input of the workload."""
    digest = hashlib.sha256(f"{seed}:{purpose}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


# -- set-up ------------------------------------------------------------------


def setup_commands(w: Workload, seed: int, out: Path) -> list[list[str]]:
    """The lithovid commands that build one workload's cohort and models."""
    s = w.sizes
    cmds = []
    if w.on_disk:
        cmds.append(["phantom", "--out", str(out / "cohort"), "--per-class", str(s.per_class),
                     "--seed", str(sub_seed(seed, "cohort")), "--duration", str(s.duration),
                     "--profile", w.profile])
    cmds.append(["train-cls", "--stills", str(s.stills), "--seed", str(sub_seed(seed, "train")),
                 "--out", str(out / "model.json")])
    if w.segmenter == "chroma":
        cmds.append(["calibrate-seg", "--stills", str(s.cal_stills),
                     "--seed", str(sub_seed(seed, "calibrate")),
                     "--out", str(out / "calibration.json")])
    return cmds


def _read_p6(path: Path) -> np.ndarray:
    data = path.read_bytes()
    magic, dims, maxval, raster = data.split(b"\n", 3)
    w, h = (int(x) for x in dims.split())
    if magic != b"P6" or maxval != b"255":
        raise CheckFailed(f"{path}: unexpected pixmap header")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w, 3)


def _shape_hd(src: Path, dst: Path) -> None:
    """Upscale an 8 Hz 256x256 video to 640x480 at 30 fps.

    The 256x256 picture becomes the centred 480x480 square (nearest
    neighbour) between black side bars, and native frame j repeats the
    8 Hz frame nearest to its timestamp. Truth masks are dropped; the
    label is kept so eval can score the decision.
    """
    manifest = json.loads((src / "manifest.json").read_text())
    entries = manifest["frames"]
    side = HD_HEIGHT
    idx = np.floor((np.arange(side) + 0.5) * 256 / side).astype(np.intp)
    x0 = (HD_WIDTH - side) // 2
    header = f"P6\n{HD_WIDTH} {HD_HEIGHT}\n255\n".encode()
    pictures = []
    for entry in entries:
        img = np.zeros((HD_HEIGHT, HD_WIDTH, 3), dtype=np.uint8)
        img[:, x0:x0 + side] = _read_p6(src / entry["file"])[idx][:, idx]
        pictures.append(header + img.tobytes())
    n = len(entries)
    n_native = n * HD_FPS // 8
    frames = []
    for j in range(n_native):
        k = min(n - 1, (2 * j * 8 + HD_FPS) // (2 * HD_FPS))  # nearest 8 Hz frame
        name = f"frame_{j:06d}.ppm"
        (dst / name).write_bytes(pictures[k])
        frames.append({"file": name, "truth_label": entries[k]["truth_label"]})
    (dst / "manifest.json").write_text(json.dumps(
        {"video_id": manifest["video_id"], "native_fps": HD_FPS, "frames": frames}))


def prepare_inputs(w: Workload, seed: int, setup_dir: Path, inputs: Path) -> list[dict]:
    """Lay out the cohort one video per directory, so `run` takes one video.

    Returns one entry per video: its id, the directory to pass to
    `run --videos`, its truth label and its 8 Hz frame count, all taken
    from the generated inputs.
    """
    if not w.on_disk:
        return [
            {"id": f"{label}-{i}", "label": label,
             "seed": sub_seed(seed, f"video-{label}-{i}"),
             "stream_frames": stream_frames(round(w.sizes.duration * 8), 8)}
            for label in CLASSES for i in range(w.sizes.per_class)
        ]
    videos = []
    for src in sorted(p for p in (setup_dir / "cohort").iterdir() if p.is_dir()):
        root = inputs / src.name
        dst = root / src.name
        root.mkdir(parents=True)
        if w.hd:
            dst.mkdir()
            _shape_hd(src, dst)
            shutil.rmtree(src)
        else:
            shutil.move(src, dst)
        manifest = json.loads((dst / "manifest.json").read_text())
        n_native, fps = len(manifest["frames"]), manifest["native_fps"]
        videos.append({"id": manifest["video_id"], "root": str(root),
                       "label": manifest["frames"][0]["truth_label"],
                       "stream_frames": stream_frames(n_native, fps)})
    return videos


def flush_to_disk(root: Path) -> None:
    """fsync every file under root.

    Inputs written just before the timed region would otherwise be
    written back to disk while it runs, and that writeback slows it.
    """
    for path in root.rglob("*"):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


# -- timed region ------------------------------------------------------------


def _passes(seconds: float, one_pass) -> None:
    """Run whole passes over the cohort.

    A pass covers every video once, so each pass does the same work and
    every count is exact. Another pass starts only while one more is
    expected to end within `seconds`; the first always runs.
    """
    start = time.perf_counter()
    pass_no = 0
    while True:
        t0 = time.perf_counter()
        one_pass(pass_no)
        pass_no += 1
        now = time.perf_counter()
        if (now - start) + (now - t0) > seconds:
            return


def run_videos(w: Workload, cfg: dict, tracer) -> dict:
    """Closed loop of `lithovid run`, one video per call, then one eval.

    Each pass writes its own timeline directory so that every pass can
    be compared with the first.
    """
    from lithovid import cli

    work = Path(cfg["work"])
    common = ["--segmenter", w.segmenter, "--classifier", "centroid", "--model", cfg["model"]]
    if w.segmenter == "chroma":
        common += ["--calibration", cfg["calibration"]]
    samples = []

    def one_pass(pass_no):
        out = work / "out" / f"pass_{pass_no:03d}"
        for video in cfg["videos"]:
            if tracer:
                tracer.video = video["id"]
            t0 = time.perf_counter()
            rc = cli.main(["run", "--videos", video["root"], "--out", str(out)] + common)
            samples.append({"video": video["id"], "pass": pass_no, "rc": rc,
                            "s": time.perf_counter() - t0, "frames": video["stream_frames"]})
        if tracer:
            tracer.video = ""

    start = time.perf_counter()
    _passes(cfg["seconds"], one_pass)
    eval_rc = cli.main(["eval", "--timelines", str(work / "out" / "pass_000"),
                        "--out", str(work / "report")])
    return {"wall_s": time.perf_counter() - start, "samples": samples, "eval_rc": eval_rc}


def no_qc_quality(w: Workload, cfg: dict) -> float:
    """Balanced accuracy of `run --variant no-qc` over the cohort, checked.

    Runs untimed, after the timed region, to give the ablation gap.
    """
    from lithovid import cli

    out = Path(cfg["work"]) / "no_qc"
    pairs = []
    for video in cfg["videos"]:
        rc = cli.main(["run", "--videos", video["root"], "--out", str(out), "--variant", "no-qc",
                       "--classifier", "centroid", "--model", cfg["model"]])
        if rc != 0:
            raise CheckFailed(f"run --variant no-qc exited {rc} on {video['id']}")
        text = (out / f"{video['id']}.json").read_text("utf-8")
        pairs.append((video["label"], _check(text, video)["decision"]))
    report = Path(cfg["work"]) / "report_no_qc"
    rc = cli.main(["eval", "--timelines", str(out), "--out", str(report)])
    if rc != 0:
        raise CheckFailed(f"eval exited {rc} on the no-qc timelines")
    per_class = balanced_accuracy_pct(pairs)
    check_report_csv((report / "report.csv").read_text(), "no-qc", per_class)
    return sum(per_class.values()) / len(per_class)


def run_ablation_passes(w: Workload, cfg: dict, tracer) -> dict:
    """Closed loop of `evaluate.run_ablation` passes over a lazily rendered cohort."""
    from lithovid import evaluate, phantom
    from lithovid.classify import CentroidModel
    from lithovid.core import MorphClass
    from lithovid.segmentation import OracleSegmenter

    def oracle(frames, truths):
        return OracleSegmenter.from_masks(truths)

    samples = []
    passes = []

    def cohort(pass_no):
        for video in cfg["videos"]:
            if tracer:
                tracer.video = video["id"]
            t0 = time.perf_counter()
            label = MorphClass.from_tag(video["label"])
            raw, _, _ = phantom.generate_phantom(
                phantom.adversarial_spec(video["seed"], label, w.sizes.duration))
            n_native = len(raw.frames)
            yield raw, label
            del raw
            samples.append({"video": video["id"], "pass": pass_no, "rc": 0,
                            "s": time.perf_counter() - t0, "frames": stream_frames(n_native, 8)})
        if tracer:
            tracer.video = ""

    start = time.perf_counter()
    model = CentroidModel.load(Path(cfg["model"]))
    _passes(cfg["seconds"],
            lambda pass_no: passes.append(evaluate.run_ablation(cohort(pass_no), oracle, model)))
    return {"wall_s": time.perf_counter() - start, "samples": samples, "passes": passes}


def serialize_ablation(result) -> dict[str, bytes]:
    """The ablation's outputs as files: one timeline per variant and video, plus metrics."""
    from lithovid import evaluate

    files = {}
    for variant, r in result.items():
        for truth, tl in zip(r.truths, r.timelines):
            text = evaluate.timeline_to_json(tl, truth_label=truth, variant=variant)
            files[f"{variant.value}/{tl.video_id}.json"] = text.encode()
    files["metrics.csv"] = evaluate.metrics_csv({v: r.per_class for v, r in result.items()}).encode()
    return files


def timed_outputs(w: Workload, cfg: dict, run: dict) -> tuple[dict, dict]:
    """Check the timed region's outputs and return (pass-0 files, quality).

    Marks each sample whose output failed a check. Every later pass must
    reproduce the bytes of pass 0.
    """
    passes: dict[int, dict[str, bytes]] = {}
    quality = {}
    if w.on_disk:
        work = Path(cfg["work"])
        by_id = {v["id"]: v for v in cfg["videos"]}
        decisions = {}
        for s in run["samples"]:
            name = f"{s['video']}.json"
            try:
                if s["rc"] != 0:
                    raise CheckFailed(f"run exited {s['rc']} on {s['video']}")
                text = (work / "out" / f"pass_{s['pass']:03d}" / name).read_text("utf-8")
                decisions[s["video"]] = _check(text, by_id[s["video"]])["decision"]
            except (CheckFailed, OSError) as exc:
                s["error"] = str(exc)
                continue
            passes.setdefault(s["pass"], {})[name] = text.encode()
        if run["eval_rc"] != 0:
            raise CheckFailed(f"eval exited {run['eval_rc']}")
        per_class = balanced_accuracy_pct([(by_id[v]["label"], d) for v, d in decisions.items()])
        report = work / "report"
        check_report_csv((report / "report.csv").read_text(), "full", per_class)
        quality["full"] = sum(per_class.values()) / len(per_class)
        for name in ("report.csv", "report.txt"):
            passes.setdefault(0, {})["report/" + name] = (report / name).read_bytes()
    else:
        for pass_no, result in enumerate(run["passes"]):
            files = passes[pass_no] = serialize_ablation(result)
            for variant, r in result.items():
                pairs = []
                for video, tl in zip(cfg["videos"], r.timelines):
                    try:
                        text = files[f"{variant.value}/{tl.video_id}.json"].decode()
                        pairs.append((video["label"], _check(text, video)["decision"]))
                    except CheckFailed as exc:
                        for s in run["samples"]:
                            if s["pass"] == pass_no and s["video"] == video["id"]:
                                s["error"] = str(exc)
                per_class = balanced_accuracy_pct(pairs)
                mean = sum(per_class.values()) / len(per_class)
                reported = r.overall["balanced_accuracy"].mean * 100
                if abs(reported - mean) > 1e-9:
                    raise CheckFailed(f"{variant.value}: run_ablation balanced accuracy "
                                      f"{reported} != recomputed {mean}")
                if pass_no == 0:
                    quality[variant.value] = mean
    first = passes.get(0, {})
    for pass_no, files in passes.items():
        for name, data in files.items():
            if first.get(name) != data:
                raise CheckFailed(f"pass {pass_no} output {name} differs from pass 0")
    return first, quality


def _check(text: str, video: dict) -> dict:
    payload = check_timeline(text, video["stream_frames"])
    if payload["truth_label"] != video["label"]:
        raise CheckFailed(f"{video['id']}: truth label {payload['truth_label']} "
                          f"!= {video['label']}")
    return payload


def outputs_digest(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name])
    return h.hexdigest()


def remove(path: Path) -> None:
    if os.path.lexists(path):
        shutil.rmtree(path)
