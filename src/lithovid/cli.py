"""Operator command line.

Subcommands: phantom (generate labeled synthetic cohorts), calibrate-seg
(fit the color segmenter), train-cls (fit the centroid classifier), run
(execute the pipeline over a cohort), eval (score timelines against
ground truth) and report (merge per-variant metric files).

Every command is deterministic given its flags (run takes no --seed: it
draws no random numbers); repeated invocations produce byte-identical
outputs. Exit codes: 0 success, 1 usage error, 2 data error, 3 internal
invariant violation. LITHO_WORKERS caps per-video parallelism in `run`.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Optional

import numpy as np

from . import evaluate, phantom
from .classify import (
    CentroidModel,
    ScoreTable,
    import_scores,
    train_centroid,
)
from .core import CANONICAL_ORDER, FrameGrid, MorphClass, StoneMask
from .errors import LithovidError, read_json, read_text
from .pipeline import Variant, run_timeline
from .qc import QcConfig
from .rng import derive_seed
from .segmentation import ChromaSegmenter, OracleSegmenter, calibrate_chroma
from .video_io import (
    MANIFEST_NAME,
    imported_masks,
    list_video_dirs,
    load_stream,
    normalize_video,
    read_manifest,
    store_stream,
    write_ppm,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        raise UsageError(message)


def _workers() -> int:
    raw = os.environ.get("LITHO_WORKERS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise UsageError(f"LITHO_WORKERS must be an integer, got {raw!r}") from None
    if n < 1:
        raise UsageError("LITHO_WORKERS must be >= 1")
    return n


def _at_least(minimum: int) -> Callable[[str], int]:
    """argparse type for a count: an integer no smaller than minimum."""
    def count(text: str) -> int:
        n = int(text)
        if n < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {n}")
        return n

    return count


def _config_argv(args) -> list[str]:
    """The `run --config` file as argv tokens for run's flags.

    main parses them ahead of the flags given, so argparse checks config
    values as it checks flags, and flags win. JSON null means not given.
    """
    # {**p} raises a TypeError unless the config is a JSON object
    payload = read_json(args.config, "config", lambda p: {**p})
    unknown = set(payload) - (set(vars(args)) - {"command", "func", "config"})
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    argv = []
    for key, value in payload.items():
        flag = "--" + key.replace("_", "-")
        if value is None:  # not given
            continue
        if not isinstance(getattr(args, key), bool):
            argv.append(f"{flag}={value}")
        elif not isinstance(value, bool):  # a store_true flag takes JSON true or false
            raise UsageError(f"{key} must be true or false, got {value!r}")
        elif value:
            argv.append(flag)
    return argv


# -- overlay rendering ---------------------------------------------------------

# 3x5 glyphs for every character of a MorphClass.display and the rejected marker X
_GLYPHS = {
    "I": ["###", ".#.", ".#.", ".#.", "###"],
    "a": ["...", ".##", "#.#", "#.#", ".##"],
    "b": ["#..", "#..", "##.", "#.#", "##."],
    "+": ["...", ".#.", "###", ".#.", "..."],
    "X": ["#.#", "#.#", ".#.", "#.#", "#.#"],
}


def _burn_text(img: np.ndarray, text: str) -> None:
    """Burn text in 3x-scaled glyphs, top left corner at (4, 4)."""
    scale, y, cx = 3, 4, 4
    for ch in text:
        for gy, rowtxt in enumerate(_GLYPHS[ch]):
            for gx, cell in enumerate(rowtxt):
                if cell == "#":
                    y0, x0 = y + gy * scale, cx + gx * scale
                    img[y0 : y0 + scale, x0 : x0 + scale] = (255, 255, 0)
        cx += 4 * scale


def render_overlay(frame: FrameGrid, mask: Optional[StoneMask], label_text: str) -> np.ndarray:
    out = frame.pixels.copy()
    if mask is not None and not mask.empty:
        bits = mask.bits
        inner = np.zeros_like(bits)  # a stone pixel whose four neighbours are stone
        inner[1:-1, 1:-1] = (bits[1:-1, 1:-1] & bits[:-2, 1:-1] & bits[2:, 1:-1]
                             & bits[1:-1, :-2] & bits[1:-1, 2:])
        out[bits & ~inner] = (0, 255, 0)
    _burn_text(out, label_text)
    return out


# -- per-video run worker --------------------------------------------------------


def _write_replacing(target: Path, write: Callable[[Path], object]) -> None:
    """Write beside the target and rename, so no reader sees half a file."""
    tmp = target.parent / f".{target.name}.{os.getpid()}.tmp"
    try:
        write(tmp)
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)


def _write_text(target: Path, text: str) -> None:
    _write_replacing(target, lambda tmp: tmp.write_text(text, "utf-8"))


def _make_out(out: str, is_file: bool = False) -> Path:
    """Create the --out directory (for a file, its parent) before the command's work; a
    file or directory in the way is a data error naming --out, and nothing is written."""
    path = Path(out)
    if is_file and path.is_dir():
        raise LithovidError(f"--out {path} is a directory, not a file")
    try:
        (path.parent if is_file else path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise LithovidError(f"cannot create --out {path}: {exc.strerror}") from None
    return path


def _run_one_video(video_dir: Path, out_dir: Path, variant: Variant, qc: QcConfig,
                   chroma: Optional[ChromaSegmenter], masks: Optional[Path],
                   model: Optional[CentroidModel], scores: Optional[Path], overlay: bool) -> None:
    """Run one video and write its timeline (and overlays) under out_dir.

    The chroma segmenter, else the masks root, else the video's own truth
    masks segment it; the model, else the scores root, classifies it.
    One pass reads each frame once; its overlay is written as it is classified.
    """
    video = load_stream(video_dir)
    frames, truths = normalize_video(video)
    segmenter = None
    if variant is not Variant.NO_QC:
        if chroma is not None:
            segmenter = chroma
        elif masks is not None:
            segmenter = OracleSegmenter(imported_masks(masks, video.video_id, len(frames)))
        elif truths is None:
            raise LithovidError("oracle segmenter requires truth masks in the manifest")
        else:
            segmenter = OracleSegmenter.from_masks(truths)
    classifier = model or ScoreTable(import_scores(scores / f"{video.video_id}.csv"))

    write_overlay = None
    if overlay:
        overlay_dir = out_dir / "overlays" / video.video_id
        overlay_dir.mkdir(parents=True, exist_ok=True)

        def write_overlay(frame: FrameGrid, mask: Optional[StoneMask], records: dict) -> None:
            rec = records[variant]
            img = render_overlay(frame, mask, rec.label.display if rec.qc.passed else "X")
            _write_replacing(overlay_dir / f"frame_{rec.stream_index:06d}.ppm",
                             lambda tmp: write_ppm(tmp, img))

    timelines = run_timeline(video.video_id, frames, segmenter, classifier, qc, (variant,),
                             write_overlay)
    payload = evaluate.timeline_to_json(timelines[variant], truth_label=video.truth_label,
                                        variant=variant)
    _write_text(out_dir / f"{video.video_id}.json", payload)


def _require_unique_ids(entries: Iterable[tuple[str, Path]]) -> None:
    """entries are (video_id, where it was read); an id read twice is a data error naming both."""
    seen: dict[str, Path] = {}
    for video_id, where in entries:
        if video_id in seen:
            raise LithovidError(f"video_id {video_id!r} is in both {seen[video_id]} and {where}")
        seen[video_id] = where


def _run_isolated(video_dir: Path, **job) -> Optional[str]:
    """_run_one_video; a data error comes back as its message, so the cohort goes on."""
    try:
        _run_one_video(video_dir, **job)
    except LithovidError as exc:
        return f"{video_dir}: {exc}"


# -- subcommand implementations ---------------------------------------------------


def cmd_phantom(args) -> int:
    out = _make_out(args.out)
    if args.per_class == 0:
        print("warning: per-class count is 0, nothing generated", file=sys.stderr)
        return EXIT_OK
    builder = phantom.PROFILE_BUILDERS[args.profile]
    for label in CANONICAL_ORDER:
        for i in range(args.per_class):
            child = derive_seed(args.seed, f"phantom-{label.tag}-{i}")
            spec = builder(child, label, args.duration)
            video, _, _ = phantom.generate_phantom(spec)
            video_dir = out / f"{label.tag}-{args.profile}-{i:03d}"
            store_stream(dataclasses.replace(video, video_id=video_dir.name), video_dir)
            (video_dir / "phantom_spec.json").write_text(spec.to_json(), "utf-8")
    total = args.per_class * len(CANONICAL_ORDER)
    print(f"generated {total} phantom videos in {out}")
    return EXIT_OK


def _cohort_samples(cohort: Path, per_video: int):
    """(frame, truth mask, label) samples drawn evenly from each video."""
    for video_dir in list_video_dirs(cohort):
        video = load_stream(video_dir)
        if video.truth_masks is None or video.truth_label is None:
            raise LithovidError(f"{video_dir} lacks truth masks or label")
        frames, truths = normalize_video(video)
        usable = [k for k, m in enumerate(truths) if m is not None and not m.empty]
        step = max(1, len(usable) // per_video)
        for k in usable[::step][:per_video]:  # only these frames are decoded
            yield frames[k], truths[k], video.truth_label


def _training_samples(args) -> Iterable[tuple[FrameGrid, StoneMask, MorphClass]]:
    """(frame, truth mask, label) samples from --cohort if given, else --stills synthesized ones."""
    if args.cohort:
        return _cohort_samples(Path(args.cohort), args.per_video)
    return phantom.training_stills(args.seed, args.stills)


def cmd_calibrate_seg(args) -> int:
    out = _make_out(args.out, is_file=True)
    seg = calibrate_chroma((f, m) for f, m, _ in _training_samples(args))
    _write_replacing(out, seg.save)
    print(f"calibration written to {out} (tau={seg.tau:.3f})")
    return EXIT_OK


def cmd_train_cls(args) -> int:
    out = _make_out(args.out, is_file=True)
    model = train_centroid(_training_samples(args))
    _write_replacing(out, model.save)
    print(f"model with {len(model.centroids)} centroids written to {out}")
    return EXIT_OK


def cmd_run(args) -> int:
    if args.videos is None or args.out is None:
        raise UsageError("run requires --videos and --out (flags or config)")
    videos_root = Path(args.videos)
    if not videos_root.is_dir():
        raise LithovidError(f"video directory not found: {videos_root}")
    try:
        qc = QcConfig(min_coverage=args.min_coverage, min_dsc=args.min_dsc)
    except LithovidError as exc:
        raise UsageError(str(exc)) from None
    for option, kind, needs in (("segmenter", "chroma", "calibration"),
                                ("segmenter", "import", "masks"),
                                ("classifier", "centroid", "model"),
                                ("classifier", "import", "scores")):
        if getattr(args, option) == kind and not getattr(args, needs):
            raise UsageError(f"{kind} {option} requires --{needs}")
    for key in ("model", "calibration", "scores", "masks"):
        value = getattr(args, key)
        if value and not Path(value).exists():
            raise LithovidError(f"{key} path not found: {value}")
    workers = _workers()
    video_dirs = list_video_dirs(videos_root)
    for skipped in sorted(p for p in videos_root.iterdir() if p.is_dir() and p not in video_dirs):
        print(f"warning: skipped {skipped}: no {MANIFEST_NAME}", file=sys.stderr)
    if not video_dirs:
        raise LithovidError(f"no videos (no {MANIFEST_NAME}) under {videos_root}")
    readable = []  # timelines are named after video_id, so no two videos may share one
    for video_dir in video_dirs:
        try:
            readable.append((read_manifest(video_dir).video_id, video_dir))
        except LithovidError:
            pass  # that video's own job reports it
    _require_unique_ids(readable)

    # built once for every video, and checked before --out exists
    chroma = ChromaSegmenter.load(Path(args.calibration)) if args.segmenter == "chroma" else None
    model = CentroidModel.load(Path(args.model)) if args.classifier == "centroid" else None
    out_dir = _make_out(args.out)
    job = partial(_run_isolated, out_dir=out_dir, variant=Variant(args.variant), qc=qc,
                  chroma=chroma, masks=Path(args.masks) if args.segmenter == "import" else None,
                  model=model, scores=Path(args.scores) if args.classifier == "import" else None,
                  overlay=args.overlay)
    if workers == 1:
        results = [job(d) for d in video_dirs]
    else:
        # a fork pool starts all its workers on the first task, needed or not
        with ProcessPoolExecutor(max_workers=min(workers, len(video_dirs))) as pool:
            results = list(pool.map(job, video_dirs))
    errors = [e for e in results if e is not None]
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    print(f"wrote {len(video_dirs) - len(errors)} timelines to {out_dir}")
    return EXIT_DATA if errors else EXIT_OK


def _load_timelines(timeline_dir: Path):
    out = [(path, *read_text(path, "timeline", evaluate.timeline_from_json))
           for path in sorted(Path(timeline_dir).glob("*.json"))]
    if not out:
        raise LithovidError(f"no timeline files under {timeline_dir}")
    return out


def _truth_lookup(truth_root: Optional[str]) -> dict[str, MorphClass]:
    if truth_root is None:
        return {}
    if not Path(truth_root).is_dir():
        raise LithovidError(f"truth directory not found: {truth_root}")
    manifests = [read_manifest(d) for d in list_video_dirs(Path(truth_root))]
    _require_unique_ids((m.video_id, m.path) for m in manifests)
    return {m.video_id: m.truth_label for m in manifests if m.truth_label is not None}


def cmd_eval(args) -> int:
    loaded = _load_timelines(Path(args.timelines))
    _require_unique_ids((timeline.video_id, path) for path, timeline, _, _ in loaded)
    truth_table = _truth_lookup(args.truth)
    timelines, truths = [], []
    variant, variant_path = None, None
    for path, timeline, embedded_truth, tl_variant in loaded:
        truth = truth_table.get(timeline.video_id, embedded_truth)
        if truth is None:
            raise LithovidError(f"{path}: no ground-truth label for video {timeline.video_id!r}")
        timelines.append(timeline)
        truths.append(truth)
        if tl_variant is not None:
            if variant not in (None, tl_variant):
                raise LithovidError(f"{variant_path} is variant {variant.value} but {path} is "
                                    f"{tl_variant.value}; evaluate one variant at a time")
            variant, variant_path = tl_variant, path
    variant = variant or Variant.FULL
    scores = evaluate.score_cohort(timelines, truths)
    report = {"report.csv": evaluate.metrics_csv({variant: scores.per_class}),
              "report.txt": evaluate.report_text(variant, scores)}

    out_dir = _make_out(args.out)
    for name, text in report.items():
        _write_text(out_dir / name, text)
    print(f"evaluation written to {out_dir}")
    return EXIT_OK


def cmd_report(args) -> int:
    combined_csv, combined_txt = evaluate.combined_report(evaluate.read_metrics(args.inputs))
    out_dir = _make_out(args.out)
    _write_text(out_dir / "combined.csv", combined_csv)
    _write_text(out_dir / "combined.txt", combined_txt)
    print(f"combined report written to {out_dir}")
    return EXIT_OK


# -- argument wiring ---------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="lithovid", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate labeled synthetic cohorts")
    p.add_argument("--out", required=True)
    p.add_argument("--per-class", type=_at_least(0), default=2, dest="per_class")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=float, default=10.0)
    p.add_argument("--profile", choices=sorted(phantom.PROFILE_BUILDERS), default="clean")
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("calibrate-seg", help="fit the color segmenter")
    p.add_argument("--cohort", help="video cohort with truth masks")
    p.add_argument("--stills", type=_at_least(1), default=40, help="synthesized stills per class")
    p.add_argument("--per-video", type=_at_least(1), default=6, dest="per_video")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_calibrate_seg)

    p = sub.add_parser("train-cls", help="fit the centroid classifier")
    p.add_argument("--cohort", help="video cohort with truth masks and labels")
    p.add_argument("--stills", type=_at_least(1), default=50, help="synthesized stills per class")
    p.add_argument("--per-video", type=_at_least(1), default=6, dest="per_video")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_cls)

    p = sub.add_parser("run", help="run the pipeline over a cohort")
    p.add_argument("--config", help="RunConfig JSON; flags override")
    p.add_argument("--videos")
    p.add_argument("--out")
    p.add_argument("--segmenter", choices=["oracle", "chroma", "import"], default="oracle")
    p.add_argument("--calibration")
    p.add_argument("--masks", help="root of imported per-video mask directories")
    p.add_argument("--classifier", choices=["centroid", "import"], default="centroid")
    p.add_argument("--model")
    p.add_argument("--scores", help="directory of per-video score CSVs")
    p.add_argument("--variant", choices=[v.value for v in Variant], default=Variant.FULL.value)
    p.add_argument("--min-coverage", type=float, dest="min_coverage",
                   default=QcConfig.min_coverage)
    p.add_argument("--min-dsc", type=float, dest="min_dsc", default=QcConfig.min_dsc)
    p.add_argument("--overlay", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="score timelines against ground truth")
    p.add_argument("--timelines", required=True)
    p.add_argument("--truth", help="cohort directory with truth labels")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="merge per-variant metric CSVs")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(argv)
        if args.command == "run" and args.config is not None:
            # config tokens go first so flags win; argv[0] is "run" (no top-level options)
            try:
                args = parser.parse_args(["run", *_config_argv(args), *argv[1:]])
            except UsageError as exc:  # the flags alone parsed, so the config is at fault
                raise UsageError(f"config {args.config}: {exc}") from None
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LithovidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
