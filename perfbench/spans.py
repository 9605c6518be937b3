"""Span recorder for the traced benchmark run.

Each traced call records one span: name, start, end, parent span, the
video being processed and the benchmark phase. Spans stay in memory and
are written once, when the process ends.

Wrappers are installed on the names where lithovid looks them up. Names
imported with ``from ... import`` live in the importing module, so the
same function can need a wrapper in several places (``normalize_video``
in both ``lithovid.cli`` and ``lithovid.pipeline``). Installing fails if
any target no longer exists, so a refactor that moves a call site breaks
the traced run instead of dropping a layer silently.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import Counter
from typing import Callable, Optional


def _count_read(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.count("bytes_read", os.path.getsize(args[0] if args else kwargs["path"]))


def _count_frame_read(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.count("native_frames_read")
    _count_read(tracer, args, kwargs, result)


def _count_stored(tracer: "Tracer", args, kwargs, result) -> None:
    video = args[0] if args else kwargs["video"]
    tracer.count("frames_stored", len(video.frames))


def _count_verdict(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.count(f"qc.{result.tag.value}")


def _count_timeline_frames(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.count("run_timeline_frames", len(args[1] if len(args) > 1 else kwargs["frames"]))


def _count_json_bytes(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.count("timeline_json_bytes", len(result.encode("utf-8")))


# (span name, module, attribute path, counter hook). A span name starts
# with the lithovid module that owns the function: that prefix is the
# layer its self time is charged to.
TARGETS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("cli.phantom", "lithovid.cli", "cmd_phantom", None),
    ("cli.train_cls", "lithovid.cli", "cmd_train_cls", None),
    ("cli.calibrate_seg", "lithovid.cli", "cmd_calibrate_seg", None),
    ("cli.run", "lithovid.cli", "cmd_run", None),
    ("cli.eval", "lithovid.cli", "cmd_eval", None),
    ("video_io.load_stream", "lithovid.cli", "load_stream", None),
    ("video_io.read_ppm", "lithovid.video_io", "read_ppm", _count_frame_read),
    ("video_io.read_pgm", "lithovid.video_io", "read_pgm", _count_read),
    ("video_io.normalize_video", "lithovid.cli", "normalize_video", None),
    ("video_io.normalize_video", "lithovid.pipeline", "normalize_video", None),
    ("video_io.store_stream", "lithovid.cli", "store_stream", _count_stored),
    ("phantom.generate_phantom", "lithovid.phantom", "generate_phantom", None),
    ("phantom.render_frame", "lithovid.phantom", "render_frame", None),
    ("segmentation.segment", "lithovid.segmentation", "OracleSegmenter.segment", None),
    ("segmentation.segment", "lithovid.segmentation", "ChromaSegmenter.segment", None),
    ("segmentation.distances_sq", "lithovid.segmentation", "ChromaSegmenter.distances_sq", None),
    ("segmentation.clean_mask", "lithovid.segmentation", "clean_mask", None),
    ("segmentation.calibrate_chroma", "lithovid.cli", "calibrate_chroma", None),
    ("qc.check_frame", "lithovid.pipeline", "check_frame", _count_verdict),
    ("classify.predict", "lithovid.classify", "CentroidModel.predict", None),
    ("classify.features", "lithovid.classify", "features", None),
    ("classify.model_load", "lithovid.classify", "CentroidModel.load", None),
    ("classify.train_centroid", "lithovid.cli", "train_centroid", None),
    ("decision.decide", "lithovid.pipeline", "decide", None),
    ("pipeline.run_timeline", "lithovid.cli", "run_timeline", _count_timeline_frames),
    ("pipeline.run_timeline", "lithovid.pipeline", "run_timeline", _count_timeline_frames),
    ("pipeline.run_raw_video", "lithovid.evaluate", "run_raw_video", None),
    ("evaluate.run_ablation", "lithovid.evaluate", "run_ablation", None),
    ("evaluate.timeline_to_json", "lithovid.evaluate", "timeline_to_json", _count_json_bytes),
    ("evaluate.timeline_from_json", "lithovid.evaluate", "timeline_from_json", None),
)

SPAN_NAMES = tuple(sorted({name for name, _, _, _ in TARGETS}))
LAYERS = ("video_io", "phantom", "segmentation", "qc", "classify", "decision",
          "pipeline", "evaluate", "cli")


def _resolve(module: str, path: str):
    """(owner object, attribute name) for a dotted attribute path."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise RuntimeError(f"trace target {module}.{path} no longer exists")
    return owner, attr


class Tracer:
    """In-memory span log plus the work counters the hooks update, per phase."""

    def __init__(self) -> None:
        # one list per span: [name, start, end, parent index, video, phase]
        self.spans: list[list] = []
        self.counts: dict[str, Counter] = {}
        self.video = ""
        self.phase = ""
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def count(self, key: str, n: int = 1) -> None:
        self.counts.setdefault(self.phase, Counter())[key] += n

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, tracer.video, tracer.phase]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for name, module, path, hook in TARGETS:
            owner, attr = _resolve(module, path)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, raw.__func__, hook))
            elif callable(raw):
                wrapped = self.wrap(name, raw, hook)
            else:
                raise RuntimeError(f"trace target {module}.{path} is not callable")
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed.clear()

    def dump(self) -> dict:
        return {"spans": self.spans,
                "counts": {phase: dict(c) for phase, c in self.counts.items()}}
