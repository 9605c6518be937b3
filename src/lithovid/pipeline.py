"""The four-step per-video pipeline.

Frames flow through segmentation, the quality gate, per-frame
classification and finally label aggregation into one decision. Ablation
variants switch off pixel masking (classifier sees the whole frame) or
the whole gate (every frame is classified and counted); every variant
asked for is served from one pass over the frames.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .classify import Classifier
from .core import (
    FRAME_SIDE,
    FrameGrid,
    PredictionRecord,
    StoneMask,
    VideoTimeline,
)
from .decision import LabelCensus, decide
from .qc import QcConfig, check_frame
from .segmentation import Segmenter
from .video_io import RawVideo, normalize_video


class Variant(Enum):
    FULL = "full"
    NO_MASKING = "no-masking"
    NO_QC = "no-qc"


FULL_FRAME_MASK = StoneMask(np.ones((FRAME_SIDE, FRAME_SIDE), dtype=bool))


def run_timeline(
    video_id: str,
    frames: Sequence[FrameGrid],
    segmenter: Optional[Segmenter],
    classifier: Classifier,
    cfg: QcConfig = QcConfig(),
    variants: Sequence[Variant] = (Variant.FULL,),
    on_frame: Optional[Callable[[FrameGrid, Optional[StoneMask], dict], None]] = None,
) -> dict[Variant, VideoTimeline]:
    """Run steps 1-4 over normalized frames, one timeline per variant.

    frames is consumed in one pass, so a lazy sequence (normalize_video's)
    is decoded and normalized one frame at a time and none is kept.
    Each frame is segmented and gated once, and only if a gated variant
    is asked for. It is classified at most once with the stone mask (full,
    passing frames) and at most once with the whole frame, shared by
    no-masking on passing frames and by no-qc on every frame.
    on_frame(frame, stone mask or None, {variant: record}) sees each frame
    as soon as its records are made.
    """
    gated = any(v is not Variant.NO_QC for v in variants)
    records: dict[Variant, list[PredictionRecord]] = {v: [] for v in variants}
    previous: Optional[StoneMask] = None
    for frame in frames:
        index = frame.stream_index
        passed, mask = False, None
        if gated:
            mask = segmenter.segment(frame)
            verdict = check_frame(mask, previous, cfg)
            previous = mask
            passed = verdict.passed
        whole = None
        if Variant.NO_QC in records or (passed and Variant.NO_MASKING in records):
            whole = classifier.predict(frame, FULL_FRAME_MASK)
        for variant, out in records.items():
            if variant is Variant.NO_QC:
                out.append(PredictionRecord.passing(index, whole))
            elif not passed:
                out.append(PredictionRecord.rejected(index, verdict))
            else:
                scores = classifier.predict(frame, mask) if variant is Variant.FULL else whole
                out.append(PredictionRecord.passing(index, scores, dsc=verdict.dsc))
        if on_frame is not None:
            on_frame(frame, mask, {v: out[-1] for v, out in records.items()})
    timelines = {}
    for variant, out in records.items():
        labels = [r.label for r in out if r.qc.passed]
        decision, path = decide(LabelCensus.from_labels(labels)) if labels else (None, None)
        timelines[variant] = VideoTimeline(video_id, tuple(out), decision, path)
    return timelines


def run_raw_video(
    video: RawVideo,
    segmenter_factory,
    classifier: Classifier,
    variants: Sequence[Variant] = (Variant.FULL,),
) -> dict[Variant, VideoTimeline]:
    """Standardize a raw video lazily, then run the pipeline for every variant in one pass.

    segmenter_factory(frames, truth_masks) builds the per-video
    segmenter; it receives the normalized truth masks so oracle
    segmentation can be wired without global state. It is not called,
    and may be None, when no-qc is the only variant.
    """
    frames, truths = normalize_video(video)
    gated = any(v is not Variant.NO_QC for v in variants)
    segmenter = segmenter_factory(frames, truths) if gated else None
    return run_timeline(video.video_id, frames, segmenter, classifier, variants=variants)
