"""Streaming endoscopic video analysis for kidney-stone morphology."""

from .core import (
    CANONICAL_ORDER,
    DecisionPath,
    FrameGrid,
    MorphClass,
    PredictionRecord,
    QcTag,
    QcVerdict,
    StoneMask,
    VideoTimeline,
)
from .decision import LabelCensus, decide, decide_labels
from .pipeline import Variant, run_raw_video, run_timeline
from .qc import QcConfig, check_frame
from .segmentation import ChromaSegmenter, OracleSegmenter, dsc

__all__ = [
    "CANONICAL_ORDER",
    "ChromaSegmenter",
    "DecisionPath",
    "FrameGrid",
    "LabelCensus",
    "MorphClass",
    "OracleSegmenter",
    "PredictionRecord",
    "QcConfig",
    "QcTag",
    "QcVerdict",
    "StoneMask",
    "Variant",
    "VideoTimeline",
    "check_frame",
    "decide",
    "decide_labels",
    "dsc",
    "run_raw_video",
    "run_timeline",
]

__version__ = "0.1.0"
