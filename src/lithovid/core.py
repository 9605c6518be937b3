"""Domain vocabulary shared by every pipeline stage.

Morphology classes, normalized frames, binary stone masks, per-frame
prediction records and whole-video timelines. All types are immutable
after construction and safe to share between workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Optional

import numpy as np

from .errors import ValidationError

FRAME_SIDE = 256
STREAM_FPS = 8.0
SCORE_SUM_TOL = 1e-9


class MorphClass(Enum):
    """The five recognized stone types.

    Pure types carry one component, mixed types two. The declaration
    order Ia, IIb, IIIb, IaIIb, IaIIIb (rank 0 to 4) is the canonical
    order, the deterministic tie-break used everywhere a tie can occur;
    classes are ordered by rank, never compared directly.
    """

    IA = "Ia"
    IIB = "IIb"
    IIIB = "IIIb"
    IA_IIB = "IaIIb"
    IA_IIIB = "IaIIIb"

    @property
    def tag(self) -> str:
        return self.value

    @property
    def rank(self) -> int:
        return _RANK[self]

    @property
    def components(self) -> frozenset["MorphClass"]:
        return _COMPONENTS[self]

    @property
    def is_mixed(self) -> bool:
        return len(self.components) == 2

    @property
    def display(self) -> str:
        """Human-facing name, mixed types joined with '+'."""
        if self.is_mixed:
            pures = sorted(self.components, key=lambda c: c.rank)
            return "+".join(c.tag for c in pures)
        return self.tag

    @classmethod
    def from_tag(cls, tag: str) -> "MorphClass":
        try:
            return cls(tag)
        except ValueError:
            raise ValidationError(f"unknown morphology tag {tag!r}") from None


CANONICAL_ORDER: tuple[MorphClass, ...] = tuple(MorphClass)

_RANK = {c: i for i, c in enumerate(CANONICAL_ORDER)}
_COMPONENTS = {
    MorphClass.IA: frozenset({MorphClass.IA}),
    MorphClass.IIB: frozenset({MorphClass.IIB}),
    MorphClass.IIIB: frozenset({MorphClass.IIIB}),
    MorphClass.IA_IIB: frozenset({MorphClass.IA, MorphClass.IIB}),
    MorphClass.IA_IIIB: frozenset({MorphClass.IA, MorphClass.IIIB}),
}


def argmax_scores(scores: Mapping[MorphClass, float]) -> MorphClass:
    """Highest-scoring class, exact ties broken by canonical order."""
    for c, s in scores.items():
        if not math.isfinite(s):
            raise ValidationError(f"non-finite score {s!r} for {c.tag}")
    best = max(scores.values(), default=None)
    for c in CANONICAL_ORDER:
        if c in scores and scores[c] == best:
            return c
    raise ValidationError("empty score map")


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    if out is arr or out.base is arr:
        out = arr.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class FrameGrid:
    """One normalized RGB frame of the 8 Hz stream.

    Pixels are 256x256x3 uint8; stream_index is the frame's position on
    the 8 Hz grid.
    """

    pixels: np.ndarray
    stream_index: int = 0

    def __post_init__(self) -> None:
        px = np.asarray(self.pixels)
        if px.dtype != np.uint8 or px.ndim != 3 or px.shape != (FRAME_SIDE, FRAME_SIDE, 3):
            raise ValidationError(
                f"frame must be {FRAME_SIDE}x{FRAME_SIDE}x3 uint8, got {px.dtype} {px.shape}"
            )
        if self.stream_index < 0:
            raise ValidationError("stream_index must be non-negative")
        object.__setattr__(self, "pixels", _frozen(px))


@dataclass(frozen=True, eq=False)
class StoneMask:
    """Binary per-pixel stone annotation (True = stone)."""

    bits: np.ndarray

    def __post_init__(self) -> None:
        b = np.asarray(self.bits)
        if b.ndim != 2 or b.size == 0:
            raise ValidationError(f"mask must be a non-empty 2D grid, got shape {b.shape}")
        if b.dtype != np.bool_:
            if not np.isin(b, (0, 1)).all():
                raise ValidationError("mask values must be binary")
            b = b.astype(bool)
        object.__setattr__(self, "bits", _frozen(b))

    @property
    def count(self) -> int:
        return int(np.count_nonzero(self.bits))

    @property
    def coverage(self) -> float:
        return self.count / self.bits.size

    @property
    def empty(self) -> bool:
        return self.count == 0


class QcTag(Enum):
    PASS = "Pass"
    REJECTED_COVERAGE = "RejectedCoverage"
    REJECTED_INSTABILITY = "RejectedInstability"
    REJECTED_NO_REFERENCE = "RejectedNoReference"


@dataclass(frozen=True)
class QcVerdict:
    """Outcome of the per-frame quality gate.

    dsc is carried only when the stability test was actually evaluated:
    always for RejectedInstability, optionally for Pass (a no-QC run
    passes frames without ever computing a dsc).
    """

    tag: QcTag
    dsc: Optional[float] = None

    def __post_init__(self) -> None:
        if self.dsc is not None:
            if self.tag not in (QcTag.PASS, QcTag.REJECTED_INSTABILITY):
                raise ValidationError(f"verdict {self.tag.value} cannot carry a dsc value")
            if not 0.0 <= self.dsc <= 1.0:
                raise ValidationError(f"dsc {self.dsc} outside [0, 1]")
        elif self.tag is QcTag.REJECTED_INSTABILITY:
            raise ValidationError("RejectedInstability requires the evaluated dsc")

    @property
    def passed(self) -> bool:
        return self.tag is QcTag.PASS


@dataclass(frozen=True)
class PredictionRecord:
    """Per-frame QC verdict plus, for passing frames, class scores and label."""

    stream_index: int
    qc: QcVerdict
    scores: Optional[Mapping[MorphClass, float]] = None
    label: Optional[MorphClass] = None

    def __post_init__(self) -> None:
        if self.stream_index < 0:
            raise ValidationError("stream_index must be non-negative")
        if self.qc.passed:
            if self.scores is None or self.label is None:
                raise ValidationError("passing records require scores and a label")
            scores = dict(self.scores)
            if set(scores) != set(CANONICAL_ORDER):
                raise ValidationError("score map must cover exactly the five classes")
            total = 0.0
            for c, s in scores.items():
                if s < 0.0:
                    raise ValidationError(f"negative score for {c.tag}")
                total += s
            if abs(total - 1.0) > SCORE_SUM_TOL:
                raise ValidationError(f"scores sum to {total!r}, not 1 within {SCORE_SUM_TOL}")
            if self.label is not argmax_scores(scores):
                raise ValidationError("label must be the canonical argmax of the scores")
            object.__setattr__(self, "scores", scores)
        else:
            if self.scores is not None or self.label is not None:
                raise ValidationError("rejected records cannot carry scores or a label")

    @classmethod
    def rejected(cls, stream_index: int, verdict: QcVerdict) -> "PredictionRecord":
        return cls(stream_index=stream_index, qc=verdict)

    @classmethod
    def passing(
        cls,
        stream_index: int,
        scores: Mapping[MorphClass, float],
        dsc: Optional[float] = None,
    ) -> "PredictionRecord":
        return cls(
            stream_index=stream_index,
            qc=QcVerdict(QcTag.PASS, dsc=dsc),
            scores=dict(scores),
            label=argmax_scores(scores),
        )


class DecisionPath(Enum):
    MAJORITY = "Majority"
    MIXED_UNION = "MixedUnion"
    FALLBACK = "Fallback"


@dataclass(frozen=True)
class VideoTimeline:
    """Ordered prediction records for one video plus the final decision."""

    video_id: str
    records: tuple[PredictionRecord, ...] = field(default_factory=tuple)
    decision: Optional[MorphClass] = None
    decision_path: Optional[DecisionPath] = None

    def __post_init__(self) -> None:
        if not isinstance(self.video_id, str):
            raise ValidationError(f"video_id must be a string, got {self.video_id!r}")
        records = tuple(self.records)
        for i, rec in enumerate(records):
            if rec.stream_index != i:
                raise ValidationError(
                    f"records must cover stream indices 0..n-1 without gaps; "
                    f"position {i} holds index {rec.stream_index}"
                )
        any_pass = any(r.qc.passed for r in records)
        if any_pass != (self.decision is not None):
            raise ValidationError("decision must be present iff at least one record passed QC")
        if (self.decision is None) != (self.decision_path is None):
            raise ValidationError("decision and decision_path must be present together")
        object.__setattr__(self, "records", records)

    @property
    def labels(self) -> tuple[MorphClass, ...]:
        return tuple(r.label for r in self.records if r.qc.passed)

    @property
    def pass_fraction(self) -> float:
        if not self.records:
            return 0.0
        return sum(1 for r in self.records if r.qc.passed) / len(self.records)

