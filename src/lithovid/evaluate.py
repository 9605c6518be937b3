"""Quantitative assessment of whole-video decisions.

Per-class one-vs-rest diagnostics (balanced accuracy, sensitivity,
specificity, precision, F1), mean +- sample standard deviation across
classes, frame-wise prediction analysis, QC pass-rate statistics and the
three-variant ablation runner. Also owns the serialized report formats:
per-video timeline JSON, metrics CSV and the text summary.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from .classify import Classifier
from .core import (
    CANONICAL_ORDER,
    DecisionPath,
    MorphClass,
    PredictionRecord,
    QcTag,
    QcVerdict,
    VideoTimeline,
)
from .errors import EmptyGroup, NoPositives, ValidationError
from .pipeline import Variant, run_raw_video

METRIC_NAMES = ("balanced_accuracy", "sensitivity", "specificity", "precision", "f1")
METRICS_HEADER = ("variant", "class", *METRIC_NAMES)


def round_half_up_percent(fraction: float) -> int:
    """Round a [0, 1] fraction to integer percent, halves upward."""
    return int(math.floor(fraction * 100.0 + 0.5))


def sample_std(values: Sequence[float]) -> float:
    """Standard deviation with divisor n-1; zero for a single value."""
    n = len(values)
    if n <= 1:
        return 0.0
    mean = sum(values) / n
    return math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1))


@dataclass(frozen=True)
class ConfusionTally:
    """Per-class one-vs-rest video counts (truth label vs final decision)."""

    cells: Mapping[MorphClass, tuple[int, int, int, int]]  # tp, fn, fp, tn
    n_videos: int

    def __post_init__(self) -> None:
        for c, (tp, fn, fp, tn) in self.cells.items():
            if tp + fn + fp + tn != self.n_videos:
                raise ValidationError(f"tally cells for {c.tag} do not sum to {self.n_videos}")

    @classmethod
    def from_pairs(
        cls, pairs: Sequence[tuple[MorphClass, Optional[MorphClass]]]
    ) -> "ConfusionTally":
        """pairs = (truth, decision); a missing decision predicts nothing."""
        cells = {}
        for c in CANONICAL_ORDER:
            tp = sum(1 for t, p in pairs if t is c and p is c)
            fn = sum(1 for t, p in pairs if t is c and p is not c)
            fp = sum(1 for t, p in pairs if t is not c and p is c)
            tn = sum(1 for t, p in pairs if t is not c and p is not c)
            cells[c] = (tp, fn, fp, tn)
        return cls(cells=cells, n_videos=len(pairs))


@dataclass(frozen=True)
class ClassMetrics:
    sensitivity: float
    specificity: float
    precision: float
    balanced_accuracy: float
    f1: float

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in METRIC_NAMES}


def class_metrics(tally: ConfusionTally, c: MorphClass) -> ClassMetrics:
    tp, fn, fp, tn = tally.cells[c]
    if tp + fn == 0:
        raise NoPositives(f"no videos of class {c.tag} in the cohort")
    sensitivity = tp / (tp + fn)
    specificity = tn / (tn + fp) if tn + fp > 0 else 0.0
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    balanced_accuracy = (sensitivity + specificity) / 2.0
    if precision + sensitivity > 0:
        f1 = 2.0 * precision * sensitivity / (precision + sensitivity)
    else:
        f1 = 0.0
    return ClassMetrics(
        sensitivity=sensitivity,
        specificity=specificity,
        precision=precision,
        balanced_accuracy=balanced_accuracy,
        f1=f1,
    )


def all_class_metrics(tally: ConfusionTally) -> dict[MorphClass, ClassMetrics]:
    return {c: class_metrics(tally, c) for c in CANONICAL_ORDER}


@dataclass(frozen=True)
class MeanStd:
    mean: float
    std: float

    @property
    def rounded(self) -> tuple[int, int]:
        return round_half_up_percent(self.mean), round_half_up_percent(self.std)


def overall_scores(per_class: Mapping[MorphClass, ClassMetrics]) -> dict[str, MeanStd]:
    """Mean and sample std of each metric over the five classes."""
    if set(per_class) != set(CANONICAL_ORDER):
        raise ValidationError("overall scores require metrics for all five classes")
    out = {}
    for name in METRIC_NAMES:
        values = [getattr(per_class[c], name) for c in CANONICAL_ORDER]
        out[name] = MeanStd(mean=sum(values) / len(values), std=sample_std(values))
    return out


def framewise_analysis(
    groups: Mapping[MorphClass, Sequence[VideoTimeline]],
) -> dict[MorphClass, dict[MorphClass, MeanStd]]:
    """Per truth class: mean/std over videos of the fraction of passing
    frames predicted as each class. Videos without passing frames carry
    no fractions and are skipped."""
    out: dict[MorphClass, dict[MorphClass, MeanStd]] = {}
    for truth, timelines in groups.items():
        if not timelines:
            raise EmptyGroup(f"no timelines in group {truth.tag}")
        fractions: dict[MorphClass, list[float]] = {c: [] for c in CANONICAL_ORDER}
        for tl in timelines:
            labels = tl.labels
            if not labels:
                continue
            for c in CANONICAL_ORDER:
                fractions[c].append(sum(1 for l in labels if l is c) / len(labels))
        out[truth] = {
            c: MeanStd(
                mean=sum(v) / len(v) if v else 0.0,
                std=sample_std(v),
            )
            for c, v in fractions.items()
        }
    return out


def qc_pass_stats(timelines: Sequence[VideoTimeline]) -> MeanStd:
    """Mean +- sample std over videos of the per-video QC pass fraction."""
    if not timelines:
        raise ValidationError("qc_pass_stats requires at least one timeline")
    fractions = [tl.pass_fraction for tl in timelines]
    return MeanStd(mean=sum(fractions) / len(fractions), std=sample_std(fractions))


# -- ablation -------------------------------------------------------------------


@dataclass(frozen=True)
class AblationResult:
    timelines: tuple[VideoTimeline, ...]
    truths: tuple[MorphClass, ...]
    per_class: Mapping[MorphClass, ClassMetrics]
    overall: Mapping[str, MeanStd]


def run_ablation(
    videos,
    segmenter_factory: Callable,
    classifier: Classifier,
) -> dict[Variant, AblationResult]:
    """Run every pipeline variant over one shared cohort.

    videos is an iterable of (RawVideo, truth MorphClass); it is
    consumed once, each video running through all variants in one pass
    before the next is touched, so cohorts can be generated lazily.
    """
    variants = tuple(Variant)
    timelines: dict[Variant, list[VideoTimeline]] = {v: [] for v in variants}
    truths: list[MorphClass] = []
    for video, truth in videos:
        truths.append(truth)
        per_variant = run_raw_video(video, segmenter_factory, classifier, variants)
        for variant, tl in per_variant.items():
            timelines[variant].append(tl)
    out = {}
    for variant in variants:
        tally = ConfusionTally.from_pairs(
            [(t, tl.decision) for tl, t in zip(timelines[variant], truths)]
        )
        per_class = all_class_metrics(tally)
        out[variant] = AblationResult(
            timelines=tuple(timelines[variant]),
            truths=tuple(truths),
            per_class=per_class,
            overall=overall_scores(per_class),
        )
    return out


# -- serialized report formats ---------------------------------------------------


def timeline_to_json(
    timeline: VideoTimeline,
    truth_label: Optional[MorphClass] = None,
    variant: Optional[Variant] = None,
) -> str:
    records = []
    for r in timeline.records:
        entry: dict = {
            "stream_index": r.stream_index,
            "qc": {"tag": r.qc.tag.value, "dsc": r.qc.dsc},
        }
        if r.qc.passed:
            entry["scores"] = {c.tag: r.scores[c] for c in CANONICAL_ORDER}
            entry["label"] = r.label.tag
        else:
            entry["scores"] = None
            entry["label"] = None
        records.append(entry)
    labels = timeline.labels
    census = {c.tag: sum(1 for l in labels if l is c) for c in CANONICAL_ORDER} if labels else None
    payload = {
        "video_id": timeline.video_id,
        "truth_label": None if truth_label is None else truth_label.tag,
        "variant": None if variant is None else variant.value,
        "records": records,
        "census": census,
        "decision": None if timeline.decision is None else timeline.decision.tag,
        "decision_path": None if timeline.decision_path is None else timeline.decision_path.value,
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def timeline_from_json(text: str) -> tuple[VideoTimeline, Optional[MorphClass], Optional[Variant]]:
    payload = json.loads(text)
    records = []
    for entry in payload["records"]:
        tag = QcTag(entry["qc"]["tag"])
        verdict = QcVerdict(tag, dsc=entry["qc"]["dsc"])
        if verdict.passed:
            scores = {MorphClass.from_tag(k): v for k, v in entry["scores"].items()}
            records.append(
                PredictionRecord(
                    stream_index=entry["stream_index"],
                    qc=verdict,
                    scores=scores,
                    label=MorphClass.from_tag(entry["label"]),
                )
            )
        else:
            records.append(PredictionRecord(stream_index=entry["stream_index"], qc=verdict))
    timeline = VideoTimeline(
        video_id=payload["video_id"],
        records=tuple(records),
        decision=None if payload["decision"] is None else MorphClass.from_tag(payload["decision"]),
        decision_path=(
            None if payload["decision_path"] is None else DecisionPath(payload["decision_path"])
        ),
    )
    truth = None if payload.get("truth_label") is None else MorphClass.from_tag(payload["truth_label"])
    variant = None if payload.get("variant") is None else Variant(payload["variant"])
    return timeline, truth, variant


def metrics_csv(
    blocks: Mapping[Variant, Mapping[MorphClass, ClassMetrics]],
) -> str:
    """One row per class per variant, metric columns in percent."""
    lines = [",".join(METRICS_HEADER)]
    for variant in Variant:
        if variant not in blocks:
            continue
        for c in CANONICAL_ORDER:
            values = blocks[variant][c].as_dict().values()
            lines.append(",".join([variant.value, c.tag] + [f"{v * 100:.2f}" for v in values]))
    return "\n".join(lines) + "\n"


def summary_text(
    variant: Variant,
    per_class: Mapping[MorphClass, ClassMetrics],
    overall: Mapping[str, MeanStd],
    qc_stats: MeanStd,
) -> str:
    """Paper-style table for one variant: integer percents, mean +- sample std overall."""
    lines = [
        f"== variant: {variant.value} ==",
        "metric                " + "".join(f"{c.tag:>9}" for c in CANONICAL_ORDER) + "   overall",
    ]
    for name in METRIC_NAMES:
        row = f"{name:<22}"
        for c in CANONICAL_ORDER:
            row += f"{round_half_up_percent(getattr(per_class[c], name)):>9}"
        ms = overall[name]
        row += f"   {ms.rounded[0]} +- {ms.rounded[1]}"
        lines.append(row)
    lines.append(f"qc pass fraction       {qc_stats.rounded[0]} +- {qc_stats.rounded[1]} %")
    return "\n".join(lines) + "\n"
