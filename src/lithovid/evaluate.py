"""Quantitative assessment of whole-video decisions.

Per-class one-vs-rest diagnostics (balanced accuracy, sensitivity,
specificity, precision, F1), mean +- sample standard deviation across
classes, frame-wise prediction analysis, QC pass-rate statistics, the
one cohort scorer and the three-variant ablation runner. Also owns every
serialized report format, read and written: per-video timeline JSON,
metrics CSV, the text summary and the combined report.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

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
from .decision import LabelCensus, decide
from .errors import LithovidError, read_csv
from .pipeline import Variant, run_raw_video


class ClassMetrics(NamedTuple):
    """One class's one-vs-rest diagnostics, in report column order."""

    balanced_accuracy: float
    sensitivity: float
    specificity: float
    precision: float
    f1: float


METRIC_NAMES = ClassMetrics._fields
METRICS_HEADER = ("variant", "class", *METRIC_NAMES)


def round_half_up_percent(fraction: float) -> int:
    """Round a [0, 1] fraction to integer percent, halves upward. The percent is rounded to 9
    decimals first, so a half that float arithmetic puts just below, as 57.49999999999999
    for (1/5 + 19/20) / 2, still goes up."""
    return int(math.floor(round(fraction * 100.0, 9) + 0.5))


def sample_std(values: Sequence[float]) -> float:
    """Standard deviation with divisor n-1; zero for a single value."""
    n = len(values)
    if n <= 1:
        return 0.0
    mean = sum(values) / n
    return math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1))


def class_metrics(
    pairs: Sequence[tuple[MorphClass, Optional[MorphClass]]], c: MorphClass
) -> ClassMetrics:
    """One-vs-rest metrics of class c; pairs = (truth, decision), a missing decision
    predicts nothing."""
    tp = sum(1 for t, p in pairs if t is c and p is c)
    fn = sum(1 for t, p in pairs if t is c and p is not c)
    fp = sum(1 for t, p in pairs if t is not c and p is c)
    tn = len(pairs) - tp - fn - fp
    if tp + fn == 0:
        raise LithovidError(f"no videos of class {c.tag} in the cohort")
    sensitivity = tp / (tp + fn)
    specificity = tn / (tn + fp) if tn + fp > 0 else 0.0
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    if precision + sensitivity > 0:
        f1 = 2.0 * precision * sensitivity / (precision + sensitivity)
    else:
        f1 = 0.0
    return ClassMetrics((sensitivity + specificity) / 2.0, sensitivity, specificity, precision, f1)


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
        raise LithovidError("overall scores require metrics for all five classes")
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
            raise LithovidError(f"no timelines in group {truth.tag}")
        fractions: dict[MorphClass, list[float]] = {c: [] for c in CANONICAL_ORDER}
        for tl in timelines:
            labels = tl.labels
            if not labels:
                continue
            counts = Counter(labels)
            for c in CANONICAL_ORDER:
                fractions[c].append(counts[c] / len(labels))
        out[truth] = {c: MeanStd(mean=sum(v) / len(v) if v else 0.0, std=sample_std(v))
                      for c, v in fractions.items()}
    return out


def qc_pass_stats(timelines: Sequence[VideoTimeline]) -> MeanStd:
    """Mean +- sample std over videos of the per-video QC pass fraction."""
    if not timelines:
        raise LithovidError("qc_pass_stats requires at least one timeline")
    fractions = [tl.pass_fraction for tl in timelines]
    return MeanStd(mean=sum(fractions) / len(fractions), std=sample_std(fractions))


# -- cohort scoring --------------------------------------------------------------


@dataclass(frozen=True)
class CohortScores:
    timelines: tuple[VideoTimeline, ...]
    truths: tuple[MorphClass, ...]
    per_class: Mapping[MorphClass, ClassMetrics]
    overall: Mapping[str, MeanStd]


def score_cohort(timelines: Sequence[VideoTimeline], truths: Sequence[MorphClass]) -> CohortScores:
    """Score each timeline's decision against its truth: per-class metrics and their
    mean +- std. Every class needs at least one video."""
    pairs = [(t, tl.decision) for tl, t in zip(timelines, truths)]
    per_class = {c: class_metrics(pairs, c) for c in CANONICAL_ORDER}
    return CohortScores(tuple(timelines), tuple(truths), per_class, overall_scores(per_class))


def run_ablation(videos, segmenter_factory: Callable,
                 classifier: Classifier) -> dict[Variant, CohortScores]:
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
    return {v: score_cohort(timelines[v], truths) for v in variants}


# -- serialized report formats ---------------------------------------------------


def _census(labels: Sequence[MorphClass]) -> Optional[dict[str, int]]:
    """A timeline's label census as its JSON holds it; null when no frame passed."""
    counts = Counter(labels)
    return {c.tag: counts[c] for c in CANONICAL_ORDER} if counts else None


def timeline_to_json(
    timeline: VideoTimeline,
    truth_label: Optional[MorphClass] = None,
    variant: Optional[Variant] = None,
) -> str:
    records = [{
        "stream_index": r.stream_index,
        "qc": {"tag": r.qc.tag.value, "dsc": r.qc.dsc},
        "scores": None if r.scores is None else {c.tag: r.scores[c] for c in CANONICAL_ORDER},
        "label": None if r.label is None else r.label.tag,
    } for r in timeline.records]
    payload = {
        "video_id": timeline.video_id,
        "truth_label": None if truth_label is None else truth_label.tag,
        "variant": None if variant is None else variant.value,
        "records": records,
        "census": _census(timeline.labels),
        "decision": None if timeline.decision is None else timeline.decision.tag,
        "decision_path": None if timeline.decision_path is None else timeline.decision_path.value,
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def timeline_from_json(text: str) -> tuple[VideoTimeline, Optional[MorphClass], Optional[Variant]]:
    """The timeline, truth label and variant a timeline JSON holds. Every record has scores
    and label keys, null or not: PredictionRecord alone decides what its QC tag allows."""
    payload = json.loads(text)
    records = tuple(PredictionRecord(
        entry["stream_index"],
        QcVerdict(QcTag(entry["qc"]["tag"]), entry["qc"]["dsc"]),
        None if entry["scores"] is None
        else {MorphClass.from_tag(k): v for k, v in entry["scores"].items()},
        None if entry["label"] is None else MorphClass.from_tag(entry["label"]),
    ) for entry in payload["records"])
    timeline = VideoTimeline(
        video_id=payload["video_id"],
        records=records,
        decision=None if payload["decision"] is None else MorphClass.from_tag(payload["decision"]),
        decision_path=(
            None if payload["decision_path"] is None else DecisionPath(payload["decision_path"])
        ),
    )
    labels = timeline.labels
    derived = decide(LabelCensus.from_labels(labels)) if labels else (None, None)
    census = payload.get("census")
    if (timeline.decision, timeline.decision_path) != derived or census != _census(labels):
        raise LithovidError("decision, decision_path or census disagrees with the records")
    truth = None if payload.get("truth_label") is None else MorphClass.from_tag(payload["truth_label"])
    variant = None if payload.get("variant") is None else Variant(payload["variant"])
    return timeline, truth, variant


def metrics_csv(blocks: Mapping[Variant, Mapping[MorphClass, ClassMetrics]]) -> str:
    """One row per class per variant, metric columns in percent."""
    lines = [",".join(METRICS_HEADER)]
    for variant in Variant:
        if variant not in blocks:
            continue
        for c in CANONICAL_ORDER:
            values = [f"{v * 100:.2f}" for v in blocks[variant][c]]
            lines.append(",".join([variant.value, c.tag, *values]))
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


def report_text(variant: Variant, scores: CohortScores) -> str:
    """summary_text, then per truth class the mean fraction of passing frames given each label."""
    groups: dict[MorphClass, list[VideoTimeline]] = {}
    for tl, truth in zip(scores.timelines, scores.truths):
        groups.setdefault(truth, []).append(tl)
    framewise = framewise_analysis(groups)
    lines = ["", "frame-wise predicted fractions (mean over videos):"]
    for truth in CANONICAL_ORDER:  # scoring found every class among the truths
        fractions = "".join(f" {c.tag}={framewise[truth][c].mean:.2f}" for c in CANONICAL_ORDER)
        lines.append(f"  truth {truth.tag:<7}{fractions}")
    qc_stats = qc_pass_stats(scores.timelines)
    text = summary_text(variant, scores.per_class, scores.overall, qc_stats)
    return text + "\n".join(lines) + "\n"


def read_metrics(paths: Sequence[str]) -> list[list[str]]:
    """The rows of metrics CSVs in the layout metrics_csv writes. A malformed row, or a
    (variant, class) pair that is in two rows of any of the files, is a data error naming
    file:line (of both rows); so is a variant without a row for each class, naming the
    files that hold its rows and the first class it lacks."""
    header = list(METRICS_HEADER)
    variants = {v.value for v in Variant}
    tags = {c.tag for c in CANONICAL_ORDER}
    seen: dict[tuple[str, str], str] = {}
    holders: dict[str, dict[str, None]] = {}  # variant -> the files with its rows, in order
    out = []
    for path in paths:
        rows = read_csv(path, "cannot read metrics file")
        if rows[:1] != [header]:
            raise LithovidError(f"{path}:1: header is not {','.join(header)}")
        for line, row in enumerate(rows[1:], start=2):
            where = f"{path}:{line}"
            if len(row) != len(header):
                raise LithovidError(f"{where}: {len(row)} fields, expected {len(header)}")
            if row[0] not in variants:
                raise LithovidError(f"{where}: unknown variant {row[0]!r}")
            if row[1] not in tags:
                raise LithovidError(f"{where}: unknown class {row[1]!r}")
            try:
                finite = all(math.isfinite(float(v)) for v in row[2:])
            except ValueError:
                finite = False
            if not finite:
                raise LithovidError(f"{where}: metric values must be finite numbers")
            key = (row[0], row[1])
            if key in seen:
                raise LithovidError(f"{where}: variant {row[0]} class {row[1]} is also at "
                                    f"{seen[key]}")
            seen[key] = where
            holders.setdefault(row[0], {})[path] = None
        out += rows[1:]
    for variant, files in holders.items():
        for c in CANONICAL_ORDER:  # the mean over classes needs every class
            if (variant, c.tag) not in seen:
                raise LithovidError(f"{', '.join(files)}: variant {variant} has no row for "
                                    f"class {c.tag}")
    return out


def combined_report(rows: Sequence[Sequence[str]]) -> tuple[str, str]:
    """combined.csv (the rows under one header) and combined.txt (the mean balanced
    accuracy of each variant) from read_metrics' rows."""
    csv_text = "\n".join(",".join(row) for row in [METRICS_HEADER, *rows]) + "\n"
    by_variant: dict[str, list[float]] = {}
    for row in rows:
        by_variant.setdefault(row[0], []).append(float(row[2]))
    lines = ["mean balanced accuracy by variant:"]
    for variant in Variant:
        values = by_variant.get(variant.value)
        if values:
            lines.append(f"  {variant.value:<12} {sum(values) / len(values):6.2f} %")
    return csv_text, "\n".join(lines) + "\n"
