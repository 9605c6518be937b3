"""Output checks, written independently of lithovid's own code.

Every timeline the program writes must parse through lithovid's
``timeline_from_json``, hold exactly one record per 8 Hz stream frame,
and carry the labels, census and decision that the published rules give
for its scores. Balanced accuracy is recomputed from the decisions.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

STREAM_FPS = 8
CLASSES = ("Ia", "IIb", "IIIb", "IaIIb", "IaIIIb")  # canonical tie-break order
UNIONS = {"IaIIb": ("Ia", "IIb", "IaIIb"), "IaIIIb": ("Ia", "IIIb", "IaIIIb")}
SCORE_SUM_TOL = 1e-6


class CheckFailed(Exception):
    pass


def stream_frames(n_native: int, native_fps: float) -> int:
    """Number of 8 Hz frames a video of n_native frames resamples to."""
    return max(1, math.floor(Fraction(n_native * STREAM_FPS) / Fraction(native_fps)
                             + Fraction(1, 2)))


def reference_decision(labels: list[str]) -> tuple[str | None, str | None]:
    """Majority, else mixed union, else most frequent; ties in class order."""
    if not labels:
        return None, None
    n = len(labels)
    counts = {c: labels.count(c) for c in CLASSES}
    for c in CLASSES:
        if 2 * counts[c] > n:
            return c, "Majority"
    pooled = {m: sum(counts[c] for c in members) for m, members in UNIONS.items()}
    hits = [m for m in UNIONS if 2 * pooled[m] > n]
    if hits:
        best = max(pooled[m] for m in hits)
        return next(m for m in hits if pooled[m] == best), "MixedUnion"
    best = max(counts.values())
    return next(c for c in CLASSES if counts[c] == best), "Fallback"


def check_timeline(text: str, expected_records: int) -> dict:
    """Validate one timeline JSON; returns its parsed payload."""
    from lithovid.evaluate import timeline_from_json

    try:
        timeline_from_json(text)
    except Exception as exc:  # any failure to parse is an output defect
        raise CheckFailed(f"timeline_from_json rejected the timeline: {exc!r}") from None
    payload = json.loads(text)
    records = payload["records"]
    vid = payload["video_id"]
    if len(records) != expected_records:
        raise CheckFailed(f"{vid}: {len(records)} records, expected {expected_records}")
    labels = []
    for k, rec in enumerate(records):
        if rec["stream_index"] != k:
            raise CheckFailed(f"{vid}: record {k} has stream index {rec['stream_index']}")
        if rec["qc"]["tag"] != "Pass":
            continue
        scores = rec["scores"]
        if abs(sum(scores.values()) - 1.0) > SCORE_SUM_TOL:
            raise CheckFailed(f"{vid}: scores of record {k} do not sum to 1")
        best = max(scores.values())
        if rec["label"] != next(c for c in CLASSES if scores[c] == best):
            raise CheckFailed(f"{vid}: label of record {k} is not the argmax of its scores")
        labels.append(rec["label"])
    census = {c: labels.count(c) for c in CLASSES} if labels else None
    if payload["census"] != census:
        raise CheckFailed(f"{vid}: census {payload['census']} != {census}")
    decision = reference_decision(labels)
    if (payload["decision"], payload["decision_path"]) != decision:
        raise CheckFailed(f"{vid}: decision {payload['decision']}/{payload['decision_path']} "
                          f"!= reference {decision[0]}/{decision[1]}")
    return payload


def balanced_accuracy_pct(pairs: list[tuple[str, str | None]]) -> dict[str, float]:
    """One-vs-rest balanced accuracy per class, in percent, from (truth, decision)."""
    out = {}
    for c in CLASSES:
        tp = sum(1 for t, d in pairs if t == c and d == c)
        fn = sum(1 for t, d in pairs if t == c and d != c)
        fp = sum(1 for t, d in pairs if t != c and d == c)
        tn = sum(1 for t, d in pairs if t != c and d != c)
        if tp + fn == 0:
            raise CheckFailed(f"cohort has no video of class {c}")
        specificity = tn / (tn + fp) if tn + fp else 0.0
        out[c] = 50.0 * (tp / (tp + fn) + specificity)
    return out


def check_report_csv(text: str, variant: str, expected: dict[str, float]) -> None:
    """The eval report's balanced accuracy must match the recomputed one."""
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    got = {row[1]: float(row[2]) for row in rows if row[0] == variant}
    if set(got) != set(CLASSES):
        raise CheckFailed(f"report.csv lacks rows for variant {variant}")
    for c in CLASSES:
        if abs(got[c] - expected[c]) > 0.005 + 1e-9:
            raise CheckFailed(f"report.csv balanced accuracy for {c}: {got[c]} "
                              f"!= recomputed {expected[c]:.4f}")


def tree_digest(root: Path) -> str:
    """sha256 over the relative paths and bytes of every file under root."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()
