"""Per-frame morphology prediction on stone-masked frames.

A trained deep classifier is out of scope; predictions flow through a
uniform interface with two implementations: a nearest-centroid model
over color/gradient histograms of the stone pixels, and an import path
for per-frame score files produced by any external network.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Protocol

import numpy as np

from .core import CANONICAL_ORDER, FRAME_SIDE, FrameGrid, MorphClass, StoneMask
from .errors import LithovidError, json_fields, json_number, read_csv, read_json

RGB_BINS = 8          # per channel, 8x8x8 = 512 color bins
GRAD_BINS = 16
GRAD_BIN_WIDTH = 10.0  # gradient-magnitude bin width in intensity units
FEATURE_DIM = RGB_BINS**3 + GRAD_BINS
BETA = 50.0  # softmin temperature: moves score digits, never the argmax
IMPORT_SUM_TOL = 1e-6

SCORE_HEADER = ["frame"] + [c.tag for c in CANONICAL_ORDER]


class Classifier(Protocol):
    """Score-map predictor; scores cover all five classes and sum to 1."""

    def predict(self, frame: FrameGrid, mask: StoneMask) -> dict[MorphClass, float]: ...


def _check_shapes(frame: FrameGrid, mask: StoneMask) -> None:
    if mask.bits.shape != frame.pixels.shape[:2]:
        raise LithovidError(
            f"mask {mask.bits.shape} vs frame {frame.pixels.shape[:2]}"
        )


_SCRATCH = np.empty((5, FRAME_SIDE * FRAME_SIDE))  # features' float64 scratch, a row per role


def _gradient_bins(gx: np.ndarray, gy: np.ndarray, q: np.ndarray, off: np.ndarray) -> np.ndarray:
    """min(floor(hypot(gx, gy) / GRAD_BIN_WIDTH), GRAD_BINS - 1) as uint8; see features.
    q and off are float64 scratch of gx's shape, overwritten."""
    np.multiply(gx, gx, out=q)
    q += np.multiply(gy, gy, out=off)
    np.sqrt(q, out=q)
    q /= GRAD_BIN_WIDTH
    np.rint(q, out=off)
    off -= q
    near = (np.abs(off, out=off) < 1e-6) & (q > 0.5)  # q >= 0 never straddles edge 0
    q[near] = np.hypot(gx[near], gy[near]) / GRAD_BIN_WIDTH
    return np.minimum(q, GRAD_BINS - 1, out=q).astype(np.uint8)


def features(frame: FrameGrid, mask: StoneMask) -> np.ndarray:
    """L1-normalized color + gradient histogram over the stone pixels only.

    Computed as on a frame whose pixels outside the mask are zeroed, so
    nothing outside the mask can leak into the feature vector: gradients
    at the stone border see zeros, never the actual background.
    Both bins are exact. The color bin (r>>5)*64 + (g>>5)*8 + (b>>5) is
    built with shifts on the box. The gradient bin takes q = sqrt(gx*gx +
    gy*gy) / 10 for hypot(gx, gy) / 10: both are within a few ulps of the
    true value and q < 37 (|g| <= 255 * sqrt(2)), so they differ by under
    1e-13 and can floor differently only that close to a bin edge; where
    q is within 1e-6 of one, hypot is recomputed.
    Luma, gradients and bins are written into scratch buffers that every
    call reuses. They are per process, so features is not for concurrent threads.
    """
    if mask.empty:
        raise LithovidError("cannot featurize an empty mask")
    _check_shapes(frame, mask)
    # Work on the stone's bounding box plus a 1-px border, clipped to the
    # frame. The border holds every neighbour a central difference at a
    # stone pixel reads; where the box meets a frame edge, np.gradient takes
    # the same one-sided difference as on the whole frame.
    rows = np.flatnonzero(mask.bits.any(axis=1))
    cols = np.flatnonzero(mask.bits.any(axis=0))
    box = np.s_[max(rows[0] - 1, 0) : rows[-1] + 2, max(cols[0] - 1, 0) : cols[-1] + 2]
    bits = mask.bits[box]
    keep = ... if mask.count == bits.size else bits  # a full box needs no gather
    r, g, b = (frame.pixels[box][..., c] for c in range(3))
    idx = (r >> 5).astype(np.uint16)
    for channel in (g, b):
        idx <<= 3  # log2(RGB_BINS)
        idx |= channel >> 5
    color_hist = np.bincount(idx[keep].ravel(), minlength=RGB_BINS**3)

    luma, gy, gx, q, off = (row[: bits.size].reshape(bits.shape) for row in _SCRATCH)
    np.multiply(r, 0.299, out=luma)  # 0.299 * r + 0.587 * g + 0.114 * b, in that order
    luma += np.multiply(g, 0.587, out=gy)
    luma += np.multiply(b, 0.114, out=gy)
    luma[~bits] = 0.0  # the luma of a zeroed pixel
    # np.gradient down the rows, then along them: halved central differences, one-sided at ends
    for f, d in ((luma, gy), (luma.T, gx.T)):
        np.subtract(f[2:], f[:-2], out=d[1:-1])
        d[1:-1] /= 2.0
        np.subtract(f[1], f[0], out=d[0])
        np.subtract(f[-1], f[-2], out=d[-1])
    grad_hist = np.bincount(_gradient_bins(gx, gy, q, off)[keep].ravel(), minlength=GRAD_BINS)

    vec = np.concatenate([color_hist, grad_hist]).astype(np.float64)
    return vec / vec.sum()


def softmin_scores(distances: Mapping[MorphClass, float], beta: float) -> dict[MorphClass, float]:
    """exp(-beta*d) normalized over classes; beta 0 gives uniform scores."""
    if beta < 0:
        raise LithovidError("beta must be non-negative")
    classes = [c for c in CANONICAL_ORDER if c in distances]
    d = np.array([distances[c] for c in classes], dtype=np.float64)
    w = np.exp(-beta * (d - d.min()))
    w /= w.sum()
    return {c: float(w[i]) for i, c in enumerate(classes)}


@dataclass(frozen=True, eq=False)
class CentroidModel:
    """Feature centroids of all five classes, scored by a softmin over L1 distances."""

    centroids: Mapping[MorphClass, np.ndarray]

    def __post_init__(self) -> None:
        cents = {}
        for c, v in self.centroids.items():
            arr = np.asarray(v, dtype=np.float64)
            if arr.shape != (FEATURE_DIM,):
                raise LithovidError(f"centroid for {c.tag} has shape {arr.shape}")
            if not np.isfinite(arr).all():
                raise LithovidError(f"centroid for {c.tag} has non-finite values")
            arr = arr.copy()
            arr.setflags(write=False)
            cents[c] = arr
        missing = [c.tag for c in CANONICAL_ORDER if c not in cents]
        if missing:
            raise LithovidError(f"model lacks centroids for: {', '.join(missing)}")
        object.__setattr__(self, "centroids", cents)

    def predict(self, frame: FrameGrid, mask: StoneMask) -> dict[MorphClass, float]:
        feat = features(frame, mask)
        dists = {
            c: float(np.abs(feat - cent).sum()) for c, cent in self.centroids.items()
        }
        return softmin_scores(dists, BETA)

    def save(self, path: Path) -> None:
        payload = {"centroids": {c.tag: [float(x) for x in v] for c, v in self.centroids.items()}}
        Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n", "utf-8")

    @classmethod
    def load(cls, path: Path) -> "CentroidModel":
        return read_json(path, "cannot load model from", lambda payload: cls(
            {MorphClass.from_tag(tag): np.array([json_number(x, f"centroid {tag}") for x in vec])
             for tag, vec in json_fields(payload, "centroids")[0].items()}))


def train_centroid(samples: Iterable[tuple[FrameGrid, StoneMask, MorphClass]]) -> CentroidModel:
    """Average the feature vectors of each class into its centroid."""
    sums: dict[MorphClass, np.ndarray] = {}
    counts: dict[MorphClass, int] = {}
    for i, (frame, mask, label) in enumerate(samples):
        if mask.empty:
            raise LithovidError(f"training sample {i} ({label.tag}) has an empty mask")
        vec = features(frame, mask)
        if label in sums:
            sums[label] += vec
            counts[label] += 1
        else:
            sums[label] = vec.copy()
            counts[label] = 1
    missing = [c.tag for c in CANONICAL_ORDER if c not in sums]
    if missing:
        raise LithovidError(f"no training samples for: {', '.join(missing)}")
    centroids = {c: sums[c] / counts[c] for c in sums}
    return CentroidModel(centroids=centroids)


# -- external score import ----------------------------------------------------


@dataclass(frozen=True, eq=False)
class ScoreTable:
    """Classifier backed by imported per-frame scores."""

    scores: Mapping[int, Mapping[MorphClass, float]]

    def predict(self, frame: FrameGrid, mask: StoneMask) -> dict[MorphClass, float]:
        try:
            return dict(self.scores[frame.stream_index])
        except KeyError:
            raise LithovidError(
                f"no imported score for stream index {frame.stream_index}"
            ) from None


def import_scores(path: Path) -> dict[int, dict[MorphClass, float]]:
    """Read a per-frame score CSV (header frame,Ia,IIb,IIIb,IaIIb,IaIIIb).

    Each row must sum to 1 within 1e-6. Rows are renormalized to an
    exact unit sum only when they are not already there at float
    precision, so pipeline scores written with repr() re-import
    bit-faithfully.
    """
    path = Path(path)
    rows = read_csv(path, "cannot read scores")
    if not rows:
        raise LithovidError(f"{path} is empty")
    header = rows[0]
    if [h.strip() for h in header] != SCORE_HEADER:
        for col in header[1:]:
            if col.strip() not in {c.tag for c in CANONICAL_ORDER}:
                raise LithovidError(f"{path}: unknown class column {col.strip()!r}")
        raise LithovidError(f"{path}: header must be {','.join(SCORE_HEADER)}")
    out: dict[int, dict[MorphClass, float]] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 6:
            raise LithovidError(f"{path}:{lineno}: expected 6 fields, got {len(row)}")
        try:
            frame_idx = int(row[0])
            values = [float(x) for x in row[1:]]
        except ValueError as exc:
            raise LithovidError(f"{path}:{lineno}: {exc}") from None
        if frame_idx < 0:
            raise LithovidError(f"{path}:{lineno}: negative frame index")
        if frame_idx in out:
            raise LithovidError(f"{path}:{lineno}: duplicate frame {frame_idx}")
        if not all(math.isfinite(v) for v in values):
            raise LithovidError(f"{path}:{lineno}: non-finite score")
        if any(v < 0 for v in values):
            raise LithovidError(f"{path}:{lineno}: negative score")
        total = sum(values)
        if abs(total - 1.0) > IMPORT_SUM_TOL:
            raise LithovidError(
                f"{path}:{lineno}: scores sum to {total!r}, not 1 within {IMPORT_SUM_TOL}"
            )
        if abs(total - 1.0) > 1e-12:
            values = [v / total for v in values]
        out[frame_idx] = dict(zip(CANONICAL_ORDER, values))
    return out

