"""Per-frame stone-region identification and its reference numerics.

The trained network that produces clinical masks is out of scope here;
segmentation runs behind a small interface with two shippable
implementations (ground-truth pass-through for phantom streams and a
calibrated color-distance heuristic), plus the Dice similarity the QC
gate uses and the reference losses of the external model's training.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Protocol, Sequence, Union

import numpy as np
from scipy import ndimage

from .core import FrameGrid, StoneMask
from .errors import LithovidError, ValidationError, read_json

BCE_EPS = 1e-7

MaskLike = Union[StoneMask, np.ndarray]
ProbLike = np.ndarray


class Segmenter(Protocol):
    """Pure per-frame mask predictor; implementations must be deterministic."""

    def segment(self, frame: FrameGrid) -> StoneMask: ...


def _bits(mask: MaskLike) -> np.ndarray:
    if isinstance(mask, StoneMask):
        return mask.bits
    return np.asarray(mask).astype(bool)


def _probs(p: ProbLike) -> np.ndarray:
    arr = np.asarray(p, dtype=np.float64)
    if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
        raise ValidationError("probabilities must lie in [0, 1]")
    return arr


def _check_dims(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise LithovidError(f"shape {a.shape} vs {b.shape}")


def dsc(a: MaskLike, b: MaskLike) -> float:
    """Dice similarity 2|A.B| / (|A| + |B|); two empty masks score 1."""
    ab, bb = _bits(a), _bits(b)
    _check_dims(ab, bb)
    na = int(np.count_nonzero(ab))
    nb = int(np.count_nonzero(bb))
    if na + nb == 0:
        return 1.0
    inter = int(np.count_nonzero(ab & bb))
    return 2.0 * inter / (na + nb)


def bce_loss(p: ProbLike, t: MaskLike) -> float:
    """Mean binary cross-entropy with probabilities clamped to [eps, 1-eps]."""
    probs = _probs(p)
    target = _bits(t).astype(np.float64)
    _check_dims(probs, target)
    q = np.clip(probs, BCE_EPS, 1.0 - BCE_EPS)
    return float(np.mean(-(target * np.log(q) + (1.0 - target) * np.log1p(-q))))


def bce_loss_grad(p: ProbLike, t: MaskLike) -> np.ndarray:
    """Gradient of bce_loss w.r.t. p (zero inside the clamped region)."""
    probs = _probs(p)
    target = _bits(t).astype(np.float64)
    _check_dims(probs, target)
    q = np.clip(probs, BCE_EPS, 1.0 - BCE_EPS)
    grad = (-target / q + (1.0 - target) / (1.0 - q)) / probs.size
    grad[(probs < BCE_EPS) | (probs > 1.0 - BCE_EPS)] = 0.0
    return grad


def dice_loss(p: ProbLike, t: MaskLike, smooth: float = 1.0) -> float:
    """Smoothed soft-Dice loss 1 - (2*sum(p*t)+s) / (sum(p)+sum(t)+s)."""
    probs = _probs(p)
    target = _bits(t).astype(np.float64)
    _check_dims(probs, target)
    inter = float((probs * target).sum())
    denom = float(probs.sum() + target.sum() + smooth)
    return 1.0 - (2.0 * inter + smooth) / denom


def dice_loss_grad(p: ProbLike, t: MaskLike, smooth: float = 1.0) -> np.ndarray:
    probs = _probs(p)
    target = _bits(t).astype(np.float64)
    _check_dims(probs, target)
    inter = float((probs * target).sum())
    denom = float(probs.sum() + target.sum() + smooth)
    num = 2.0 * inter + smooth
    return -(2.0 * target * denom - num) / (denom * denom)


def combined_loss(p: ProbLike, t: MaskLike, smooth: float = 1.0) -> float:
    """Reference training objective: unweighted bce + dice sum."""
    return bce_loss(p, t) + dice_loss(p, t, smooth=smooth)


# -- mask cleanup -------------------------------------------------------------


def clean_mask(bits: np.ndarray, min_component_px: int) -> np.ndarray:
    """Drop 4-connected components below min_component_px, then fill holes.

    Labels only the candidates' bounding box, padded with a background ring that
    stands for the outside of the box: holes are background not 4-connected to it.
    """
    out = np.zeros_like(bits, dtype=bool)
    rows = np.flatnonzero(bits.any(axis=1))
    if rows.size == 0:
        return out
    cols = np.flatnonzero(bits.any(axis=0))
    box = np.s_[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]
    labels, _ = ndimage.label(bits[box])
    keep = np.bincount(labels.ravel()) >= min_component_px
    keep[0] = False
    background, _ = ndimage.label(np.pad(~keep[labels], 1, constant_values=True))
    out[box] = background[1:-1, 1:-1] != background[0, 0]
    return out


# -- segmenter implementations ------------------------------------------------


@dataclass(frozen=True, eq=False)
class OracleSegmenter:
    """Ground-truth pass-through for phantom streams (upper-bound baseline)."""

    truths: Sequence[Optional[StoneMask]]  # may be lazy: each mask is read once per segment call

    def segment(self, frame: FrameGrid) -> StoneMask:
        idx = frame.stream_index
        mask = self.truths[idx] if idx < len(self.truths) else None
        if mask is None:
            raise LithovidError(f"no ground-truth mask for stream index {idx}")
        return mask

    @classmethod
    def from_masks(cls, masks: Sequence[Optional[StoneMask]]) -> "OracleSegmenter":
        return cls(truths=masks)


@dataclass(frozen=True, eq=False)
class ChromaSegmenter:
    """Color-distance heuristic stand-in for a trained mask network.

    Pixels whose Mahalanobis distance to the calibrated background color
    model exceeds tau are stone candidates; small components are dropped
    and holes filled.
    """

    background_mean: np.ndarray
    background_cov: np.ndarray
    tau: float
    min_component_px: int = 64
    _inv_cov: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        mean = np.asarray(self.background_mean, dtype=np.float64).reshape(3)
        cov = np.asarray(self.background_cov, dtype=np.float64).reshape(3, 3)
        if not 0 < self.tau < math.inf:
            raise LithovidError(f"tau must be positive and finite, got {self.tau!r}")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise LithovidError("background mean and covariance must be finite")
        try:
            inv = np.linalg.inv(cov)
        except np.linalg.LinAlgError:
            raise LithovidError("background covariance is singular") from None
        object.__setattr__(self, "background_mean", mean)
        object.__setattr__(self, "background_cov", cov)
        object.__setattr__(self, "_inv_cov", inv)

    def distances_sq(self, pixels: np.ndarray) -> np.ndarray:
        """Squared Mahalanobis distance to the background colour, per pixel.

        Adds (d_i * inv_cov[i, j]) * d_j to zeros, i-major and j-minor: that is
        einsum("...i,ij,...j->...", d, inv_cov, d)'s own order, so the floats match.
        """
        diff = [pixels[..., i] - m for i, m in enumerate(self.background_mean)]
        out = np.zeros(pixels.shape[:-1])
        term = np.empty_like(out)
        for i, j in np.ndindex(3, 3):
            np.multiply(diff[i], self._inv_cov[i, j], out=term)
            term *= diff[j]
            out += term
        return out

    def segment(self, frame: FrameGrid) -> StoneMask:
        d2 = self.distances_sq(frame.pixels)
        raw = d2 > self.tau * self.tau
        return StoneMask(clean_mask(raw, self.min_component_px))

    def save(self, path: Path) -> None:
        payload = {
            "background_mean": [float(x) for x in self.background_mean],
            "background_cov": [[float(x) for x in row] for row in self.background_cov],
            "tau": float(self.tau),
            "min_component_px": int(self.min_component_px),
        }
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", "utf-8")

    @classmethod
    def load(cls, path: Path) -> "ChromaSegmenter":
        return read_json(path, LithovidError, "cannot load calibration from", lambda payload: cls(
            background_mean=np.array(payload["background_mean"], dtype=np.float64),
            background_cov=np.array(payload["background_cov"], dtype=np.float64),
            tau=float(payload["tau"]),
            min_component_px=int(payload.get("min_component_px", 64)),
        ))


COV_RIDGE = 4.0  # keeps the background model invertible on flat scenes


def calibrate_chroma(samples: Iterable[tuple[FrameGrid, StoneMask]]) -> ChromaSegmenter:
    """Fit the background color model and pick tau from labeled stills.

    tau lands at the geometric midpoint (in squared-distance space)
    between the 99.9th percentile of background distances and the 5th
    percentile of stone distances.
    """
    bg_pixels = []
    stone_pixels = []
    for frame, mask in samples:
        px = frame.pixels[::3, ::3].reshape(-1, 3)  # every third row and column
        bits = mask.bits[::3, ::3].reshape(-1)
        bg_pixels.append(px[~bits])
        stone_pixels.append(px[bits])
    bg = np.concatenate(bg_pixels).astype(np.float64)
    stone = np.concatenate(stone_pixels).astype(np.float64)
    if bg.shape[0] < 100:
        raise LithovidError("not enough background pixels to calibrate")
    mean = bg.mean(axis=0)
    cov = np.cov(bg, rowvar=False) + COV_RIDGE * np.eye(3)
    seg = ChromaSegmenter(background_mean=mean, background_cov=cov, tau=1.0)
    d2_bg = seg.distances_sq(bg)
    hi_bg = float(np.quantile(d2_bg, 0.999))
    if stone.shape[0] >= 100:
        d2_stone = seg.distances_sq(stone)
        lo_stone = float(np.quantile(d2_stone, 0.05))
        tau_sq = math.sqrt(max(hi_bg, 1e-6) * max(lo_stone, hi_bg, 1e-6))
    else:
        tau_sq = hi_bg * 1.5
    tau = max(2.0, math.sqrt(tau_sq))
    return ChromaSegmenter(background_mean=mean, background_cov=cov, tau=tau)
