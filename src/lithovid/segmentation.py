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
from functools import cached_property
from pathlib import Path
from typing import Iterable, Optional, Protocol, Sequence, Union

import numpy as np

from .core import FrameGrid, StoneMask
from .errors import LithovidError, json_fields, json_number, read_json

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
        raise LithovidError("probabilities must lie in [0, 1]")
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

_FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
MIN_COMPONENT_PX = 64  # ChromaSegmenter.segment drops smaller candidate components


def clean_mask(bits: np.ndarray, min_component_px: int) -> np.ndarray:
    """Drop 4-connected components below min_component_px, then fill holes.

    Labels only the candidates' bounding box, padded with a background ring that
    stands for the outside of the box: holes are background not 4-connected to it.
    """
    from scipy import ndimage  # only a command that cleans a chroma mask loads scipy

    out = np.zeros_like(bits, dtype=bool)
    rows = np.flatnonzero(bits.any(axis=1))
    if rows.size == 0:
        return out
    cols = np.flatnonzero(bits.any(axis=0))
    box = np.s_[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]
    labels, _ = ndimage.label(bits[box], _FOUR_CONNECTED)
    keep = np.bincount(labels.ravel()) >= min_component_px
    keep[0] = False
    ringed = np.ones((labels.shape[0] + 2, labels.shape[1] + 2), dtype=bool)
    ringed[1:-1, 1:-1] = (~keep)[labels]
    background, _ = ndimage.label(ringed, _FOUR_CONNECTED)
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
        if not np.array_equal(cov, cov.T):
            raise LithovidError("background covariance must be symmetric")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise LithovidError("background covariance must be positive definite") from None
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

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_blue_bounds"}  # built per process

    @cached_property
    def _blue_bounds(self) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """uint8 lo and hi at (r << 8) | g: b in [lo, hi] has distances_sq <= tau²."""
        inv, mean, tau_sq = self._inv_cov, self.background_mean, self.tau * self.tau
        reach = np.maximum(np.abs(mean), np.abs(255.0 - mean))
        err, a = 64 * 2.0**-53 * (reach @ np.abs(inv) @ reach + tau_sq), inv[2, 2]
        if not 16 * err < a:
            return None
        dr, dg = np.arange(256.0) - mean[0], np.arange(256.0) - mean[1]
        beta = np.add.outer((inv[0, 2] + inv[2, 0]) / 2 * dr, (inv[1, 2] + inv[2, 1]) / 2 * dg)
        c = np.add.outer(inv[0, 0] * dr * dr, inv[1, 1] * dg * dg)
        c += (inv[0, 1] + inv[1, 0]) * np.outer(dr, dg)
        disc = (beta * beta - a * (c - tau_sq)).ravel()
        rows = np.flatnonzero(disc >= -2 * a * err)
        half, mid = np.sqrt(np.maximum(disc[rows], 0.0)), -beta.ravel()[rows]
        roots = np.stack([mid - half, mid + half], axis=1) / a + mean[2]
        blue = np.clip(np.rint(roots)[..., None] + np.arange(-2, 3), 0, 255).reshape(-1, 10)
        px = np.empty(blue.shape + (3,), dtype=np.uint8)
        px[..., 0], px[..., 1], px[..., 2] = (rows >> 8)[:, None], (rows & 255)[:, None], blue
        inside = self.distances_sq(px) <= tau_sq
        lo, hi = np.ones(1 << 16, np.uint8), np.zeros(1 << 16, np.uint8)  # lo > hi: empty
        lo[rows] = np.where(inside, blue, 255).min(axis=1)
        hi[rows] = np.where(inside, blue, 0).max(axis=1)
        return lo, hi

    def segment(self, frame: FrameGrid) -> StoneMask:
        """Candidates are the pixels with distances_sq > tau², looked up per (r, g) row.

        On a row, h(b) = q(b) - tau² is a convex parabola in b, leading coefficient
        a = inv_cov[2, 2]. E = 64u(reach.|inv_cov|.reach + tau²), u = 2^-53 and reach the
        largest |colour - mean| per channel, bounds distances_sq's rounding error on any
        colour, and aE that of the row discriminant. The table exists only if a > 16E
        (else every pixel takes distances_sq). Where |h| > E the float decision is exact;
        |h| <= E only within sqrt(E/a) < 1/4 of a real root, or of the vertex if none.
        - A row whose float discriminant is below -2aE has h > E throughout: empty.
        - The rounded roots are within 3/4 of the real ones, so b outside the +-2 windows
          is over 2 from both roots and decided exactly: out beyond them, in between.
        - Each side's undecided b lie within an interval shorter than sqrt(2E/a) < 1 at
          the exact transition (two adjacent ones merged near the vertex), so the float
          inside set is one interval, both ends in a window, decided by distances_sq.
        """
        px, bounds = frame.pixels, self._blue_bounds
        if bounds is None:
            raw = self.distances_sq(px) > self.tau * self.tau
        else:
            rg = (px[..., 0].astype(np.intp) << 8) | px[..., 1]
            blue = px[..., 2].copy()  # contiguous, so the two compares run faster
            raw = (blue < bounds[0][rg]) | (blue > bounds[1][rg])
        return StoneMask(clean_mask(raw, MIN_COMPONENT_PX))

    def save(self, path: Path) -> None:
        payload = {
            "background_mean": [float(x) for x in self.background_mean],
            "background_cov": [[float(x) for x in row] for row in self.background_cov],
            "tau": float(self.tau),
        }
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", "utf-8")

    @classmethod
    def load(cls, path: Path) -> "ChromaSegmenter":
        def build(payload: dict) -> "ChromaSegmenter":
            mean, cov, tau = json_fields(payload, "background_mean", "background_cov", "tau")
            return cls(background_mean=[json_number(x, "background_mean") for x in mean],
                       background_cov=[[json_number(x, "background_cov") for x in row]
                                       for row in cov],
                       tau=json_number(tau, "tau"))

        return read_json(path, "cannot load calibration from", build)


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
