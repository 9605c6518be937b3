"""Per-frame stone-region identification and its reference numerics.

The trained network that produces clinical masks is out of scope here;
segmentation runs behind a small interface with two shippable
implementations (ground-truth pass-through for phantom streams and a
calibrated color-distance heuristic), plus the loss/similarity math and
the augmentation transforms used when training an external model.
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
from .errors import (
    DimensionMismatch,
    NoTruthAvailable,
    NotCalibrated,
    ParamOutOfRange,
    ValidationError,
)
from .rng import stream

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
        raise DimensionMismatch(f"shape {a.shape} vs {b.shape}")


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


# -- augmentation -------------------------------------------------------------

ROTATION_BOUNDS = (-45.0, 45.0)
ZOOM_BOUNDS = (1.0, 1.3)
BRIGHTNESS_BOUNDS = (0.2, 1.0)
SHIFT_BOUNDS = (-0.2, 0.2)


def _check_range(name: str, rng: tuple[float, float], bounds: tuple[float, float]) -> None:
    lo, hi = rng
    if not (bounds[0] <= lo <= hi <= bounds[1]):
        raise ParamOutOfRange(f"{name} range {rng} outside {bounds}")


@dataclass(frozen=True)
class AugmentSpec:
    """Sampling ranges for one augmentation draw.

    Flip fields: None = random coin, True/False = forced. Degenerate
    ranges pin a parameter, so the neutral spec is the identity.
    """

    hflip: Optional[bool] = None
    vflip: Optional[bool] = None
    rotation_deg: tuple[float, float] = ROTATION_BOUNDS
    zoom: tuple[float, float] = ZOOM_BOUNDS
    brightness: tuple[float, float] = BRIGHTNESS_BOUNDS
    shift: tuple[float, float] = SHIFT_BOUNDS

    def __post_init__(self) -> None:
        _check_range("rotation_deg", self.rotation_deg, ROTATION_BOUNDS)
        _check_range("zoom", self.zoom, ZOOM_BOUNDS)
        _check_range("brightness", self.brightness, BRIGHTNESS_BOUNDS)
        _check_range("shift", self.shift, SHIFT_BOUNDS)

    @classmethod
    def neutral(cls) -> "AugmentSpec":
        return cls(
            hflip=False,
            vflip=False,
            rotation_deg=(0.0, 0.0),
            zoom=(1.0, 1.0),
            brightness=(1.0, 1.0),
            shift=(0.0, 0.0),
        )


def _sample_bilinear_zero(img: np.ndarray, sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
    """Bilinear gather with zero contribution outside the source grid."""
    h, w = img.shape[:2]
    x0 = np.floor(sx).astype(np.intp)
    y0 = np.floor(sy).astype(np.intp)
    wx = sx - x0
    wy = sy - y0
    out = np.zeros(sx.shape + (img.shape[2],), dtype=np.float64)
    for dy, fy in ((0, 1.0 - wy), (1, wy)):
        for dx, fx in ((0, 1.0 - wx), (1, wx)):
            xi = x0 + dx
            yi = y0 + dy
            ok = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
            weight = (fy * fx * ok)[..., None]
            vals = img[np.clip(yi, 0, h - 1), np.clip(xi, 0, w - 1)].astype(np.float64)
            out += weight * vals
    return out


def _affine_resample(img: np.ndarray, rot_deg: float, scale: float, shift_px: tuple[float, float]) -> np.ndarray:
    h, w = img.shape[:2]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    xc = xs - cx - shift_px[0]
    yc = ys - cy - shift_px[1]
    theta = math.radians(rot_deg)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    # inverse map of rotate-then-zoom about the center
    sx = (cos_t * xc + sin_t * yc) / scale + cx
    sy = (-sin_t * xc + cos_t * yc) / scale + cy
    sampled = _sample_bilinear_zero(img, sx, sy)
    return np.floor(sampled + 0.5).astype(np.uint8)


def augment(frame: FrameGrid, spec: AugmentSpec = AugmentSpec(), seed: int = 0) -> FrameGrid:
    """Apply flips, rotation, zoom, brightness and shift, in that order.

    Parameters are drawn from the spec ranges by a generator keyed on
    the seed, so a given (spec, seed) pair always yields the same frame.
    """
    rng = stream(seed, "augment")
    hflip = bool(rng.integers(0, 2)) if spec.hflip is None else spec.hflip
    vflip = bool(rng.integers(0, 2)) if spec.vflip is None else spec.vflip
    rot = float(rng.uniform(*spec.rotation_deg))
    zoom = float(rng.uniform(*spec.zoom))
    bright = float(rng.uniform(*spec.brightness))
    sx = float(rng.uniform(*spec.shift))
    sy = float(rng.uniform(*spec.shift))

    arr = frame.pixels
    if hflip:
        arr = arr[:, ::-1]
    if vflip:
        arr = arr[::-1, :]
    if rot != 0.0:
        arr = _affine_resample(arr, rot, 1.0, (0.0, 0.0))
    if zoom != 1.0:
        arr = _affine_resample(arr, 0.0, zoom, (0.0, 0.0))
    if bright != 1.0:
        arr = np.clip(np.floor(arr.astype(np.float64) * bright + 0.5), 0, 255).astype(np.uint8)
    if sx != 0.0 or sy != 0.0:
        arr = _affine_resample(arr, 0.0, 1.0, (sx * frame.width, sy * frame.height))
    return FrameGrid(np.ascontiguousarray(arr), stream_index=frame.stream_index)


# -- mask cleanup -------------------------------------------------------------


def clean_mask(bits: np.ndarray, min_component_px: int) -> np.ndarray:
    """Drop 4-connected components below min_component_px, then fill holes."""
    labels, n = ndimage.label(bits)
    if n == 0:
        return np.zeros_like(bits, dtype=bool)
    sizes = np.bincount(labels.ravel())
    keep = sizes >= min_component_px
    keep[0] = False
    kept = keep[labels]
    return ndimage.binary_fill_holes(kept)


# -- segmenter implementations ------------------------------------------------


@dataclass(frozen=True, eq=False)
class OracleSegmenter:
    """Ground-truth pass-through for phantom streams (upper-bound baseline)."""

    truths: tuple[Optional[StoneMask], ...]

    def segment(self, frame: FrameGrid) -> StoneMask:
        idx = frame.stream_index
        if idx >= len(self.truths) or self.truths[idx] is None:
            raise NoTruthAvailable(f"no ground-truth mask for stream index {idx}")
        return self.truths[idx]

    @classmethod
    def from_masks(cls, masks: Sequence[Optional[StoneMask]]) -> "OracleSegmenter":
        return cls(truths=tuple(masks))


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
        if self.tau <= 0:
            raise NotCalibrated("tau must be positive")
        try:
            inv = np.linalg.inv(cov)
        except np.linalg.LinAlgError:
            raise NotCalibrated("background covariance is singular") from None
        object.__setattr__(self, "background_mean", mean)
        object.__setattr__(self, "background_cov", cov)
        object.__setattr__(self, "_inv_cov", inv)

    def distances_sq(self, pixels: np.ndarray) -> np.ndarray:
        diff = pixels.astype(np.float64) - self.background_mean
        return np.einsum("...i,ij,...j->...", diff, self._inv_cov, diff)

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
        try:
            payload = json.loads(Path(path).read_text("utf-8"))
            return cls(
                background_mean=np.array(payload["background_mean"], dtype=np.float64),
                background_cov=np.array(payload["background_cov"], dtype=np.float64),
                tau=float(payload["tau"]),
                min_component_px=int(payload.get("min_component_px", 64)),
            )
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise NotCalibrated(f"cannot load calibration from {path}: {exc}") from None


COV_RIDGE = 4.0  # keeps the background model invertible on flat scenes


def calibrate_chroma(
    samples: Iterable[tuple[FrameGrid, StoneMask]],
    min_component_px: int = 64,
    subsample: int = 3,
) -> ChromaSegmenter:
    """Fit the background color model and pick tau from labeled stills.

    tau lands at the geometric midpoint (in squared-distance space)
    between the 99.9th percentile of background distances and the 5th
    percentile of stone distances.
    """
    bg_pixels = []
    stone_pixels = []
    for frame, mask in samples:
        px = frame.pixels[::subsample, ::subsample].reshape(-1, 3)
        bits = mask.bits[::subsample, ::subsample].reshape(-1)
        bg_pixels.append(px[~bits])
        stone_pixels.append(px[bits])
    bg = np.concatenate(bg_pixels).astype(np.float64)
    stone = np.concatenate(stone_pixels).astype(np.float64)
    if bg.shape[0] < 100:
        raise NotCalibrated("not enough background pixels to calibrate")
    mean = bg.mean(axis=0)
    cov = np.cov(bg, rowvar=False) + COV_RIDGE * np.eye(3)
    seg = ChromaSegmenter(background_mean=mean, background_cov=cov, tau=1.0,
                          min_component_px=min_component_px)
    d2_bg = seg.distances_sq(bg)
    hi_bg = float(np.quantile(d2_bg, 0.999))
    if stone.shape[0] >= 100:
        d2_stone = seg.distances_sq(stone)
        lo_stone = float(np.quantile(d2_stone, 0.05))
        tau_sq = math.sqrt(max(hi_bg, 1e-6) * max(lo_stone, hi_bg, 1e-6))
    else:
        tau_sq = hi_bg * 1.5
    tau = max(2.0, math.sqrt(tau_sq))
    return ChromaSegmenter(background_mean=mean, background_cov=cov, tau=tau,
                           min_component_px=min_component_px)
