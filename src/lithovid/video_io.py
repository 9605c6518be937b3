"""Frame container I/O and stream standardization.

Raw videos live in one directory per video: binary P6 portable pixmaps
(frame_%06d.ppm) plus manifest.json, with optional P5 ground-truth masks
(0 = background, 255 = stone). Streams are standardized by temporal
resampling to 8 Hz and center-crop + bilinear resize to 256x256.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

from .core import FRAME_SIDE, STREAM_FPS, FrameGrid, MorphClass, StoneMask
from .errors import (
    CorruptManifest,
    DimensionMismatch,
    EmptyVideo,
    MissingFrame,
    TooSmall,
    ValidationError,
)

MANIFEST_NAME = "manifest.json"
MIN_FRAME_SIDE = 16


@dataclass(frozen=True, eq=False)
class RawVideo:
    """An ordered frame sequence prior to (or after) standardization.

    truth_masks / truth_label carry per-frame ground truth when the
    video comes from the phantom generator or an annotated container.
    """

    video_id: str
    native_fps: float
    frames: tuple[np.ndarray, ...]
    truth_masks: Optional[tuple[Optional[np.ndarray], ...]] = None
    truth_label: Optional[MorphClass] = None

    def __post_init__(self) -> None:
        if not 0 < self.native_fps < math.inf:
            raise ValidationError(f"native_fps must be positive and finite, got {self.native_fps}")
        frames = tuple(self.frames)
        for i, f in enumerate(frames):
            if f.dtype != np.uint8 or f.ndim != 3 or f.shape[2] != 3:
                raise ValidationError(f"frame {i} must be HxWx3 uint8")
            if f.shape != frames[0].shape:
                raise DimensionMismatch(
                    f"frame {i} has shape {f.shape[:2]}, expected {frames[0].shape[:2]}"
                )
        object.__setattr__(self, "frames", frames)
        if self.truth_masks is not None:
            masks = tuple(self.truth_masks)
            if len(masks) != len(frames):
                raise ValidationError("truth_masks must align one-to-one with frames")
            for i, m in enumerate(masks):
                if m is not None and m.shape != frames[i].shape[:2]:
                    raise DimensionMismatch(f"truth mask {i} does not match its frame")
            object.__setattr__(self, "truth_masks", masks)

    def __len__(self) -> int:
        return len(self.frames)


def _grid_indices(n: int, native_fps: float, target_fps: float) -> list[int]:
    """Native frame index for each output frame of resample_temporal."""
    native = Fraction(native_fps)
    target = Fraction(target_fps)
    half = Fraction(1, 2)
    count = max(1, int(n * target / native + half))
    ratio = native / target
    return [min(n - 1, int(k * ratio + half)) for k in range(count)]


def resample_temporal(video: RawVideo, target_fps: float = STREAM_FPS) -> RawVideo:
    """Resample to target_fps by nearest-native-timestamp frame selection.

    Output frame k is the input frame whose timestamp is nearest to
    k/target_fps; an exact midpoint resolves to the later frame. The
    output spans the input duration within one output period. Exact
    rational arithmetic keeps the selection float-free.
    """
    if target_fps <= 0:
        raise ValidationError("target_fps must be positive")
    n = len(video.frames)
    if n == 0:
        raise EmptyVideo(f"video {video.video_id!r} has no frames")
    indices = _grid_indices(n, video.native_fps, target_fps)
    frames = tuple(video.frames[i] for i in indices)
    masks = None
    if video.truth_masks is not None:
        masks = tuple(video.truth_masks[i] for i in indices)
    return RawVideo(
        video_id=video.video_id,
        native_fps=float(target_fps),
        frames=frames,
        truth_masks=masks,
        truth_label=video.truth_label,
    )


def _center_crop_square(arr: np.ndarray) -> np.ndarray:
    h, w = arr.shape[:2]
    side = min(h, w)
    y0 = (h - side) // 2
    x0 = (w - side) // 2
    return arr[y0 : y0 + side, x0 : x0 + side]


def _taps(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pixel-center bilinear taps from n source pixels onto FRAME_SIDE: indices and weights x512."""
    s = np.clip((np.arange(FRAME_SIDE) + 0.5) * (n / FRAME_SIDE) - 0.5, 0.0, n - 1.0)
    i0 = np.floor(s).astype(np.intp)
    return i0, np.minimum(i0 + 1, n - 1), ((s - i0) * 512).astype(np.int32)


def bilinear_resize(img: np.ndarray) -> np.ndarray:
    """Bilinear resize to FRAME_SIDE square, pixel-center convention; exact at scale 1.

    FRAME_SIDE = 256 makes every tap weight a multiple of 1/512, so the float64
    floor(sum(v * wy * wx) + 0.5) is exact: this int32 sum of v * 512wy * 512wx.
    """
    h, w = img.shape[:2]
    if (h, w) == (FRAME_SIDE, FRAME_SIDE):
        return img.copy()
    y0, y1, wy = _taps(h)
    wy = wy[:, None, None]
    cols = img[y0] * (512 - wy)
    cols += img[y1] * wy
    cols = cols.reshape(FRAME_SIDE, 3 * w)
    # horizontal pass over (row, 3 * x + channel) columns: one flat gather per tap
    x0, x1, wx = (np.repeat(t, 3) for t in _taps(w))
    rgb = np.tile(np.arange(3), FRAME_SIDE)
    out = cols[:, 3 * x0 + rgb]
    out *= 512 - wx
    right = cols[:, 3 * x1 + rgb]
    right *= wx
    out += right
    out += 1 << 17
    return (out >> 18).astype(np.uint8).reshape(FRAME_SIDE, FRAME_SIDE, 3)


def normalize_frame(img: np.ndarray, stream_index: int = 0) -> FrameGrid:
    """Center-crop to the largest centered square, then resize to 256x256."""
    arr = np.asarray(img)
    if arr.dtype != np.uint8 or arr.ndim != 3 or arr.shape[2] != 3:
        raise ValidationError("normalize_frame expects an HxWx3 uint8 image")
    h, w = arr.shape[:2]
    if h < MIN_FRAME_SIDE or w < MIN_FRAME_SIDE:
        raise TooSmall(f"frame {w}x{h} is below the {MIN_FRAME_SIDE} px minimum")
    square = _center_crop_square(arr)
    return FrameGrid(bilinear_resize(square), stream_index=stream_index)


def normalize_mask(mask: np.ndarray) -> StoneMask:
    """Apply the frame normalization geometry to a binary mask (nearest)."""
    arr = np.asarray(mask).astype(bool)
    h, w = arr.shape
    if h < MIN_FRAME_SIDE or w < MIN_FRAME_SIDE:
        raise TooSmall(f"mask {w}x{h} is below the {MIN_FRAME_SIDE} px minimum")
    square = _center_crop_square(arr)
    side = square.shape[0]
    if side == FRAME_SIDE:
        return StoneMask(square)
    idx = np.clip(
        np.floor((np.arange(FRAME_SIDE) + 0.5) * (side / FRAME_SIDE)).astype(np.intp),
        0,
        side - 1,
    )
    return StoneMask(square[idx][:, idx])


# -- portable pixmap / graymap I/O ------------------------------------------


def write_ppm(path: Path, img: np.ndarray) -> None:
    arr = np.ascontiguousarray(img, dtype=np.uint8)
    h, w = arr.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())


def write_pgm(path: Path, mask: np.ndarray) -> None:
    bits = np.ascontiguousarray(np.where(np.asarray(mask, dtype=bool), 255, 0).astype(np.uint8))
    h, w = bits.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(bits.tobytes())


def _parse_pnm_header(path: Path, data: bytes, magic: bytes) -> tuple[int, int, int]:
    """(width, height, raster offset) from the start of a binary PNM file."""
    if not data.startswith(magic):
        raise CorruptManifest(f"{path} is not a {magic.decode()} file")
    # header = magic + 3 ASCII integers separated by whitespace (comments allowed)
    pos = len(magic)
    fields: list[int] = []
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        try:
            fields.append(int(data[start:pos]))
        except ValueError:
            raise CorruptManifest(f"{path} has a malformed header") from None
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if maxval != 255 or w <= 0 or h <= 0:
        raise CorruptManifest(f"{path} must be 8-bit with positive dimensions")
    return w, h, pos


def _read_pnm(path: Path, magic: bytes, channels: int) -> np.ndarray:
    if not path.is_file():
        raise MissingFrame(f"frame file not found: {path}")
    data = path.read_bytes()
    w, h, pos = _parse_pnm_header(path, data, magic)
    expected = w * h * channels
    raster = data[pos : pos + expected]
    if len(raster) != expected:
        raise CorruptManifest(f"{path} raster is truncated")
    arr = np.frombuffer(raster, dtype=np.uint8)
    if channels == 1:
        return arr.reshape(h, w)
    return arr.reshape(h, w, channels)


_HEADER_PROBE = 4096


def _pnm_shape(path: Path, magic: bytes, channels: int) -> tuple[int, ...]:
    """Shape _read_pnm would return, after the same checks, without the raster.

    Reads only the header and takes the length from the file size.
    """
    if not path.is_file():
        raise MissingFrame(f"frame file not found: {path}")
    with open(path, "rb") as fh:
        data = fh.read(_HEADER_PROBE)
        try:
            w, h, pos = _parse_pnm_header(path, data, magic)
            complete = pos <= len(data)
        except CorruptManifest:
            complete = False
        if not complete:  # the header may run past the probe (long comments)
            data += fh.read()
            w, h, pos = _parse_pnm_header(path, data, magic)
        size = os.fstat(fh.fileno()).st_size
    if size < pos + w * h * channels:
        raise CorruptManifest(f"{path} raster is truncated")
    return (h, w) if channels == 1 else (h, w, channels)


def read_ppm(path: Path) -> np.ndarray:
    return _read_pnm(Path(path), b"P6", 3)


def read_pgm(path: Path) -> np.ndarray:
    return _read_pnm(Path(path), b"P5", 1)


# -- stream container --------------------------------------------------------


def store_stream(video: RawVideo, dir_path: Path) -> Path:
    """Write a video into the frame container; round-trips bit-exactly."""
    out = Path(dir_path)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, frame in enumerate(video.frames):
        name = f"frame_{i:06d}.ppm"
        write_ppm(out / name, frame)
        entry: dict = {"file": name}
        if video.truth_masks is not None and video.truth_masks[i] is not None:
            mask_name = f"mask_{i:06d}.pgm"
            write_pgm(out / mask_name, video.truth_masks[i])
            entry["truth_mask"] = mask_name
        if video.truth_label is not None:
            entry["truth_label"] = video.truth_label.tag
        entries.append(entry)
    manifest = {
        "video_id": video.video_id,
        "native_fps": video.native_fps,
        "frames": entries,
    }
    manifest_path = out / MANIFEST_NAME
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", "utf-8")
    return manifest_path


def load_stream(manifest_path: Path, target_fps: Optional[float] = None) -> RawVideo:
    """Load a video from its manifest (a manifest file or its directory).

    With target_fps, return the video resampled to it as resample_temporal
    would, decoding only the frames and truth masks it keeps. Every other
    file still gets every check short of decoding: it exists, its header
    is valid, it is long enough and its dimensions match.
    """
    if target_fps is not None and target_fps <= 0:
        raise ValidationError("target_fps must be positive")
    path = Path(manifest_path)
    if path.is_dir():
        path = path / MANIFEST_NAME
    if not path.is_file():
        raise CorruptManifest(f"manifest not found: {path}")
    try:
        manifest = json.loads(path.read_text("utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CorruptManifest(f"{path}: {exc}") from None
    try:
        video_id = manifest["video_id"]
        native_fps = float(manifest["native_fps"])
        entries = manifest["frames"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptManifest(f"{path} is missing required fields ({exc})") from None
    grid = None
    if target_fps is not None and entries and 0 < native_fps < math.inf:
        grid = _grid_indices(len(entries), native_fps, target_fps)
    decode = None if grid is None else set(grid)
    base = path.parent
    frames: list[np.ndarray] = []
    shapes: list[tuple[int, ...]] = []
    masks: list[Optional[np.ndarray]] = []
    mask_shapes: list[Optional[tuple[int, ...]]] = []
    label: Optional[MorphClass] = None
    for i, entry in enumerate(entries):
        if "file" not in entry:
            raise CorruptManifest(f"{path}: frame entry {i} lacks a file reference")
        keep = decode is None or i in decode
        frame = read_ppm(base / entry["file"]) if keep else None
        shape = frame.shape if keep else _pnm_shape(base / entry["file"], b"P6", 3)
        if shapes and shape != shapes[0]:
            raise DimensionMismatch(
                f"{path}: frame {i} has shape {shape[:2]}, expected {shapes[0][:2]}"
            )
        frames.append(frame)
        shapes.append(shape)
        mask = mask_shape = None
        if entry.get("truth_mask"):
            if keep:
                mask = read_pgm(base / entry["truth_mask"]) > 127
                mask_shape = mask.shape
            else:
                mask_shape = _pnm_shape(base / entry["truth_mask"], b"P5", 1)
        masks.append(mask)
        mask_shapes.append(mask_shape)
        if entry.get("truth_label"):
            entry_label = MorphClass.from_tag(entry["truth_label"])
            if label is not None and entry_label is not label:
                raise CorruptManifest(f"{path}: inconsistent truth labels across frames")
            label = entry_label
    has_masks = any(m is not None for m in mask_shapes)
    if grid is not None:
        # RawVideo checks only the masks it holds; check the skipped ones too
        for i, (mask_shape, shape) in enumerate(zip(mask_shapes, shapes)):
            if mask_shape is not None and mask_shape != shape[:2]:
                raise DimensionMismatch(f"truth mask {i} does not match its frame")
        frames = [frames[i] for i in grid]
        masks = [masks[i] for i in grid]
        native_fps = float(target_fps)
    return RawVideo(
        video_id=video_id,
        native_fps=native_fps,
        frames=tuple(frames),
        truth_masks=tuple(masks) if has_masks else None,
        truth_label=label,
    )


def list_video_dirs(root: Path) -> list[Path]:
    """Video subdirectories of a cohort directory, sorted for determinism."""
    return sorted(p for p in Path(root).iterdir() if (p / MANIFEST_NAME).is_file())


def normalize_video(video: RawVideo) -> tuple[list[FrameGrid], Optional[list[Optional[StoneMask]]]]:
    """Resample to 8 Hz and normalize every frame (and truth mask) to 256x256."""
    resampled = resample_temporal(video, STREAM_FPS)
    frames = [normalize_frame(f, stream_index=k) for k, f in enumerate(resampled.frames)]
    masks: Optional[list[Optional[StoneMask]]] = None
    if resampled.truth_masks is not None:
        masks = [None if m is None else normalize_mask(m) for m in resampled.truth_masks]
    return frames, masks
