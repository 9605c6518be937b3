"""Frame container I/O and stream standardization.

Raw videos live in one directory per video: binary P6 portable pixmaps
(frame_%06d.ppm) plus manifest.json, with optional P5 ground-truth masks
(0 = background, 255 = stone). Streams are standardized by temporal
resampling to 8 Hz and center-crop + bilinear resize to 256x256. Masks
imported from an external segmenter are named and read as truth masks are.
"""

from __future__ import annotations

import json
import math
import operator
import os
import sys
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import FRAME_SIDE, STREAM_FPS, FrameGrid, MorphClass, StoneMask
from .errors import LithovidError, read_json

MANIFEST_NAME = "manifest.json"
_MASK_NAME = "mask_{:06d}.pgm"  # frame k's truth mask; imported masks are named so too
MIN_FRAME_SIDE = 16
# the 8 Hz stream repeats each native frame for as long as it lasts, so a rate near 0 asks
# for an unbounded stream (1e-300 fps: ~1e301 frames); here a frame fills at most 1 s
MIN_NATIVE_FPS = 1.0
# run writes <video_id>.json through the temp file .<video_id>.json.<pid>.tmp; with a pid
# of up to 7 digits that name must fit in a 255-byte file name
MAX_VIDEO_ID_BYTES = 255 - len("..json.1234567.tmp")


class LazySequence(Sequence):
    """Read-only sequence whose item k is make(k), computed on every access and never kept.

    Iterating it calls iterate() if given, which must yield make(0), make(1), ... in order."""

    def __init__(self, n: int, make: Callable[[int], object],
                 iterate: Optional[Callable[[], Iterator]] = None) -> None:
        self._n, self._make = n, make
        # map, not Sequence's default, which would end early on an IndexError from make
        self._iterate = iterate or (lambda: map(make, range(n)))

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        return self._iterate()

    def __getitem__(self, k: int):
        return self._make(range(self._n)[operator.index(k)])  # IndexError past either end


@dataclass(frozen=True, eq=False)
class RawVideo:
    """An ordered frame sequence at its native rate, before standardization.

    frame_shape is every frame's (H, W, 3). frames and truth_masks are kept as
    given, often lazy sequences (load_stream's decode a frame when it is
    accessed, generate_phantom's render it); normalize_video checks each frame
    and truth mask against frame_shape as it is made.
    truth_masks / truth_label carry per-frame ground truth when the
    video comes from the phantom generator or an annotated container.
    """

    video_id: str
    native_fps: float
    frame_shape: tuple[int, int, int]
    frames: Sequence[np.ndarray]
    truth_masks: Optional[Sequence[Optional[np.ndarray]]] = None
    truth_label: Optional[MorphClass] = None

    def __post_init__(self) -> None:
        if not MIN_NATIVE_FPS <= self.native_fps < math.inf:
            raise LithovidError(f"native_fps {self.native_fps} is not in [{MIN_NATIVE_FPS}, inf)")
        h, w, channels = self.frame_shape
        if channels != 3:
            raise LithovidError(f"frame_shape {self.frame_shape} is not (H, W, 3)")
        if h < MIN_FRAME_SIDE or w < MIN_FRAME_SIDE:
            raise LithovidError(f"frame {w}x{h} is below the {MIN_FRAME_SIDE} px minimum")
        if self.truth_masks is not None and len(self.truth_masks) != len(self.frames):
            raise LithovidError("truth_masks must align one-to-one with frames")


def stream_indices(video: RawVideo) -> list[int]:
    """The native index of each 8 Hz stream frame, by nearest native timestamp.

    Stream frame k takes the native frame whose timestamp is nearest to
    k/8 s; an exact midpoint resolves to the later frame. The stream spans
    the input duration within one stream period. Exact rational arithmetic
    keeps the selection float-free.
    """
    n = len(video.frames)
    if n == 0:
        raise LithovidError(f"video {video.video_id!r} has no frames")
    ratio = Fraction(video.native_fps) / Fraction(STREAM_FPS)
    half = Fraction(1, 2)
    count = max(1, int(n / ratio + half))
    return [min(n - 1, int(k * ratio + half)) for k in range(count)]


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


def _resize_plan(h: int, w: int) -> Callable[[np.ndarray], np.ndarray]:
    """Bilinear resize of (h, w) images to FRAME_SIDE square, pixel-center convention.

    FRAME_SIDE = 256 makes every tap weight a multiple of 1/512, so the float64
    floor(sum(v * wy * wx) + 0.5) is exact: this int32 sum of v * 512wy * 512wx.
    The taps, column indices and int32 scratch are made once, and each call
    returns a fresh array; at scale 1 it returns the image itself, which FrameGrid copies."""
    if (h, w) == (FRAME_SIDE, FRAME_SIDE):
        return lambda img: img
    y0, y1, wy = _taps(h)
    wy = wy[:, None, None]
    top = 512 - wy
    # horizontal pass over (row, 3 * x + channel) columns: one flat gather per tap
    x0, x1, wx = (np.repeat(t, 3) for t in _taps(w))
    rgb = np.tile(np.arange(3), FRAME_SIDE)
    i0, i1, left_w = 3 * x0 + rgb, 3 * x1 + rgb, 512 - wx
    cols, term = (np.empty((FRAME_SIDE, w, 3), np.int32) for _ in range(2))
    left, right = (np.empty((FRAME_SIDE, 3 * FRAME_SIDE), np.int32) for _ in range(2))

    def resize(img: np.ndarray) -> np.ndarray:
        np.multiply(img[y0], top, out=cols)
        np.add(cols, np.multiply(img[y1], wy, out=term), out=cols)
        flat = cols.reshape(FRAME_SIDE, 3 * w)
        # mode="clip" (the indices are in range) keeps take from buffering its out= result
        out = np.take(flat, i0, axis=1, out=left, mode="clip")
        out *= left_w
        out += np.multiply(np.take(flat, i1, axis=1, out=right, mode="clip"), wx, out=right)
        out += 1 << 17
        out >>= 18
        return out.astype(np.uint8).reshape(FRAME_SIDE, FRAME_SIDE, 3)

    return resize


def normalize_mask(mask: np.ndarray) -> StoneMask:
    """Apply the frame normalization geometry to a binary mask (nearest)."""
    square = _center_crop_square(np.asarray(mask).astype(bool))
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


def _write_pnm(path: Path, magic: str, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr, dtype=np.uint8)
    h, w = arr.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"{magic}\n{w} {h}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())


def write_ppm(path: Path, img: np.ndarray) -> None:
    _write_pnm(path, "P6", img)


def write_pgm(path: Path, mask: np.ndarray) -> None:
    _write_pnm(path, "P5", np.where(np.asarray(mask, dtype=bool), 255, 0))


def _parse_pnm_header(path: Path, data: bytes, magic: bytes) -> tuple[int, int, int]:
    """(width, height, raster offset) from the start of a binary PNM file."""
    if not data.startswith(magic):
        raise LithovidError(f"{path} is not a {magic.decode()} file")
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
            raise LithovidError(f"{path} has a malformed header") from None
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if maxval != 255 or w <= 0 or h <= 0:
        raise LithovidError(f"{path} must be 8-bit with positive dimensions")
    return w, h, pos


_HEADER_PROBE = 4096


def _read_pnm(path: Path, magic: bytes, channels: int, raster: bool = True):
    """The raster of a binary PNM file as a read-only view, or with raster=False its shape
    after the same checks: then only the header is read (past a 4 KB probe only for long
    comments) and the raster's length is taken from the file size."""
    if not path.is_file():
        raise LithovidError(f"frame file not found: {path}")
    try:
        with open(path, "rb") as fh:
            data = fh.read(-1 if raster else _HEADER_PROBE)
            try:
                w, h, pos = _parse_pnm_header(path, data, magic)
                complete = pos <= len(data)
            except LithovidError:
                complete = False
            if not complete:  # the header may run past the probe
                data += fh.read()
                w, h, pos = _parse_pnm_header(path, data, magic)
            size = len(data) if raster else os.fstat(fh.fileno()).st_size
    except OSError as exc:  # unreadable, not missing: a permission, an I/O error
        raise LithovidError(f"cannot read {path}: {exc.strerror or exc}") from None
    shape = (h, w) if channels == 1 else (h, w, channels)
    if size < pos + w * h * channels:
        raise LithovidError(f"{path} raster is truncated")
    if not raster:
        return shape
    return np.frombuffer(data, dtype=np.uint8, count=w * h * channels, offset=pos).reshape(shape)


def read_ppm(path: Path) -> np.ndarray:
    return _read_pnm(Path(path), b"P6", 3)


def read_pgm(path: Path) -> np.ndarray:
    return _read_pnm(Path(path), b"P5", 1)


def _read_mask(path: Path) -> np.ndarray:  # stone where the byte is above 127
    return read_pgm(path) > 127


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
        mask = None if video.truth_masks is None else video.truth_masks[i]  # read once if lazy
        if mask is not None:
            mask_name = _MASK_NAME.format(i)
            write_pgm(out / mask_name, mask)
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


class Manifest(NamedTuple):
    """A parsed manifest: per-frame file names, relative to the manifest's directory."""

    path: Path
    video_id: str
    native_fps: float
    files: tuple[str, ...]
    masks: tuple[Optional[str], ...]  # None: the frame has no truth mask
    truth_label: Optional[MorphClass]


def read_manifest(manifest_path: Path) -> Manifest:
    """Parse and check a manifest (a manifest file or its directory) without opening frames.

    Every error is a LithovidError naming the file: a file errors.read_json
    rejects, missing or mistyped fields, a native_fps that is not a finite
    number, a video_id that is not a usable file name, a frame entry that
    is not an object with a string file (and string truth_mask /
    truth_label), an unknown truth_label tag, or truth labels that
    disagree across frames.
    """
    path = Path(manifest_path)
    if path.is_dir():
        path = path / MANIFEST_NAME

    def build(manifest: dict) -> Manifest:
        video_id, native_fps = manifest["video_id"], manifest["native_fps"]
        entries = manifest["frames"]
        # type(), not isinstance: JSON true is a bool, and a bool is an int
        if type(native_fps) not in (int, float) or not abs(native_fps) <= sys.float_info.max:
            raise LithovidError(f"native_fps must be a finite JSON number, got {native_fps!r}")
        # run names its outputs after video_id, so it must be one file name inside their directory
        try:
            usable = (isinstance(video_id, str) and video_id not in ("", ".", "..")
                      and "/" not in video_id and "\0" not in video_id
                      and len(video_id.encode("utf-8")) <= MAX_VIDEO_ID_BYTES)
        except UnicodeEncodeError:  # a lone surrogate from a JSON escape
            usable = False
        if not usable:
            raise LithovidError(f"video_id must be a file name of 1 to {MAX_VIDEO_ID_BYTES} "
                                f"bytes, got {video_id!r}")
        if not isinstance(entries, list):
            raise LithovidError("frames must be a list")
        masks, labels = [], set()
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict) or not isinstance(entry.get("file"), str):
                raise LithovidError(f"frame entry {i} is not an object with a string file")
            mask, tag = entry.get("truth_mask"), entry.get("truth_label")
            if not all(v is None or isinstance(v, str) for v in (mask, tag)):
                raise LithovidError(f"frame entry {i} has a truth_mask or truth_label "
                                    "that is not a string")
            masks.append(mask or None)
            if tag:
                labels.add(MorphClass.from_tag(tag))
        if len(labels) > 1:
            raise LithovidError("inconsistent truth labels across frames")
        return Manifest(path, video_id, float(native_fps), tuple(e["file"] for e in entries),
                        tuple(masks), labels.pop() if labels else None)

    return read_json(path, "manifest", build)


def load_stream(manifest_path: Path) -> RawVideo:
    """Load a video from its manifest (a manifest file or its directory).

    Every frame and truth mask file gets every check short of decoding up
    front: it exists, its header is valid, it is long enough and its
    dimensions match. Frame k (and its mask) is decoded each time it is
    accessed and never kept, so a frame the 8 Hz stream drops is never decoded.
    """
    m = read_manifest(manifest_path)
    if not m.files:
        raise LithovidError(f"video {m.video_id!r} has no frames")
    base = m.path.parent
    shapes: list[tuple[int, ...]] = []
    for i, (name, mask) in enumerate(zip(m.files, m.masks)):
        shapes.append(_read_pnm(base / name, b"P6", 3, raster=False))
        if shapes[-1] != shapes[0]:
            raise LithovidError(
                f"{m.path}: frame {i} has shape {shapes[-1][:2]}, expected {shapes[0][:2]}"
            )
        if mask and _read_pnm(base / mask, b"P5", 1, raster=False) != shapes[-1][:2]:
            raise LithovidError(f"truth mask {i} does not match its frame")

    def read_mask(k: int) -> Optional[np.ndarray]:
        return None if m.masks[k] is None else _read_mask(base / m.masks[k])

    return RawVideo(
        video_id=m.video_id,
        native_fps=m.native_fps,
        frame_shape=shapes[0],
        frames=LazySequence(len(m.files), lambda k: read_ppm(base / m.files[k])),
        truth_masks=LazySequence(len(m.files), read_mask) if any(m.masks) else None,
        truth_label=m.truth_label,
    )


def imported_masks(masks_root: Path, video_id: str, n: int) -> LazySequence:
    """The 256x256 stone masks of a video's n stream frames, from an external segmenter: mask k
    is <masks_root>/<video_id>/mask_%06d.pgm, read each time it is accessed."""
    def read(k: int) -> StoneMask:
        path = Path(masks_root) / video_id / _MASK_NAME.format(k)
        bits = _read_mask(path)
        if bits.shape != (FRAME_SIDE, FRAME_SIDE):
            raise LithovidError(f"{path} has shape {bits.shape}, not {(FRAME_SIDE,) * 2}")
        return StoneMask(bits)

    return LazySequence(n, read)


def list_video_dirs(root: Path) -> list[Path]:
    """Video subdirectories of a cohort directory, sorted for determinism."""
    return sorted(p for p in Path(root).iterdir() if (p / MANIFEST_NAME).is_file())


def read_ahead(make: Callable[[int], object], indices: Iterable[int]) -> Iterator:
    """make(k) for each k of indices, in order, made on one helper thread up to two items
    past the one the caller holds. make's error is raised when the caller reaches that item.
    The helper is joined when the iteration ends, is closed or raises: no fork pool
    inherits a live thread."""
    with ThreadPoolExecutor(1, thread_name_prefix="lithovid-read-ahead") as pool:
        todo = iter(indices)
        ahead = deque(pool.submit(make, k) for k in islice(todo, 2))
        while ahead:  # at most two items asked for past the one the caller holds
            made = ahead.popleft()
            ahead.extend(pool.submit(make, k) for k in islice(todo, 1))
            yield made.result()


def normalize_video(video: RawVideo) -> tuple[LazySequence, Optional[LazySequence]]:
    """The 8 Hz stream of a video: its frames (and truth masks) normalized to 256x256.

    Both are lazy sequences: stream item k reads native item
    stream_indices(video)[k], checks it against video.frame_shape and
    normalizes it each time it is accessed, keeping nothing. One resize
    plan, built from frame_shape, serves the whole video: every frame gets
    a fresh array, but the plan's scratch is shared, so frames are made by
    one thread at a time. Iterating the frames iterates the native frames
    when the stream takes each of them once (a phantom then draws its noise
    ahead), else reads them by index. If the square crop is larger than
    256x256 (an HD video), the frames are read and normalized by
    read_ahead, else on the caller's thread. A frame's error is raised when
    the caller reaches that frame, and native frames are still decoded one
    at a time.
    """
    native = stream_indices(video)
    h, w, _ = video.frame_shape
    side = min(h, w)
    resize = _resize_plan(side, side)

    def grid(img: np.ndarray, k: int) -> FrameGrid:
        img = np.asarray(img)
        if img.dtype != np.uint8 or img.ndim != 3 or img.shape[2] != 3:
            raise LithovidError(f"frame {native[k]} must be HxWx3 uint8")
        if img.shape[:2] != (h, w):
            raise LithovidError(f"frame {native[k]} has shape {img.shape[:2]}, expected {(h, w)}")
        return FrameGrid(resize(_center_crop_square(img)), stream_index=k)

    def mask(k: int) -> Optional[StoneMask]:
        m = video.truth_masks[native[k]]
        if m is not None and np.shape(m) != (h, w):
            raise LithovidError(f"truth mask {native[k]} does not match its frame")
        return None if m is None else normalize_mask(m)

    def natives() -> Iterator[np.ndarray]:
        identity = native == list(range(len(video.frames)))
        yield from video.frames if identity else map(video.frames.__getitem__, native)

    def stream() -> Iterator[FrameGrid]:
        with closing(natives()) as imgs:  # closing the stream closes a phantom's read-ahead
            indices = range(len(native))
            if side <= FRAME_SIDE:  # not HD, so inline
                yield from map(grid, imgs, indices)
            else:
                yield from read_ahead(lambda k: grid(next(imgs), k), indices)

    frames = LazySequence(len(native), lambda k: grid(video.frames[native[k]], k), stream)
    return frames, None if video.truth_masks is None else LazySequence(len(native), mask)
