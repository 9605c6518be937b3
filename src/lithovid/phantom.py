"""Deterministic synthetic endoscopy with per-frame ground truth.

Each phantom video renders an elliptical stone over tissue-like
background at 8 Hz / 256x256, scripted by a small event vocabulary
(surface exam, fragmentation, stone-free prospection, instrument
occlusion, flying particles, camera jitter, specular glare, brightness
drift). Every pixel is a pure function of (spec, frame index), so the
same spec always produces bit-identical output.

Palettes are synthetic stand-ins chosen to be separable in color
histogram space: type Ia renders as a dark brown stone with low
frequency mammillary shading, IIb as pale gray-yellow with fine angular
speckle, IIIb as a smooth orange-beige. Mixed stones render the shell in
the first component's palette and expose the second component's palette
on the freshly cut faces after a fragmentation event.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from enum import Enum
from typing import Optional

import numpy as np

from .core import CANONICAL_ORDER, FRAME_SIDE, STREAM_FPS, FrameGrid, MorphClass, StoneMask
from .errors import LithovidError, ValidationError
from .rng import stream
from .video_io import RawVideo

SIDE = FRAME_SIDE
JITTER_FULL_PX = 24.0  # translation amplitude at intensity 1.0


class EventKind(Enum):
    SURFACE_EXAM = "SurfaceExam"
    FRAGMENTATION = "Fragmentation"
    STONE_FREE = "StoneFree"
    INSTRUMENT_OCCLUSION = "InstrumentOcclusion"
    FLYING_PARTICLES = "FlyingParticles"
    JITTER = "Jitter"
    SPECULAR_GLARE = "SpecularGlare"
    BRIGHTNESS_DRIFT = "BrightnessDrift"


@dataclass(frozen=True)
class EventScript:
    kind: EventKind
    t_start: float
    t_end: float
    intensity: float = 1.0

    def __post_init__(self) -> None:
        if not self.t_start < self.t_end:
            raise ValidationError(f"event interval [{self.t_start}, {self.t_end}] is empty")
        if not 0.0 <= self.intensity <= 1.0:
            raise ValidationError(f"intensity {self.intensity} outside [0, 1]")

    def active(self, t: float) -> bool:
        return self.t_start <= t < self.t_end

    def overlaps(self, other: "EventScript") -> bool:
        return self.t_start < other.t_end and other.t_start < self.t_end


@dataclass(frozen=True)
class Palette:
    """RGB signature of a surface: base color plus texture amplitudes.

    ripple drives low-frequency shading (bumps), speckle drives
    per-pixel high-frequency grain; both are relative to the base color.
    """

    base: tuple[float, float, float]
    ripple: float = 0.0
    speckle: float = 0.0

    def __post_init__(self) -> None:
        if len(self.base) != 3:
            raise ValidationError(f"palette base needs 3 channels, got {len(self.base)}")
        if not all(math.isfinite(v) for v in (*self.base, self.ripple, self.speckle)):
            raise ValidationError(f"palette values must be finite, got {self}")


BACKGROUND_PALETTE = Palette(base=(150.0, 62.0, 72.0), ripple=0.10, speckle=0.02)
PURE_PALETTES = {
    MorphClass.IA: Palette(base=(96.0, 64.0, 34.0), ripple=0.22, speckle=0.03),
    MorphClass.IIB: Palette(base=(205.0, 196.0, 150.0), ripple=0.05, speckle=0.16),
    MorphClass.IIIB: Palette(base=(222.0, 165.0, 92.0), ripple=0.06, speckle=0.02),
}


def stone_palettes(label: MorphClass) -> tuple[Palette, Optional[Palette]]:
    """(shell, core) palettes for a label; pure labels have no core."""
    if not label.is_mixed:
        return PURE_PALETTES[label], None
    pures = sorted(label.components, key=lambda c: c.rank)
    return PURE_PALETTES[pures[0]], PURE_PALETTES[pures[1]]


_CONTRADICTIONS = (
    (EventKind.STONE_FREE, EventKind.SURFACE_EXAM),
    (EventKind.STONE_FREE, EventKind.FRAGMENTATION),
)


@dataclass(frozen=True)
class PhantomSpec:
    """Full deterministic description of one synthetic video; the label fixes its palettes."""

    seed: int
    label: MorphClass
    duration_s: float
    events: tuple[EventScript, ...] = field(default_factory=tuple)
    background: Palette = field(init=False, default=BACKGROUND_PALETTE)
    shell: Palette = field(init=False)
    core: Optional[Palette] = field(init=False)

    def __post_init__(self) -> None:
        if not 0 < self.duration_s < math.inf:
            raise LithovidError(f"duration_s must be positive and finite, got {self.duration_s}")
        events = tuple(self.events)
        for ev in events:
            if ev.t_start < 0 or ev.t_end > self.duration_s + 1e-9:
                raise LithovidError(
                    f"event {ev.kind.value} [{ev.t_start}, {ev.t_end}] "
                    f"outside [0, {self.duration_s}]"
                )
        for a_kind, b_kind in _CONTRADICTIONS:
            a_events = [e for e in events if e.kind is a_kind]
            b_events = [e for e in events if e.kind is b_kind]
            for a in a_events:
                for b in b_events:
                    if a.overlaps(b):
                        raise LithovidError(
                            f"contradictory overlap: {a_kind.value} and {b_kind.value}"
                        )
        shell, core = stone_palettes(self.label)
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "shell", shell)
        object.__setattr__(self, "core", core)

    @property
    def n_frames(self) -> int:
        return max(1, int(self.duration_s * STREAM_FPS + 0.5))

    def active(self, kind: EventKind, t: float) -> Optional[EventScript]:
        for ev in self.events:
            if ev.kind is kind and ev.active(t):
                return ev
        return None

    def fragmentation_times(self) -> list[EventScript]:
        return [e for e in self.events if e.kind is EventKind.FRAGMENTATION]

    def to_json(self) -> str:
        def palette(p: Palette) -> dict:
            return {"base": list(p.base), "ripple": p.ripple, "speckle": p.speckle}

        payload = {
            "seed": self.seed,
            "label": self.label.tag,
            "duration_s": self.duration_s,
            "events": [
                {
                    "kind": e.kind.value,
                    "t_start": e.t_start,
                    "t_end": e.t_end,
                    "intensity": e.intensity,
                }
                for e in self.events
            ],
            "background": palette(self.background),
            "shell": palette(self.shell),
            "core": None if self.core is None else palette(self.core),
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# -- per-video derived geometry ------------------------------------------------


@dataclass(frozen=True)
class _Geometry:
    axis_a: float
    axis_b: float
    angle: float
    lobe_amp: tuple[float, float]
    lobe_phase: tuple[float, float]
    drift_amp: tuple[float, float]
    drift_period: tuple[float, float]
    drift_phase: tuple[float, float]
    sites: np.ndarray           # fragment seed points in unit-ellipse coords
    frag_dirs: np.ndarray       # outward unit separation directions
    frag_dist: np.ndarray       # final separation distance per fragment (px)
    core_period: float
    core_phase: np.ndarray
    core_sync_phase: float


@lru_cache(maxsize=64)
def _geometry_for_seed(seed: int) -> _Geometry:
    rng = stream(seed, "geometry")
    axis_a = float(rng.uniform(68.0, 78.0))
    axis_b = float(rng.uniform(56.0, 65.0))
    angle = float(rng.uniform(0.0, math.pi))
    lobe_amp = (float(rng.uniform(0.04, 0.10)), float(rng.uniform(0.02, 0.06)))
    lobe_phase = (float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(0, 2 * math.pi)))
    drift_amp = (float(rng.uniform(4.0, 7.0)), float(rng.uniform(4.0, 7.0)))
    drift_period = (float(rng.uniform(9.0, 13.0)), float(rng.uniform(10.0, 14.0)))
    drift_phase = (float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(0, 2 * math.pi)))
    # three fragment sites spread inside the unit ellipse
    site_angles = rng.uniform(0, 2 * math.pi) + np.array([0.0, 2.1, 4.2]) + rng.uniform(
        -0.3, 0.3, size=3
    )
    site_radius = rng.uniform(0.35, 0.55, size=3)
    sites = np.stack([np.cos(site_angles) * site_radius, np.sin(site_angles) * site_radius], 1)
    dirs = sites / np.maximum(np.linalg.norm(sites, axis=1, keepdims=True), 1e-9)
    frag_dist = rng.uniform(12.0, 18.0, size=3)
    core_period = float(rng.uniform(2.6, 3.4))
    core_phase = rng.uniform(0, 2 * math.pi, size=3)
    core_sync_phase = float(rng.uniform(0, 2 * math.pi))
    return _Geometry(
        axis_a=axis_a,
        axis_b=axis_b,
        angle=angle,
        lobe_amp=lobe_amp,
        lobe_phase=lobe_phase,
        drift_amp=drift_amp,
        drift_period=drift_period,
        drift_phase=drift_phase,
        sites=sites,
        frag_dirs=dirs,
        frag_dist=frag_dist,
        core_period=core_period,
        core_phase=core_phase,
        core_sync_phase=core_sync_phase,
    )


_AXIS = np.arange(SIDE, dtype=np.float32)  # pixel coordinates along either axis
_GY, _GX = np.mgrid[0:SIDE, 0:SIDE].astype(np.float32)
# radial falloff, one copy per channel so the per-frame multiply stays contiguous
_VIGNETTE = np.repeat((1.0 - 0.16 * np.clip(
    ((_GX - (SIDE - 1) / 2) ** 2 + (_GY - (SIDE - 1) / 2) ** 2) / ((SIDE / 2) ** 2), 0.0, 1.0
)).astype(np.float32)[..., None], 3, 2)


def _core_fraction(geom: _Geometry, t: float) -> float:
    f = 0.54 + 0.46 * math.sin(2 * math.pi * t / geom.core_period + geom.core_sync_phase)
    return min(0.97, max(0.06, f))


def _jitter_offset(spec: PhantomSpec, index: int, ev: EventScript) -> tuple[float, float]:
    # alternating sign guarantees large frame-to-frame displacement
    amp = JITTER_FULL_PX * ev.intensity
    rng = stream(spec.seed, "jitter", frame=index)
    sign = 1.0 if index % 2 == 0 else -1.0
    ox = sign * amp * (0.75 + 0.25 * rng.uniform())
    oy = -sign * amp * 0.6 * (0.65 + 0.35 * rng.uniform())
    return ox, oy


def _drift(geom: _Geometry, t: float) -> tuple[float, float]:
    dx = geom.drift_amp[0] * math.sin(2 * math.pi * t / geom.drift_period[0] + geom.drift_phase[0])
    dy = geom.drift_amp[1] * math.sin(2 * math.pi * t / geom.drift_period[1] + geom.drift_phase[1])
    return dx, dy


@lru_cache(maxsize=64)
def _background_phase(seed: int) -> tuple[np.float64, ...]:
    # numpy float64 scalars: adding one promotes the float32 grids to float64
    return tuple(stream(seed, "background").uniform(0, 2 * math.pi, size=4))


def _background(spec: PhantomSpec, index: int, shift: tuple[float, float]) -> np.ndarray:
    pal = spec.background
    phase = _background_phase(spec.seed)
    t = index / STREAM_FPS
    col = np.sin(2 * math.pi * (_AXIS - shift[0]) / 97.0 + phase[0])
    row = np.sin(2 * math.pi * (_AXIS - shift[1]) / 83.0 + phase[1] + 0.25 * math.sin(
        2 * math.pi * t / 11.0 + phase[2]))
    shading = np.outer(row, col)
    shading *= pal.ripple
    shading += 1.0
    shading = shading.astype(np.float32)
    noise = stream(spec.seed, "bg-noise", frame=index).normal(0.0, 2.5, size=(SIDE, SIDE))
    noise = noise.astype(np.float32)
    noise /= np.float32(np.mean(pal.base))
    shading += noise
    img = np.empty((SIDE, SIDE, 3), dtype=np.float32)
    for c in range(3):
        np.multiply(shading, np.float32(pal.base[c]), out=img[..., c])
    return img


def _paint_stone(img: np.ndarray, spec: PhantomSpec, index: int, center: tuple[float, float],
                 stone_bits: np.ndarray, is_core: np.ndarray) -> None:
    """Texture the stone on its bounding box; the surface moves rigidly with it."""
    rows = np.flatnonzero(stone_bits.any(axis=1))
    cols = np.flatnonzero(stone_bits.any(axis=0))
    y0, y1, x0, x1 = int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1
    box = np.s_[y0:y1, x0:x1]
    # uniform draws are prefix-stable and one Philox step yields 4 doubles,
    # so skipping y0 rows of steps leaves rows y0: of the full-frame field
    rng = stream(spec.seed, "grain", frame=index)
    rng.bit_generator.advance(y0 * SIDE // 4)
    grain = rng.uniform(-1.0, 1.0, size=(y1 - y0, SIDE))[:, x0:x1].astype(np.float32)
    xl = _GX[box] - center[0]
    yl = _GY[box] - center[1]
    ripple = (
        np.cos(2 * math.pi * (0.9 * xl + 0.45 * yl) / 46.0)
        * np.cos(2 * math.pi * (0.5 * xl - 0.8 * yl) / 37.0)
    )
    core = is_core[box]
    for pal, sel in ((spec.shell, stone_bits[box] & ~core), (spec.core, core)):
        if pal is None or not sel.any():
            continue
        shade = 1.0 + pal.ripple * ripple + pal.speckle * grain
        for c in range(3):
            np.copyto(img[y0:y1, x0:x1, c], shade * np.float32(pal.base[c]), where=sel)


def _boundary_factor(geom: _Geometry, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Lobed boundary modulation, Chebyshev-expanded to avoid arctan/cos."""
    r = np.sqrt(u * u + v * v)
    r[r == 0] = 1.0
    c = u / r
    s = v / r
    c2 = c * c
    s2 = s * s
    cos3 = c * (4.0 * c2 - 3.0)
    sin3 = s * (3.0 - 4.0 * s2)
    cos5 = c * (16.0 * c2 * c2 - 20.0 * c2 + 5.0)
    sin5 = s * (16.0 * s2 * s2 - 20.0 * s2 + 5.0)
    a3, a5 = geom.lobe_amp
    p3, p5 = geom.lobe_phase
    return (
        1.0
        + a3 * (cos3 * math.cos(p3) - sin3 * math.sin(p3))
        + a5 * (cos5 * math.cos(p5) - sin5 * math.sin(p5))
    )


@dataclass(frozen=True)
class _Templates:
    """Stone shapes rasterized once per video in center-local coordinates."""

    radius: int
    parent: np.ndarray                  # (2R+1)^2 bool
    fragments: tuple[np.ndarray, ...]   # same window, margin-cut Voronoi cells


@lru_cache(maxsize=64)
def _templates_for_seed(seed: int) -> _Templates:
    geom = _geometry_for_seed(seed)
    radius = int(math.ceil(geom.axis_a * 1.25)) + 2
    span = np.arange(-radius, radius + 1, dtype=np.float32)
    ly, lx = np.meshgrid(span, span, indexing="ij")
    cos_a, sin_a = math.cos(geom.angle), math.sin(geom.angle)
    u = cos_a * lx + sin_a * ly
    v = -sin_a * lx + cos_a * ly
    rho2 = (u / geom.axis_a) ** 2 + (v / geom.axis_b) ** 2
    factor = _boundary_factor(geom, u, v)
    parent = rho2 <= factor * factor
    site_px = geom.sites * np.array([geom.axis_a, geom.axis_b])
    dists = [
        np.sqrt((u - sx) ** 2 + (v - sy) ** 2) for sx, sy in site_px
    ]
    fragments = []
    for j in range(len(site_px)):
        keep = parent.copy()
        for k in range(len(site_px)):
            if k == j:
                continue
            # margin along the cut produces the inter-fragment gap
            keep &= dists[k] - dists[j] >= 2.0
        fragments.append(keep)
    return _Templates(radius=radius, parent=parent, fragments=tuple(fragments))


def _place(template: np.ndarray, radius: int, cx: float, cy: float) -> np.ndarray:
    """Stamp a center-local template into a full frame at integer offsets."""
    out = np.zeros((SIDE, SIDE), dtype=bool)
    icx = int(math.floor(cx + 0.5))
    icy = int(math.floor(cy + 0.5))
    y0, y1 = icy - radius, icy + radius + 1
    x0, x1 = icx - radius, icx + radius + 1
    ty0, tx0 = max(0, -y0), max(0, -x0)
    y0, x0 = max(0, y0), max(0, x0)
    y1, x1 = min(SIDE, y1), min(SIDE, x1)
    if y0 >= y1 or x0 >= x1:
        return out
    out[y0:y1, x0:x1] = template[ty0 : ty0 + (y1 - y0), tx0 : tx0 + (x1 - x0)]
    return out


def _stone_bits(
    spec: PhantomSpec,
    geom: _Geometry,
    index: int,
    center: tuple[float, float],
) -> tuple[np.ndarray, np.ndarray]:
    """Stone and exposed-core screen masks for frame `index`.

    Each fragment is folded in as it is placed: a later fragment paints
    over an earlier one, core and shell alike.
    """
    t = index / STREAM_FPS
    templates = _templates_for_seed(spec.seed)
    is_core = np.zeros((SIDE, SIDE), dtype=bool)
    done = [e for e in spec.fragmentation_times() if t >= e.t_start]
    if not done:
        return _place(templates.parent, templates.radius, center[0], center[1]), is_core

    # separation progress: ramp over the active event, 1.0 after it
    progress = 1.0
    current = [e for e in done if e.active(t)]
    if current:
        ev = current[0]
        x = (t - ev.t_start) / (ev.t_end - ev.t_start)
        progress = x * x * (3 - 2 * x)  # smoothstep

    # per-fragment slow wobble keeps post-split masks stable but alive
    wobble = np.stack(
        [
            1.2 * np.sin(2 * math.pi * t / 5.0 + geom.core_phase),
            1.2 * np.cos(2 * math.pi * t / 6.0 + geom.core_phase),
        ],
        axis=1,
    )
    offsets = geom.frag_dirs * (geom.frag_dist * progress)[:, None] + wobble

    if spec.core is not None:
        # exposed section faces the original stone center; all fragments
        # re-orient together so the visible core fraction swings widely
        dc = (_GX - center[0]) ** 2 + (_GY - center[1]) ** 2
        f = _core_fraction(geom, t)
    stone = np.zeros((SIDE, SIDE), dtype=bool)
    for (ox, oy), template in zip(offsets, templates.fragments):
        frag = _place(template, templates.radius, center[0] + ox, center[1] + oy)
        stone |= frag
        is_core &= ~frag
        if spec.core is not None and frag.any():
            is_core |= frag & (dc <= np.quantile(dc[frag], f))
    return stone, is_core


def _draw_instrument(img: np.ndarray, occluded: np.ndarray, spec: PhantomSpec,
                     index: int, ev: EventScript) -> None:
    t = index / STREAM_FPS
    rng = stream(spec.seed, "instrument")
    y_entry = float(rng.uniform(70, 180))
    slope = float(rng.uniform(-0.25, 0.25))
    width = 16.0 + 22.0 * ev.intensity
    reach = SIDE * (0.45 + 0.25 * ev.intensity) + 14.0 * math.sin(2 * math.pi * t / 2.3)
    axis_y = y_entry + slope * _GX
    band = (np.abs(_GY - axis_y) <= width / 2) & (_GX <= reach)
    shade = 1.0 - 0.35 * (np.abs(_GY - axis_y) / (width / 2 + 1e-9))
    for c, base in enumerate((74.0, 82.0, 78.0)):
        img[..., c][band] = base * shade[band]
    occluded |= band


def _draw_particles(img: np.ndarray, occluded: np.ndarray, spec: PhantomSpec,
                    index: int, intensity: float) -> None:
    rng = stream(spec.seed, "particles", frame=index)
    count = int(round(8 + 26 * intensity))
    xs = rng.uniform(0, SIDE, size=count)
    ys = rng.uniform(0, SIDE, size=count)
    radii = rng.uniform(1.0, 3.0, size=count)
    tone = rng.uniform(0.8, 1.1, size=count)
    for x, y, r, tn in zip(xs, ys, radii, tone):
        x0, x1 = int(max(0, x - r - 1)), int(min(SIDE, x + r + 2))
        y0, y1 = int(max(0, y - r - 1)), int(min(SIDE, y + r + 2))
        if x0 >= x1 or y0 >= y1:
            continue
        patch = (_GX[y0:y1, x0:x1] - x) ** 2 + (_GY[y0:y1, x0:x1] - y) ** 2 <= r * r
        for c, base in enumerate((216.0, 210.0, 198.0)):
            img[y0:y1, x0:x1, c][patch] = base * tn
        occluded[y0:y1, x0:x1] |= patch


def _apply_glare(img: np.ndarray, spec: PhantomSpec, index: int, ev: EventScript) -> None:
    t = index / STREAM_FPS
    rng = stream(spec.seed, "glare")
    count = 1 + int(round(2 * ev.intensity))
    for _ in range(count):
        bx = float(rng.uniform(40, SIDE - 40))
        by = float(rng.uniform(40, SIDE - 40))
        radius = float(rng.uniform(9.0, 18.0))
        px = bx + 10.0 * math.sin(2 * math.pi * t / 4.1 + rng.uniform(0, 6.28))
        py = by + 10.0 * math.cos(2 * math.pi * t / 5.3 + rng.uniform(0, 6.28))
        d2 = (_GX - px) ** 2 + (_GY - py) ** 2
        halo = np.float32(255.0 * ev.intensity) * np.exp(-d2 / np.float32(2 * radius * radius))
        for c in range(3):
            img[..., c] += halo


def render_frame(spec: PhantomSpec, index: int) -> tuple[np.ndarray, np.ndarray]:
    """Render frame `index`; returns (256x256x3 uint8, truth bits)."""
    geom = _geometry_for_seed(spec.seed)
    t = index / STREAM_FPS

    jitter_ev = spec.active(EventKind.JITTER, t)
    shift = _jitter_offset(spec, index, jitter_ev) if jitter_ev else (0.0, 0.0)

    img = _background(spec, index, shift)

    if spec.active(EventKind.STONE_FREE, t) is not None:
        stone_bits = np.zeros((SIDE, SIDE), dtype=bool)
    else:
        dx, dy = _drift(geom, t)
        center = ((SIDE - 1) / 2 + dx + shift[0], (SIDE - 1) / 2 + dy + shift[1])
        stone_bits, is_core = _stone_bits(spec, geom, index, center)
        if stone_bits.any():
            _paint_stone(img, spec, index, center, stone_bits, is_core)

    occluded = np.zeros((SIDE, SIDE), dtype=bool)

    instrument_ev = spec.active(EventKind.INSTRUMENT_OCCLUSION, t)
    if instrument_ev:
        _draw_instrument(img, occluded, spec, index, instrument_ev)

    particles_ev = spec.active(EventKind.FLYING_PARTICLES, t)
    frag_active = any(e.active(t) for e in spec.fragmentation_times())
    if particles_ev or frag_active:
        # fragmentation always throws debris
        intensity = particles_ev.intensity if particles_ev else 0.6
        _draw_particles(img, occluded, spec, index, intensity)

    glare_ev = spec.active(EventKind.SPECULAR_GLARE, t)
    if glare_ev:
        _apply_glare(img, spec, index, glare_ev)

    img *= _VIGNETTE

    drift_ev = spec.active(EventKind.BRIGHTNESS_DRIFT, t)
    if drift_ev:
        x = (t - drift_ev.t_start) / (drift_ev.t_end - drift_ev.t_start)
        img *= 1.0 - 0.55 * drift_ev.intensity * math.sin(math.pi * x) ** 2

    truth = stone_bits & ~occluded
    img += np.float32(0.5)
    np.floor(img, out=img)
    np.clip(img, 0, 255, out=img)
    return img.astype(np.uint8), truth


def generate_phantom(spec: PhantomSpec) -> tuple[RawVideo, tuple[StoneMask, ...], MorphClass]:
    """Render the whole video with per-frame truth masks and its label."""
    frames = []
    truths = []
    for i in range(spec.n_frames):
        frame, truth = render_frame(spec, i)
        frames.append(frame)
        truths.append(truth)
    video = RawVideo(
        video_id=f"phantom-{spec.label.tag}-{spec.seed & 0xFFFFFFFF:08x}",
        native_fps=STREAM_FPS,
        frames=tuple(frames),
        truth_masks=tuple(truths),
        truth_label=spec.label,
    )
    return video, tuple(StoneMask(t) for t in truths), spec.label


# -- spec builders -------------------------------------------------------------

# observed frequencies of interventional events in clinical recordings
EVENT_RATES = {
    "exam_first": 0.64,
    "fragmentation": 0.47,
    "stone_free": 0.34,
    "instrument": 0.10,
    "fragment_removal": 0.06,
    "urine_blur": 0.04,
    "blood_glare": 0.01,
}


def default_event_mix(seed: int, label: MorphClass, duration_s: float = 12.0) -> PhantomSpec:
    """Sample event presence at the observed clinical rates, seeded."""
    rng = stream(seed, "event-mix")
    draws = {name: float(rng.uniform()) < rate for name, rate in EVENT_RATES.items()}
    wobble = rng.uniform(-0.02, 0.02, size=8)
    d = duration_s
    events: list[EventScript] = []
    frag_start = (0.40 + wobble[0]) * d
    if draws["fragmentation"]:
        if draws["exam_first"]:
            events.append(EventScript(EventKind.SURFACE_EXAM, 0.0, (0.36 + wobble[1]) * d))
            events.append(EventScript(EventKind.FRAGMENTATION, frag_start, frag_start + 0.04 * d))
        else:
            # stone already broken when the recording starts
            events.append(EventScript(EventKind.FRAGMENTATION, 0.0, 0.02 * d))
    elif draws["exam_first"]:
        events.append(EventScript(EventKind.SURFACE_EXAM, 0.0, (0.5 + wobble[1]) * d))
    if draws["stone_free"]:
        start = (0.62 + wobble[2]) * d
        events.append(EventScript(EventKind.STONE_FREE, start, start + (0.20 + wobble[3]) * d))
    if draws["instrument"]:
        start = (0.50 + wobble[4]) * d
        events.append(EventScript(EventKind.INSTRUMENT_OCCLUSION, start, start + 0.08 * d, 0.7))
    if draws["fragment_removal"]:
        start = (0.46 + wobble[5]) * d
        events.append(EventScript(EventKind.FLYING_PARTICLES, start, start + 0.10 * d, 0.8))
    if draws["urine_blur"]:
        events.append(EventScript(EventKind.BRIGHTNESS_DRIFT, 0.3 * d, 0.9 * d, 0.6))
    if draws["blood_glare"]:
        start = (0.15 + wobble[6]) * d
        events.append(EventScript(EventKind.SPECULAR_GLARE, start, start + 0.2 * d, 0.6))
    return PhantomSpec(seed=seed, label=label, duration_s=d, events=tuple(events))


def clean_spec(seed: int, label: MorphClass, duration_s: float = 10.0) -> PhantomSpec:
    """Well-behaved video: steady exam; mixed labels fragment early."""
    d = duration_s
    if label.is_mixed:
        events = (
            EventScript(EventKind.SURFACE_EXAM, 0.0, 0.12 * d),
            EventScript(EventKind.FRAGMENTATION, 0.12 * d, 0.18 * d),
            EventScript(EventKind.SURFACE_EXAM, 0.20 * d, d),
        )
    else:
        events = (EventScript(EventKind.SURFACE_EXAM, 0.0, d),)
    return PhantomSpec(seed=seed, label=label, duration_s=d, events=events)


def adversarial_spec(seed: int, label: MorphClass, duration_s: float = 14.0) -> PhantomSpec:
    """Hostile video: long stone-free tail, jitter, occlusion, glare."""
    d = duration_s
    events = (
        EventScript(EventKind.SURFACE_EXAM, 0.0, 0.08 * d),
        EventScript(EventKind.FRAGMENTATION, 0.08 * d, 0.12 * d),
        EventScript(EventKind.SURFACE_EXAM, 0.14 * d, 0.50 * d),
        EventScript(EventKind.JITTER, 0.26 * d, 0.42 * d, 0.75),
        EventScript(EventKind.SPECULAR_GLARE, 0.16 * d, 0.24 * d, 0.5),
        EventScript(EventKind.STONE_FREE, 0.50 * d, d),
        EventScript(EventKind.INSTRUMENT_OCCLUSION, 0.70 * d, 0.76 * d, 0.7),
    )
    return PhantomSpec(seed=seed, label=label, duration_s=d, events=events)


PROFILE_BUILDERS = {
    "clean": clean_spec,
    "default": default_event_mix,
    "adversarial": adversarial_spec,
}


# -- training stills -----------------------------------------------------------


def make_still(label: MorphClass, seed: int, section: bool = False):
    """One (frame, truth mask) pair for model training or calibration.

    Surface stills show the intact stone; section stills show it after
    fragmentation. Mixed labels always render as sections, at the moment
    that exposes the core most evenly, the way a curated training shot
    would frame both morphologies.
    """
    if label.is_mixed:
        section = True
    if section:
        spec = PhantomSpec(
            seed=seed,
            label=label,
            duration_s=2.0,
            events=(EventScript(EventKind.FRAGMENTATION, 0.125, 0.25),),
        )
        if label.is_mixed:
            geom = _geometry_for_seed(seed)
            idx = min(
                range(4, spec.n_frames),
                key=lambda i: abs(_core_fraction(geom, i / STREAM_FPS) - 0.5),
            )
        else:
            idx = 6
    else:
        spec = PhantomSpec(seed=seed, label=label, duration_s=1.0)
        idx = 4
    frame, truth = render_frame(spec, idx)
    return FrameGrid(frame, stream_index=0), StoneMask(truth)


def training_stills(seed: int, per_class: int):
    """Labeled stills, half surface / half section for pure classes."""
    out = []
    for c in CANONICAL_ORDER:
        for i in range(per_class):
            child = (seed * 1_000_003 + c.rank * 10_007 + i) & ((1 << 63) - 1)
            frame, mask = make_still(c, child, section=(i % 2 == 1))
            out.append((frame, mask, c))
    return out
