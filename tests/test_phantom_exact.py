"""render_frame gives exactly the bytes of the full-frame renderer it replaced.

The reference below is that renderer, kept verbatim: it draws the whole
256x256 grain field, composites every fragment with full-frame boolean
gathers and scatters, and multiplies the vignette and glare through
stride-0 broadcasts. The stone state it folds is
that renderer's too, kept verbatim: one full-frame mask per fragment and
one core frame per fragment, zeros where the fragment has no core. The
helpers it shares with the current module (geometry, templates and their
placement, core fraction, instrument, particles) did not change.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from lithovid import phantom
from lithovid.core import CANONICAL_ORDER, STREAM_FPS
from lithovid.phantom import (
    PROFILE_BUILDERS,
    SIDE,
    EventKind,
    EventScript,
    Palette,
    PhantomSpec,
    _Geometry,
    _core_fraction,
    _draw_instrument,
    _draw_particles,
    _drift,
    _geometry_for_seed,
    _jitter_offset,
    _place,
    _templates_for_seed,
    generate_phantom,
    make_still,
    render_frame,
)
from lithovid.rng import stream

# the durations at which the pinned spec digests and the render checks were made
PROFILE_SECONDS = {"clean": 10.0, "default": 12.0, "adversarial": 14.0}

_XS = np.arange(SIDE, dtype=np.float32)
_YS = np.arange(SIDE, dtype=np.float32)
_GY, _GX = np.mgrid[0:SIDE, 0:SIDE].astype(np.float32)
_R2 = ((_GX - (SIDE - 1) / 2) ** 2 + (_GY - (SIDE - 1) / 2) ** 2) / ((SIDE / 2) ** 2)
_VIGNETTE = (1.0 - 0.16 * np.clip(_R2, 0.0, 1.0)).astype(np.float32)


@dataclass(frozen=True)
class _StoneState:
    masks: tuple[np.ndarray, ...]       # per-fragment screen masks (full frame)
    cores: tuple[np.ndarray, ...]       # per-fragment exposed-core submasks


def _stone_state(
    spec: PhantomSpec,
    geom: _Geometry,
    index: int,
    center: tuple[float, float],
) -> _StoneState:
    t = index / STREAM_FPS
    frags = spec.fragmentation_times()
    done = [e for e in frags if t >= e.t_start]
    templates = _templates_for_seed(spec.seed)

    if not done:
        placed = _place(templates.parent, templates.radius, center[0], center[1])
        return _StoneState(masks=(placed,), cores=(np.zeros((SIDE, SIDE), bool),))

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

    masks = []
    cores = []
    dc = None
    for j, template in enumerate(templates.fragments):
        frag = _place(
            template,
            templates.radius,
            center[0] + offsets[j, 0],
            center[1] + offsets[j, 1],
        )
        masks.append(frag)
        if spec.core is not None and frag.any():
            if dc is None:
                dc = (_GX - center[0]) ** 2 + (_GY - center[1]) ** 2
            # exposed section faces the original stone center; all fragments
            # re-orient together so the visible core fraction swings widely
            f = _core_fraction(geom, t)
            vals = dc[frag]
            thresh = np.quantile(vals, f)
            cores.append(frag & (dc <= thresh))
        else:
            cores.append(np.zeros((SIDE, SIDE), bool))
    return _StoneState(masks=tuple(masks), cores=tuple(cores))


def _background(spec: PhantomSpec, index: int, shift: tuple[float, float]) -> np.ndarray:
    pal = spec.background
    phase = stream(spec.seed, "background").uniform(0, 2 * math.pi, size=4)
    t = index / STREAM_FPS
    col = np.sin(2 * math.pi * (_XS - shift[0]) / 97.0 + phase[0])
    row = np.sin(2 * math.pi * (_YS - shift[1]) / 83.0 + phase[1] + 0.25 * math.sin(
        2 * math.pi * t / 11.0 + phase[2]))
    shading = (1.0 + pal.ripple * np.outer(row, col)).astype(np.float32)
    noise = stream(spec.seed, "bg-noise", frame=index).normal(0.0, 2.5, size=(SIDE, SIDE))
    shading += noise.astype(np.float32) / np.float32(np.mean(pal.base))
    img = np.empty((SIDE, SIDE, 3), dtype=np.float32)
    for c in range(3):
        np.multiply(shading, np.float32(pal.base[c]), out=img[..., c])
    return img


def _texture(pal: Palette, xl: np.ndarray, yl: np.ndarray, grain: np.ndarray) -> np.ndarray:
    """Surface color for local stone coordinates (moves rigidly with it)."""
    ripple = (
        np.cos(2 * math.pi * (0.9 * xl + 0.45 * yl) / 46.0)
        * np.cos(2 * math.pi * (0.5 * xl - 0.8 * yl) / 37.0)
    )
    shade = (1.0 + pal.ripple * ripple + pal.speckle * grain).astype(np.float32)
    return shade[..., None] * np.asarray(pal.base, dtype=np.float32)[None, :]


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
        img += halo[..., None]


def reference_render_frame(
    spec: PhantomSpec,
    index: int,
    stone_sentinel: Optional[tuple[int, int, int]] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Render frame `index`; returns (256x256x3 uint8, truth bits).

    With stone_sentinel set, stone pixels are painted flat in that color
    and the photometric post effects (glare, drift, vignette, noise) are
    skipped, which lets tests verify that truth masks delimit exactly
    the rendered stone geometry.
    """
    geom = _geometry_for_seed(spec.seed)
    t = index / STREAM_FPS

    jitter_ev = spec.active(EventKind.JITTER, t)
    shift = _jitter_offset(spec, index, jitter_ev) if jitter_ev else (0.0, 0.0)

    if stone_sentinel is None:
        img = _background(spec, index, shift)
    else:
        img = np.zeros((SIDE, SIDE, 3), dtype=np.float32)

    stone_free = spec.active(EventKind.STONE_FREE, t) is not None
    stone_bits = np.zeros((SIDE, SIDE), dtype=bool)

    if not stone_free:
        dx, dy = _drift(geom, t)
        center = ((SIDE - 1) / 2 + dx + shift[0], (SIDE - 1) / 2 + dy + shift[1])
        state = _stone_state(spec, geom, index, center)
        grain = None
        for frag, core in zip(state.masks, state.cores):
            if not frag.any():
                continue
            stone_bits |= frag
            if stone_sentinel is not None:
                img[frag] = np.asarray(stone_sentinel, dtype=np.float32)
                continue
            if grain is None:
                grain = stream(spec.seed, "grain", frame=index).uniform(
                    -1.0, 1.0, size=(SIDE, SIDE)
                ).astype(np.float32)
            shell_part = frag & ~core
            if shell_part.any():
                xl = _GX[shell_part] - center[0]
                yl = _GY[shell_part] - center[1]
                img[shell_part] = _texture(spec.shell, xl, yl, grain[shell_part])
            if core.any():
                xl = _GX[core] - center[0]
                yl = _GY[core] - center[1]
                img[core] = _texture(spec.core, xl, yl, grain[core])

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

    if stone_sentinel is None:
        glare_ev = spec.active(EventKind.SPECULAR_GLARE, t)
        if glare_ev:
            _apply_glare(img, spec, index, glare_ev)

        img *= _VIGNETTE[..., None]

        drift_ev = spec.active(EventKind.BRIGHTNESS_DRIFT, t)
        if drift_ev:
            x = (t - drift_ev.t_start) / (drift_ev.t_end - drift_ev.t_start)
            img *= 1.0 - 0.55 * drift_ev.intensity * math.sin(math.pi * x) ** 2

    truth = stone_bits & ~occluded
    img += np.float32(0.5)
    np.floor(img, out=img)
    np.clip(img, 0, 255, out=img)
    return img.astype(np.uint8), truth


def assert_same_render(spec, indices):
    """Compare every index with the reference; returns the truth masks."""
    truths = []
    for index in indices:
        frame, truth = render_frame(spec, index)
        ref_frame, ref_truth = reference_render_frame(spec, index)
        assert frame.dtype == np.uint8 and frame.flags.c_contiguous
        assert frame.shape == (SIDE, SIDE, 3)
        assert truth.dtype == bool and truth.shape == (SIDE, SIDE)
        assert frame.tobytes() == ref_frame.tobytes(), (spec.label.tag, spec.seed, index)
        assert truth.tobytes() == ref_truth.tobytes(), (spec.label.tag, spec.seed, index)
        truths.append(truth)
    return truths


def one_event_spec(seed, label, kind, intensity=1.0):
    """A 3 s video with `kind` active over its middle second, after an early split."""
    events = [EventScript(kind, 1.0, 2.0, intensity)]
    if kind not in (EventKind.FRAGMENTATION, EventKind.STONE_FREE):
        events.append(EventScript(EventKind.FRAGMENTATION, 0.25, 0.5))
    return PhantomSpec(seed=seed, label=label, duration_s=3.0, events=tuple(events))


class TestRenderExact:
    @pytest.mark.parametrize("profile", sorted(PROFILE_BUILDERS))
    @pytest.mark.parametrize("label", CANONICAL_ORDER, ids=lambda c: c.tag)
    def test_profiles_and_labels(self, profile, label):
        for seed in (3, 3101):
            spec = PROFILE_BUILDERS[profile](seed, label, PROFILE_SECONDS[profile])
            assert_same_render(spec, range(seed % 3, spec.n_frames, 3))

    @pytest.mark.parametrize("kind", list(EventKind), ids=lambda k: k.value)
    def test_every_event_kind(self, kind):
        for seed, label in ((11, CANONICAL_ORDER[0]), (12, CANONICAL_ORDER[-1])):
            spec = one_event_spec(seed, label, kind)
            assert_same_render(spec, range(spec.n_frames))

    def test_stone_clipped_by_the_frame_edge(self, monkeypatch):
        # at full intensity the stone stays >= 5 px inside the frame (400 seeds), so
        # widen the jitter until it is cut by, and then leaves, the edge
        edges = outside = 0
        for amplitude in (60.0, 120.0, 400.0):
            monkeypatch.setattr(phantom, "JITTER_FULL_PX", amplitude)
            for seed, label in ((21, CANONICAL_ORDER[0]), (22, CANONICAL_ORDER[3])):
                spec = one_event_spec(seed, label, EventKind.JITTER)
                for truth in assert_same_render(spec, range(spec.n_frames)):
                    edges += bool(truth[0].any() or truth[-1].any()
                                  or truth[:, 0].any() or truth[:, -1].any())
                    outside += not truth.any()
        assert edges > 0 and outside > 0  # both cases are exercised, not just allowed

    def test_make_still_sections(self, monkeypatch):
        stills = []
        for label in CANONICAL_ORDER:
            for seed in (5, 6, 7):
                for section in (False, True):
                    frame, mask = make_still(label, seed, section=section)
                    stills.append((label, seed, section, frame.pixels, mask.bits))
        monkeypatch.setattr(phantom, "render_frame", reference_render_frame)
        for label, seed, section, pixels, bits in stills:
            frame, mask = make_still(label, seed, section=section)
            assert pixels.tobytes() == frame.pixels.tobytes(), (label.tag, seed, section)
            assert bits.tobytes() == mask.bits.tobytes(), (label.tag, seed, section)

    def test_generate_phantom_whole_video(self):
        spec = PROFILE_BUILDERS["adversarial"](7, CANONICAL_ORDER[4], 4.0)
        video, masks, _ = generate_phantom(spec)
        for index, (frame, mask) in enumerate(zip(video.frames, masks)):
            ref_frame, ref_truth = reference_render_frame(spec, index)
            assert frame.tobytes() == ref_frame.tobytes(), index
            assert mask.bits.tobytes() == ref_truth.tobytes(), index
