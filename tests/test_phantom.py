import hashlib
import json

import numpy as np
import pytest

from lithovid.core import CANONICAL_ORDER, MorphClass
from lithovid.errors import LithovidError
from lithovid.phantom import (
    EVENT_RATES,
    PROFILE_BUILDERS,
    EventKind,
    EventScript,
    Palette,
    PhantomSpec,
    adversarial_spec,
    clean_spec,
    default_event_mix,
    generate_phantom,
    render_frame,
    stone_palettes,
)
from lithovid.rng import stream

from test_phantom_exact import PROFILE_SECONDS, reference_render_frame

IA = MorphClass.IA
IAIIB = MorphClass.IA_IIB


def frames_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


class TestSpecValidation:
    def test_event_interval_must_be_ordered(self):
        with pytest.raises(LithovidError, match=r"^event interval \[2.0, 2.0\] is empty$"):
            EventScript(EventKind.JITTER, 2.0, 2.0)

    def test_intensity_bounds(self):
        with pytest.raises(LithovidError, match=r"^intensity 1.5 outside \[0, 1\]$"):
            EventScript(EventKind.JITTER, 0.0, 1.0, intensity=1.5)

    def test_events_must_fit_duration(self):
        with pytest.raises(LithovidError, match=r"StoneFree \[1.0, 3.0\] outside \[0, 2.0\]$"):
            PhantomSpec(
                seed=1, label=IA, duration_s=2.0,
                events=(EventScript(EventKind.STONE_FREE, 1.0, 3.0),),
            )

    def test_contradictory_overlap_rejected(self):
        with pytest.raises(LithovidError, match="overlap: StoneFree and SurfaceExam$"):
            PhantomSpec(
                seed=1, label=IA, duration_s=4.0,
                events=(
                    EventScript(EventKind.STONE_FREE, 0.0, 2.0),
                    EventScript(EventKind.SURFACE_EXAM, 1.0, 3.0),
                ),
            )
        with pytest.raises(LithovidError, match="overlap: StoneFree and Fragmentation$"):
            PhantomSpec(
                seed=1, label=IA, duration_s=4.0,
                events=(
                    EventScript(EventKind.STONE_FREE, 0.0, 2.0),
                    EventScript(EventKind.FRAGMENTATION, 1.5, 1.8),
                ),
            )

    def test_adjacent_intervals_allowed(self):
        PhantomSpec(
            seed=1, label=IA, duration_s=4.0,
            events=(
                EventScript(EventKind.SURFACE_EXAM, 0.0, 2.0),
                EventScript(EventKind.STONE_FREE, 2.0, 4.0),
            ),
        )

    def test_mixed_label_gets_core_palette(self):
        spec = PhantomSpec(seed=1, label=IAIIB, duration_s=1.0)
        assert spec.core is not None
        pure = PhantomSpec(seed=1, label=IA, duration_s=1.0)
        assert pure.core is None

    # sha256 of to_json() at seed 99, each builder at its default duration: the palettes
    # derived from the label must keep phantom_spec.json's bytes
    SPEC_DIGESTS = {
        ("clean", IA): "c540d40a90264e0937a9d5708f5d190103429c08dc15b157c322d3cfe18a46e0",
        ("clean", IAIIB): "1f0ff49a26eb6c672ffd85aec59439597212735a5cb202e7aac429fedf71d12f",
        ("default", IA): "12f44b7c839c8196a385978460ed281a466a7e53be2b76c32fcaf194bc3d0351",
        ("default", IAIIB): "dc70fe6dc644aac08ae1ee172c60d63d65a1ce4d5d584c7dedf7cbd76e4f7091",
        ("adversarial", IA): "1cb1099beb7e6d34b28ab2397cfed9cc9ab026485c46163482e4aa0504c5e840",
        ("adversarial", IAIIB): "b2badb120efb3bb6f8a6518e6370cb9c5e6f26e7fcdc0a62b4e5f409b990e5fc",
    }

    @pytest.mark.parametrize("profile, label", list(SPEC_DIGESTS),
                             ids=[f"{p}-{c.tag}" for p, c in SPEC_DIGESTS])
    def test_to_json_bytes_are_pinned(self, profile, label):
        text = PROFILE_BUILDERS[profile](99, label, PROFILE_SECONDS[profile]).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == self.SPEC_DIGESTS[profile, label]

    @staticmethod
    def reference_to_json(spec):
        """The field-by-field serializer that to_json replaced, verbatim."""
        def palette(p):
            return {"base": list(p.base), "ripple": p.ripple, "speckle": p.speckle}

        payload = {
            "seed": spec.seed,
            "label": spec.label.tag,
            "duration_s": spec.duration_s,
            "events": [
                {
                    "kind": e.kind.value,
                    "t_start": e.t_start,
                    "t_end": e.t_end,
                    "intensity": e.intensity,
                }
                for e in spec.events
            ],
            "background": palette(spec.background),
            "shell": palette(spec.shell),
            "core": None if spec.core is None else palette(spec.core),
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("profile", list(PROFILE_BUILDERS))
    def test_to_json_equals_the_field_by_field_serializer(self, profile):
        for label in CANONICAL_ORDER:
            for seed in range(20):
                spec = PROFILE_BUILDERS[profile](seed, label, PROFILE_SECONDS[profile])
                assert spec.to_json() == self.reference_to_json(spec), (label, seed)

    @pytest.mark.parametrize("fields", [
        {"base": (float("nan"), 60.0, 70.0)},
        {"base": (150.0, float("inf"), 70.0)},
        {"base": (150.0, 60.0, 70.0), "ripple": float("inf")},
        {"base": (150.0, 60.0, 70.0), "speckle": float("-inf")},
        {"base": (150.0, 60.0, 70.0), "ripple": float("nan")},
        {"base": (150.0, 60.0)},
        {"base": (150.0, 60.0, 70.0, 80.0)},
    ])
    def test_palette_rejects_non_finite_values_and_bad_base(self, fields):
        with pytest.raises(LithovidError,
                           match="^palette (values must be finite|base needs 3 channels), got "):
            Palette(**fields)


class TestDeterminism:
    def test_same_spec_bit_identical(self):
        spec = default_event_mix(1234, IAIIB, 4.0)
        v1, m1, _ = generate_phantom(spec)
        v2, m2, _ = generate_phantom(spec)
        assert frames_equal(v1.frames, v2.frames)
        assert all(np.array_equal(a.bits, b.bits) for a, b in zip(m1, m2))

    def test_different_seeds_differ(self):
        v1, _, _ = generate_phantom(clean_spec(1, IA, 1.0))
        v2, _, _ = generate_phantom(clean_spec(2, IA, 1.0))
        assert not frames_equal(v1.frames, v2.frames)


class TestEventSemantics:
    def test_full_stone_free_video_is_empty(self):
        spec = PhantomSpec(
            seed=5, label=IA, duration_s=2.0,
            events=(EventScript(EventKind.STONE_FREE, 0.0, 2.0),),
        )
        _, masks, _ = generate_phantom(spec)
        assert all(m.empty for m in masks)
        assert all(m.coverage == 0.0 for m in masks)

    def test_fragmentation_splits_into_fragments(self):
        from scipy import ndimage

        spec = PhantomSpec(
            seed=9, label=IA, duration_s=4.0,
            events=(EventScript(EventKind.FRAGMENTATION, 1.0, 1.5),),
        )
        _, masks, _ = generate_phantom(spec)
        _, n_before = ndimage.label(masks[4].bits)
        _, n_after = ndimage.label(masks[20].bits)
        assert n_before == 1
        assert n_after >= 2

    def test_fragmentation_never_grows_stone(self):
        spec = PhantomSpec(
            seed=9, label=IA, duration_s=4.0,
            events=(EventScript(EventKind.FRAGMENTATION, 1.0, 1.5),),
        )
        _, masks, _ = generate_phantom(spec)
        before = masks[7].count  # last intact frame (split at t=1.0, frame 8)
        after = max(masks[k].count for k in range(8, len(masks)))
        assert after <= before * 1.02

    def test_mixed_palettes_shell_before_both_after(self):
        spec = PhantomSpec(
            seed=21, label=IAIIB, duration_s=10.0,
            events=(
                EventScript(EventKind.SURFACE_EXAM, 0.0, 5.0),
                EventScript(EventKind.FRAGMENTATION, 5.0, 5.5),
                EventScript(EventKind.SURFACE_EXAM, 5.5, 10.0),
            ),
        )
        video, masks, _ = generate_phantom(spec)
        shell, core = stone_palettes(IAIIB)

        def core_pixels(i):
            px = video.frames[i][masks[i].bits].astype(float)
            d_shell = np.linalg.norm(px - shell.base, axis=1)
            d_core = np.linalg.norm(px - core.base, axis=1)
            return int((d_core < d_shell).sum()), len(px)

        for i in (0, 10, 25, 39):
            n_core, n = core_pixels(i)
            assert n > 0
            assert n_core / n < 0.02, f"frame {i} shows core palette before the split"
        for i in (41, 48, 56, 64, 72, 79):
            n_core, n = core_pixels(i)
            assert n_core > 0, f"frame {i} shows no core palette after the split"
            assert n_core < n

    def test_pure_video_single_palette(self):
        spec = PhantomSpec(
            seed=13, label=MorphClass.IIIB, duration_s=4.0,
            events=(EventScript(EventKind.FRAGMENTATION, 1.0, 1.5),),
        )
        video, masks, _ = generate_phantom(spec)
        base = np.asarray(stone_palettes(MorphClass.IIIB)[0].base)
        others = [np.asarray(p.base) for c, (p, _) in
                  ((c, stone_palettes(c)) for c in (IA, MorphClass.IIB))]
        for i in range(0, len(masks), 6):
            px = video.frames[i][masks[i].bits].astype(float)
            if not len(px):
                continue
            d_own = np.linalg.norm(px - base, axis=1)
            for other in others:
                d_other = np.linalg.norm(px - other, axis=1)
                assert (d_own < d_other).mean() > 0.98

    def test_mixed_without_fragmentation_never_shows_core(self):
        spec = PhantomSpec(seed=77, label=IAIIB, duration_s=3.0)
        video, masks, _ = generate_phantom(spec)
        shell, core = stone_palettes(IAIIB)
        for i in range(len(masks)):
            px = video.frames[i][masks[i].bits].astype(float)
            d_shell = np.linalg.norm(px - shell.base, axis=1)
            d_core = np.linalg.norm(px - core.base, axis=1)
            assert (d_core < d_shell).mean() < 0.02

    def test_truth_masks_delimit_rendered_stone(self):
        """The reference renderer paints the stone flat in a sentinel colour; render_frame's
        truth masks are the reference's, so they delimit the stone it renders."""
        sentinel = (255, 0, 255)
        for label in CANONICAL_ORDER:
            spec = adversarial_spec(42, label, 6.0)
            for index in range(spec.n_frames):
                frame, truth = reference_render_frame(spec, index, stone_sentinel=sentinel)
                if truth.any():
                    assert np.all(frame[truth] == sentinel)
                # occluded or stone-free pixels must never be sentinel-colored
                outside = frame[~truth]
                if len(outside):
                    assert not np.all(outside == sentinel, axis=1).any()
                assert np.array_equal(render_frame(spec, index)[1], truth)

    def test_instrument_occludes_truth(self):
        base = PhantomSpec(seed=55, label=IA, duration_s=2.0)
        occluded = PhantomSpec(
            seed=55, label=IA, duration_s=2.0,
            events=(EventScript(EventKind.INSTRUMENT_OCCLUSION, 0.0, 2.0, 0.8),),
        )
        _, masks_base, _ = generate_phantom(base)
        _, masks_occ, _ = generate_phantom(occluded)
        assert sum(m.count for m in masks_occ) < sum(m.count for m in masks_base)


class TestDefaultEventMix:
    def test_deterministic_in_seed(self):
        assert default_event_mix(7, IA, 12.0) == default_event_mix(7, IA, 12.0)

    def test_event_rates_over_many_seeds(self):
        n = 10_000
        frag = stone_free = 0
        for seed in range(n):
            spec = default_event_mix(seed, IA, 12.0)
            kinds = {e.kind for e in spec.events}
            frag += EventKind.FRAGMENTATION in kinds
            stone_free += EventKind.STONE_FREE in kinds
        assert abs(frag / n - EVENT_RATES["fragmentation"]) < 0.02
        assert abs(stone_free / n - EVENT_RATES["stone_free"]) < 0.02

    def test_specs_are_valid_for_all_labels(self):
        for label in CANONICAL_ORDER:
            for seed in range(200):
                default_event_mix(seed, label, 12.0)  # must not raise


class TestCounterBasedStreams:
    def test_streams_independent_of_evaluation_order(self):
        a = stream(1, "x", frame=5).uniform(size=3)
        stream(1, "x", frame=4).uniform(size=10)
        b = stream(1, "x", frame=5).uniform(size=3)
        assert np.array_equal(a, b)

    def test_purpose_separation(self):
        a = stream(1, "alpha").uniform(size=3)
        b = stream(1, "beta").uniform(size=3)
        assert not np.array_equal(a, b)

    def test_uniform_draws_are_prefix_stable(self):
        # the grain field is drawn only up to the stone's last row
        full = stream(7, "grain", frame=3).uniform(-1.0, 1.0, size=(256, 256))
        for k in (1, 5, 100, 255):
            part = stream(7, "grain", frame=3).uniform(-1.0, 1.0, size=(k, 256))
            assert part.tobytes() == full[:k].tobytes()

    def test_advance_skips_whole_rows_of_uniform_draws(self):
        # one Philox step yields 4 doubles, so a 256-wide row is 64 steps
        full = stream(7, "grain", frame=3).uniform(-1.0, 1.0, size=(256, 256))
        for y0 in (1, 37, 128, 255):
            rng = stream(7, "grain", frame=3)
            rng.bit_generator.advance(y0 * 64)
            rows = rng.uniform(-1.0, 1.0, size=(256 - y0, 256))
            assert rows.tobytes() == full[y0:].tobytes()
            rng = stream(7, "grain", frame=3)
            rng.bit_generator.advance(y0 * 64 - 1)
            assert rng.uniform(-1.0, 1.0, size=256).tobytes() != full[y0].tobytes()


class TestLazyStream:
    """A phantom is rendered as it is read: one render per frame per pass, the bytes of an
    eager render loop, and no read-ahead helper left running however the reading ends."""

    @staticmethod
    def count_renders(monkeypatch):
        from lithovid import phantom

        calls = []

        def counting(spec, index, *rest):
            calls.append(index)
            return render_frame(spec, index, *rest)

        monkeypatch.setattr(phantom, "render_frame", counting)
        return calls

    def test_ablation_renders_each_frame_once(self, monkeypatch, small_model, oracle_factory):
        from lithovid.evaluate import run_ablation

        specs = [adversarial_spec(50 + c.rank, c, 3.0) for c in CANONICAL_ORDER]
        calls = self.count_renders(monkeypatch)
        result = run_ablation(((generate_phantom(s)[0], s.label) for s in specs),
                              oracle_factory, small_model)
        assert len(result) == 3
        assert calls == [k for s in specs for k in range(s.n_frames)]

    def test_phantom_command_renders_each_frame_once(self, monkeypatch, tmp_path):
        from lithovid.cli import main

        calls = self.count_renders(monkeypatch)
        assert main(["phantom", "--out", str(tmp_path), "--per-class", "1", "--seed", "4",
                     "--duration", "1.5", "--profile", "adversarial"]) == 0
        assert calls == list(range(12)) * len(CANONICAL_ORDER)

    def test_training_stills_are_rendered_as_they_are_read(self, monkeypatch):
        from lithovid.phantom import training_stills

        calls = self.count_renders(monkeypatch)
        next(training_stills(5, 40))
        assert len(calls) == 1

    @pytest.mark.parametrize("profile", ["clean", "default", "adversarial"])
    def test_equals_an_eager_render_loop(self, profile):
        spec = PROFILE_BUILDERS[profile](31, IAIIB, 4.0)
        eager = [render_frame(spec, k) for k in range(spec.n_frames)]
        video, masks, label = generate_phantom(spec)
        assert label is IAIIB and len(video.frames) == len(masks) == len(eager)
        for k, (frame, mask, (pixels, truth)) in enumerate(zip(video.frames, masks, eager)):
            assert frame.tobytes() == pixels.tobytes()
            assert mask.bits.tobytes() == video.truth_masks[k].tobytes() == truth.tobytes()
        for k in (0, spec.n_frames // 2, spec.n_frames - 1):  # read by index, out of order
            assert video.frames[k].tobytes() == eager[k][0].tobytes()

    def test_helper_is_joined_when_exhausted_or_closed(self):
        import threading

        from lithovid.video_io import normalize_video

        before = threading.active_count()
        video, _, _ = generate_phantom(adversarial_spec(8, IA, 2.0))
        assert len(list(video.frames)) == 16
        assert threading.active_count() == before
        for frames in (video.frames, normalize_video(video)[0]):
            it = iter(frames)
            next(it)
            assert threading.active_count() == before + 1  # drawing frames 1 and 2 ahead
            it.close()
            assert threading.active_count() == before

    def test_helper_is_joined_when_reading_raises(self, monkeypatch, small_model,
                                                  oracle_factory):
        import threading

        from lithovid.pipeline import run_raw_video

        def failing(spec, index, *rest):
            if index == 5:
                raise LithovidError("render failed")
            return render_frame(spec, index, *rest)

        before = threading.active_count()
        video, _, _ = generate_phantom(adversarial_spec(8, IA, 2.0))
        with monkeypatch.context() as patch:
            from lithovid import phantom

            patch.setattr(phantom, "render_frame", failing)
            with pytest.raises(LithovidError, match="^render failed$"):
                list(video.frames)
            assert threading.active_count() == before
            with pytest.raises(LithovidError, match="^render failed$"):
                run_raw_video(video, oracle_factory, small_model)
            assert threading.active_count() == before

        def failing_segmenter(frames, truths):
            class Failing:
                def segment(self, frame):
                    if frame.stream_index == 3:
                        raise LithovidError("segmenter failed")
                    return truths[frame.stream_index]
            return Failing()

        with pytest.raises(LithovidError, match="^segmenter failed$"):
            run_raw_video(video, failing_segmenter, small_model)
        assert threading.active_count() == before
