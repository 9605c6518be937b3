import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from lithovid.core import FrameGrid, MorphClass, StoneMask
from lithovid.errors import LithovidError
from lithovid.phantom import (
    EventKind,
    EventScript,
    PhantomSpec,
    generate_phantom,
    make_still,
    training_stills,
)
from lithovid.segmentation import (
    ChromaSegmenter,
    OracleSegmenter,
    bce_loss,
    bce_loss_grad,
    calibrate_chroma,
    clean_mask,
    combined_loss,
    dice_loss,
    dice_loss_grad,
    dsc,
)
from lithovid.video_io import normalize_video

bool_masks = hnp.arrays(dtype=np.bool_, shape=(12, 12), elements=st.booleans())


class TestDsc:
    def test_identical_nonempty(self):
        m = np.zeros((8, 8), dtype=bool)
        m[2:5, 2:5] = True
        assert dsc(m, m) == 1.0

    def test_disjoint(self):
        a = np.zeros((8, 8), dtype=bool)
        b = np.zeros((8, 8), dtype=bool)
        a[0, 0] = True
        b[7, 7] = True
        assert dsc(a, b) == 0.0

    def test_half_overlap(self):
        a = np.zeros((4, 4), dtype=bool)
        b = np.zeros((4, 4), dtype=bool)
        a[0, :4] = True
        b[0, 2:4] = True
        b[1, :2] = True
        # |A| = |B| = 4, intersection 2 -> 2*2/(4+4)
        assert dsc(a, b) == 0.5

    def test_both_empty_is_one(self):
        e = np.zeros((4, 4), dtype=bool)
        assert dsc(e, e) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(LithovidError, match=r"^shape \(4, 4\) vs \(5, 5\)$"):
            dsc(np.zeros((4, 4), dtype=bool), np.zeros((5, 5), dtype=bool))

    def test_accepts_stone_mask_wrappers(self):
        m = StoneMask(np.eye(6, dtype=bool))
        assert dsc(m, m) == 1.0

    @given(a=bool_masks, b=bool_masks)
    @settings(max_examples=150, deadline=None)
    def test_symmetry_and_range(self, a, b):
        d1 = dsc(a, b)
        d2 = dsc(b, a)
        assert d1 == d2
        assert 0.0 <= d1 <= 1.0
        assert dsc(a, a) == 1.0


class TestLosses:
    def test_bce_perfect_prediction(self):
        t = np.zeros((8, 8), dtype=bool)
        t[1:5, 2:6] = True
        p = t.astype(np.float64)
        assert bce_loss(p, t) <= 1e-6

    def test_bce_uniform_half_is_ln2(self):
        t = np.zeros((8, 8), dtype=bool)
        t[::2] = True
        p = np.full((8, 8), 0.5)
        assert bce_loss(p, t) == pytest.approx(math.log(2), abs=1e-9)

    def test_dice_perfect_all_ones(self):
        t = np.ones((8, 8), dtype=bool)
        assert dice_loss(np.ones((8, 8)), t) == pytest.approx(0.0, abs=1e-12)

    def test_dice_all_zero_with_smoothing(self):
        t = np.zeros((8, 8), dtype=bool)
        assert dice_loss(np.zeros((8, 8)), t) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(LithovidError, match=r"^shape \(4, 4\) vs \(5, 5\)$"):
            bce_loss(np.full((4, 4), 0.5), np.zeros((5, 5), dtype=bool))
        with pytest.raises(LithovidError, match=r"^shape \(4, 4\) vs \(5, 5\)$"):
            dice_loss(np.full((4, 4), 0.5), np.zeros((5, 5), dtype=bool))

    @staticmethod
    def finite_difference(loss, p, t, h=1e-5, **kw):
        grad = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            hi = p.copy()
            lo = p.copy()
            hi[idx] += h
            lo[idx] -= h
            grad[idx] = (loss(hi, t, **kw) - loss(lo, t, **kw)) / (2 * h)
            it.iternext()
        return grad

    def test_bce_gradient_matches_finite_differences(self):
        rng = np.random.Generator(np.random.Philox(key=[1, 2]))
        for _ in range(12):
            p = rng.uniform(0.05, 0.95, size=(8, 8))
            t = rng.integers(0, 2, size=(8, 8)).astype(bool)
            analytic = bce_loss_grad(p, t)
            fd = self.finite_difference(bce_loss, p, t)
            err = np.abs(analytic - fd).max() / max(np.abs(fd).max(), 1e-12)
            assert err < 1e-4

    def test_dice_gradient_matches_finite_differences(self):
        rng = np.random.Generator(np.random.Philox(key=[3, 4]))
        for _ in range(12):
            p = rng.uniform(0.05, 0.95, size=(8, 8))
            t = rng.integers(0, 2, size=(8, 8)).astype(bool)
            analytic = dice_loss_grad(p, t)
            fd = self.finite_difference(dice_loss, p, t)
            err = np.abs(analytic - fd).max() / max(np.abs(fd).max(), 1e-12)
            assert err < 1e-4

    @given(t=bool_masks)
    @settings(max_examples=100, deadline=None)
    def test_dice_loss_complements_dsc_for_binary(self, t):
        p = t.astype(np.float64)
        assert dice_loss(p, t, smooth=1e-12) == pytest.approx(1.0 - dsc(t, t), abs=1e-9)

    @given(a=bool_masks, b=bool_masks)
    @settings(max_examples=100, deadline=None)
    def test_dice_loss_complements_dsc_on_pairs(self, a, b):
        assert dice_loss(a.astype(np.float64), b, smooth=1e-12) == pytest.approx(
            1.0 - dsc(a, b), abs=1e-9
        )

    def test_combined_loss_is_sum_of_terms(self):
        rng = np.random.Generator(np.random.Philox(key=[8, 8]))
        p = rng.uniform(0.05, 0.95, size=(8, 8))
        t = rng.integers(0, 2, size=(8, 8)).astype(bool)
        assert combined_loss(p, t) == pytest.approx(bce_loss(p, t) + dice_loss(p, t))


class TestCleanMask:
    @given(mask=hnp.arrays(dtype=np.bool_, shape=(24, 24), elements=st.booleans()))
    @settings(max_examples=80, deadline=None)
    def test_never_adds_pixels_outside_filled_input(self, mask):
        cleaned = clean_mask(mask, min_component_px=5)
        allowed = ndimage.binary_fill_holes(mask)
        assert not np.any(cleaned & ~allowed)

    def test_small_components_dropped_holes_filled(self):
        bits = np.zeros((32, 32), dtype=bool)
        bits[2:12, 2:12] = True
        bits[6, 6] = False  # hole
        bits[20, 20] = True  # 1 px speck
        out = clean_mask(bits, min_component_px=10)
        assert out[6, 6]
        assert not out[20, 20]


def reference_clean_mask(bits, min_component_px):
    """clean_mask as it was before it worked on the bounding box."""
    labels, n = ndimage.label(bits)
    if n == 0:
        return np.zeros_like(bits, dtype=bool)
    sizes = np.bincount(labels.ravel())
    keep = sizes >= min_component_px
    keep[0] = False
    kept = keep[labels]
    return ndimage.binary_fill_holes(kept)


def ring(side, y, x, outer, inner):
    yy, xx = np.mgrid[:side, :side]
    r2 = (yy - y) ** 2 + (xx - x) ** 2
    return (r2 < outer**2) & (r2 >= inner**2)


class TestCleanMaskExact:
    def assert_matches(self, bits, min_component_px=64):
        out = clean_mask(bits, min_component_px)
        assert out.dtype == bool
        assert np.array_equal(out, reference_clean_mask(bits, min_component_px))

    def test_random_masks(self):
        rng = np.random.Generator(np.random.Philox(key=[17, 3]))
        for _ in range(400):
            bits = np.zeros((64, 64), dtype=bool)
            y0, x0 = rng.integers(0, 64, size=2)
            y1, x1 = rng.integers(y0, 65), rng.integers(x0, 65)
            bits[y0:y1, x0:x1] = rng.random((y1 - y0, x1 - x0)) < rng.uniform(0.2, 0.8)
            self.assert_matches(bits, int(rng.integers(1, 30)))

    @pytest.mark.parametrize("opened", [False, True])
    @pytest.mark.parametrize("edges", ["none", "top", "bottom", "left", "right",
                                       "top left", "bottom right", "top bottom left right"])
    def test_outline_touching_frame_edges(self, edges, opened):
        """A 3-px outline along the named frame edges encloses a hole, unless its
        side on the first named edge (top when none) is cut open."""
        sides = edges.split()
        top, bottom = (0 if "top" in sides else 10), (64 if "bottom" in sides else 50)
        left, right = (0 if "left" in sides else 12), (64 if "right" in sides else 52)
        bits = np.zeros((64, 64), dtype=bool)
        bits[top:bottom, left:right] = True
        bits[top + 3 : bottom - 3, left + 3 : right - 3] = False
        if opened:
            bits[{"none": np.s_[top : top + 3, 30:34],
                  "top": np.s_[top : top + 3, 30:34],
                  "bottom": np.s_[bottom - 3 : bottom, 30:34],
                  "left": np.s_[30:34, left : left + 3],
                  "right": np.s_[30:34, right - 3 : right]}[sides[0]]] = False
        self.assert_matches(bits, 10)
        assert clean_mask(bits, 10)[32, 32] != opened

    def test_island_inside_a_hole_inside_a_component(self):
        bits = ring(256, 120, 130, 60, 30) | ring(256, 120, 130, 15, 0)
        assert clean_mask(bits, 64)[120, 130 + 25]  # the hole around the island is filled
        self.assert_matches(bits)

    def test_empty_mask(self):
        self.assert_matches(np.zeros((256, 256), dtype=bool))

    def test_all_components_too_small(self):
        rng = np.random.Generator(np.random.Philox(key=[17, 4]))
        bits = rng.random((256, 256)) < 0.05
        assert not clean_mask(bits, 64).any()
        self.assert_matches(bits)

    def test_chroma_candidates_on_phantom_frames(self, chroma):
        video, _, _ = generate_phantom(PhantomSpec(seed=12, label=MorphClass.IA_IIB,
                                                   duration_s=2.0))
        frames, _ = normalize_video(video)
        for frame in frames:
            self.assert_matches(chroma.distances_sq(frame.pixels) > chroma.tau**2)


class TestOracleSegmenter:
    def test_pass_through(self):
        spec = PhantomSpec(seed=4, label=MorphClass.IIB, duration_s=1.0)
        video, masks, _ = generate_phantom(spec)
        frames, truths = normalize_video(video)
        seg = OracleSegmenter.from_masks(truths)
        for frame, truth in zip(frames, masks):
            out = seg.segment(frame)
            assert dsc(out, truth) == 1.0

    def test_stone_free_frame_gives_empty_mask(self):
        spec = PhantomSpec(
            seed=4, label=MorphClass.IA, duration_s=1.0,
            events=(EventScript(EventKind.STONE_FREE, 0.0, 1.0),),
        )
        video, _, _ = generate_phantom(spec)
        frames, truths = normalize_video(video)
        seg = OracleSegmenter.from_masks(truths)
        assert seg.segment(frames[0]).empty

    def test_no_truth_available(self):
        seg = OracleSegmenter.from_masks([None])
        frame = FrameGrid(np.zeros((256, 256, 3), dtype=np.uint8))
        with pytest.raises(LithovidError, match="^no ground-truth mask for stream index 0$"):
            seg.segment(frame)


@pytest.fixture(scope="module")
def chroma():
    stills = training_stills(99, 6)
    return calibrate_chroma((f, m) for f, m, _ in stills)


class TestChromaSegmenter:
    def test_clean_frames_dsc(self, chroma):
        scores = []
        for i in range(30):
            label = [MorphClass.IA, MorphClass.IIB, MorphClass.IIIB][i % 3]
            frame, truth = make_still(label, 5000 + i)
            scores.append(dsc(chroma.segment(frame), truth))
        assert min(scores) >= 0.90

    def test_stone_free_frames_nearly_empty(self, chroma):
        spec = PhantomSpec(
            seed=31, label=MorphClass.IA, duration_s=6.0,
            events=(EventScript(EventKind.STONE_FREE, 0.0, 6.0),),
        )
        video, _, _ = generate_phantom(spec)
        frames, _ = normalize_video(video)
        for frame in itertools.islice(frames, 48):
            assert chroma.segment(frame).coverage < 0.01

    def test_uniform_background_mean_frame_is_empty(self, chroma):
        color = np.floor(chroma.background_mean + 0.5).astype(np.uint8)
        frame = FrameGrid(np.tile(color, (256, 256, 1)))
        assert chroma.segment(frame).empty

    def test_save_load_round_trip(self, chroma, tmp_path):
        path = tmp_path / "cal.json"
        chroma.save(path)
        back = ChromaSegmenter.load(path)
        assert back.tau == chroma.tau
        assert np.allclose(back.background_mean, chroma.background_mean)
        assert np.allclose(back.background_cov, chroma.background_cov)

    def test_load_garbage_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}", "utf-8")
        with pytest.raises(LithovidError, match="^cannot load calibration from .*: missing field "):
            ChromaSegmenter.load(path)

    @pytest.mark.parametrize("field, value", [
        ("tau", math.nan), ("tau", math.inf),
        ("background_mean", np.array([1.0, math.nan, 1.0])),
        ("background_cov", np.where(np.eye(3) > 0, 4.0, math.nan)),
        ("background_cov", np.diag([4.0, math.inf, 4.0])),
    ], ids=["tau-nan", "tau-inf", "mean-nan", "cov-nan", "cov-inf"])
    def test_non_finite_calibration_rejected(self, field, value):
        fields = dict(background_mean=np.zeros(3), background_cov=4.0 * np.eye(3), tau=3.0)
        fields[field] = value
        with pytest.raises(LithovidError, match="^(tau|background mean).* finite"):
            ChromaSegmenter(**fields)

    def test_singular_covariance_rejected(self):
        with pytest.raises(LithovidError, match="^background covariance is singular$"):
            ChromaSegmenter(
                background_mean=np.zeros(3),
                background_cov=np.zeros((3, 3)),
                tau=3.0,
            )


def reference_distances_sq(seg, pixels):
    """ChromaSegmenter.distances_sq as it was before its explicit sum."""
    diff = pixels.astype(np.float64) - seg.background_mean
    return np.einsum("...i,ij,...j->...", diff, seg._inv_cov, diff)


def same_floats(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestDistancesExact:
    @pytest.fixture(params=["fitted", "random spd"])
    def seg(self, request, chroma):
        if request.param == "fitted":
            return chroma
        rng = np.random.Generator(np.random.Philox(key=[5, 5]))
        m = rng.normal(size=(3, 3))
        return ChromaSegmenter(background_mean=rng.uniform(0.0, 255.0, size=3),
                               background_cov=m @ m.T * 40.0 + 4.0 * np.eye(3), tau=3.0)

    def test_every_colour_bit_for_bit(self, seg):
        block = np.empty((256, 256, 3), dtype=np.uint8)
        block[..., 1] = np.arange(256)[:, None]
        block[..., 2] = np.arange(256)
        for red in range(256):
            block[..., 0] = red
            assert same_floats(seg.distances_sq(block), reference_distances_sq(seg, block)), red

    def test_calibrate_shaped_input_bit_for_bit(self, seg):
        rng = np.random.Generator(np.random.Philox(key=[5, 6]))
        pixels = np.concatenate([rng.integers(0, 256, size=(4000, 3)).astype(np.float64),
                                 rng.uniform(-40.0, 300.0, size=(4000, 3))])
        assert same_floats(seg.distances_sq(pixels), reference_distances_sq(seg, pixels))

    def test_calibration_file_unchanged(self, tmp_path, monkeypatch):
        stills = training_stills(99, 6)
        calibrate_chroma((f, m) for f, m, _ in stills).save(tmp_path / "new.json")
        monkeypatch.setattr(ChromaSegmenter, "distances_sq", reference_distances_sq)
        calibrate_chroma((f, m) for f, m, _ in stills).save(tmp_path / "old.json")
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()
