import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from lithovid.core import FrameGrid, MorphClass, StoneMask
from lithovid.errors import (
    DimensionMismatch,
    NoTruthAvailable,
    NotCalibrated,
)
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
        with pytest.raises(DimensionMismatch):
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
        with pytest.raises(DimensionMismatch):
            bce_loss(np.full((4, 4), 0.5), np.zeros((5, 5), dtype=bool))
        with pytest.raises(DimensionMismatch):
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
        with pytest.raises(NoTruthAvailable):
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
        for frame in frames[:48]:
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
        with pytest.raises(NotCalibrated):
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
        with pytest.raises(NotCalibrated, match="finite"):
            ChromaSegmenter(**fields)

    def test_singular_covariance_rejected(self):
        with pytest.raises(NotCalibrated):
            ChromaSegmenter(
                background_mean=np.zeros(3),
                background_cov=np.zeros((3, 3)),
                tau=3.0,
            )
