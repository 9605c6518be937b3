import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lithovid.classify import (
    CentroidModel,
    ScoreTable,
    _gradient_bins,
    features,
    import_scores,
    softmin_scores,
    train_centroid,
)
from lithovid.core import CANONICAL_ORDER, FrameGrid, MorphClass, StoneMask
from lithovid.errors import LithovidError
from lithovid.phantom import adversarial_spec, make_still, render_frame, training_stills
from lithovid.pipeline import FULL_FRAME_MASK

from conftest import write_score_csv

IA, IIB, IIIB, IAIIB, IAIIIB = CANONICAL_ORDER


def rand_frame(seed=0):
    rng = np.random.Generator(np.random.Philox(key=[seed, 1]))
    return FrameGrid(rng.integers(0, 256, size=(256, 256, 3), dtype=np.uint8))


def gradient_bins(gx, gy):
    """_gradient_bins on scratch of any size; features passes rows of its fixed scratch."""
    return _gradient_bins(gx, gy, np.empty(gx.shape), np.empty(gx.shape))


def block_mask(y0=50, y1=150, x0=60, x1=180):
    bits = np.zeros((256, 256), dtype=bool)
    bits[y0:y1, x0:x1] = True
    return StoneMask(bits)


class TestFeatures:
    def test_empty_mask_rejected(self):
        with pytest.raises(LithovidError, match="^cannot featurize an empty mask$"):
            features(rand_frame(), StoneMask(np.zeros((256, 256), dtype=bool)))

    def test_l1_normalized(self):
        vec = features(rand_frame(), block_mask())
        assert vec.shape == (528,)
        assert vec.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(vec >= 0)

    def test_background_repaint_invariance(self):
        f = rand_frame(3)
        mask = block_mask()
        repainted = f.pixels.copy()
        repainted[~mask.bits] = 255  # touch only mask-0 pixels
        g = FrameGrid(repainted)
        assert np.array_equal(features(f, mask), features(g, mask))


def apply_mask(frame, mask):
    """Zero every pixel outside the mask; stone pixels pass unchanged."""
    out = frame.pixels.copy()
    out[~mask.bits] = 0
    return FrameGrid(out, stream_index=frame.stream_index)


def reference_features(frame, mask):
    """features() computed on the whole apply_mask()ed frame."""
    masked = apply_mask(frame, mask)
    bits = mask.bits
    px = masked.pixels[bits]
    idx = (
        (px[:, 0] >> 5).astype(np.intp) * 64
        + (px[:, 1] >> 5).astype(np.intp) * 8
        + (px[:, 2] >> 5).astype(np.intp)
    )
    color_hist = np.bincount(idx, minlength=512).astype(np.float64)
    rgb = masked.pixels.astype(np.float64)
    luma = 0.299 * rgb[..., 0] + 0.587 * rgb[..., 1] + 0.114 * rgb[..., 2]
    gy, gx = np.gradient(luma)
    mag = np.hypot(gx, gy)[bits]
    g_idx = np.minimum((mag / 10.0).astype(np.intp), 15)
    grad_hist = np.bincount(g_idx, minlength=16).astype(np.float64)
    vec = np.concatenate([color_hist, grad_hist])
    return vec / vec.sum()


def edge_masks():
    yield "full frame", np.ones((256, 256), dtype=bool)
    for y, x in [(0, 0), (0, 255), (255, 0), (255, 255), (128, 77), (1, 254)]:
        bits = np.zeros((256, 256), dtype=bool)
        bits[y, x] = True
        yield f"pixel {y},{x}", bits
    sides = {
        "top": np.s_[:40, 60:200], "bottom": np.s_[-40:, 60:200],
        "left": np.s_[60:200, :40], "right": np.s_[60:200, -40:],
        "one row from top": np.s_[1:40, 60:200], "one col from right": np.s_[60:200, -41:-1],
    }
    for name, box in sides.items():
        bits = np.zeros((256, 256), dtype=bool)
        bits[box] = True
        yield name, bits
    rng = np.random.Generator(np.random.Philox(key=[8, 8]))
    for i in range(12):
        bits = rng.random((256, 256)) < rng.uniform(0.01, 0.9)
        if i % 2:  # a random blob with a ragged edge
            yy, xx = np.mgrid[:256, :256]
            cy, cx, r = rng.integers(0, 256, 3)
            bits &= (yy - cy) ** 2 + (xx - cx) ** 2 < (r // 2 + 4) ** 2
            bits[cy, cx] = True
        yield f"random {i}", bits


def ulps_from(x, n):
    """The float n representable steps above (n > 0) or below (n < 0) x."""
    x = float(x)
    for _ in range(abs(n)):
        x = np.nextafter(x, math.inf if n > 0 else 0.0)
    return x


def edge_step_frame(row, horizontal, vertical):
    """A black frame with luma steps around pixel (row, 128).

    horizontal is (right, left) and vertical (down, up) neighbour colours;
    on row 0 the up colour is the pixel itself (a one-sided difference).
    """
    px = np.zeros((256, 256, 3), dtype=np.uint8)
    (right, left), (down, up) = horizontal, vertical
    px[row, 129], px[row, 127], px[row + 1, 128], px[max(row - 1, 0), 128] = right, left, down, up
    return FrameGrid(px)


BLACK = (0, 0, 0)
# Steps that put |g| = hypot(gx, gy) at pixel (row, 128) on 10 * k, the
# lower edge of gradient bin k, or n ulps from it; the last column says
# whether sqrt(gx*gx + gy*gy) / 10 floors to another bin than |g| / 10.
EDGE_STEPS = [  # k, n, row, (right, left), (down, up), floors apart
    (1, 0, 128, (BLACK, BLACK), ((2, 8, 129), BLACK), False),
    (1, 0, 128, ((1, 11, 46), BLACK), ((1, 25, 9), BLACK), False),
    (1, -1, 128, (BLACK, BLACK), ((22, 22, 22), (2, 2, 2)), False),
    (1, 1, 128, ((62, 28, 9), (9, 33, 17)), ((1, 25, 9), BLACK), False),
    (2, 0, 128, (BLACK, BLACK), ((0, 26, 217), BLACK), False),
    (2, 0, 128, ((2, 22, 92), BLACK), ((2, 50, 18), BLACK), False),
    (2, -1, 128, (BLACK, BLACK), ((14, 48, 67), BLACK), False),
    (2, 1, 128, (BLACK, BLACK), ((54, 44, 9), (3, 3, 3)), False),
    (15, 0, 128, ((123, 237, 36), BLACK), ((238, 252, 201), (2, 2, 2)), False),
    (15, -1, 128, ((60, 252, 124), BLACK), ((238, 252, 201), (2, 2, 2)), False),
    (15, 1, 128, ((123, 237, 36), BLACK), ((231, 255, 239), (6, 6, 6)), False),
    (15, -1, 0, ((242, 202, 62), (132, 126, 5)), ((16, 236, 6), BLACK), True),
]


class TestFeaturesExact:
    @pytest.mark.parametrize("name, bits", list(edge_masks()), ids=lambda v: v if isinstance(v, str) else "")
    def test_matches_masked_full_frame(self, name, bits):
        for seed in (0, 1):
            frame = rand_frame(seed)
            mask = StoneMask(bits)
            assert np.array_equal(features(frame, mask), reference_features(frame, mask))

    def test_phantom_stills(self):
        for label in CANONICAL_ORDER:
            frame, mask = make_still(label, 40 + label.rank)
            assert np.array_equal(features(frame, mask), reference_features(frame, mask))

    def test_dimension_mismatch(self):
        with pytest.raises(LithovidError, match=r"^mask \(16, 16\) vs frame \(256, 256\)$"):
            features(rand_frame(), StoneMask(np.ones((16, 16), dtype=bool)))

    def test_full_frame_and_stone_masks_on_adversarial_frames(self):
        cases = [(rand_frame(seed), FULL_FRAME_MASK) for seed in range(4)]
        for label in CANONICAL_ORDER:
            spec = adversarial_spec(70 + label.rank, label, 6.0)
            for index in (0, 9, 20, 30, 40):
                pixels, truth = render_frame(spec, index)
                cases.append((FrameGrid(pixels), FULL_FRAME_MASK))
                if truth.any():
                    cases.append((FrameGrid(pixels), StoneMask(truth)))
        assert sum(mask is not FULL_FRAME_MASK for _, mask in cases) >= 10
        for frame, mask in cases:
            assert np.array_equal(features(frame, mask), reference_features(frame, mask))

    @pytest.mark.parametrize("k, n, row, horizontal, vertical, floors_apart", EDGE_STEPS)
    def test_gradient_on_a_bin_edge(self, monkeypatch, k, n, row, horizontal, vertical,
                                    floors_apart):
        frame = edge_step_frame(row, horizontal, vertical)
        rgb = frame.pixels.astype(np.float64)  # the gradient reference_features takes
        gy, gx = np.gradient(0.299 * rgb[..., 0] + 0.587 * rgb[..., 1] + 0.114 * rgb[..., 2])
        at = gx[row, 128], gy[row, 128]
        assert np.hypot(*at) == ulps_from(10 * k, n)
        assert math.floor(np.hypot(*at) / 10) == k - (n < 0)
        plain = math.floor(np.sqrt(at[0] * at[0] + at[1] * at[1]) / 10)
        assert (plain != k - (n < 0)) is floors_apart
        bits = np.zeros((256, 256), dtype=bool)
        bits[max(row - 1, 0) : row + 2, 127:130] = True
        hypot = np.hypot
        for mask in (FULL_FRAME_MASK, StoneMask(bits)):
            expected = reference_features(frame, mask)
            calls = []
            with monkeypatch.context() as patch:
                patch.setattr(np, "hypot", lambda x, y: calls.append((x, y)) or hypot(x, y))
                assert np.array_equal(features(frame, mask), expected)
            # the pixel's magnitude was recomputed by the hypot fallback
            assert any(((x == at[0]) & (y == at[1])).any() for x, y in calls)

    @pytest.mark.parametrize("k", [1, 2, 15])
    def test_gradient_bins_one_ulp_from_each_edge(self, k):
        for n in (-1, 0, 1):
            g = np.full(3, ulps_from(10 * k, n))
            zero = np.zeros_like(g)
            for gx, gy in ((zero, g), (g, zero), (-g, zero), (zero, -g)):
                assert np.all(gradient_bins(gx, gy) == k - (n < 0))

    def test_gradient_bins_brute_force(self):
        rng = np.random.Generator(np.random.Philox(key=[37, 10]))
        uniform = rng.uniform(-255.0, 255.0, (2, 1_000_000))
        # |g| = 10k at random angles, each component then moved by up to 4 ulps
        radius = 10.0 * rng.integers(1, 17, 400_000)
        theta = rng.uniform(0.0, 2 * np.pi, radius.size)
        edge = np.stack([radius * np.cos(theta), radius * np.sin(theta)])
        edge += rng.integers(-4, 5, edge.shape) * np.spacing(edge)
        triples = np.array([(6, 8), (8, 6), (12, 16), (90, 120), (42, 144), (0, 150)], float).T
        steps = np.arange(-4, 5)[:, None] * np.spacing(triples[:, None, :])
        exact = (triples[:, None, :] + steps).reshape(2, -1)
        gx, gy = np.concatenate([uniform, edge, exact], axis=1)
        expected = np.minimum((np.hypot(gx, gy) / 10).astype(np.intp), 15)
        assert np.array_equal(gradient_bins(gx, gy), expected)
        # the fallback is needed: sqrt of the sum alone floors some edge pairs differently
        plain = np.minimum((np.sqrt(gx * gx + gy * gy) / 10).astype(np.intp), 15)
        assert np.count_nonzero(plain != expected) > 100

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), density=st.floats(0.0, 1.0),
           box=st.tuples(*[st.integers(0, 255)] * 4))
    def test_random_frames_and_masks(self, seed, density, box):
        rng = np.random.Generator(np.random.Philox(key=[seed, 3]))
        frame = FrameGrid(rng.integers(0, 256, size=(256, 256, 3), dtype=np.uint8))
        y0, y1, x0, x1 = box
        bits = np.zeros((256, 256), dtype=bool)
        bits[min(y0, y1) : max(y0, y1) + 1, min(x0, x1) : max(x0, x1) + 1] = True
        bits &= rng.random((256, 256)) <= density
        bits[y0, x0] = True
        mask = StoneMask(bits)
        assert np.array_equal(features(frame, mask), reference_features(frame, mask))


    def test_scratch_shape_does_not_leak_between_calls(self):
        """features reuses its scratch; each call's result is that of the call alone,
        whatever shape the call before it used."""
        boxes = [
            np.s_[:, :],              # whole frame
            np.s_[254:, 30:220],      # two rows on the bottom edge
            np.s_[:9, 243:],          # top right corner
            np.s_[20:240, 10:250],    # large box
            np.s_[:, :],              # whole frame again
            np.s_[100:102, :],        # two rows across the frame
        ]
        for seed in (3, 4):
            frame = rand_frame(seed)
            for box in boxes:
                bits = np.zeros((256, 256), dtype=bool)
                bits[box] = True
                mask = StoneMask(bits)
                assert np.array_equal(features(frame, mask), reference_features(frame, mask))


class TestSoftmin:
    def test_beta_zero_uniform(self):
        scores = softmin_scores({c: float(c.rank) for c in CANONICAL_ORDER}, beta=0.0)
        assert all(s == 0.2 for s in scores.values())

    def test_zero_distance_dominates_at_high_beta(self):
        dists = {c: 1.0 for c in CANONICAL_ORDER}
        dists[IIIB] = 0.0
        scores = softmin_scores(dists, beta=100.0)
        assert scores[IIIB] > 0.99

    def test_beta_rescaling_keeps_argmax(self):
        rng = np.random.Generator(np.random.Philox(key=[2, 2]))
        for _ in range(100):
            dists = {c: float(d) for c, d in zip(CANONICAL_ORDER, rng.uniform(0, 2, 5))}
            s1 = softmin_scores(dists, beta=17.0)
            s2 = softmin_scores(dists, beta=17.0 * 31.0)
            assert max(s1, key=s1.get) is max(s2, key=s2.get)


class TestCentroidModel:
    def test_single_sample_centroids_equal_features(self):
        samples = [(f, m, c) for c in CANONICAL_ORDER for f, m in [make_still(c, 100 + c.rank)]]
        model = train_centroid(samples)
        for f, m, c in samples:
            assert np.allclose(model.centroids[c], features(f, m))

    def test_duplication_invariance(self):
        samples = list(training_stills(8, 3))
        model_a = train_centroid(samples)
        model_b = train_centroid(samples + samples)
        for c in CANONICAL_ORDER:
            assert np.allclose(model_a.centroids[c], model_b.centroids[c], atol=1e-14)

    def test_permutation_invariance(self):
        samples = list(training_stills(8, 3))
        model_a = train_centroid(samples)
        model_b = train_centroid(list(reversed(samples)))
        for c in CANONICAL_ORDER:
            assert np.allclose(model_a.centroids[c], model_b.centroids[c], atol=1e-12)

    def test_missing_class_rejected(self):
        samples = [s for s in training_stills(8, 2) if s[2] is not IIIB]
        with pytest.raises(LithovidError, match="^no training samples for: IIIb$"):
            train_centroid(samples)

    def test_empty_mask_sample_rejected(self):
        samples = list(training_stills(8, 1))
        samples.append((rand_frame(), StoneMask(np.zeros((256, 256), bool)), IA))
        with pytest.raises(LithovidError, match=r"^training sample \d+ \(Ia\) has an empty mask$"):
            train_centroid(samples)

    def test_predict_scores_sum_to_one(self, small_model):
        f, m = make_still(IIB, 777)
        scores = small_model.predict(f, m)
        assert sum(scores.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(0.0 <= v <= 1.0 for v in scores.values())

    def test_sample_at_centroid_dominates(self):
        samples = [(f, m, c) for c in CANONICAL_ORDER for f, m in [make_still(c, 200 + c.rank)]]
        model = train_centroid(samples)
        f, m = make_still(IA, 200)
        assert model.predict(f, m)[IA] > 0.99

    def test_predict_empty_mask(self, small_model):
        with pytest.raises(LithovidError, match="^cannot featurize an empty mask$"):
            small_model.predict(rand_frame(), StoneMask(np.zeros((256, 256), bool)))

    def test_not_trained(self):
        with pytest.raises(LithovidError, match="^model lacks centroids for: IIb, IIIb, IaIIb"):
            CentroidModel(centroids={IA: np.full(528, 1 / 528)})

    def test_held_out_accuracy(self, small_model):
        held = list(training_stills(123, 10))
        hits = 0
        for f, m, label in held:
            scores = small_model.predict(f, m)
            hits += max(scores, key=lambda c: (scores[c], -c.rank)) is label
        assert hits / len(held) >= 0.95

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_centroid_rejected(self, small_model, value):
        cents = dict(small_model.centroids)
        cents[IIB] = np.where(np.arange(528) == 7, value, cents[IIB])
        with pytest.raises(LithovidError, match="centroid for IIb has non-finite values"):
            CentroidModel(centroids=cents)

    @pytest.mark.parametrize("beta", ["50.0", '"x"', "NaN", "Infinity", "[1]", '"50"', "true"])
    def test_load_bad_beta_names_file(self, small_model, tmp_path, beta):
        """A model file holds centroids only; a beta key, as in files written while the model
        kept one, is rejected whatever its value, rather than run as classify.BETA."""
        path = tmp_path / "model.json"
        small_model.save(path)
        text = path.read_text("utf-8").replace('{"centroids"', f'{{"beta": {beta}, "centroids"')
        path.write_text(text, "utf-8")
        with pytest.raises(LithovidError, match=f"^cannot load model from {re.escape(str(path))}: "
                                                "unknown field 'beta'$"):
            CentroidModel.load(path)

    def test_load_missing_centroids_names_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"beta": 50.0}', "utf-8")
        with pytest.raises(LithovidError, match=f"^cannot load model from {re.escape(str(path))}: "
                                                "missing field 'centroids'$"):
            CentroidModel.load(path)

    def test_save_load_round_trip(self, small_model, tmp_path):
        path = tmp_path / "model.json"
        small_model.save(path)
        assert json.loads(path.read_text("utf-8")).keys() == {"centroids"}
        back = CentroidModel.load(path)
        for c in CANONICAL_ORDER:
            assert np.array_equal(back.centroids[c], small_model.centroids[c])


class TestScoreImport:
    def write(self, tmp_path, text):
        path = tmp_path / "scores.csv"
        path.write_text(text, "utf-8")
        return path

    def test_basic_row(self, tmp_path):
        path = self.write(
            tmp_path, "frame,Ia,IIb,IIIb,IaIIb,IaIIIb\n17,0.7,0.1,0.1,0.05,0.05\n"
        )
        table = import_scores(path)
        assert set(table) == {17}
        assert table[17][IA] == pytest.approx(0.7)
        assert table[17][IAIIIB] == pytest.approx(0.05)

    def test_sum_violation(self, tmp_path):
        path = self.write(
            tmp_path, "frame,Ia,IIb,IIIb,IaIIb,IaIIIb\n0,0.5,0.1,0.1,0.05,0.05\n"
        )
        with pytest.raises(LithovidError, match=f"^{re.escape(str(path))}:2: scores sum to 0.8"):
            import_scores(path)

    def test_unknown_class_column(self, tmp_path):
        path = self.write(tmp_path, "frame,Ia,IIb,IIIb,IaIIb,IVd\n")
        with pytest.raises(LithovidError, match=": unknown class column 'IVd'$"):
            import_scores(path)

    def test_malformed_rows(self, tmp_path):
        for row in ("1,0.5,0.5", "x,0.2,0.2,0.2,0.2,0.2", "1,0.2,0.2,0.2,0.2,oops",
                    "1,-0.2,0.6,0.2,0.2,0.2", "1,nan,0.2,0.2,0.2,0.2",
                    "1,inf,0.2,0.2,0.2,0.2", "1,-inf,0.2,0.2,0.2,0.2",
                    "1,0.2,0.2,0.2,0.2,NaN"):
            path = self.write(tmp_path, "frame,Ia,IIb,IIIb,IaIIb,IaIIIb\n" + row + "\n")
            with pytest.raises(LithovidError, match=f"^{re.escape(str(path))}:2: "):
                import_scores(path)

    @pytest.mark.parametrize("content", [
        None,                                              # missing file
        b"frame,Ia,IIb,IIIb,IaIIb,IaIIIb\n0,\xff\n",     # not UTF-8
        b'frame,Ia,IIb,IIIb,IaIIb,IaIIIb\n"' + b"0" * 200_000 + b'"\n',  # csv.Error
    ], ids=["missing", "not-utf8", "field-too-large"])
    def test_unreadable_file_names_path(self, tmp_path, content):
        path = tmp_path / "scores.csv"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(LithovidError, match=f"^cannot read scores {re.escape(str(path))}: "):
            import_scores(path)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        st.binary(max_size=300),
        st.binary(max_size=300).map(lambda b: b"frame,Ia,IIb,IIIb,IaIIb,IaIIIb\n" + b),
        st.text('0123456789.,-+e naif"\r\n', max_size=300).map(
            lambda t: ("frame,Ia,IIb,IIIb,IaIIb,IaIIIb\n" + t).encode()),
    ))
    def test_arbitrary_bytes_import_or_raise_domain_error(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("bytes") / "scores.csv"
        path.write_bytes(data)
        try:
            table = import_scores(path)
        except LithovidError:
            return
        for scores in table.values():
            assert set(scores) == set(CANONICAL_ORDER)
            assert abs(sum(scores.values()) - 1.0) <= 1e-6

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(
        st.integers(0, 10_000),
        st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5).filter(lambda v: sum(v) > 0),
        max_size=8,
    ))
    def test_repr_rows_round_trip_exactly(self, tmp_path_factory, raw):
        rows = {}
        for idx, values in raw.items():
            total = sum(values)
            rows[idx] = dict(zip(CANONICAL_ORDER, [v / total for v in values]))
        path = tmp_path_factory.mktemp("rows") / "scores.csv"
        write_score_csv(path, rows)
        assert import_scores(path) == rows

    def test_duplicate_frame(self, tmp_path):
        path = self.write(
            tmp_path,
            "frame,Ia,IIb,IIIb,IaIIb,IaIIIb\n"
            "1,0.2,0.2,0.2,0.2,0.2\n1,0.2,0.2,0.2,0.2,0.2\n",
        )
        with pytest.raises(LithovidError, match=f"^{re.escape(str(path))}:3: duplicate frame 1$"):
            import_scores(path)

    def test_export_import_round_trip_is_bit_faithful(self, tmp_path, small_model, oracle_factory):
        from lithovid.phantom import clean_spec, generate_phantom
        from lithovid.pipeline import Variant, run_raw_video

        video, _, _ = generate_phantom(clean_spec(7, IA, 2.0))
        timeline = run_raw_video(video, oracle_factory, small_model)[Variant.FULL]
        rows = {r.stream_index: r.scores for r in timeline.records if r.qc.passed}
        path = tmp_path / "scores.csv"
        write_score_csv(path, rows)
        back = import_scores(path)
        assert set(back) == set(rows)
        for idx, scores in rows.items():
            for c in CANONICAL_ORDER:
                assert back[idx][c] == scores[c]  # exact float round trip

    def test_score_table_missing_frame(self):
        table = ScoreTable({0: {c: 0.2 for c in CANONICAL_ORDER}})
        frame = rand_frame()
        with pytest.raises(LithovidError, match="^no imported score for stream index 5$"):
            table.predict(
                FrameGrid(frame.pixels, stream_index=5),
                StoneMask(np.ones((256, 256), bool)),
            )
