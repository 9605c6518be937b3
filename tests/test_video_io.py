import itertools
import json
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import lithovid.video_io as video_io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lithovid.core import FRAME_SIDE, STREAM_FPS, MorphClass
from lithovid.errors import LithovidError
from lithovid.phantom import PhantomSpec, clean_spec, generate_phantom
from lithovid.video_io import (
    MIN_FRAME_SIDE,
    LazySequence,
    RawVideo,
    load_stream,
    normalize_mask,
    normalize_video,
    read_pgm,
    read_ppm,
    store_stream,
    stream_indices,
    write_pgm,
    write_ppm,
)


def gradient_video(n, fps, h=20, w=20):
    frames = tuple(
        np.full((h, w, 3), min(255, i), dtype=np.uint8) for i in range(n)
    )
    return RawVideo(video_id="g", native_fps=fps, frame_shape=(h, w, 3), frames=frames)


def brute_force_indices(n, native_fps, target_fps, count):
    """Nearest-native-timestamp search in exact arithmetic, ties later."""
    native = Fraction(native_fps)
    target = Fraction(target_fps)
    out = []
    for k in range(count):
        goal = Fraction(k) / target
        best, best_dist = 0, None
        for i in range(n):
            dist = abs(Fraction(i) / native - goal)
            if best_dist is None or dist < best_dist or dist == best_dist:
                if best_dist is None or dist < best_dist:
                    best, best_dist = i, dist
                elif i > best:  # exact tie resolves to the later frame
                    best = i
        out.append(best)
    return out


class TestLazySequence:
    def test_computes_each_access_and_keeps_nothing(self):
        made = []
        seq = LazySequence(5, lambda k: made.append(k) or k * k)
        assert len(seq) == 5 and list(seq) == [0, 1, 4, 9, 16]
        assert seq[-1] == 16
        assert made == [0, 1, 2, 3, 4, 4]
        with pytest.raises(IndexError):
            seq[5]
        with pytest.raises(TypeError):
            seq[1:3]

    def test_index_error_inside_make_is_not_the_end(self):
        def make(k):
            if k == 2:
                raise IndexError("inside make")
            return k

        with pytest.raises(IndexError, match="inside make"):
            list(LazySequence(4, make))


class TestResample:
    """stream_indices: the native frame behind each 8 Hz stream frame."""

    def test_24fps_3s_gives_24_frames(self):
        # integer ratio selects every 3rd source frame
        assert stream_indices(gradient_video(72, 24.0)) == [3 * k for k in range(24)]

    def test_8fps_identity(self):
        assert stream_indices(gradient_video(40, 8.0)) == list(range(40))

    def test_30fps_30frames_selects_expected_indices(self):
        assert stream_indices(gradient_video(30, 30.0)) == [0, 4, 8, 11, 15, 19, 23, 26]

    def test_empty_video_raises(self):
        with pytest.raises(LithovidError, match="^video 'e' has no frames$"):
            stream_indices(RawVideo(video_id="e", native_fps=10.0, frame_shape=(20, 20, 3),
                                    frames=()))

    @pytest.mark.parametrize("fps", [0.0, -8.0, float("nan"), float("inf"), float("-inf"),
                                     1e-300, 0.001, 0.5])  # the last three: below the floor
    def test_rejects_native_fps_outside_positive_finite(self, fps):
        with pytest.raises(LithovidError, match="native_fps"):
            gradient_video(4, fps)

    def test_idempotent_at_8hz(self):
        v = gradient_video(50, 25.0)
        once = stream_indices(v)
        stream = RawVideo(video_id="s", native_fps=STREAM_FPS, frame_shape=v.frame_shape,
                          frames=tuple(v.frames[i] for i in once))
        assert stream_indices(stream) == list(range(len(once)))

    def test_truth_masks_follow_selected_frames(self):
        frames = tuple(np.full((20, 20, 3), i, dtype=np.uint8) for i in range(30))
        masks = tuple(np.full((20, 20), i % 2 == 0, dtype=bool) for i in range(30))
        v = RawVideo(video_id="m", native_fps=30.0, frame_shape=(20, 20, 3), frames=frames,
                     truth_masks=masks)
        out_frames, out_masks = normalize_video(v)
        assert len(out_frames) == len(out_masks) == 8
        for frame, mask in zip(out_frames, out_masks):
            assert np.all(mask.bits == (frame.pixels[0, 0, 0] % 2 == 0))

    @given(
        n=st.integers(min_value=1, max_value=48),
        fps=st.sampled_from([5.0, 7.5, 8.0, 12.0, 24.0, 25.0, 29.97, 30.0, 60.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_oracle(self, n, fps):
        picked = stream_indices(gradient_video(n, fps, h=16, w=16))
        assert picked == brute_force_indices(n, fps, 8.0, len(picked))
        # output count stays within one frame of floor(duration*8)+1
        expected = int(n / fps * 8) + 1
        assert abs(len(picked) - expected) <= 1
        # output duration within one output period of input duration
        assert abs(len(picked) / 8.0 - n / fps) <= 1 / 8.0 + 1e-9


def uint8_frames(*shapes):
    return tuple(np.zeros(shape, np.uint8) for shape in shapes)


def both_forms(frames, masks=None, shape=(20, 20, 3)):
    """One video with its frames (and masks) as tuples and as lazy sequences."""
    for form in (tuple, lambda items: LazySequence(len(items), items.__getitem__)):
        yield RawVideo(video_id="v", native_fps=8.0, frame_shape=shape, frames=form(frames),
                       truth_masks=None if masks is None else form(masks))


class TestFrameChecks:
    """RawVideo checks the frame shape it states and the mask count; normalize_video checks
    each frame and truth mask against that shape when it is made, whether the video holds
    them in a tuple or makes them lazily."""

    @pytest.mark.parametrize("bad", [np.zeros((20, 20, 3), np.float32),
                                     np.zeros((20, 20), np.uint8)], ids=["float32", "2-D"])
    def test_frame_that_is_not_hxwx3_uint8(self, bad):
        for video in both_forms([*uint8_frames((20, 20, 3)), bad]):
            frames, _ = normalize_video(video)
            for read in (list, lambda frames: frames[1]):
                with pytest.raises(LithovidError, match="^frame 1 must be HxWx3 uint8$"):
                    read(frames)

    def test_frames_of_different_shapes(self):
        for video in both_forms(uint8_frames((40, 40, 3), (300, 200, 3), (40, 40, 3)),
                                shape=(40, 40, 3)):
            frames, _ = normalize_video(video)
            assert frames[2].pixels.shape == (FRAME_SIDE, FRAME_SIDE, 3)
            for read in (list, lambda frames: frames[1]):
                with pytest.raises(LithovidError,
                                   match=r"^frame 1 has shape \(300, 200\), expected \(40, 40\)$"):
                    read(frames)

    def test_mask_that_does_not_match_its_frame(self):
        masks = (np.zeros((20, 20), bool), np.zeros((20, 21), bool))
        for video in both_forms(uint8_frames(*[(20, 20, 3)] * 2), masks):
            _, truths = normalize_video(video)
            assert truths[0].bits.shape == (FRAME_SIDE, FRAME_SIDE)
            for read in (list, lambda truths: truths[1]):
                with pytest.raises(LithovidError, match="^truth mask 1 does not match its frame$"):
                    read(truths)

    @pytest.mark.parametrize("n_masks", [1, 3])
    def test_mask_count_differs_from_frame_count(self, n_masks):
        with pytest.raises(LithovidError, match="^truth_masks must align one-to-one"):
            RawVideo(video_id="v", native_fps=8.0, frame_shape=(20, 20, 3),
                     frames=uint8_frames(*[(20, 20, 3)] * 2),
                     truth_masks=(np.zeros((20, 20), bool),) * n_masks)

    @pytest.mark.parametrize("bad", [np.zeros((20, 20, 3), np.float32),
                                     np.zeros((20, 20), np.uint8)], ids=["float32", "2-D"])
    def test_lazy_frame_is_checked_when_normalized(self, bad):
        good, = uint8_frames((20, 20, 3))
        made = []
        video = RawVideo(video_id="v", native_fps=8.0, frame_shape=(20, 20, 3),
                         frames=LazySequence(2, lambda k: made.append(k) or (bad if k else good)))
        frames, _ = normalize_video(video)
        assert made == []  # neither the video nor its stream reads a frame up front
        assert frames[0].pixels.shape == (FRAME_SIDE, FRAME_SIDE, 3)
        with pytest.raises(LithovidError, match="^frame 1 must be HxWx3 uint8$"):
            frames[1]

    def test_frame_shape_is_not_hxwx3(self):
        with pytest.raises(LithovidError, match=r"^frame_shape \(20, 20, 4\) is not \(H, W, 3\)$"):
            RawVideo(video_id="v", native_fps=8.0, frame_shape=(20, 20, 4), frames=())


def normalize_one(img):
    """The only frame of the 8 Hz stream of a one-frame video."""
    frames, _ = normalize_video(RawVideo(video_id="one", native_fps=STREAM_FPS,
                                         frame_shape=img.shape, frames=(img,)))
    return frames[0]


def plan_resize(img):
    return video_io._resize_plan(*img.shape[:2])(img)


class TestNormalizeFrame:
    def test_640x480_crop_geometry(self):
        img = np.zeros((480, 640, 3), dtype=np.uint8)
        img[:, 80:560] = 77  # exactly the centered 480x480 square
        out = normalize_one(img)
        assert out.pixels.shape == (256, 256, 3)
        assert np.all(out.pixels == 77)

    def test_256_input_is_bit_identical(self):
        rng = np.random.Generator(np.random.Philox(key=[5, 5]))
        img = rng.integers(0, 256, size=(256, 256, 3), dtype=np.uint8)
        out = normalize_one(img)
        assert np.array_equal(out.pixels, img)

    def test_constant_color_is_preserved(self):
        img = np.full((512, 512, 3), 201, dtype=np.uint8)
        out = normalize_one(img)
        assert np.all(out.pixels == 201)

    def test_too_small(self):
        with pytest.raises(LithovidError, match="^frame 64x15 is below the 16 px minimum$"):
            normalize_one(np.zeros((15, 64, 3), dtype=np.uint8))

    def test_idempotent_on_normalized(self):
        rng = np.random.Generator(np.random.Philox(key=[6, 6]))
        img = rng.integers(0, 256, size=(300, 400, 3), dtype=np.uint8)
        once = normalize_one(img)
        twice = normalize_one(once.pixels)
        assert np.array_equal(once.pixels, twice.pixels)

    def test_normalize_mask_nearest(self):
        mask = np.zeros((512, 512), dtype=bool)
        mask[:, :256] = True
        out = normalize_mask(mask)
        assert out.bits.shape == (256, 256)
        assert out.coverage == pytest.approx(0.5, abs=0.01)


@st.composite
def pnm_files(draw):
    """Bytes that start like a binary PNM file: header fields, comments, then a raster."""
    magic = draw(st.sampled_from([b"P5", b"P6", b"P4", b""]))
    w, h = draw(st.integers(-1, 5)), draw(st.integers(-1, 5))
    maxval = draw(st.just(b"255") | st.sampled_from([b"65535", b"0", b"25", b"x"]))
    parts = [magic]
    for field in (str(w).encode(), str(h).encode(), maxval):
        # a long comment pushes the header past the shape probe's first read
        parts.append(draw(st.sampled_from([b" ", b"\n", b"\t", b"\n# note\n",
                                           b"#" + b"c" * 4100 + b"\n"])))
        parts.append(field)
    parts.append(draw(st.sampled_from([b"\n", b" ", b""])))
    size = max(0, w * h * draw(st.sampled_from([1, 3])) + draw(st.integers(-1, 1)))
    parts.append(draw(st.binary(min_size=size, max_size=size)))
    return b"".join(parts)


class TestPnmIO:
    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(key=[7, 7]))
        img = rng.integers(0, 256, size=(33, 19, 3), dtype=np.uint8)
        path = tmp_path / "x.ppm"
        write_ppm(path, img)
        assert np.array_equal(read_ppm(path), img)

    def test_pgm_round_trip(self, tmp_path):
        mask = np.eye(17, dtype=bool)
        path = tmp_path / "m.pgm"
        write_pgm(path, mask)
        assert np.array_equal(read_pgm(path) > 127, mask)

    def test_written_bytes_are_pinned(self, tmp_path):
        img = np.arange(18, dtype=np.uint8).reshape(2, 3, 3)
        mask = np.array([[1, 0, 1], [0, 1, 0]], dtype=bool)
        write_ppm(tmp_path / "x.ppm", img)
        write_pgm(tmp_path / "m.pgm", mask)
        assert (tmp_path / "x.ppm").read_bytes() == b"P6\n3 2\n255\n" + bytes(range(18))
        assert (tmp_path / "m.pgm").read_bytes() == b"P5\n3 2\n255\n\xff\x00\xff\x00\xff\x00"

    def test_truncated_raster_rejected(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P6\n4 4\n255\n\x00\x00")
        with pytest.raises(LithovidError, match="bad.ppm raster is truncated$"):
            read_ppm(path)

    @given(data=st.one_of(st.binary(max_size=64), pnm_files()))
    @settings(max_examples=300, deadline=None)
    def test_header_only_shape_agrees_with_decoding(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.pnm"
            path.write_bytes(data)
            for magic, channels, read in ((b"P6", 3, read_ppm), (b"P5", 1, read_pgm)):
                outcomes = []
                for probe in (lambda: read(path).shape,
                              lambda: video_io._read_pnm(path, magic, channels, raster=False)):
                    try:
                        outcomes.append(probe())
                    except LithovidError as exc:
                        outcomes.append((type(exc), str(exc)))
                assert outcomes[0] == outcomes[1]


class TestStreamContainer:
    def test_store_load_bit_exact(self, tmp_path):
        video, _, _ = generate_phantom(clean_spec(5, MorphClass.IA_IIB, 1.5))
        store_stream(video, tmp_path / "v")
        back = load_stream(tmp_path / "v")
        assert back.video_id == video.video_id
        assert back.native_fps == video.native_fps
        assert back.truth_label is MorphClass.IA_IIB
        assert all(np.array_equal(a, b) for a, b in zip(video.frames, back.frames))
        assert all(
            np.array_equal(a, b) for a, b in zip(video.truth_masks, back.truth_masks)
        )

    def test_missing_frame_file(self, tmp_path):
        video, _, _ = generate_phantom(clean_spec(5, MorphClass.IA, 0.5))
        store_stream(video, tmp_path / "v")
        (tmp_path / "v" / "frame_000001.ppm").unlink()
        with pytest.raises(LithovidError, match="^frame file not found: .*frame_000001.ppm$"):
            load_stream(tmp_path / "v")

    def test_unequal_frame_sizes(self, tmp_path):
        video, _, _ = generate_phantom(clean_spec(5, MorphClass.IA, 0.5))
        store_stream(video, tmp_path / "v")
        write_ppm(tmp_path / "v" / "frame_000001.ppm", np.zeros((16, 16, 3), np.uint8))
        with pytest.raises(LithovidError, match=r"json: frame 1 has shape \(16, 16\), expected "):
            load_stream(tmp_path / "v")

    def test_corrupt_manifest(self, tmp_path):
        d = tmp_path / "v"
        d.mkdir()
        (d / "manifest.json").write_text("{not json", "utf-8")
        with pytest.raises(LithovidError, match="^manifest .*manifest.json: "):
            load_stream(d)

    def test_manifest_missing_fields(self, tmp_path):
        d = tmp_path / "v"
        d.mkdir()
        (d / "manifest.json").write_text(json.dumps({"video_id": "v"}), "utf-8")
        with pytest.raises(LithovidError, match="manifest.json: missing field 'native_fps'$"):
            load_stream(d)

    def test_inconsistent_labels_rejected(self, tmp_path):
        video, _, _ = generate_phantom(clean_spec(5, MorphClass.IA, 0.5))
        manifest_path = store_stream(video, tmp_path / "v")
        manifest = json.loads(manifest_path.read_text("utf-8"))
        manifest["frames"][1]["truth_label"] = "IIb"
        manifest_path.write_text(json.dumps(manifest), "utf-8")
        with pytest.raises(LithovidError, match="json: inconsistent truth labels across frames$"):
            load_stream(tmp_path / "v")


def reference_bilinear_resize(img, out_h, out_w):
    """The interpolation formula on a float64 copy of the whole image."""
    h, w = img.shape[:2]
    if (h, w) == (out_h, out_w):
        return img.copy()
    sy = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    sx = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    sy = np.clip(sy, 0.0, h - 1.0)
    sx = np.clip(sx, 0.0, w - 1.0)
    y0 = np.floor(sy).astype(np.intp)
    x0 = np.floor(sx).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (sy - y0)[:, None, None]
    wx = (sx - x0)[None, :, None]
    src = img.astype(np.float64)
    top = src[y0][:, x0] * (1 - wx) + src[y0][:, x1] * wx
    bot = src[y1][:, x0] * (1 - wx) + src[y1][:, x1] * wx
    out = top * (1 - wy) + bot * wy
    return np.floor(out + 0.5).astype(np.uint8)


def hd30_shaped(frame):
    """A 256x256 picture as the 480x480 nearest-neighbour square of a 640x480 frame."""
    idx = np.floor((np.arange(480) + 0.5) * 256 / 480).astype(np.intp)
    img = np.zeros((480, 640, 3), dtype=np.uint8)
    img[:, 80:560] = frame[idx][:, idx]
    return img


class TestBilinearResizeExact:
    @pytest.mark.parametrize("shape", [(480, 640), (479, 641), (33, 19), (480, 480),
                                       (1080, 1920), (16, 16), (257, 300)])
    def test_matches_reference_formula(self, shape):
        rng = np.random.Generator(np.random.Philox(key=[shape[0], shape[1]]))
        img = rng.integers(0, 256, size=shape + (3,), dtype=np.uint8)
        assert np.array_equal(plan_resize(img), reference_bilinear_resize(img, 256, 256))
        assert np.array_equal(plan_resize(img), int32_reference_resize(img))

    def test_matches_reference_on_hd30_shaped_phantom(self):
        video, _, _ = generate_phantom(PhantomSpec(seed=7, label=MorphClass.IIB, duration_s=2.0))
        for frame in map(video.frames.__getitem__, range(0, len(video.frames), 3)):
            square = hd30_shaped(frame)[:, 80:560]
            assert np.array_equal(plan_resize(square),
                                  reference_bilinear_resize(square, 256, 256))

    @pytest.mark.parametrize("shape", [(256, 256), (256, 300)])
    def test_normalized_frame_at_scale_one_is_a_read_only_copy(self, shape):
        rng = np.random.Generator(np.random.Philox(key=[9, 9]))
        img = rng.integers(0, 256, size=shape + (3,), dtype=np.uint8)
        frames, _ = normalize_video(RawVideo("v", 8.0, img.shape, (img,)))
        pixels = frames[0].pixels
        x0 = (shape[1] - 256) // 2
        assert np.array_equal(pixels, img[:, x0 : x0 + 256])
        assert not np.shares_memory(pixels, img)
        assert not pixels.flags.writeable

    def test_integer_premise_holds_for_every_input_side(self):
        """The int32 resize equals the float formula only while, onto FRAME_SIDE,
        every tap weight x512 is an integer in [0, 512) and the sum fits int32."""
        for side in range(MIN_FRAME_SIDE, 4097):
            s = (np.arange(FRAME_SIDE) + 0.5) * (side / FRAME_SIDE) - 0.5
            s = np.clip(s, 0.0, side - 1.0)
            w512 = (s - np.floor(s)) * 512
            assert np.array_equal(w512, np.floor(w512)), side
            assert 0 <= w512.min() and w512.max() < 512, side
            assert np.array_equal(video_io._taps(side)[2], w512), side
        assert 255 * 512**2 + 2**17 < 2**31


def int32_reference_resize(img):
    """The resize as it was before resize plans, verbatim: fresh int32 temporaries per call."""
    h, w = img.shape[:2]
    if (h, w) == (FRAME_SIDE, FRAME_SIDE):
        return img.copy()
    y0, y1, wy = video_io._taps(h)
    wy = wy[:, None, None]
    cols = img[y0] * (512 - wy)
    cols += img[y1] * wy
    cols = cols.reshape(FRAME_SIDE, 3 * w)
    # horizontal pass over (row, 3 * x + channel) columns: one flat gather per tap
    x0, x1, wx = (np.repeat(t, 3) for t in video_io._taps(w))
    rgb = np.tile(np.arange(3), FRAME_SIDE)
    out = cols[:, 3 * x0 + rgb]
    out *= 512 - wx
    right = cols[:, 3 * x1 + rgb]
    right *= wx
    out += right
    out += 1 << 17
    return (out >> 18).astype(np.uint8).reshape(FRAME_SIDE, FRAME_SIDE, 3)


def reference_normalize(img):
    """int32_reference_resize of the largest centered square."""
    h, w = img.shape[:2]
    side = min(h, w)
    y0, x0 = (h - side) // 2, (w - side) // 2
    return int32_reference_resize(img[y0 : y0 + side, x0 : x0 + side])


class TestResizePlanExact:
    """The plan-based resize gives the bytes of the int32 code it replaced."""

    def test_every_square_side(self):
        rng = np.random.Generator(np.random.Philox(key=[16, 4096]))
        for side in [*range(MIN_FRAME_SIDE, 1025), 1080, 1440, 2160, 4096]:
            img = rng.integers(0, 256, size=(side, side, 3), dtype=np.uint8)
            assert np.array_equal(plan_resize(img), int32_reference_resize(img)), side

    @pytest.mark.parametrize("shape", [(480, 480), (479, 641), (33, 19), (256, 256)])
    def test_one_plan_over_many_frames(self, shape):
        """No state leaks from one call into the next; each result is a fresh array, but at
        scale 1 the crop itself, which FrameGrid copies."""
        h, w = shape
        rng = np.random.Generator(np.random.Philox(key=[h * 10_000 + w, 2]))
        # column crops of wider frames: strided views, as normalize_video passes them
        frames = [rng.integers(0, 256, size=(h, w + 40, 3), dtype=np.uint8)[:, 20 : 20 + w]
                  for _ in range(12)]
        resize = video_io._resize_plan(h, w)
        outs = [resize(f) for f in frames]
        for f, out in zip(frames, outs):
            assert np.array_equal(out, int32_reference_resize(f))
            assert out is f if shape == (FRAME_SIDE, FRAME_SIDE) else not np.shares_memory(out, f)
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(outs, 2))


def store_random_video(dir_path, n, fps, h=24, w=32, seed=0):
    rng = np.random.Generator(np.random.Philox(key=[seed, n]))
    frames = tuple(rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8) for _ in range(n))
    masks = tuple(rng.random((h, w)) < 0.4 for _ in range(n))
    video = RawVideo(video_id="r", native_fps=fps, frame_shape=(h, w, 3), frames=frames,
                     truth_masks=masks, truth_label=MorphClass.IIB)
    store_stream(video, dir_path)
    return dir_path


class TestGridOnlyLoad:
    """normalize_video(load_stream(d)) decodes only the frames on the 8 Hz grid."""

    @pytest.mark.parametrize("n, fps", [(30, 30.0), (31, 25.0), (7, 4.0), (16, 8.0)])
    def test_same_stream_as_full_read(self, tmp_path, n, fps):
        d = store_random_video(tmp_path / "v", n, fps)
        video = load_stream(d)
        assert (video.video_id, video.native_fps, video.truth_label) == ("r", fps, MorphClass.IIB)
        native = [read_ppm(d / f"frame_{i:06d}.ppm") for i in range(n)]
        native_masks = [read_pgm(d / f"mask_{i:06d}.pgm") > 127 for i in range(n)]
        grid = brute_force_indices(n, fps, STREAM_FPS, len(stream_indices(video)))
        got_frames, got_masks = normalize_video(video)
        assert len(got_frames) == len(got_masks) == len(grid)
        for k, (frame, mask, i) in enumerate(zip(got_frames, got_masks, grid)):
            assert frame.stream_index == k
            assert np.array_equal(frame.pixels, reference_normalize(native[i]))
            assert np.array_equal(mask.bits, normalize_mask(native_masks[i]).bits)

    def test_decodes_only_grid_frames(self, tmp_path, monkeypatch):
        d = store_random_video(tmp_path / "v", 30, 30.0)
        decoded = []
        read_ppm_orig, read_pgm_orig = video_io.read_ppm, video_io.read_pgm

        def counting(reader):
            def read(path):
                decoded.append(path.name)
                return reader(path)
            return read

        monkeypatch.setattr(video_io, "read_ppm", counting(read_ppm_orig))
        monkeypatch.setattr(video_io, "read_pgm", counting(read_pgm_orig))
        frames, masks = normalize_video(load_stream(d))
        assert decoded == []  # decoding waits until a frame is accessed
        for _ in zip(frames, masks):
            pass
        grid = [0, 4, 8, 11, 15, 19, 23, 26]
        assert decoded == [name for i in grid
                           for name in (f"frame_{i:06d}.ppm", f"mask_{i:06d}.pgm")]

    def test_masks_only_off_the_grid(self, tmp_path):
        d = store_random_video(tmp_path / "v", 30, 30.0)
        manifest_path = d / "manifest.json"
        manifest = json.loads(manifest_path.read_text("utf-8"))
        for i, entry in enumerate(manifest["frames"]):
            if i != 1:
                del entry["truth_mask"]
        manifest_path.write_text(json.dumps(manifest), "utf-8")
        _, masks = normalize_video(load_stream(d))
        assert tuple(masks) == (None,) * 8

    def test_long_header_comment_off_the_grid(self, tmp_path):
        d = store_random_video(tmp_path / "v", 30, 30.0)
        path = d / "frame_000001.ppm"
        data = path.read_bytes()
        path.write_bytes(b"P6\n#" + b"x" * 5000 + b"\n" + data[3:])
        assert len(normalize_video(load_stream(d))[0]) == 8
        path.write_bytes(b"P6\n#" + b"x" * 5000 + b"\n" + data[3:-1])
        with pytest.raises(LithovidError, match="truncated"):
            load_stream(d)

    OFF_GRID_DAMAGE = [
        ("missing", LithovidError, "^frame file not found: .*frame_000001.ppm$"),
        ("truncated", LithovidError, "frame_000001.ppm raster is truncated$"),
        ("header", LithovidError, "frame_000001.ppm has a malformed header$"),
        ("wrong size", LithovidError, r"manifest.json: frame 1 has shape \(24, 31\), expected "),
        ("not P6", LithovidError, "frame_000001.ppm is not a P6 file$"),
        ("mask shape", LithovidError, "^truth mask 1 does not match its frame$"),
        ("mask truncated", LithovidError, "mask_000001.pgm raster is truncated$"),
    ]

    @pytest.mark.parametrize("damage, error, message", OFF_GRID_DAMAGE,
                             ids=[f"{d}-{e.__name__}" for d, e, _ in OFF_GRID_DAMAGE])
    def test_off_grid_file_is_still_checked(self, tmp_path, damage, error, message):
        d = store_random_video(tmp_path / "v", 30, 30.0)
        frame = d / "frame_000001.ppm"  # native frame 1 is not on the 8 Hz grid
        mask = d / "mask_000001.pgm"
        if damage == "missing":
            frame.unlink()
        elif damage == "truncated":
            frame.write_bytes(frame.read_bytes()[:-1])
        elif damage == "header":
            frame.write_bytes(b"P6\n32 x\n255\n" + bytes(24 * 32 * 3))
        elif damage == "wrong size":
            write_ppm(frame, np.zeros((24, 31, 3), np.uint8))
        elif damage == "not P6":
            write_pgm(frame, np.zeros((24, 32), bool))
        elif damage == "mask shape":
            write_pgm(mask, np.zeros((24, 31), bool))
        else:
            mask.write_bytes(mask.read_bytes()[:-1])
        with pytest.raises(error, match=message):
            load_stream(d)  # at load, though the 8 Hz stream never decodes this frame


class TestStreamFrames:
    """Frames of one 640x480, 30 fps stream, resized through the video's one plan."""

    @pytest.mark.parametrize("k", [0, 3])
    def test_held_frame_is_not_aliased(self, tmp_path, k):
        d = store_random_video(tmp_path / "v", 40, 30.0, h=480, w=640)
        video = load_stream(d)
        frames, _ = normalize_video(video)
        held = frames[k]
        pixels = held.pixels.copy()
        later = [frames[j] for j in range(k + 1, k + 5)]
        assert np.array_equal(held.pixels, pixels)
        native = read_ppm(d / f"frame_{stream_indices(video)[k]:06d}.ppm")
        assert np.array_equal(held.pixels, reference_normalize(native))
        assert not any(np.shares_memory(held.pixels, f.pixels) for f in later)

    def test_frame_allocation_peak(self, tmp_path):
        """The plan is built with the stream, so each frame allocates only its raster, its
        two row gathers and its result: about 1.3 MB, where fresh int32 temporaries took 4.75."""
        d = store_random_video(tmp_path / "v", 30, 30.0, h=480, w=640)
        frames, _ = normalize_video(load_stream(d))
        peaks = []
        tracemalloc.start()
        try:
            for k in range(len(frames)):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                frame = frames[k]
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
                del frame
        finally:
            tracemalloc.stop()
        assert max(peaks) <= 2 * 2**20, peaks
