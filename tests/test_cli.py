import contextlib
import hashlib
import io
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lithovid.cli import main
from lithovid.core import CANONICAL_ORDER, MorphClass
from lithovid.errors import LithovidError
from lithovid.evaluate import timeline_from_json
from lithovid.video_io import read_pgm, read_ppm, write_pgm

from conftest import write_score_csv


# video_ids that run cannot use as the name of its outputs
UNUSABLE_VIDEO_IDS = ["", ".", "..", "a\u0000b", "\ud800", "x" * 238, "é" * 119]
UNUSABLE_ID_NAMES = ["empty", "dot", "dot-dot", "nul", "lone surrogate", "238 bytes",
                     "238 utf-8 bytes"]


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Tiny end-to-end workspace: cohort, model, calibration, timelines."""
    root = tmp_path_factory.mktemp("cli")
    cohort = root / "cohort"
    assert main(["phantom", "--out", str(cohort), "--per-class", "1",
                 "--seed", "3", "--duration", "6", "--profile", "clean"]) == 0
    model = root / "model.json"
    assert main(["train-cls", "--stills", "12", "--seed", "1", "--out", str(model)]) == 0
    calibration = root / "cal.json"
    assert main(["calibrate-seg", "--stills", "6", "--seed", "99",
                 "--out", str(calibration)]) == 0
    timelines = root / "timelines"
    assert main(["run", "--videos", str(cohort), "--out", str(timelines),
                 "--segmenter", "oracle", "--classifier", "centroid",
                 "--model", str(model)]) == 0
    return root


def load_timeline(workspace, name):
    text = (workspace / "timelines" / name).read_text("utf-8")
    return timeline_from_json(text)


class TestPhantomCommand:
    def test_counts(self, workspace):
        dirs = [p for p in (workspace / "cohort").iterdir() if p.is_dir()]
        assert len(dirs) == 5  # one per class
        for d in dirs:
            assert (d / "manifest.json").is_file()
            assert (d / "phantom_spec.json").is_file()

    def test_deterministic_cohorts(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert main(["phantom", "--out", str(out), "--per-class", "1",
                         "--seed", "7", "--duration", "2"]) == 0
        assert tree_digest(a) == tree_digest(b)

    def test_zero_per_class_warns_and_succeeds(self, tmp_path, capsys):
        assert main(["phantom", "--out", str(tmp_path / "empty"), "--per-class", "0"]) == 0
        assert "warning" in capsys.readouterr().err

    def test_negative_per_class_is_usage_error(self, tmp_path, capsys):
        assert main(["phantom", "--out", str(tmp_path / "none"), "--per-class", "-2"]) == 1
        assert "--per-class" in capsys.readouterr().err
        assert not (tmp_path / "none").exists()

    @pytest.mark.parametrize("duration", ["inf", "nan", "-inf", "0"])
    @pytest.mark.parametrize("profile", ["clean", "default", "adversarial"])
    def test_duration_must_be_positive_and_finite(self, tmp_path, capsys, profile, duration):
        code = main(["phantom", "--out", str(tmp_path / "p"), "--per-class", "1",
                     "--profile", profile, f"--duration={duration}"])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not list((tmp_path / "p").iterdir())


class TestCohortSampleCount:
    """--per-video and --stills below 1 are usage errors, never a traceback or a dropped sample."""

    @pytest.mark.parametrize("command", ["train-cls", "calibrate-seg"])
    def test_zero_stills_is_usage_error(self, tmp_path, capsys, command):
        out = tmp_path / "out.json"
        assert main([command, "--stills", "0", "--out", str(out)]) == 1
        assert "--stills" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train-cls", "calibrate-seg"])
    def test_zero_per_video_is_usage_error(self, workspace, tmp_path, capsys, command):
        out = tmp_path / "out.json"
        assert main([command, "--cohort", str(workspace / "cohort"), "--per-video", "0",
                     "--out", str(out)]) == 1
        assert "--per-video" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train-cls", "calibrate-seg"])
    def test_negative_per_video_is_usage_error(self, workspace, tmp_path, capsys, command):
        out = tmp_path / "out.json"
        assert main([command, "--cohort", str(workspace / "cohort"), "--per-video", "-1",
                     "--out", str(out)]) == 1
        assert "--per-video" in capsys.readouterr().err
        assert not out.exists()


class TestModelOutput:
    """train-cls and calibrate-seg create --out's directory and write it atomically."""

    COMMANDS = {
        "train-cls": (["--stills", "12", "--seed", "1"], "model.json"),
        "calibrate-seg": (["--stills", "6", "--seed", "99"], "cal.json"),
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_out_in_a_missing_directory(self, workspace, tmp_path, command):
        args, same_as = self.COMMANDS[command]
        out = tmp_path / "new" / "sub" / "out.json"
        assert main([command, *args, "--out", str(out)]) == 0
        assert out.read_bytes() == (workspace / same_as).read_bytes()
        assert [p.name for p in out.parent.iterdir()] == ["out.json"]

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_failed_save_leaves_no_file(self, tmp_path, monkeypatch, capsys, command):
        from lithovid.classify import CentroidModel
        from lithovid.segmentation import ChromaSegmenter

        def failing(self, path):
            Path(path).write_text('{"tau": ', "utf-8")
            raise OSError("disk full")

        for cls in (CentroidModel, ChromaSegmenter):
            monkeypatch.setattr(cls, "save", failing)
        assert main([command, "--stills", "2", "--out", str(tmp_path / "out.json")]) == 3
        assert "disk full" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestOutInTheWay:
    """A file or directory in the way of --out is a data error before any work, and nothing
    is written."""

    # (command, --out relative to a place holding a regular file F and an empty directory D)
    CASES = [("phantom", "F"), ("run", "F"), ("eval", "F"), ("report", "F"), ("run", "F/x"),
             ("train-cls", "F/m.json"), ("train-cls", "D"), ("calibrate-seg", "D"),
             ("calibrate-seg", "F/c.json")]

    @pytest.mark.parametrize("command, out", CASES)
    def test_is_data_error_naming_it(self, workspace, tmp_path, capsys, monkeypatch, command,
                                     out):
        from lithovid import cli, phantom

        args = {
            "phantom": ["--per-class", "1", "--duration", "1"],
            "run": ["--videos", str(workspace / "cohort"),
                    "--model", str(workspace / "model.json")],
            "eval": ["--timelines", str(workspace / "timelines")],
            "report": ["--inputs", str(tmp_path / "ev" / "report.csv")],
            "train-cls": ["--stills", "2"],
            "calibrate-seg": ["--stills", "2"],
        }[command]
        if command == "report":
            assert main(["eval", "--timelines", str(workspace / "timelines"),
                         "--out", str(tmp_path / "ev")]) == 0

        def work(*_, **__):
            raise AssertionError("work started before --out was checked")

        for module, name in ((phantom, "generate_phantom"), (cli, "_run_isolated"),
                             (cli, "train_centroid"), (cli, "calibrate_chroma")):
            monkeypatch.setattr(module, name, work)
        place = tmp_path / "place"
        (place / "D").mkdir(parents=True)
        (place / "F").write_bytes(b"keep")
        assert main([command, *args, "--out", str(place / out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(place / out) in err[0]
        assert sorted(p.name for p in place.rglob("*")) == ["D", "F"]
        assert (place / "F").read_bytes() == b"keep"


class TestRunCommand:
    def test_clean_ia_decides_majority(self, workspace):
        tl, truth, variant = load_timeline(workspace, "Ia-clean-000.json")
        assert truth is MorphClass.IA
        assert tl.decision is MorphClass.IA
        assert tl.decision_path.value == "Majority"

    def test_all_decisions_correct(self, workspace):
        for label in CANONICAL_ORDER:
            tl, truth, _ = load_timeline(workspace, f"{label.tag}-clean-000.json")
            assert tl.decision is truth

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        again = tmp_path / "timelines2"
        assert main(["run", "--videos", str(workspace / "cohort"), "--out", str(again),
                     "--segmenter", "oracle", "--classifier", "centroid",
                     "--model", str(workspace / "model.json")]) == 0
        assert tree_digest(again) == tree_digest(workspace / "timelines")

    def test_workers_env_does_not_change_bytes(self, workspace, tmp_path):
        out = tmp_path / "parallel"
        os.environ["LITHO_WORKERS"] = "2"
        try:
            assert main(["run", "--videos", str(workspace / "cohort"), "--out", str(out),
                         "--segmenter", "oracle", "--classifier", "centroid",
                         "--model", str(workspace / "model.json")]) == 0
        finally:
            del os.environ["LITHO_WORKERS"]
        assert tree_digest(out) == tree_digest(workspace / "timelines")

    def test_workers_env_does_not_change_chroma_bytes(self, workspace, tmp_path, monkeypatch):
        """Each worker builds the chroma segmenter's blue-bound table for itself."""
        digests = []
        for workers in ("1", "2"):
            monkeypatch.setenv("LITHO_WORKERS", workers)
            out = tmp_path / workers
            assert main(["run", "--videos", str(workspace / "cohort"), "--out", str(out),
                         "--segmenter", "chroma", "--calibration", str(workspace / "cal.json"),
                         "--classifier", "centroid", "--model", str(workspace / "model.json")]) == 0
            digests.append(tree_digest(out))
        assert digests[0] == digests[1]

    def test_no_qc_variant_labels_every_frame(self, workspace, tmp_path):
        out = tmp_path / "noqc"
        assert main(["run", "--videos", str(workspace / "cohort"), "--out", str(out),
                     "--classifier", "centroid", "--model", str(workspace / "model.json"),
                     "--variant", "no-qc"]) == 0
        tl, _, variant = timeline_from_json((out / "Ia-clean-000.json").read_text("utf-8"))
        assert variant.value == "no-qc"
        assert all(r.qc.passed and r.label is not None for r in tl.records)

    def test_chroma_segmenter_path(self, workspace, tmp_path):
        out = tmp_path / "chroma"
        assert main(["run", "--videos", str(workspace / "cohort"), "--out", str(out),
                     "--segmenter", "chroma", "--calibration", str(workspace / "cal.json"),
                     "--classifier", "centroid", "--model", str(workspace / "model.json")]) == 0
        tl, truth, _ = timeline_from_json((out / "IIIb-clean-000.json").read_text("utf-8"))
        assert tl.decision is truth

    def test_imported_scores_reproduce_timelines(self, workspace, tmp_path):
        scores_dir = tmp_path / "scores"
        scores_dir.mkdir()
        for path in sorted((workspace / "timelines").glob("*.json")):
            tl, _, _ = timeline_from_json(path.read_text("utf-8"))
            rows = {r.stream_index: r.scores for r in tl.records if r.qc.passed}
            write_score_csv(scores_dir / f"{tl.video_id}.csv", rows)
        out = tmp_path / "imported"
        assert main(["run", "--videos", str(workspace / "cohort"), "--out", str(out),
                     "--segmenter", "oracle", "--classifier", "import",
                     "--scores", str(scores_dir)]) == 0
        assert tree_digest(out) == tree_digest(workspace / "timelines")

    def test_imported_masks_reproduce_timelines(self, workspace, tmp_path):
        masks_root = tmp_path / "masks"
        for video_dir in sorted((workspace / "cohort").iterdir()):
            if not video_dir.is_dir():
                continue
            dst = masks_root / video_dir.name
            dst.mkdir(parents=True)
            manifest = json.loads((video_dir / "manifest.json").read_text("utf-8"))
            for k, entry in enumerate(manifest["frames"]):
                mask = read_pgm(video_dir / entry["truth_mask"])
                write_pgm(dst / f"mask_{k:06d}.pgm", mask > 127)
        out = tmp_path / "from-masks"
        assert main(["run", "--videos", str(workspace / "cohort"), "--out", str(out),
                     "--segmenter", "import", "--masks", str(masks_root),
                     "--classifier", "centroid", "--model", str(workspace / "model.json")]) == 0
        assert tree_digest(out) == tree_digest(workspace / "timelines")

    def test_overlay_emits_frames(self, workspace, tmp_path):
        out = tmp_path / "overlaid"
        assert main(["run", "--videos", str(workspace / "cohort"), "--out", str(out),
                     "--segmenter", "oracle", "--classifier", "centroid",
                     "--model", str(workspace / "model.json"), "--overlay"]) == 0
        overlays = list((out / "overlays" / "Ia-clean-000").glob("frame_*.ppm"))
        assert len(overlays) == 48  # 6 s at 8 Hz

    def test_every_overlay_label_has_a_glyph(self):
        from lithovid.cli import _GLYPHS

        assert set("X").union(*(c.display for c in CANONICAL_ORDER)) <= set(_GLYPHS)

    def test_overlay_segments_each_frame_once(self, workspace, tmp_path, monkeypatch):
        from lithovid.cli import render_overlay
        from lithovid.segmentation import ChromaSegmenter
        from lithovid.video_io import list_video_dirs, load_stream, normalize_video, read_ppm

        segment = ChromaSegmenter.segment
        calls = []

        def counting(self, frame):
            calls.append(frame.stream_index)
            return segment(self, frame)

        monkeypatch.setattr(ChromaSegmenter, "segment", counting)
        args = ["--segmenter", "chroma", "--calibration", str(workspace / "cal.json"),
                "--classifier", "centroid", "--model", str(workspace / "model.json")]
        plain, overlaid = tmp_path / "plain", tmp_path / "overlaid"
        videos = ["--videos", str(workspace / "cohort")]
        assert main(["run", *videos, "--out", str(plain), *args]) == 0
        calls.clear()
        assert main(["run", *videos, "--out", str(overlaid), *args, "--overlay"]) == 0
        monkeypatch.setattr(ChromaSegmenter, "segment", segment)

        chroma = ChromaSegmenter.load(workspace / "cal.json")
        frames_seen = 0
        for video_dir in list_video_dirs(workspace / "cohort"):
            name = f"{video_dir.name}.json"
            text = (overlaid / name).read_text("utf-8")
            assert text == (plain / name).read_text("utf-8")
            timeline, _, _ = timeline_from_json(text)
            frames, _ = normalize_video(load_stream(video_dir))
            for rec, frame in zip(timeline.records, frames):
                label = rec.label.display if rec.qc.passed else "X"
                expected = render_overlay(frame, chroma.segment(frame), label)
                ppm = overlaid / "overlays" / video_dir.name / f"frame_{rec.stream_index:06d}.ppm"
                assert np.array_equal(read_ppm(ppm), expected)
            frames_seen += len(frames)
        assert len(calls) == frames_seen

    def test_overlay_outline_equals_binary_erosion(self):
        """The outline is the stone less its 4-connected erosion, with the frame's outside
        as background, on stones that touch each edge and corner of the frame."""
        from scipy import ndimage

        from lithovid.cli import render_overlay
        from lithovid.core import FrameGrid, StoneMask

        frame = FrameGrid(np.zeros((256, 256, 3), dtype=np.uint8))
        boxes = [np.s_[:40, 60:200], np.s_[-40:, 60:200], np.s_[60:200, :40],
                 np.s_[60:200, -40:], np.s_[:30, :30], np.s_[-30:, -30:], np.s_[:, :],
                 np.s_[:1, :], np.s_[:, -2:], np.s_[100:101, 100:101]]
        rng = np.random.Generator(np.random.Philox(key=[14, 2]))
        masks = []
        for box in boxes:
            bits = np.zeros((256, 256), dtype=bool)
            bits[box] = True
            masks += [bits, bits & (rng.random((256, 256)) < 0.8)]
        for bits in masks:
            out = render_overlay(frame, StoneMask(bits), "")
            expected = bits & ~ndimage.binary_erosion(bits)
            assert np.array_equal((out == (0, 255, 0)).all(axis=2), expected)

    def test_subdirectory_without_manifest_is_named_and_skipped(self, workspace, tmp_path,
                                                                capsys):
        """A video directory without manifest.json is not run; run says so on stderr and
        writes the other videos' timelines as before."""
        import shutil

        videos, out = tmp_path / "videos", tmp_path / "out"
        shutil.copytree(workspace / "cohort", videos)
        (videos / "IIb-clean-000" / "manifest.json").unlink()
        (videos / "notes.txt").write_text("not a video\n", "utf-8")
        capsys.readouterr()
        assert main(["run", "--videos", str(videos), "--out", str(out),
                     "--segmenter", "oracle", "--classifier", "centroid",
                     "--model", str(workspace / "model.json")]) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"warning: skipped {videos / 'IIb-clean-000'}: no manifest.json"]
        assert captured.out == f"wrote 4 timelines to {out}\n"
        written = sorted(p.name for p in out.iterdir())
        assert written == sorted(f"{c.tag}-clean-000.json" for c in CANONICAL_ORDER
                                 if c is not MorphClass.IIB)
        for name in written:
            assert (out / name).read_bytes() == (workspace / "timelines" / name).read_bytes()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_one_bad_video_spares_the_rest(self, workspace, tmp_path, capsys, monkeypatch,
                                           workers):
        import shutil

        from lithovid.video_io import list_video_dirs

        videos = tmp_path / "cohort"
        shutil.copytree(workspace / "cohort", videos)
        dirs = list_video_dirs(videos)
        assert len(dirs) == 5
        bad = dirs[1]
        frame = bad / "frame_000003.ppm"
        frame.write_bytes(frame.read_bytes()[:-10])
        monkeypatch.setenv("LITHO_WORKERS", workers)
        out = tmp_path / "out"
        code = main(["run", "--videos", str(videos), "--out", str(out),
                     "--model", str(workspace / "model.json")])
        assert code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line]
        assert errors == [f"error: {bad}: {frame} raster is truncated"]
        written = sorted(p.name for p in out.glob("*.json"))
        assert written == sorted(f"{d.name}.json" for d in dirs if d != bad)
        for name in written:  # the same bytes as a run of the intact cohort
            assert (out / name).read_bytes() == (workspace / "timelines" / name).read_bytes()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_unreadable_frame_spares_the_rest(self, workspace, tmp_path, capsys, monkeypatch,
                                              workers):
        """Opening frame 3 of a 16 fps video fails as an unreadable file would. The frame is
        off the 8 Hz grid, so only load_stream's header check opens it."""
        import builtins
        import shutil

        from lithovid import video_io

        videos = tmp_path / "cohort"
        shutil.copytree(workspace / "cohort", videos)
        bad = videos / "IIb-clean-000"
        edit_json(bad / "manifest.json", bad / "manifest.json", lambda p: p.update(native_fps=16))
        frame = bad / "frame_000003.ppm"
        assert 3 not in video_io.stream_indices(video_io.load_stream(bad))

        def unreadable(path, *args, **kwargs):
            if Path(path) == frame:
                raise PermissionError(13, "Permission denied", str(path))
            return builtins.open(path, *args, **kwargs)

        monkeypatch.setattr(video_io, "open", unreadable, raising=False)
        monkeypatch.setenv("LITHO_WORKERS", workers)
        out = tmp_path / "out"
        code = main(["run", "--videos", str(videos), "--out", str(out),
                     "--model", str(workspace / "model.json")])
        assert code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line]
        assert errors == [f"error: {bad}: cannot read {frame}: Permission denied"]
        written = sorted(p.name for p in out.glob("*.json"))
        assert len(written) == 4 and f"{bad.name}.json" not in written
        for name in written:
            assert (out / name).read_bytes() == (workspace / "timelines" / name).read_bytes()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_duplicate_video_id_is_data_error(self, workspace, tmp_path, capsys, monkeypatch,
                                              workers):
        import shutil

        videos = tmp_path / "cohort"
        shutil.copytree(workspace / "cohort", videos)
        first, second = videos / "Ia-clean-000", videos / "IIb-clean-000"
        edit_json(second / "manifest.json", second / "manifest.json",
                  lambda p: p.update(video_id="Ia-clean-000"))
        monkeypatch.setenv("LITHO_WORKERS", workers)
        out = tmp_path / "out"
        code = main(["run", "--videos", str(videos), "--out", str(out),
                     "--model", str(workspace / "model.json")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(first) in err[0] and str(second) in err[0] and "Ia-clean-000" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("n_videos", [1, 5])
    def test_pool_is_no_larger_than_the_cohort(self, workspace, tmp_path, monkeypatch, n_videos):
        """A fork pool starts all its workers on its first task, so the size asked for counts."""
        from lithovid import cli

        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setenv("LITHO_WORKERS", "64")
        videos = workspace / "cohort" if n_videos == 5 else one_video(workspace, tmp_path / "v")
        out = tmp_path / "o"
        assert main(["run", "--videos", str(videos), "--out", str(out),
                     "--model", str(workspace / "model.json")]) == 0
        assert sizes == [n_videos]
        for path in out.iterdir():
            assert path.read_bytes() == (workspace / "timelines" / path.name).read_bytes()
        assert len(list(out.iterdir())) == n_videos

    def test_run_holds_one_native_frame_at_a_time(self, workspace, tmp_path, monkeypatch):
        import weakref

        from lithovid import video_io
        from lithovid.segmentation import ChromaSegmenter

        rng = np.random.Generator(np.random.Philox(key=[640, 480]))
        video = tmp_path / "videos" / "hd"
        video.mkdir(parents=True)
        names = [f"frame_{k:06d}.ppm" for k in range(32)]  # 32 grid frames at 8 Hz
        for name in names:
            video_io.write_ppm(video / name, rng.integers(0, 256, (480, 640, 3), np.uint8))
        manifest = {"video_id": "hd", "native_fps": 8.0, "frames": [{"file": n} for n in names]}
        (video / "manifest.json").write_text(json.dumps(manifest), "utf-8")

        decoded = []
        read_ppm_orig = video_io.read_ppm

        def tracking(path):
            frame = read_ppm_orig(path)
            decoded.append(weakref.ref(frame))
            return frame

        alive = []
        segment = ChromaSegmenter.segment

        def counting(self, frame):
            alive.append(sum(ref() is not None for ref in decoded))
            return segment(self, frame)

        monkeypatch.setattr(video_io, "read_ppm", tracking)
        monkeypatch.setattr(ChromaSegmenter, "segment", counting)
        monkeypatch.delenv("LITHO_WORKERS", raising=False)
        assert main(["run", "--videos", str(tmp_path / "videos"), "--out", str(tmp_path / "o"),
                     "--segmenter", "chroma", "--calibration", str(workspace / "cal.json"),
                     "--model", str(workspace / "model.json")]) == 0
        assert len(decoded) == len(alive) == 32  # each grid frame decoded and segmented once
        assert max(alive) <= 1

    @pytest.mark.parametrize("change", [
        {"frames": [1]}, {"frames": 5}, {"frames": [{"file": 7}]},
        {"frames": [{"file": "frame_000000.ppm", "truth_mask": 3}]},
        {"frames": [{"file": "frame_000000.ppm", "truth_label": "Zz"}]},
        {"frames": [{"file": "frame_000000.ppm", "truth_label": ["Ia"]}]},
        {"video_id": "../escaped"},
    ], ids=["int entry", "int frames", "int file", "int mask", "unknown tag", "list tag",
            "id with a directory"])
    def test_malformed_manifest_spares_the_rest(self, workspace, tmp_path, capsys, change):
        import shutil

        videos = one_video(workspace, tmp_path / "videos")
        bad = videos / "bad" / "manifest.json"
        shutil.copytree(videos / "Ia-clean-000", bad.parent)
        edit_json(bad, bad, lambda p: p.update({"video_id": "bad", **change}))
        code = main(["run", "--videos", str(videos), "--out", str(tmp_path / "o" / "out"),
                     "--model", str(workspace / "model.json")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(bad) in err[0]
        name = "Ia-clean-000.json"
        assert [p.name for p in (tmp_path / "o").rglob("*.json")] == [name]
        assert (tmp_path / "o" / "out" / name).read_bytes() == (
            workspace / "timelines" / name).read_bytes()

    def test_manifest_without_frames_spares_the_rest(self, workspace, tmp_path, capsys):
        import shutil

        videos = one_video(workspace, tmp_path / "videos")
        bad = videos / "bad"
        shutil.copytree(videos / "Ia-clean-000", bad)
        edit_json(bad / "manifest.json", bad / "manifest.json",
                  lambda p: p.update(video_id="bad", frames=[]))
        out = tmp_path / "o"
        code = main(["run", "--videos", str(videos), "--out", str(out),
                     "--model", str(workspace / "model.json")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {bad}: video 'bad' has no frames"]
        assert sorted(p.name for p in out.iterdir()) == ["Ia-clean-000.json"]

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("video_id", UNUSABLE_VIDEO_IDS, ids=UNUSABLE_ID_NAMES)
    def test_unusable_video_id_spares_the_rest(self, workspace, tmp_path, capsys, monkeypatch,
                                               video_id, workers):
        import shutil

        videos = one_video(workspace, tmp_path / "videos")
        bad = videos / "bad"
        shutil.copytree(videos / "Ia-clean-000", bad)
        edit_json(bad / "manifest.json", bad / "manifest.json",
                  lambda p: p.update(video_id=video_id))
        monkeypatch.setenv("LITHO_WORKERS", workers)
        out = tmp_path / "o" / "out"
        code = main(["run", "--videos", str(videos), "--out", str(out),
                     "--model", str(workspace / "model.json"), "--overlay"])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: ")
        assert "video_id" in err[0]
        name = "Ia-clean-000"
        written = sorted(str(p.relative_to(out)) for p in (tmp_path / "o").rglob("*")
                         if p.is_file())
        overlays = sorted(str(p.relative_to(out)) for p in (out / "overlays" / name).iterdir())
        assert written == sorted([f"{name}.json", *overlays]) and overlays
        assert (out / f"{name}.json").read_bytes() == (
            workspace / "timelines" / f"{name}.json").read_bytes()

    def test_longest_usable_video_id(self, workspace, tmp_path, monkeypatch):
        from lithovid.video_io import MAX_VIDEO_ID_BYTES

        videos = one_video(workspace, tmp_path / "videos")
        video_id = "x" * MAX_VIDEO_ID_BYTES
        manifest = videos / "Ia-clean-000" / "manifest.json"
        edit_json(manifest, manifest, lambda p: p.update(video_id=video_id))
        monkeypatch.delenv("LITHO_WORKERS", raising=False)
        out = tmp_path / "o"
        assert main(["run", "--videos", str(videos), "--out", str(out),
                     "--model", str(workspace / "model.json")]) == 0
        assert [p.name for p in out.iterdir()] == [f"{video_id}.json"]

    @pytest.mark.parametrize("fps", [math.nan, math.inf])
    def test_non_finite_native_fps_is_data_error(self, workspace, tmp_path, capsys, fps):
        import shutil

        videos = tmp_path / "videos"
        shutil.copytree(workspace / "cohort" / "Ia-clean-000", videos / "Ia-clean-000")
        manifest = videos / "Ia-clean-000" / "manifest.json"
        payload = json.loads(manifest.read_text("utf-8"))
        payload["native_fps"] = fps  # written as the JSON extensions NaN / Infinity
        manifest.write_text(json.dumps(payload), "utf-8")
        code = main(["run", "--videos", str(videos), "--out", str(tmp_path / "o"),
                     "--variant", "no-qc", "--classifier", "centroid",
                     "--model", str(workspace / "model.json")])
        assert code == 2
        assert "native_fps" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("fps", [True, "8", 10**400, 1e-300, 0.001, 0.5],
                             ids=["true", "string", "beyond-float", "1e-300", "0.001", "0.5"])
    def test_bad_native_fps_spares_the_rest(self, workspace, tmp_path, workers, fps):
        """run goes in a child under a time limit: a rate near 0 asks for an endless stream."""
        import shutil
        import signal
        import subprocess
        import sys

        import lithovid

        videos = tmp_path / "cohort"
        shutil.copytree(workspace / "cohort", videos)
        bad = videos / "IIb-clean-000"
        edit_json(bad / "manifest.json", bad / "manifest.json", lambda p: p.update(native_fps=fps))
        out = tmp_path / "out"
        code = "import sys; from lithovid.cli import main; sys.exit(main(sys.argv[1:]))"
        env = {**os.environ, "LITHO_WORKERS": workers,
               "PYTHONPATH": str(Path(lithovid.__file__).parents[1])}
        child = subprocess.Popen(
            [sys.executable, "-c", code, "run", "--videos", str(videos), "--out", str(out),
             "--model", str(workspace / "model.json")],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True)
        try:
            _, err = child.communicate(timeout=60)
        finally:
            if child.poll() is None:
                os.killpg(child.pid, signal.SIGKILL)  # the child and its pool workers
                child.communicate()
        assert child.returncode == 2
        err = err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: ") and "native_fps" in err[0]
        written = sorted(p.name for p in out.glob("*.json"))
        assert len(written) == 4 and f"{bad.name}.json" not in written
        for name in written:
            assert (out / name).read_bytes() == (workspace / "timelines" / name).read_bytes()

    def test_qc_threshold_overrides(self, workspace, tmp_path):
        out = tmp_path / "strict"
        assert main(["run", "--videos", str(workspace / "cohort"), "--out", str(out),
                     "--segmenter", "oracle", "--classifier", "centroid",
                     "--model", str(workspace / "model.json"),
                     "--min-coverage", "0.5"]) == 0
        tl, _, _ = timeline_from_json((out / "Ia-clean-000.json").read_text("utf-8"))
        assert tl.decision is None  # stones never cover half the frame
        assert all(r.qc.tag.value == "RejectedCoverage" for r in tl.records)

    def test_config_file_with_flag_override(self, workspace, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "videos": str(workspace / "cohort"),
            "segmenter": "oracle",
            "classifier": "centroid",
            "model": str(workspace / "model.json"),
        }), "utf-8")
        out = tmp_path / "from-config"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert tree_digest(out) == tree_digest(workspace / "timelines")

    def test_config_null_and_false_add_nothing_and_flags_win(self, workspace, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "videos": str(workspace / "cohort"),
            "model": str(workspace / "model.json"),
            "min_dsc": None,
            "overlay": False,
            "variant": "no-qc",
        }), "utf-8")
        out = tmp_path / "from-config"
        assert main(["run", "--config", str(config), "--out", str(out), "--variant", "full"]) == 0
        assert tree_digest(out) == tree_digest(workspace / "timelines")

    @pytest.mark.parametrize("bad", [
        {"min_coverage": "x"}, {"variant": "bogus"}, {"segmenter": "bogus"}, {"overlay": "false"},
    ], ids=["min_coverage", "variant", "segmenter", "overlay"])
    def test_bad_config_value_is_usage_error(self, workspace, tmp_path, capsys, bad):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"videos": str(workspace / "cohort"),
                                      "model": str(workspace / "model.json"), **bad}), "utf-8")
        out = tmp_path / "o"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 1
        assert not out.exists()
        assert str(config) in capsys.readouterr().err

    def test_model_and_calibration_load_once_per_run(self, workspace, tmp_path, monkeypatch):
        from lithovid.classify import CentroidModel
        from lithovid.segmentation import ChromaSegmenter

        monkeypatch.delenv("LITHO_WORKERS", raising=False)
        loads = []
        for cls in (CentroidModel, ChromaSegmenter):
            def counting(path, load=cls.load, name=cls.__name__):
                loads.append(name)
                return load(path)

            monkeypatch.setattr(cls, "load", counting)
        assert main(["run", "--videos", str(workspace / "cohort"), "--out", str(tmp_path / "o"),
                     "--segmenter", "chroma", "--calibration", str(workspace / "cal.json"),
                     "--model", str(workspace / "model.json")]) == 0
        assert len(list((tmp_path / "o").glob("*.json"))) == 5
        assert sorted(loads) == ["CentroidModel", "ChromaSegmenter"]

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"video": "x"}), "utf-8")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 1

    def test_run_takes_no_seed(self, workspace, tmp_path, capsys):
        config = tmp_path / "seeded.json"
        config.write_text(json.dumps({"videos": str(workspace / "cohort"), "seed": 3}), "utf-8")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        assert "unknown config keys: seed" in capsys.readouterr().err
        assert main(["run", "--videos", str(workspace / "cohort"), "--out", str(tmp_path / "o"),
                     "--seed", "3"]) == 1
        assert not (tmp_path / "o").exists()

    def test_config_that_is_not_an_object_is_data_error(self, tmp_path, capsys):
        config = tmp_path / "list.json"
        config.write_text('["videos"]', "utf-8")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert str(config) in capsys.readouterr().err


HD_FRAMES = 12  # at 8 fps every native frame is a grid frame


def write_hd_video(video_dir, n, fps=8.0, seed=0):
    """Write a video of n random 640x480 frames under video_dir."""
    from lithovid.video_io import write_ppm

    rng = np.random.Generator(np.random.Philox(key=[640, seed]))
    video_dir.mkdir(parents=True)
    paths = [video_dir / f"frame_{k:06d}.ppm" for k in range(n)]
    for path in paths:
        write_ppm(path, rng.integers(0, 256, (480, 640, 3), np.uint8))
    manifest = {"video_id": video_dir.name, "native_fps": fps,
                "frames": [{"file": path.name} for path in paths]}
    (video_dir / "manifest.json").write_text(json.dumps(manifest), "utf-8")


def run_overlaid(workspace, videos, out):
    """`run --overlay` through the chroma segmenter and the centroid model."""
    return main(["run", "--videos", str(videos), "--out", str(out), "--overlay",
                 "--segmenter", "chroma", "--calibration", str(workspace / "cal.json"),
                 "--model", str(workspace / "model.json")])


@pytest.fixture(scope="module")
def hd(workspace, tmp_path_factory):
    """A one-video cohort of 640x480 frames and the output of an intact `run --overlay`."""
    root = tmp_path_factory.mktemp("hd")
    write_hd_video(root / "videos" / "hd", HD_FRAMES)
    assert run_overlaid(workspace, root / "videos", root / "intact") == 0
    return root


class TestHdReadAhead:
    """An HD video's next frames are read and resized on one helper thread. Failures, outputs
    and the threads left behind are those of the one-frame-at-a-time pass."""

    @pytest.fixture(autouse=True)
    def one_worker(self, monkeypatch):
        monkeypatch.delenv("LITHO_WORKERS", raising=False)

    @staticmethod
    def assert_overlays_as_intact(hd, out, count):
        overlays = out / "overlays" / "hd"
        names = sorted(p.name for p in overlays.iterdir())
        assert names == [f"frame_{k:06d}.ppm" for k in range(count)]
        for name in names:
            assert (overlays / name).read_bytes() == \
                (hd / "intact" / "overlays" / "hd" / name).read_bytes()

    @pytest.mark.parametrize("k", [1, 5, HD_FRAMES - 1])
    def test_truncated_frame_fails_as_the_serial_pass_did(self, workspace, hd, tmp_path, capsys,
                                                          monkeypatch, k):
        """Frame k is cut short after load_stream checked it, as frame 0 is decoded: exit 2,
        one error line naming it, the overlays of frames 0..k-1 and no timeline."""
        import shutil
        import threading

        from lithovid import video_io

        videos = tmp_path / "videos"
        shutil.copytree(hd / "videos", videos)
        frame = videos / "hd" / f"frame_{k:06d}.ppm"
        read_ppm = video_io.read_ppm

        def truncating(path):
            if path.name == "frame_000000.ppm":
                frame.write_bytes(frame.read_bytes()[:-10])
            return read_ppm(path)

        monkeypatch.setattr(video_io, "read_ppm", truncating)
        before = threading.enumerate()
        out = tmp_path / "o"
        assert run_overlaid(workspace, videos, out) == 2
        assert threading.enumerate() == before
        err = [line for line in capsys.readouterr().err.splitlines() if line]
        assert err == [f"error: {videos / 'hd'}: {frame} raster is truncated"]
        self.assert_overlays_as_intact(hd, out, k)
        assert not (out / "hd.json").exists()

    def test_segment_error_stops_the_helper(self, workspace, hd, tmp_path, capsys, monkeypatch):
        """segment fails on frame 3: the helper makes at most the two frames past it, then
        is joined."""
        import threading

        from lithovid import video_io
        from lithovid.segmentation import ChromaSegmenter

        decoded = []
        read_ppm, segment = video_io.read_ppm, ChromaSegmenter.segment

        def recording(path):
            decoded.append(path.name)
            return read_ppm(path)

        def failing(self, frame):
            if frame.stream_index == 3:
                raise LithovidError("segmenter failed")
            return segment(self, frame)

        monkeypatch.setattr(video_io, "read_ppm", recording)
        monkeypatch.setattr(ChromaSegmenter, "segment", failing)
        before = threading.enumerate()
        out = tmp_path / "o"
        assert run_overlaid(workspace, hd / "videos", out) == 2
        assert threading.enumerate() == before
        err = [line for line in capsys.readouterr().err.splitlines() if line]
        assert err == [f"error: {hd / 'videos' / 'hd'}: segmenter failed"]
        assert 4 <= len(decoded) <= 6
        assert decoded == [f"frame_{k:06d}.ppm" for k in range(len(decoded))]
        self.assert_overlays_as_intact(hd, out, 3)

    def test_reads_each_grid_frame_once_in_order_on_one_helper(self, workspace, tmp_path,
                                                                monkeypatch):
        import threading

        from lithovid import video_io

        write_hd_video(tmp_path / "videos" / "hd", 24, fps=24.0)  # every third is a grid frame
        reads, started = [], []
        read_ppm, start = video_io.read_ppm, threading.Thread.start

        def recording(path):
            reads.append((path.name, threading.current_thread().name))
            return read_ppm(path)

        def starting(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(video_io, "read_ppm", recording)
        monkeypatch.setattr(threading.Thread, "start", starting)
        before = threading.enumerate()
        assert run_overlaid(workspace, tmp_path / "videos", tmp_path / "o") == 0
        assert threading.enumerate() == before
        assert [name for name, _ in reads] == [f"frame_{k:06d}.ppm" for k in range(0, 24, 3)]
        assert len(started) == 1 and {thread for _, thread in reads} == set(started)

    def test_grid_sized_video_starts_no_thread(self, workspace, tmp_path, monkeypatch):
        import threading

        started = []
        start = threading.Thread.start

        def starting(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", starting)
        assert run_overlaid(workspace, workspace / "cohort", tmp_path / "o") == 0
        assert started == []

    def test_workers_give_the_same_bytes_and_fork_with_no_helper(self, workspace, tmp_path,
                                                                 monkeypatch):
        import threading

        from lithovid import cli

        videos = tmp_path / "videos"
        for seed, name in enumerate(["hd-a", "hd-b"]):
            write_hd_video(videos / name, 6, seed=seed)
        at_fork = []

        class RecordingPool(cli.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                at_fork.append(threading.enumerate())
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        before = threading.enumerate()
        digests = []
        for workers in ("1", "2"):
            monkeypatch.setenv("LITHO_WORKERS", workers)
            assert run_overlaid(workspace, videos, tmp_path / workers) == 0
            assert len(list((tmp_path / workers / "overlays").rglob("*.ppm"))) == 12
            digests.append(tree_digest(tmp_path / workers))
        assert digests[0] == digests[1]
        assert at_fork == [before]


def one_video(workspace, root):
    import shutil

    shutil.copytree(workspace / "cohort" / "Ia-clean-000", root / "Ia-clean-000")
    return root


def edit_json(src, dst, change):
    payload = json.loads(src.read_text("utf-8"))
    change(payload)
    dst.write_text(json.dumps(payload), "utf-8")  # nan/inf as the JSON extensions NaN/Infinity
    return dst


class TestInputBoundaries:
    @pytest.mark.parametrize("change", [
        lambda p: p.update(beta="x"),
        lambda p: p.update(beta=math.nan),
        lambda p: p["centroids"]["IIb"].__setitem__(3, math.inf),
        lambda p: p["centroids"].pop("IaIIIb"),
        lambda p: p.update(beta="50"),
        lambda p: p.update(beta=True),
        lambda p: p.update(centroids={t: [str(x) for x in v] for t, v in p["centroids"].items()}),
        lambda p: p.update(centroids={t: [True] * len(v) for t, v in p["centroids"].items()}),
    ], ids=["beta-string", "beta-nan", "centroid-inf", "class-missing", "beta-numeric-string",
            "beta-true", "centroids-strings", "centroids-true"])
    def test_bad_model_is_data_error(self, workspace, tmp_path, capsys, change):
        model = edit_json(workspace / "model.json", tmp_path / "model.json", change)
        code = main(["run", "--videos", str(one_video(workspace, tmp_path / "v")),
                     "--out", str(tmp_path / "o"), "--model", str(model)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot load model from {model}")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("change", [
        lambda p: p.update(tau=math.nan),
        lambda p: p.update(tau=math.inf),
        lambda p: p["background_cov"][1].__setitem__(1, math.nan),
        lambda p: p["background_mean"].__setitem__(0, math.inf),
    ], ids=["tau-nan", "tau-inf", "cov-nan", "mean-inf"])
    def test_non_finite_calibration_is_data_error(self, workspace, tmp_path, capsys, change):
        cal = edit_json(workspace / "cal.json", tmp_path / "cal.json", change)
        code = main(["run", "--videos", str(one_video(workspace, tmp_path / "v")),
                     "--out", str(tmp_path / "o"), "--segmenter", "chroma",
                     "--calibration", str(cal), "--model", str(workspace / "model.json")])
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("cov, rule", [
        ([[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]], "positive definite"),
        ([[400.0, 0.0, 0.0], [0.0, 400.0, 0.0], [0.0, 0.0, -400.0]], "positive definite"),
        ([[400.0, 300.0, 0.0], [-300.0, 400.0, 0.0], [0.0, 0.0, 400.0]], "symmetric"),
    ], ids=["negative-definite", "indefinite", "not-symmetric"])
    def test_calibration_covariance_not_spd_is_data_error(self, workspace, tmp_path, capsys,
                                                          cov, rule):
        """Each would run to exit 0 with wrong or missing decisions."""
        cal = edit_json(workspace / "cal.json", tmp_path / "cal.json",
                        lambda p: p.update(background_cov=cov))
        code = main(["run", "--videos", str(one_video(workspace, tmp_path / "v")),
                     "--out", str(tmp_path / "o"), "--segmenter", "chroma",
                     "--calibration", str(cal), "--model", str(workspace / "model.json")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: cannot load calibration from {cal}: background covariance must be {rule}"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("change", [
        lambda p: p.update(tau="6.2"),
        lambda p: p.update(tau=True),
        lambda p: p.update(background_mean=[str(x) for x in p["background_mean"]]),
        lambda p: p["background_cov"][2].__setitem__(2, True),
    ], ids=["tau-string", "tau-true", "mean-strings", "cov-true"])
    def test_calibration_value_that_is_not_a_number_is_data_error(self, workspace, tmp_path,
                                                                  capsys, change):
        cal = edit_json(workspace / "cal.json", tmp_path / "cal.json", change)
        code = main(["run", "--videos", str(one_video(workspace, tmp_path / "v")),
                     "--out", str(tmp_path / "o"), "--segmenter", "chroma",
                     "--calibration", str(cal), "--model", str(workspace / "model.json")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot load calibration from {cal}: ")
        assert "must be a JSON number" in err[0]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", [64, True, 64.9, -5, 0, 10**9, 65537, "64"],
                             ids=["64", "true", "64.9", "-5", "0", "1e9", "65537", "string"])
    def test_bad_min_component_px_is_data_error(self, workspace, tmp_path, capsys, value):
        """A calibration holds no min_component_px: one that does, as files written while the
        segmenter kept one all did, is rejected whatever its value, rather than run as
        segmentation.MIN_COMPONENT_PX."""
        cal = edit_json(workspace / "cal.json", tmp_path / "cal.json",
                        lambda p: p.update(min_component_px=value))
        code = main(["run", "--videos", str(one_video(workspace, tmp_path / "v")),
                     "--out", str(tmp_path / "o"), "--segmenter", "chroma",
                     "--calibration", str(cal), "--model", str(workspace / "model.json")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: cannot load calibration from {cal}: unknown field 'min_component_px'"]
        assert not (tmp_path / "o").exists()

    def test_train_cls_and_calibrate_seg_write_exactly_the_key_sets(self, workspace):
        assert json.loads((workspace / "model.json").read_text("utf-8")).keys() == {"centroids"}
        assert json.loads((workspace / "cal.json").read_text("utf-8")).keys() == {
            "background_mean", "background_cov", "tau"}

    @pytest.mark.parametrize("name, change, detail", [
        ("model.json", lambda p: p.update(beta=50.0), "unknown field 'beta'"),
        ("model.json", lambda p: p.pop("centroids"), "missing field 'centroids'"),
        ("cal.json", lambda p: p.update(extra=1, min_component_px=64),
         "unknown field 'extra', 'min_component_px'"),
        ("cal.json", lambda p: p.pop("background_cov"), "missing field 'background_cov'"),
    ], ids=["model-beta", "model-no-centroids", "cal-two-unknown", "cal-no-cov"])
    def test_model_and_calibration_hold_exactly_their_keys(self, workspace, tmp_path, capsys,
                                                          name, change, detail):
        files = {"model.json": workspace / "model.json", "cal.json": workspace / "cal.json"}
        files[name] = edit_json(files[name], tmp_path / name, change)
        what = "model" if name == "model.json" else "calibration"
        code = main(["run", "--videos", str(one_video(workspace, tmp_path / "v")),
                     "--out", str(tmp_path / "o"), "--segmenter", "chroma",
                     "--calibration", str(files["cal.json"]), "--model", str(files["model.json"])])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: cannot load {what} from {files[name]}: {detail}"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("content", [None, b"frame,Ia,IIb,IIIb,IaIIb,IaIIIb\n0,\xff\n"],
                             ids=["missing", "not-utf8"])
    def test_unreadable_score_csv_is_data_error(self, workspace, tmp_path, capsys, content):
        scores = tmp_path / "scores"
        scores.mkdir()
        if content is not None:
            (scores / "Ia-clean-000.csv").write_bytes(content)
        code = main(["run", "--videos", str(one_video(workspace, tmp_path / "v")),
                     "--out", str(tmp_path / "o"), "--classifier", "import",
                     "--scores", str(scores)])
        assert code == 2
        assert str(scores / "Ia-clean-000.csv") in capsys.readouterr().err

    @pytest.mark.parametrize("variant", ["full", "no-masking"])
    def test_imported_mask_of_wrong_size_is_data_error(self, workspace, tmp_path, capsys, variant):
        videos = one_video(workspace, tmp_path / "v")
        masks = tmp_path / "masks" / "Ia-clean-000"
        masks.mkdir(parents=True)
        manifest = json.loads((videos / "Ia-clean-000" / "manifest.json").read_text("utf-8"))
        for k in range(len(manifest["frames"])):
            write_pgm(masks / f"mask_{k:06d}.pgm", np.ones((48, 64), dtype=bool))
        code = main(["run", "--videos", str(videos), "--out", str(tmp_path / "o"),
                     "--segmenter", "import", "--masks", str(masks.parent),
                     "--model", str(workspace / "model.json"), "--variant", variant])
        assert code == 2
        assert str(masks / "mask_000000.pgm") in capsys.readouterr().err
        assert not (tmp_path / "o" / "Ia-clean-000.json").exists()

    @pytest.mark.parametrize("fault", ["serialize", "write"])
    def test_failed_timeline_write_leaves_no_file(self, workspace, tmp_path, monkeypatch, fault):
        from lithovid import evaluate

        def broken(*args, **kwargs):
            if fault == "serialize":
                raise ValueError("cannot serialize")
            return '{"video_id": "\ud800"}'  # a lone surrogate: encoding fails in the write

        monkeypatch.setattr(evaluate, "timeline_to_json", broken)
        out = tmp_path / "o"
        code = main(["run", "--videos", str(one_video(workspace, tmp_path / "v")),
                     "--out", str(out), "--model", str(workspace / "model.json")])
        assert code == 3
        assert list(out.iterdir()) == []

    def test_failed_overlay_write_leaves_no_partial_frame(self, workspace, tmp_path, monkeypatch):
        from lithovid import cli

        written = []

        def failing(path, img):
            if len(written) == 2:
                Path(path).write_bytes(b"P6\n256 256\n255\n" + img.tobytes()[:1000])
                raise OSError("disk full")
            cli_write_ppm(path, img)
            written.append(path)

        cli_write_ppm = cli.write_ppm
        monkeypatch.setattr(cli, "write_ppm", failing)
        out = tmp_path / "o"
        code = main(["run", "--videos", str(one_video(workspace, tmp_path / "v")),
                     "--out", str(out), "--model", str(workspace / "model.json"), "--overlay"])
        assert code == 3
        overlay_dir = out / "overlays" / "Ia-clean-000"
        assert sorted(p.name for p in overlay_dir.iterdir()) == ["frame_000000.ppm",
                                                                 "frame_000001.ppm"]
        for path in overlay_dir.iterdir():
            assert read_ppm(path).shape == (256, 256, 3)

    def test_overlay_bytes_are_the_plain_ppm_bytes(self, workspace, tmp_path):
        from lithovid.cli import render_overlay
        from lithovid.video_io import load_stream, normalize_video, write_ppm

        videos = one_video(workspace, tmp_path / "v")
        out = tmp_path / "o"
        assert main(["run", "--videos", str(videos), "--out", str(out),
                     "--model", str(workspace / "model.json"), "--overlay"]) == 0
        timeline, _, _ = timeline_from_json((out / "Ia-clean-000.json").read_text("utf-8"))
        frames, truths = normalize_video(load_stream(videos / "Ia-clean-000"))
        overlay_dir = out / "overlays" / "Ia-clean-000"
        names = [f"frame_{rec.stream_index:06d}.ppm" for rec in timeline.records]
        assert sorted(p.name for p in overlay_dir.iterdir()) == names
        plain = tmp_path / "plain.ppm"
        for rec, frame, name in zip(timeline.records, frames, names):
            label = rec.label.display if rec.qc.passed else "X"
            write_ppm(plain, render_overlay(frame, truths[rec.stream_index], label))
            assert (overlay_dir / name).read_bytes() == plain.read_bytes()

    def test_inconsistent_truth_labels_are_data_error(self, workspace, tmp_path, capsys):
        truth = tmp_path / "truth" / "Ia-clean-000"
        truth.mkdir(parents=True)
        manifest = edit_json(workspace / "cohort" / "Ia-clean-000" / "manifest.json",
                             truth / "manifest.json",
                             lambda p: p["frames"][5].update(truth_label="IIb"))
        code = main(["eval", "--timelines", str(workspace / "timelines"),
                     "--truth", str(truth.parent), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(manifest) in err and "inconsistent truth labels" in err


# JSON that Python's parser rejects with other than a JSONDecodeError: nesting past the
# recursion limit (RecursionError) and an integer past the 4,300-digit limit (ValueError)
DEEP_JSON = "[" * 100_000 + "]" * 100_000
LONG_INT = "9" * 5000


class TestUnreadableInputFiles:
    """Each input file that cannot be read as its format is a data error naming the file."""

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("value", [LONG_INT, DEEP_JSON], ids=["5000-digit", "nested"])
    def test_bad_manifest_spares_the_rest(self, workspace, tmp_path, capsys, monkeypatch,
                                          workers, value):
        import shutil

        videos = tmp_path / "cohort"
        shutil.copytree(workspace / "cohort", videos)
        bad = videos / "IIb-clean-000" / "manifest.json"
        edit_json(bad, bad, lambda p: p.update(native_fps="@"))
        bad.write_text(bad.read_text("utf-8").replace('"@"', value), "utf-8")
        monkeypatch.setenv("LITHO_WORKERS", workers)
        out = tmp_path / "out"
        code = main(["run", "--videos", str(videos), "--out", str(out),
                     "--model", str(workspace / "model.json")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad.parent}: manifest {bad}: ")
        written = sorted(p.name for p in out.glob("*.json"))
        assert len(written) == 4 and "IIb-clean-000.json" not in written
        for name in written:
            assert (out / name).read_bytes() == (workspace / "timelines" / name).read_bytes()

    @pytest.mark.parametrize("content", [
        b'{"variant": "no-qc\xff"}', b'{"min_dsc": ' + LONG_INT.encode() + b"}",
        DEEP_JSON.encode(),
    ], ids=["not-utf8", "5000-digit", "nested"])
    def test_unreadable_config_is_data_error(self, workspace, tmp_path, capsys, content):
        config = tmp_path / "run.json"
        config.write_bytes(content)
        out = tmp_path / "o"
        code = main(["run", "--config", str(config), "--videos", str(workspace / "cohort"),
                     "--out", str(out), "--model", str(workspace / "model.json")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: config {config}: ")
        assert not out.exists()

    @pytest.mark.parametrize("text", ['{"centroids": []}', DEEP_JSON],
                             ids=["centroids-list", "nested"])
    def test_unreadable_model_is_data_error(self, workspace, tmp_path, capsys, text):
        model = tmp_path / "model.json"
        model.write_text(text, "utf-8")
        out = tmp_path / "o"
        code = main(["run", "--videos", str(one_video(workspace, tmp_path / "v")),
                     "--out", str(out), "--model", str(model)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot load model from {model}: ")
        assert not out.exists()

    def test_nested_calibration_is_data_error(self, workspace, tmp_path, capsys):
        cal = tmp_path / "cal.json"
        cal.write_text(DEEP_JSON, "utf-8")
        out = tmp_path / "o"
        code = main(["run", "--videos", str(one_video(workspace, tmp_path / "v")),
                     "--out", str(out), "--segmenter", "chroma", "--calibration", str(cal),
                     "--model", str(workspace / "model.json")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot load calibration from {cal}: ")
        assert not out.exists()

    @pytest.mark.parametrize("make", [Path.mkdir, lambda p: p.write_text(DEEP_JSON, "utf-8")],
                             ids=["directory", "nested"])
    def test_unreadable_timeline_is_data_error(self, workspace, tmp_path, capsys, make):
        import shutil

        timelines = tmp_path / "timelines"
        shutil.copytree(workspace / "timelines", timelines)
        bad = timelines / "x.json"
        make(bad)
        out = tmp_path / "o"
        code = main(["eval", "--timelines", str(timelines), "--truth", str(workspace / "cohort"),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: timeline {bad}: ")
        assert not out.exists()


def timeline_like_json():
    """JSON documents shaped loosely like a timeline, with any value in each field."""
    leaf = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    value = st.recursive(leaf, lambda inner: st.lists(inner, max_size=3)
                         | st.dictionaries(st.text(max_size=8), inner, max_size=3), max_leaves=8)
    record = st.fixed_dictionaries({"stream_index": value, "qc": value,
                                    "scores": value, "label": value})
    document = st.fixed_dictionaries({
        "video_id": value, "records": st.lists(record, max_size=3) | value,
        "decision": value, "decision_path": value, "truth_label": value, "variant": value,
    })
    return (document | value).map(lambda doc: json.dumps(doc).encode("utf-8"))


class TestEvalCommand:
    def test_perfect_cohort_scores_100(self, workspace, tmp_path):
        out = tmp_path / "eval"
        assert main(["eval", "--timelines", str(workspace / "timelines"),
                     "--truth", str(workspace / "cohort"), "--out", str(out)]) == 0
        csv_lines = (out / "report.csv").read_text("utf-8").strip().splitlines()
        assert len(csv_lines) == 6
        for line in csv_lines[1:]:
            assert line.endswith("100.00,100.00,100.00,100.00,100.00")
        assert "qc pass fraction" in (out / "report.txt").read_text("utf-8")

    def test_missing_class_names_it(self, workspace, tmp_path, capsys):
        pruned = tmp_path / "pruned"
        pruned.mkdir()
        for path in (workspace / "timelines").glob("*.json"):
            if not path.name.startswith("IIIb"):
                (pruned / path.name).write_bytes(path.read_bytes())
        code = main(["eval", "--timelines", str(pruned),
                     "--truth", str(workspace / "cohort"), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "IIIb" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "{not json", "{}",
        '{"video_id": [], "records": [], "decision": null, "decision_path": null}',
    ])
    def test_bad_timeline_is_data_error_naming_file(self, tmp_path, capsys, text):
        timelines = tmp_path / "tl"
        timelines.mkdir()
        bad = timelines / "broken.json"
        bad.write_text(text, "utf-8")
        code = main(["eval", "--timelines", str(timelines), "--out", str(tmp_path / "o")])
        assert code == 2
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("truth", [False, True], ids=["no-truth", "truth"])
    @pytest.mark.parametrize("case", ["empty-id", "label-less"])
    def test_timeline_without_truth_names_file(self, workspace, tmp_path, capsys, case, truth):
        timelines = tmp_path / "tl"
        timelines.mkdir()
        bad = timelines / "unlabelled.json"
        if case == "empty-id":
            bad.write_text('{"video_id": "", "records": [], "decision": null, '
                           '"decision_path": null}', "utf-8")
        else:
            edit_json(workspace / "timelines" / "Ia-clean-000.json", bad,
                      lambda p: p.update(video_id="ghost", truth_label=None))
        args = ["eval", "--timelines", str(timelines), "--out", str(tmp_path / "o")]
        code = main(args + (["--truth", str(workspace / "cohort")] if truth else []))
        assert code == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "no ground-truth label" in err

    @given(data=st.binary(max_size=200) | timeline_like_json())
    @settings(max_examples=200, deadline=None)
    def test_any_bytes_in_a_timeline_file_are_a_data_error(self, data):
        """Exit 2, never 3; a file that is not a valid timeline is named.

        A valid one still fails, on the cohort: one video lacks four classes.
        """
        try:
            timeline_from_json(data.decode("utf-8"))
            valid = True
        except (LithovidError, ValueError, KeyError, TypeError, AttributeError):
            valid = False
        with tempfile.TemporaryDirectory() as tmp:
            bad = Path(tmp) / "tl" / "x.json"
            bad.parent.mkdir()
            bad.write_bytes(data)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["eval", "--timelines", str(bad.parent), "--out", str(Path(tmp) / "o")])
        assert code == 2
        assert valid or str(bad) in err.getvalue()

    @pytest.mark.parametrize("manifest", ["{not json", '{"native_fps": 8.0, "frames": []}'])
    def test_bad_truth_manifest_is_data_error_naming_file(
        self, workspace, tmp_path, capsys, manifest
    ):
        bad = tmp_path / "truth" / "v" / "manifest.json"
        bad.parent.mkdir(parents=True)
        bad.write_text(manifest, "utf-8")
        code = main(["eval", "--timelines", str(workspace / "timelines"),
                     "--truth", str(bad.parent.parent), "--out", str(tmp_path / "o")])
        assert code == 2
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("video_id", UNUSABLE_VIDEO_IDS, ids=UNUSABLE_ID_NAMES)
    def test_unusable_truth_video_id_is_data_error(self, workspace, tmp_path, capsys, video_id):
        bad = tmp_path / "truth" / "v" / "manifest.json"
        bad.parent.mkdir(parents=True)
        edit_json(workspace / "cohort" / "Ia-clean-000" / "manifest.json", bad,
                  lambda p: p.update(video_id=video_id))
        code = main(["eval", "--timelines", str(workspace / "timelines"),
                     "--truth", str(bad.parent.parent), "--out", str(tmp_path / "o")])
        assert code == 2
        assert str(bad) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_duplicate_truth_video_id_is_data_error(self, workspace, tmp_path, capsys):
        import shutil

        truth = tmp_path / "truth"
        for manifest in sorted((workspace / "cohort").glob("*/manifest.json")):
            (truth / manifest.parent.name).mkdir(parents=True)
            shutil.copy(manifest, truth / manifest.parent.name / "manifest.json")
        (truth / "Ia-copy").mkdir()
        relabelled = edit_json(  # the same id with another label; it used to win in silence
            truth / "Ia-clean-000" / "manifest.json", truth / "Ia-copy" / "manifest.json",
            lambda p: [f.update(truth_label="IIb") for f in p["frames"]])
        code = main(["eval", "--timelines", str(workspace / "timelines"),
                     "--truth", str(truth), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(truth / "Ia-clean-000" / "manifest.json") in err and str(relabelled) in err
        assert not (tmp_path / "o").exists()

    def test_timelines_of_two_variants_are_a_data_error(self, workspace, tmp_path, capsys):
        timelines = tmp_path / "tl"
        timelines.mkdir()
        for path in sorted((workspace / "timelines").glob("*.json")):
            edit_json(path, timelines / path.name, lambda p: p.update(
                variant="full" if path.name.startswith(("Ia-", "IIb-")) else "no-qc"))
        code = main(["eval", "--timelines", str(timelines), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(timelines / "IIb-clean-000.json") in err
        assert str(timelines / "IIIb-clean-000.json") in err
        assert not (tmp_path / "o").exists()

    def test_two_timelines_of_one_video_are_a_data_error(self, workspace, tmp_path, capsys):
        import shutil

        timelines = tmp_path / "tl"
        shutil.copytree(workspace / "timelines", timelines)
        copy = timelines / "Ia-clean-000 copy.json"  # it used to count the video twice
        shutil.copy(timelines / "Ia-clean-000.json", copy)
        out = tmp_path / "o"
        assert main(["eval", "--timelines", str(timelines), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(timelines / "Ia-clean-000.json") in err[0] and str(copy) in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("decision", "Ia"), ("decision_path", "Fallback"),
        ("census", {"Ia": 1, "IIb": 0, "IIIb": 0, "IaIIb": 0, "IaIIIb": 0}),
    ])
    def test_decision_disagreeing_with_records_is_data_error(self, workspace, tmp_path, capsys,
                                                             field, value):
        import shutil

        timelines = tmp_path / "tl"
        shutil.copytree(workspace / "timelines", timelines)
        bad = timelines / "IIb-clean-000.json"
        assert load_timeline(workspace, bad.name)[0].decision is MorphClass.IIB
        edit_json(bad, bad, lambda p: p.update({field: value}))
        out = tmp_path / "o"
        assert main(["eval", "--timelines", str(timelines), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: timeline {bad}: ")
        assert "decision" in err[0]
        assert not out.exists()

    def edited_timeline_fails_eval(self, workspace, tmp_path, capsys, change):
        """eval of the workspace timelines with Ia-clean-000's records edited: exit 2, one error
        line naming that file, nothing written."""
        import shutil

        timelines = tmp_path / "tl"
        shutil.copytree(workspace / "timelines", timelines)
        bad = timelines / "Ia-clean-000.json"
        edit_json(bad, bad, lambda p: change(p["records"]))
        out = tmp_path / "o"
        assert main(["eval", "--timelines", str(timelines), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: timeline {bad}: ")
        assert not out.exists()
        return err[0]

    @pytest.mark.parametrize("change", [
        lambda r: r[0].update(stream_index=False),
        lambda r: r[1].update(stream_index=True),
        lambda r: r[1].update(stream_index=1.0),
        lambda r: r[1]["qc"].update(dsc=True),
        lambda r: r[1].update(scores={"Ia": True, "IIb": False, "IIIb": 0, "IaIIb": 0,
                                      "IaIIIb": 0}),
    ], ids=["index-false", "index-true", "index-1.0", "dsc-true", "boolean-scores"])
    def test_boolean_or_non_integral_number_is_data_error(self, workspace, tmp_path, capsys,
                                                          change):
        """Python counts true as 1 and 1.0 == 1, but neither is what the writer writes."""
        second = load_timeline(workspace, "Ia-clean-000.json")[0].records[1]
        assert second.label is MorphClass.IA and second.qc.dsc == 1.0
        self.edited_timeline_fails_eval(workspace, tmp_path, capsys, change)

    @pytest.mark.parametrize("change, detail", [
        (lambda r: r[0].update(label="Ia"), "rejected records cannot carry"),
        (lambda r: r[0].update(scores=r[1]["scores"]), "rejected records cannot carry"),
        (lambda r: r[0].pop("scores"), "missing field 'scores'"),
        (lambda r: r[0].pop("label"), "missing field 'label'"),
    ], ids=["label", "scores", "no-scores-key", "no-label-key"])
    def test_rejected_record_holds_null_scores_and_label(self, workspace, tmp_path, capsys,
                                                         change, detail):
        """The writer gives every record both keys, null on a record QC rejected."""
        first = load_timeline(workspace, "Ia-clean-000.json")[0].records[0]
        assert not first.qc.passed
        assert detail in self.edited_timeline_fails_eval(workspace, tmp_path, capsys, change)

    def test_missing_truth_directory_is_data_error(self, workspace, tmp_path, capsys):
        absent = tmp_path / "absent"
        code = main(["eval", "--timelines", str(workspace / "timelines"),
                     "--truth", str(absent), "--out", str(tmp_path / "o")])
        assert code == 2
        assert str(absent) in capsys.readouterr().err


class TestReportFilesAtomic:
    """eval and report write each file beside it and rename it into place."""

    @pytest.mark.parametrize("command, failing", [
        ("eval", "report.csv"), ("eval", "report.txt"),
        ("report", "combined.csv"), ("report", "combined.txt"),
    ])
    def test_failed_write_leaves_no_partial_or_temp_file(self, workspace, tmp_path, monkeypatch,
                                                         command, failing):
        evaluated = tmp_path / "ev"
        assert main(["eval", "--timelines", str(workspace / "timelines"),
                     "--out", str(evaluated)]) == 0
        write_text = Path.write_text

        def half_then_fail(self, data, *args, **kwargs):
            if self.name == failing or self.name.startswith(f".{failing}."):
                write_text(self, data[: len(data) // 2], *args, **kwargs)
                raise OSError("disk full")
            return write_text(self, data, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", half_then_fail)
        out = tmp_path / "o"
        args = {"eval": ["--timelines", str(workspace / "timelines")],
                "report": ["--inputs", str(evaluated / "report.csv")]}[command]
        assert main([command, *args, "--out", str(out)]) == 3
        names = [p.name for p in out.iterdir()]
        assert failing not in names
        assert not [n for n in names if n.startswith(".")]


class TestReportCommand:
    def test_adversarial_full_beats_noqc_in_report(self, tmp_path):
        cohort = tmp_path / "advers"
        assert main(["phantom", "--out", str(cohort), "--per-class", "1",
                     "--seed", "11", "--duration", "8", "--profile", "adversarial"]) == 0
        model = tmp_path / "model.json"
        assert main(["train-cls", "--stills", "12", "--seed", "1", "--out", str(model)]) == 0
        csvs = []
        for variant in ("full", "no-qc"):
            timelines = tmp_path / f"tl-{variant}"
            assert main(["run", "--videos", str(cohort), "--out", str(timelines),
                         "--segmenter", "oracle", "--classifier", "centroid",
                         "--model", str(model), "--variant", variant]) == 0
            eval_dir = tmp_path / f"eval-{variant}"
            assert main(["eval", "--timelines", str(timelines),
                         "--truth", str(cohort), "--out", str(eval_dir)]) == 0
            csvs.append(str(eval_dir / "report.csv"))
        merged = tmp_path / "merged"
        assert main(["report", "--inputs", *csvs, "--out", str(merged)]) == 0
        text = (merged / "combined.txt").read_text("utf-8")
        scores = {}
        for line in text.splitlines():
            fields = line.split()
            if fields and fields[0] in ("full", "no-qc"):
                scores[fields[0]] = float(fields[1])
        assert scores["full"] >= scores["no-qc"]

    def test_merges_variant_csvs(self, workspace, tmp_path):
        eval_full = tmp_path / "eval-full"
        assert main(["eval", "--timelines", str(workspace / "timelines"),
                     "--truth", str(workspace / "cohort"), "--out", str(eval_full)]) == 0
        noqc_dir = tmp_path / "tl-noqc"
        assert main(["run", "--videos", str(workspace / "cohort"), "--out", str(noqc_dir),
                     "--classifier", "centroid", "--model", str(workspace / "model.json"),
                     "--variant", "no-qc"]) == 0
        eval_noqc = tmp_path / "eval-noqc"
        assert main(["eval", "--timelines", str(noqc_dir),
                     "--truth", str(workspace / "cohort"), "--out", str(eval_noqc)]) == 0
        merged = tmp_path / "merged"
        assert main(["report", "--inputs", str(eval_full / "report.csv"),
                     str(eval_noqc / "report.csv"), "--out", str(merged)]) == 0
        combined = (merged / "combined.csv").read_text("utf-8").strip().splitlines()
        assert len(combined) == 11  # header + 2 variants x 5 classes
        text = (merged / "combined.txt").read_text("utf-8")
        assert "full" in text and "no-qc" in text

    @pytest.mark.parametrize("line, old, new", [
        (1, "f1", "f-one"),                                # header
        (3, ",74.60", ""),                                 # one field short
        (3, ",85.00,80.00,90.00,70.00,74.60", ""),         # no metric fields
        (3, "74.60", "74.60,1.00"),                        # one field too many
        (2, "full,Ia,85.00,80.00,90.00,70.00,74.60", ""),  # blank line
        (3, "full", "no-gate"),                            # unknown variant
        (4, "80.00", "abc"),                               # not a number
        (4, "74.60", "nan"),                               # not finite
        (6, "90.00", "inf"),
        (3, "IIb", "Xb"),                                  # unknown class
        (3, "IIb", "Ia"),                                  # class given twice
    ])
    def test_bad_metrics_csv_is_data_error_naming_line(self, tmp_path, capsys, line, old, new):
        from lithovid.evaluate import ClassMetrics, metrics_csv
        from lithovid.pipeline import Variant

        m = ClassMetrics(sensitivity=0.8, specificity=0.9, precision=0.7,
                         balanced_accuracy=0.85, f1=0.746)
        lines = metrics_csv({Variant.FULL: {c: m for c in CANONICAL_ORDER}}).splitlines()
        assert old in lines[line - 1]
        lines[line - 1] = lines[line - 1].replace(old, new)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n", "utf-8")
        code = main(["report", "--inputs", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}:{line}: ")
        assert not (tmp_path / "o").exists()

    def test_variant_and_class_in_two_inputs_is_data_error_naming_both(self, workspace,
                                                                      tmp_path, capsys):
        evaluated = tmp_path / "ev"
        assert main(["eval", "--timelines", str(workspace / "timelines"),
                     "--out", str(evaluated)]) == 0
        csv = evaluated / "report.csv"  # it used to merge into 10 class rows
        out = tmp_path / "o"
        assert main(["report", "--inputs", str(csv), str(csv), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {csv}:2: variant full class Ia is also at {csv}:2"]
        assert not out.exists()

    def test_variant_without_every_class_is_data_error(self, tmp_path, capsys):
        from lithovid.evaluate import ClassMetrics, metrics_csv
        from lithovid.pipeline import Variant

        m = ClassMetrics(sensitivity=0.8, specificity=0.9, precision=0.7,
                         balanced_accuracy=0.85, f1=0.746)
        lines = metrics_csv({Variant.FULL: {c: m for c in CANONICAL_ORDER},
                             Variant.NO_QC: {c: m for c in CANONICAL_ORDER}}).splitlines()
        bad = tmp_path / "bad.csv"
        kept = [line for line in lines if not line.startswith("no-qc,IIb,")]
        bad.write_text("\n".join(kept) + "\n", "utf-8")
        out = tmp_path / "o"
        assert main(["report", "--inputs", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {bad}: variant no-qc has no row for class IIb"]
        assert not out.exists()

    @pytest.mark.parametrize("content", [None, b"variant,class\xff\n"])
    def test_unreadable_metrics_file_is_data_error(self, tmp_path, capsys, content):
        path = tmp_path / "metrics.csv"
        if content is not None:
            path.write_bytes(content)
        assert main(["report", "--inputs", str(path), "--out", str(tmp_path / "o")]) == 2
        assert str(path) in capsys.readouterr().err


class TestReportBytes:
    # sha256 of each file at the commit that moved every report format into evaluate
    PINNED = {
        "full/report.csv": "23c8aeee788476ae1b67c74c653eb011d8ca22c783a77a1bd0b4e9f04247d044",
        "full/report.txt": "d075740c65cb141eb18482464376299e97bb2d4a3284ac30f0eaa3c81092f3aa",
        "no-masking/report.csv": "bf633691cc1cbabd7814f55035720fccdc0092356ab4f7120cf9a91a6bd8198d",
        "no-masking/report.txt": "b393c1b338d8c9ef429783896e77257697193c001ceaff314f28b90d87ef054f",
        "no-qc/report.csv": "33e937a667a26836682c5eabc7e2ff0dcf3311e9c6f76e2da693151207ea0c6f",
        "no-qc/report.txt": "3ca3022a466b2658a7cf404a08dea1a06c6e5548e37e5a915b9f14aafb9928ca",
        "combined.csv": "f33cd26537567642d30bf020c9e260dfbcc50fe454adc5889418b993d9702633",
        "combined.txt": "3d66d299bf6bf92b76c459a855882c21ea76743e40206ff279983de4b34527ff",
    }

    def test_eval_and_report_files_are_pinned(self, tmp_path):
        """A seeded adversarial cohort, so that the three variants score differently."""
        cohort = tmp_path / "cohort"
        assert main(["phantom", "--out", str(cohort), "--per-class", "1", "--seed", "5",
                     "--duration", "4", "--profile", "adversarial"]) == 0
        model = tmp_path / "model.json"
        assert main(["train-cls", "--stills", "8", "--seed", "1", "--out", str(model)]) == 0
        inputs = []
        for variant in ("full", "no-masking", "no-qc"):
            timelines, evaluated = tmp_path / f"tl-{variant}", tmp_path / variant
            assert main(["run", "--videos", str(cohort), "--out", str(timelines),
                         "--model", str(model), "--variant", variant]) == 0
            assert main(["eval", "--timelines", str(timelines), "--truth", str(cohort),
                         "--out", str(evaluated)]) == 0
            inputs.append(str(evaluated / "report.csv"))
        assert main(["report", "--inputs", *inputs, "--out", str(tmp_path)]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in self.PINNED}
        assert digests == self.PINNED


class TestExitCodes:
    def test_usage_error(self):
        assert main(["bogus-command"]) == 1

    def test_run_requires_videos(self):
        assert main(["run", "--out", "/tmp/x"]) == 1

    def test_train_cls_takes_no_beta(self, tmp_path, capsys):
        """The softmin's beta is classify.BETA, and a model file holds none."""
        out = tmp_path / "m.json"
        assert main(["train-cls", "--stills", "2", "--beta", "50", "--out", str(out)]) == 1
        assert "--beta" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_video_dir_is_data_error(self, tmp_path):
        model = tmp_path / "m.json"
        assert main(["train-cls", "--stills", "6", "--out", str(model)]) == 0
        assert main(["run", "--videos", str(tmp_path / "absent"), "--out",
                     str(tmp_path / "o"), "--model", str(model)]) == 2

    def test_bad_workers_env(self, workspace, tmp_path):
        os.environ["LITHO_WORKERS"] = "banana"
        try:
            code = main(["run", "--videos", str(workspace / "cohort"),
                         "--out", str(tmp_path / "o"),
                         "--classifier", "centroid",
                         "--model", str(workspace / "model.json")])
        finally:
            del os.environ["LITHO_WORKERS"]
        assert code == 1

    @pytest.mark.parametrize("flag, value", [
        ("--min-dsc", "1.5"), ("--min-dsc", "1.0"), ("--min-dsc", "0"),
        ("--min-coverage", "1.0"), ("--min-coverage", "-0.1"),
    ])
    def test_bad_qc_threshold_is_usage_error(self, workspace, tmp_path, flag, value):
        out = tmp_path / "o"
        code = main(["run", "--videos", str(workspace / "cohort"), "--out", str(out),
                     "--classifier", "centroid", "--model", str(workspace / "model.json"),
                     flag, value])
        assert code == 1
        assert not out.exists()
