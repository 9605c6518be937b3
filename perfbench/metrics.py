"""End-to-end and per-layer metrics from the children's results.

Terms used by the per-layer metrics:

- stream frame: one 8 Hz frame of one video processed in the timed
  region (a video processed again in a later pass counts again);
- video: one sample of the timed region (one `run` invocation, or one
  video through all ablation variants);
- frame, in ``ms_per_frame``: one call of that function, which handles
  one frame.

Per-call figures come from the timed region, except those of layers that
on some workloads only run outside it: ``render_frame`` and
``store_stream`` (cohort set-up on the disk workloads) and
``timeline_to_json`` (serialization after ``run_ablation``). A layer that
does not run on a workload reports 0.
"""

from __future__ import annotations

import statistics
from collections import Counter

from spans import LAYERS

ALL_PHASES = ("setup", "timed", "post")


def frames_per_s(run: dict) -> float:
    return sum(s["frames"] for s in run["samples"]) / run["wall_s"]


def end_to_end(run: dict, setup_times: list[float]) -> dict[str, float]:
    samples = run["samples"]
    times = [s["s"] for s in samples]
    failed = sum(1 for s in samples if s["rc"] != 0 or "error" in s)
    return {
        "frames_per_s": frames_per_s(run),
        "video_s_p50": statistics.median(times),
        "video_s_p90": statistics.quantiles(times, n=10, method="inclusive")[-1],
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": statistics.median(setup_times),
        "completed_frac": 1.0 - failed / len(samples),
    }


class SpanStats:
    """Calls, total time and self time per (phase, span name)."""

    def __init__(self, dumps: list[dict]) -> None:
        self.stats: dict[tuple[str, str], list] = {}
        self.root_s: Counter = Counter()
        self.counts: dict[str, Counter] = {}
        for dump in dumps:
            spans = dump["spans"]
            own = [end - start for _, start, end, _, _, _ in spans]
            for _, start, end, parent, _, _ in spans:
                if parent >= 0:
                    own[parent] -= end - start
            for (name, start, end, parent, _, phase), self_s in zip(spans, own):
                st = self.stats.setdefault((phase, name), [0, 0.0, 0.0])
                st[0] += 1
                st[1] += end - start
                st[2] += self_s
                if parent < 0:
                    self.root_s[phase] += end - start
            for phase, counts in dump["counts"].items():
                self.counts.setdefault(phase, Counter()).update(counts)

    def _sum(self, name: str, field: int, phases) -> float:
        return sum(self.stats.get((p, name), (0, 0.0, 0.0))[field] for p in phases)

    def calls(self, name: str, phases=("timed",)) -> int:
        return self._sum(name, 0, phases)

    def total_s(self, name: str, phases=("timed",)) -> float:
        return self._sum(name, 1, phases)

    def self_s(self, name: str, phases=("timed",)) -> float:
        return self._sum(name, 2, phases)

    def count(self, key: str, phases=("timed",)) -> int:
        return sum(self.counts.get(p, Counter())[key] for p in phases)

    def names(self) -> set[str]:
        """Span names with at least one call, in any phase."""
        return {name for _, name in self.stats}


def _per(x: float, n: float) -> float:
    return x / n if n else 0.0


def per_layer(st: SpanStats, traced: dict, untraced: dict) -> dict[str, float]:
    samples = traced["samples"]
    frames = sum(s["frames"] for s in samples)
    videos = len(samples)
    wall = traced["wall_s"]
    ms = 1000.0

    def ms_per_call(name: str, phases=("timed",)) -> float:
        return _per(st.total_s(name, phases), st.calls(name, phases)) * ms

    checks = st.calls("qc.check_frame")
    quality = traced["quality"]
    m = {
        "video_io.load_stream.ms_per_stream_frame":
            _per(st.total_s("video_io.load_stream"), frames) * ms,
        "video_io.load_stream.native_frames_per_stream_frame":
            _per(st.count("native_frames_read"), frames),
        "video_io.load_stream.mb_read_per_stream_frame":
            _per(st.count("bytes_read"), frames) / 2**20,
        "video_io.normalize_video.ms_per_stream_frame":
            _per(st.total_s("video_io.normalize_video"), frames) * ms,
        "video_io.normalize_video.calls_per_video":
            _per(st.calls("video_io.normalize_video"), videos),
        "segmentation.segment.ms_per_frame": ms_per_call("segmentation.segment"),
        "segmentation.segment.calls_per_stream_frame":
            _per(st.calls("segmentation.segment"), frames),
        "segmentation.distances_sq.ms_per_frame": ms_per_call("segmentation.distances_sq"),
        "segmentation.clean_mask.ms_per_frame": ms_per_call("segmentation.clean_mask"),
        "qc.check_frame.ms_per_frame": ms_per_call("qc.check_frame"),
        "qc.pass_ratio": _per(st.count("qc.Pass"), checks),
        "qc.rejected_coverage_ratio": _per(st.count("qc.RejectedCoverage"), checks),
        "qc.rejected_instability_ratio": _per(st.count("qc.RejectedInstability"), checks),
        "qc.rejected_no_reference_ratio": _per(st.count("qc.RejectedNoReference"), checks),
        "classify.features.ms_per_call": ms_per_call("classify.features"),
        "classify.features.calls_per_stream_frame": _per(st.calls("classify.features"), frames),
        "classify.predict.self_ms_per_call":
            _per(st.self_s("classify.predict"), st.calls("classify.predict")) * ms,
        "classify.model_load.calls_per_video": _per(st.calls("classify.model_load"), videos),
        "classify.model_load.ms_per_video":
            _per(st.total_s("classify.model_load"), videos) * ms,
        "phantom.render_frame.ms_per_frame": ms_per_call("phantom.render_frame", ALL_PHASES),
        "phantom.render_frame.calls_per_stream_frame":
            _per(st.calls("phantom.render_frame"), frames),
        "video_io.store_stream.ms_per_frame":
            _per(st.total_s("video_io.store_stream", ALL_PHASES),
                 st.count("frames_stored", ALL_PHASES)) * ms,
        "decision.decide.ms_per_video": _per(st.total_s("decision.decide"), videos) * ms,
        "pipeline.run_timeline.self_ms_per_frame":
            _per(st.self_s("pipeline.run_timeline"), st.count("run_timeline_frames")) * ms,
        "evaluate.timeline_to_json.ms_per_video":
            ms_per_call("evaluate.timeline_to_json", ALL_PHASES),
        "evaluate.timeline_to_json.kb_per_video":
            _per(st.count("timeline_json_bytes", ALL_PHASES),
                 st.calls("evaluate.timeline_to_json", ALL_PHASES)) / 1024,
        "evaluate.run_ablation.self_s":
            _per(st.self_s("evaluate.run_ablation"), st.calls("evaluate.run_ablation")),
        "cli.run.self_ms_per_video": _per(st.self_s("cli.run"), videos) * ms,
        "cli.eval.s": _per(st.total_s("cli.eval"), st.calls("cli.eval")),
        "evaluate.balanced_accuracy_pct": quality["full"],
        "evaluate.ablation_gap_pts": quality["full"] - quality["no-qc"],
        "trace.unattributed_frac": 1.0 - st.root_s["timed"] / wall,
        "trace.overhead_frac": 1.0 - frames_per_s(traced) / frames_per_s(untraced),
    }
    for layer in LAYERS:
        own = sum(st.self_s(name) for (phase, name) in st.stats
                  if phase == "timed" and name.split(".")[0] == layer)
        m[f"layer.{layer}.self_frac"] = own / wall
    return m
