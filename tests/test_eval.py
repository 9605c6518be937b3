import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lithovid.core import (
    CANONICAL_ORDER,
    MorphClass,
    PredictionRecord,
    QcTag,
    QcVerdict,
    VideoTimeline,
)
from lithovid.decision import decide_labels
from lithovid.errors import LithovidError, ValidationError
from lithovid.evaluate import (
    ClassMetrics,
    METRIC_NAMES,
    MeanStd,
    class_metrics,
    framewise_analysis,
    metrics_csv,
    overall_scores,
    qc_pass_stats,
    round_half_up_percent,
    run_ablation,
    sample_std,
    summary_text,
    timeline_from_json,
    timeline_to_json,
)
from lithovid.pipeline import Variant

IA, IIB, IIIB, IAIIB, IAIIIB = CANONICAL_ORDER


def pairs_from_counts(tp, fn, fp, tn):
    """(truth, decision) pairs whose one-vs-rest counts for Ia are tp, fn, fp, tn."""
    return [(IA, IA)] * tp + [(IA, IIB)] * fn + [(IIB, IA)] * fp + [(IIB, IIB)] * tn


def timeline_with_labels(video_id, labels, rejected_extra=0):
    records = []
    idx = 0
    for _ in range(rejected_extra):
        records.append(PredictionRecord.rejected(idx, QcVerdict(QcTag.REJECTED_COVERAGE)))
        idx += 1
    for label in labels:
        scores = {c: 0.0 for c in CANONICAL_ORDER}
        scores[label] = 1.0
        records.append(PredictionRecord.passing(idx, scores, dsc=0.99))
        idx += 1
    decision = None
    path = None
    if labels:
        decision, path = decide_labels(labels)
    return VideoTimeline(
        video_id=video_id, records=tuple(records), decision=decision, decision_path=path
    )


class TestClassMetrics:
    def test_balanced_accuracy_is_mean_of_sens_spec(self):
        # sensitivity 0.85 (17/20), specificity 0.95 (57/60)
        t = pairs_from_counts(tp=17, fn=3, fp=3, tn=57)
        m = class_metrics(t, IA)
        assert m.sensitivity == pytest.approx(0.85)
        assert m.specificity == pytest.approx(0.95)
        assert m.balanced_accuracy == pytest.approx(0.90)

    def test_f1_from_precision_and_sensitivity(self):
        m = ClassMetrics(
            sensitivity=0.85, specificity=0.95, precision=0.92,
            balanced_accuracy=0.90, f1=2 * 0.92 * 0.85 / (0.92 + 0.85),
        )
        assert round_half_up_percent(m.f1) == 88

    def test_perfect_classifier(self):
        t = pairs_from_counts(tp=10, fn=0, fp=0, tn=40)
        m = class_metrics(t, IA)
        for name in ("sensitivity", "specificity", "precision", "balanced_accuracy", "f1"):
            assert getattr(m, name) == 1.0

    def test_no_positives_raises(self):
        pairs = [(IA, IA), (IIIB, IIIB), (IAIIB, IA), (IAIIIB, None)]
        with pytest.raises(LithovidError, match="^no videos of class IIb in the cohort$"):
            class_metrics(pairs, IIB)

    def test_zero_precision_and_f1_when_never_predicted(self):
        t = pairs_from_counts(tp=0, fn=5, fp=0, tn=45)
        m = class_metrics(t, IA)
        assert m.precision == 0.0
        assert m.f1 == 0.0
        assert m.balanced_accuracy == 0.5

    @given(
        tp=st.integers(0, 30), fn=st.integers(0, 30),
        fp=st.integers(0, 30), tn=st.integers(0, 30),
    )
    @settings(max_examples=200, deadline=None)
    def test_balanced_accuracy_identity(self, tp, fn, fp, tn):
        if tp + fn == 0:
            return
        m = class_metrics(pairs_from_counts(tp, fn, fp, tn), IA)
        assert m.balanced_accuracy == (m.sensitivity + m.specificity) / 2.0
        if m.precision + m.sensitivity > 0:
            expected = 2 * m.precision * m.sensitivity / (m.precision + m.sensitivity)
            assert m.f1 == pytest.approx(expected, abs=1e-15)

    def test_tally_pairs_with_missing_decision(self):
        pairs = [(IA, IA), (IA, None), (IIB, IIB), (IIIB, IA), (IAIIB, IAIIB), (IAIIIB, IAIIIB)]
        # tp, fn, fp, tn = 1, 1, 1, 3: the missing decision is a false negative
        assert class_metrics(pairs, IA) == class_metrics(pairs_from_counts(1, 1, 1, 3), IA)
        assert class_metrics(pairs, IA) == ClassMetrics(0.625, 0.5, 0.75, 0.5, 0.5)

    def test_fields_are_the_report_columns(self):
        assert METRIC_NAMES == ClassMetrics._fields
        assert METRIC_NAMES == ("balanced_accuracy", "sensitivity", "specificity", "precision",
                                "f1")


class TestOverallScores:
    @staticmethod
    def metrics_with(name, values):
        out = {}
        for c, v in zip(CANONICAL_ORDER, values):
            fields = dict(sensitivity=0.5, specificity=0.5, precision=0.5,
                          balanced_accuracy=0.5, f1=0.5)
            fields[name] = v / 100.0
            out[c] = ClassMetrics(**fields)
        return out

    def test_sensitivity_dispersion(self):
        overall = overall_scores(self.metrics_with("sensitivity", [85, 75, 100, 69, 71]))
        assert overall["sensitivity"].rounded == (80, 13)

    def test_balanced_accuracy_dispersion(self):
        overall = overall_scores(self.metrics_with("balanced_accuracy", [90, 86, 96, 81, 85]))
        assert overall["balanced_accuracy"].rounded == (88, 6)

    def test_identical_values_zero_std(self):
        overall = overall_scores(self.metrics_with("f1", [70, 70, 70, 70, 70]))
        assert overall["f1"].rounded == (70, 0)

    def test_requires_all_classes(self):
        partial = self.metrics_with("f1", [1, 2, 3, 4, 5])
        del partial[IA]
        with pytest.raises(ValidationError):
            overall_scores(partial)

    def test_sample_std_divisor(self):
        assert sample_std([85, 75, 100, 69, 71]) == pytest.approx(12.767, abs=1e-3)
        assert sample_std([5.0]) == 0.0

    def test_round_half_up(self):
        assert round_half_up_percent(0.875) == 88
        assert round_half_up_percent(0.855) == 86
        assert round_half_up_percent(0.645) == 65  # halves go up, not to even


class TestFramewise:
    def test_single_video_all_one_class(self):
        tl = timeline_with_labels("v", [IA] * 10)
        out = framewise_analysis({IA: [tl]})
        assert out[IA][IA].mean == 1.0
        assert all(out[IA][c].mean == 0.0 for c in CANONICAL_ORDER if c is not IA)

    def test_two_video_mean(self):
        tl1 = timeline_with_labels("a", [IA] * 6 + [IIB] * 4)
        tl2 = timeline_with_labels("b", [IA] * 8 + [IIB] * 2)
        out = framewise_analysis({IA: [tl1, tl2]})
        assert out[IA][IA].mean == pytest.approx(0.7)
        assert out[IA][IIB].mean == pytest.approx(0.3)

    def test_fractions_sum_to_one_per_group(self):
        tl = timeline_with_labels("a", [IA, IIB, IIIB, IAIIB, IAIIB])
        out = framewise_analysis({IA: [tl]})
        assert sum(out[IA][c].mean for c in CANONICAL_ORDER) == pytest.approx(1.0)

    def test_empty_group_raises(self):
        with pytest.raises(LithovidError, match="^no timelines in group Ia$"):
            framewise_analysis({IA: []})


class TestQcPassStats:
    def test_counting(self):
        tl = timeline_with_labels("v", [IA] * 79, rejected_extra=1)
        stats = qc_pass_stats([tl])
        assert stats.mean == pytest.approx(79 / 80)
        assert stats.std == 0.0

    def test_all_rejected_gives_zero(self):
        records = tuple(
            PredictionRecord.rejected(i, QcVerdict(QcTag.REJECTED_COVERAGE))
            for i in range(10)
        )
        tl = VideoTimeline(video_id="v", records=records)
        assert qc_pass_stats([tl]).mean == 0.0


@st.composite
def timelines(draw):
    """Any valid timeline: rejected and passing records, scores summing to one."""
    records = []
    for index in range(draw(st.integers(0, 6))):
        tag = draw(st.sampled_from(QcTag))
        if tag is QcTag.PASS:
            weights = draw(st.lists(st.floats(0, 1, allow_subnormal=False), min_size=5, max_size=5))
            total = sum(weights)
            scores = {c: (w / total if total else 0.2) for c, w in zip(CANONICAL_ORDER, weights)}
            dsc = draw(st.none() | st.floats(0, 1))
            records.append(PredictionRecord.passing(index, scores, dsc=dsc))
        else:
            dsc = draw(st.floats(0, 1)) if tag is QcTag.REJECTED_INSTABILITY else None
            records.append(PredictionRecord.rejected(index, QcVerdict(tag, dsc=dsc)))
    labels = [r.label for r in records if r.qc.passed]
    decision, path = decide_labels(labels) if labels else (None, None)
    return VideoTimeline(draw(st.text()), tuple(records), decision, path)


class TestTimelineJson:
    def test_round_trip_bytes(self, small_model, oracle_factory):
        from lithovid.phantom import clean_spec, generate_phantom
        from lithovid.pipeline import run_raw_video

        video, _, _ = generate_phantom(clean_spec(3, IAIIB, 2.0))
        tl = run_raw_video(video, oracle_factory, small_model)[Variant.FULL]
        text = timeline_to_json(tl, truth_label=IAIIB, variant=Variant.FULL)
        back, truth, variant = timeline_from_json(text)
        assert truth is IAIIB
        assert variant is Variant.FULL
        assert timeline_to_json(back, truth_label=truth, variant=variant) == text

    @given(timeline=timelines(), truth=st.none() | st.sampled_from(MorphClass),
           variant=st.none() | st.sampled_from(Variant))
    @settings(max_examples=200, deadline=None)
    def test_any_timeline_round_trips_to_the_same_bytes(self, timeline, truth, variant):
        text = timeline_to_json(timeline, truth_label=truth, variant=variant)
        back, back_truth, back_variant = timeline_from_json(text)
        assert (back_truth, back_variant) == (truth, variant)
        assert timeline_to_json(back, truth_label=back_truth, variant=back_variant) == text

    @pytest.mark.parametrize("slot", ["Ia", "IaIIIb"])
    def test_nan_score_in_json_rejected(self, slot):
        payload = json.loads(timeline_to_json(timeline_with_labels("v", [IA, IA])))
        payload["records"][1]["scores"][slot] = float("nan")  # dumped as the literal NaN
        with pytest.raises(ValidationError, match=f"non-finite score nan for {slot}$"):
            timeline_from_json(json.dumps(payload))

    def test_nan_from_classifier_stops_run_timeline(self, oracle_factory):
        from lithovid.phantom import clean_spec, generate_phantom
        from lithovid.pipeline import run_raw_video

        class NanClassifier:
            def predict(self, frame, mask):
                return {c: (float("nan") if c is IIB else 0.25) for c in CANONICAL_ORDER}

        video, _, _ = generate_phantom(clean_spec(3, IA, 1.0))
        for variants in [(Variant.FULL,), (Variant.NO_QC,), tuple(Variant)]:
            with pytest.raises(ValidationError, match="non-finite score nan for IIb$"):
                run_raw_video(video, oracle_factory, NanClassifier(), variants=variants)

    @pytest.mark.parametrize("labels, field, value", [
        ([IIB] * 3, "decision", "Ia"),
        ([IIB] * 3, "decision_path", "Fallback"),
        ([IIB] * 3, "census", {"Ia": 0, "IIb": 2, "IIIb": 1, "IaIIb": 0, "IaIIIb": 0}),
        ([IIB] * 3, "census", None),
        ([], "census", {"Ia": 0, "IIb": 0, "IIIb": 0, "IaIIb": 0, "IaIIIb": 0}),
    ])
    def test_decision_or_census_disagreeing_with_records_rejected(self, labels, field, value):
        payload = json.loads(timeline_to_json(timeline_with_labels("v", labels, rejected_extra=1)))
        payload[field] = value
        with pytest.raises(ValidationError, match="decision"):
            timeline_from_json(json.dumps(payload))

    def test_census_matches_labels(self):
        tl = timeline_with_labels("v", [IA, IA, IIB])
        payload = json.loads(timeline_to_json(tl))
        assert payload["census"] == {"Ia": 2, "IIb": 1, "IIIb": 0, "IaIIb": 0, "IaIIIb": 0}
        assert payload["decision"] == "Ia"
        assert payload["decision_path"] == "Majority"


class TestReports:
    def blocks(self):
        per_class = {
            c: ClassMetrics(
                sensitivity=0.8, specificity=0.9, precision=0.7,
                balanced_accuracy=0.85, f1=0.746,
            )
            for c in CANONICAL_ORDER
        }
        return {Variant.FULL: per_class}

    def test_csv_layout(self):
        text = metrics_csv(self.blocks())
        lines = text.strip().splitlines()
        assert lines[0] == "variant,class,balanced_accuracy,sensitivity,specificity,precision,f1"
        assert len(lines) == 6
        assert lines[1].startswith("full,Ia,85.00,80.00,90.00,70.00,74.60")

    def test_summary_contains_mean_std(self):
        per_class = self.blocks()[Variant.FULL]
        text = summary_text(Variant.FULL, per_class, overall_scores(per_class),
                            MeanStd(mean=0.625, std=0.125))
        assert "variant: full" in text
        assert "85 +- 0" in text
        assert "qc pass fraction       63 +- 13 %" in text


class TestPhantomCohortStatistics:
    def test_framewise_clean_ia_cohort(self, small_model, oracle_factory):
        from lithovid.phantom import clean_spec, generate_phantom
        from lithovid.pipeline import run_raw_video

        timelines = []
        for i in range(20):
            video, _, _ = generate_phantom(clean_spec(7000 + i, IA, 5.0))
            timelines.append(run_raw_video(video, oracle_factory, small_model)[Variant.FULL])
        out = framewise_analysis({IA: timelines})
        assert out[IA][IA].mean >= 0.9

    def test_adversarial_pass_rate_below_clean(self, small_model, oracle_factory):
        from lithovid.phantom import adversarial_spec, clean_spec, generate_phantom
        from lithovid.pipeline import run_raw_video

        clean, advers = [], []
        for i in range(3):
            video, _, _ = generate_phantom(clean_spec(8100 + i, IIB, 6.0))
            clean.append(run_raw_video(video, oracle_factory, small_model)[Variant.FULL])
            video, _, _ = generate_phantom(adversarial_spec(8100 + i, IIB, 6.0))
            advers.append(run_raw_video(video, oracle_factory, small_model)[Variant.FULL])
        assert qc_pass_stats(advers).mean < qc_pass_stats(clean).mean


class TestAblationSmoke:
    def test_noqc_misclassifies_stone_free_dominated_phantoms(self, small_model, oracle_factory):
        from lithovid.phantom import adversarial_spec, generate_phantom

        def cohort():
            for label in CANONICAL_ORDER:
                video, _, _ = generate_phantom(adversarial_spec(600 + label.rank, label, 8.0))
                yield video, label

        results = run_ablation(cohort(), oracle_factory, small_model)
        noqc = results[Variant.NO_QC]
        wrong = sum(1 for tl, t in zip(noqc.timelines, noqc.truths) if tl.decision is not t)
        assert wrong >= 1
        full_ba = results[Variant.FULL].overall["balanced_accuracy"].mean
        noqc_ba = noqc.overall["balanced_accuracy"].mean
        assert full_ba > noqc_ba

    def test_full_variant_invariant_to_background_repaint(self, small_model):
        # masked features ignore repainted background by construction
        from lithovid.phantom import clean_spec, generate_phantom
        from lithovid.pipeline import run_raw_video
        from lithovid.segmentation import OracleSegmenter
        from lithovid.video_io import RawVideo

        video, masks, label = generate_phantom(clean_spec(8, IIB, 1.5))
        recolored_frames = []
        for frame, mask in zip(video.frames, masks):
            px = frame.copy()
            px[~mask.bits] = (20, 200, 20)
            recolored_frames.append(px)
        recolored = RawVideo(
            video_id="r", native_fps=video.native_fps, frames=tuple(recolored_frames),
            truth_masks=video.truth_masks, truth_label=label,
        )

        def factory(frames, truths):
            return OracleSegmenter.from_masks(truths)

        a = run_raw_video(video, factory, small_model)[Variant.FULL]
        b = run_raw_video(recolored, factory, small_model)[Variant.FULL]
        assert [r.label for r in a.records if r.qc.passed] == [
            r.label for r in b.records if r.qc.passed
        ]


def reference_timeline(video_id, frames, segmenter, classifier, variant):
    """One variant on its own, as separate per-variant loops compute it."""
    from lithovid.decision import LabelCensus, decide
    from lithovid.pipeline import FULL_FRAME_MASK
    from lithovid.qc import check_frame

    records = []
    previous = None
    for frame in frames:
        if variant is Variant.NO_QC:
            scores = classifier.predict(frame, FULL_FRAME_MASK)
            records.append(PredictionRecord.passing(frame.stream_index, scores))
            continue
        mask = segmenter.segment(frame)
        verdict = check_frame(mask, previous)
        previous = mask
        if not verdict.passed:
            records.append(PredictionRecord.rejected(frame.stream_index, verdict))
            continue
        scores = classifier.predict(frame, mask if variant is Variant.FULL else FULL_FRAME_MASK)
        records.append(PredictionRecord.passing(frame.stream_index, scores, dsc=verdict.dsc))
    labels = [r.label for r in records if r.qc.passed]
    decision, path = decide(LabelCensus.from_labels(labels)) if labels else (None, None)
    return VideoTimeline(video_id, tuple(records), decision=decision, decision_path=path)


class CountingClassifier:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def predict(self, frame, mask):
        self.calls += 1
        return self.inner.predict(frame, mask)


def adversarial_video(seed, label, seconds):
    from lithovid.phantom import adversarial_spec, generate_phantom

    video, _, _ = generate_phantom(adversarial_spec(seed, label, seconds))
    return video


class TestOnePassVariants:
    def test_any_variant_set_matches_single_variant_runs(self, small_model, oracle_factory):
        from itertools import combinations

        from lithovid.pipeline import run_raw_video
        from lithovid.video_io import normalize_video

        video = adversarial_video(601, IA, 4.0)
        full = run_raw_video(video, oracle_factory, small_model)[Variant.FULL]
        # frames rejected for coverage, instability and no reference, and passing frames
        assert {r.qc.tag for r in full.records} == set(QcTag)

        frames, truths = normalize_video(video)
        segmenter = oracle_factory(frames, truths)
        expected = {
            v: timeline_to_json(
                reference_timeline(video.video_id, frames, segmenter, small_model, v), variant=v
            )
            for v in Variant
        }
        passing = sum(1 for r in full.records if r.qc.passed)
        for size in (1, 2, 3):
            for variants in combinations(list(Variant), size):
                classifier = CountingClassifier(small_model)
                got = run_raw_video(video, oracle_factory, classifier, variants=variants)
                assert list(got) == list(variants)
                for v, tl in got.items():
                    assert timeline_to_json(tl, variant=v) == expected[v], (variants, v)
                # one stone-mask call per passing frame for full, one whole-frame
                # call per frame shared by no-masking (passing frames) and no-qc
                whole = passing if Variant.NO_MASKING in got else 0
                if Variant.NO_QC in got:
                    whole = len(frames)
                stone = passing if Variant.FULL in got else 0
                assert classifier.calls == stone + whole

    def test_ablation_segments_gates_and_classifies_each_frame_once(
        self, small_model, oracle_factory, monkeypatch
    ):
        import lithovid.pipeline as pipeline
        from lithovid.segmentation import OracleSegmenter

        calls = {"normalize": 0, "segment": 0, "check": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(pipeline, "normalize_video",
                            counting("normalize", pipeline.normalize_video))
        monkeypatch.setattr(pipeline, "check_frame", counting("check", pipeline.check_frame))
        monkeypatch.setattr(OracleSegmenter, "segment",
                            counting("segment", OracleSegmenter.segment))
        classifier = CountingClassifier(small_model)
        videos = [(adversarial_video(610 + c.rank, c, 3.0), c) for c in CANONICAL_ORDER]

        results = run_ablation(iter(videos), oracle_factory, classifier)
        full = results[Variant.FULL].timelines
        frames = sum(len(tl.records) for tl in full)
        passing = sum(1 for tl in full for r in tl.records if r.qc.passed)
        assert 0 < passing < frames
        assert calls == {"normalize": len(videos), "segment": frames, "check": frames}
        assert classifier.calls == passing + frames

    def test_no_qc_alone_never_builds_a_segmenter(self, small_model):
        from lithovid.pipeline import run_raw_video

        def factory(frames, truths):
            raise AssertionError("segmenter factory called for no-qc")

        classifier = CountingClassifier(small_model)
        frames = 0
        for c in CANONICAL_ORDER:
            video = adversarial_video(620 + c.rank, c, 2.0)
            results = run_raw_video(video, factory, classifier, variants=(Variant.NO_QC,))
            assert list(results) == [Variant.NO_QC]
            frames += len(results[Variant.NO_QC].records)
        assert classifier.calls == frames
