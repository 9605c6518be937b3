import numpy as np
import pytest

from lithovid.core import (
    CANONICAL_ORDER,
    FrameGrid,
    MorphClass,
    PredictionRecord,
    QcTag,
    QcVerdict,
    StoneMask,
    VideoTimeline,
    argmax_scores,
)
from lithovid.errors import ValidationError


def uniform_scores():
    return {c: 0.2 for c in CANONICAL_ORDER}


class TestMorphClass:
    def test_exactly_five_values(self):
        assert len(MorphClass) == 5
        assert len(CANONICAL_ORDER) == 5

    def test_components(self):
        pure = {MorphClass.IA, MorphClass.IIB, MorphClass.IIIB}
        for c in MorphClass:
            assert c.components <= pure
            assert len(c.components) == (2 if c.is_mixed else 1)
        assert MorphClass.IA in MorphClass.IA_IIB.components
        assert MorphClass.IA in MorphClass.IA_IIIB.components
        assert MorphClass.IIB in MorphClass.IA_IIB.components
        assert MorphClass.IIIB in MorphClass.IA_IIIB.components

    def test_classes_have_no_order_of_their_own(self):
        with pytest.raises(TypeError):
            sorted(CANONICAL_ORDER)  # order by .rank

    @pytest.mark.parametrize("other", [0, "Ia", None, 0.5])
    def test_comparison_with_other_types_raises(self, other):
        for compare in (
            lambda: MorphClass.IA < other,
            lambda: MorphClass.IA <= other,
            lambda: MorphClass.IA > other,
            lambda: MorphClass.IA >= other,
            lambda: other < MorphClass.IA,
            lambda: other >= MorphClass.IA,
        ):
            with pytest.raises(TypeError):
                compare()

    def test_tag_round_trip(self):
        for c in MorphClass:
            assert MorphClass.from_tag(c.tag) is c
        with pytest.raises(ValidationError):
            MorphClass.from_tag("IVa")

    def test_display_names(self):
        assert MorphClass.IA.display == "Ia"
        assert MorphClass.IA_IIB.display == "Ia+IIb"
        assert MorphClass.IA_IIIB.display == "Ia+IIIb"


class TestFrameGrid:
    def test_rejects_wrong_shape(self):
        with pytest.raises(ValidationError):
            FrameGrid(np.zeros((128, 256, 3), dtype=np.uint8))
        with pytest.raises(ValidationError):
            FrameGrid(np.zeros((256, 256, 3), dtype=np.float32))

    def test_immutable(self):
        f = FrameGrid(np.zeros((256, 256, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            f.pixels[0, 0, 0] = 1


class TestStoneMask:
    def test_coverage(self):
        bits = np.zeros((16, 16), dtype=bool)
        assert StoneMask(bits).coverage == 0.0
        assert StoneMask(bits).empty
        bits[:8] = True
        m = StoneMask(bits)
        assert m.coverage == 0.5
        assert m.count == 128

    def test_rejects_non_binary(self):
        with pytest.raises(ValidationError):
            StoneMask(np.full((4, 4), 3))

    def test_accepts_01_ints(self):
        m = StoneMask(np.eye(4, dtype=np.uint8))
        assert m.count == 4


class TestQcVerdict:
    def test_dsc_presence_rules(self):
        QcVerdict(QcTag.PASS, dsc=0.95)
        QcVerdict(QcTag.PASS)  # stability not evaluated (no-QC runs)
        QcVerdict(QcTag.REJECTED_INSTABILITY, dsc=0.5)
        with pytest.raises(ValidationError):
            QcVerdict(QcTag.REJECTED_INSTABILITY)
        with pytest.raises(ValidationError):
            QcVerdict(QcTag.REJECTED_COVERAGE, dsc=0.5)
        with pytest.raises(ValidationError):
            QcVerdict(QcTag.PASS, dsc=1.5)


class TestPredictionRecord:
    def test_pass_requires_scores_and_label(self):
        with pytest.raises(ValidationError):
            PredictionRecord(0, QcVerdict(QcTag.PASS, dsc=0.95))

    def test_score_sum_tolerance(self):
        bad = dict(uniform_scores())
        bad[MorphClass.IA] = 0.2 + 1e-6
        with pytest.raises(ValidationError):
            PredictionRecord.passing(0, bad)
        ok = dict(uniform_scores())
        ok[MorphClass.IA] = 0.2 + 1e-10
        rec = PredictionRecord.passing(0, ok)
        assert rec.label is MorphClass.IA

    def test_label_must_match_argmax(self):
        scores = {c: 0.1 for c in CANONICAL_ORDER}
        scores[MorphClass.IIIB] = 0.6
        with pytest.raises(ValidationError):
            PredictionRecord(
                0, QcVerdict(QcTag.PASS, dsc=0.95), scores=scores, label=MorphClass.IA
            )

    def test_argmax_tie_breaks_canonically(self):
        scores = {c: 0.0 for c in CANONICAL_ORDER}
        scores[MorphClass.IIIB] = 0.5
        scores[MorphClass.IA_IIB] = 0.5
        assert argmax_scores(scores) is MorphClass.IIIB

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("slot", [MorphClass.IA, MorphClass.IA_IIIB])
    def test_non_finite_score_in_any_slot_rejected(self, bad, slot):
        scores = {c: 0.1 for c in CANONICAL_ORDER}
        scores[MorphClass.IA] = 0.6  # the max slot; IaIIIb is a non-max slot
        scores[slot] = bad
        with pytest.raises(ValidationError, match=f"non-finite score .* for {slot.tag}$"):
            argmax_scores(scores)
        with pytest.raises(ValidationError, match=f"for {slot.tag}$"):
            PredictionRecord.passing(0, scores)

    def test_empty_score_map_rejected(self):
        with pytest.raises(ValidationError, match="empty score map"):
            argmax_scores({})

    def test_rejected_cannot_carry_scores(self):
        with pytest.raises(ValidationError):
            PredictionRecord(
                0,
                QcVerdict(QcTag.REJECTED_COVERAGE),
                scores=uniform_scores(),
                label=MorphClass.IA,
            )

    def test_scores_must_cover_all_classes(self):
        with pytest.raises(ValidationError):
            PredictionRecord.passing(0, {MorphClass.IA: 1.0})


class TestVideoTimeline:
    def test_rejects_gaps_and_duplicates(self):
        recs = [
            PredictionRecord.rejected(0, QcVerdict(QcTag.REJECTED_NO_REFERENCE)),
            PredictionRecord.rejected(2, QcVerdict(QcTag.REJECTED_COVERAGE)),
        ]
        with pytest.raises(ValidationError):
            VideoTimeline(video_id="v", records=tuple(recs))
        recs[1] = PredictionRecord.rejected(0, QcVerdict(QcTag.REJECTED_COVERAGE))
        with pytest.raises(ValidationError):
            VideoTimeline(video_id="v", records=tuple(recs))

    def test_decision_iff_any_pass(self):
        rejected = (
            PredictionRecord.rejected(0, QcVerdict(QcTag.REJECTED_NO_REFERENCE)),
        )
        VideoTimeline(video_id="v", records=rejected)  # no decision: fine
        with pytest.raises(ValidationError):
            VideoTimeline(video_id="v", records=rejected, decision=MorphClass.IA)
        passing = (
            PredictionRecord.rejected(0, QcVerdict(QcTag.REJECTED_NO_REFERENCE)),
            PredictionRecord.passing(1, uniform_scores(), dsc=0.99),
        )
        with pytest.raises(ValidationError):
            VideoTimeline(video_id="v", records=passing)

    def test_pass_fraction(self):
        records = (
            PredictionRecord.rejected(0, QcVerdict(QcTag.REJECTED_NO_REFERENCE)),
            PredictionRecord.passing(1, uniform_scores(), dsc=0.99),
        )
        from lithovid.core import DecisionPath

        tl = VideoTimeline(
            video_id="v",
            records=records,
            decision=MorphClass.IA,
            decision_path=DecisionPath.MAJORITY,
        )
        assert tl.pass_fraction == 0.5
        assert tl.labels == (MorphClass.IA,)
