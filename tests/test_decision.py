"""Decision-rule tests against an independent brute-force oracle.

The oracle re-implements the three aggregation tiers naively over the
expanded label list, with no shared code beyond the class enum.
"""

import itertools

import numpy as np
import pytest

from lithovid.core import CANONICAL_ORDER, DecisionPath, MorphClass
from lithovid.decision import LabelCensus, decide, decide_labels
from lithovid.errors import LithovidError, ValidationError

IA, IIB, IIIB, IAIIB, IAIIIB = CANONICAL_ORDER


def oracle(labels):
    """Naive re-reading of the aggregation rules over a label list."""
    n = len(labels)
    for c in CANONICAL_ORDER:
        if labels.count(c) * 2 > n:
            return c, "Majority"
    hits = []
    for mixed, members in (
        (IAIIB, (IA, IIB, IAIIB)),
        (IAIIIB, (IA, IIIB, IAIIIB)),
    ):
        pooled = len([l for l in labels if l in members])
        if pooled * 2 > n:
            hits.append((pooled, mixed.rank, mixed))
    if hits:
        hits.sort(key=lambda h: (-h[0], h[1]))
        return hits[0][2], "MixedUnion"
    best = sorted(CANONICAL_ORDER, key=lambda c: (-labels.count(c), c.rank))[0]
    return best, "Fallback"


def census_of(**counts):
    return LabelCensus(counts={MorphClass.from_tag(k): v for k, v in counts.items()})


def expand(census):
    labels = []
    for c in CANONICAL_ORDER:
        labels.extend([c] * census.counts[c])
    return labels


class TestWorkedExamples:
    def test_simple_majority(self):
        assert decide(census_of(Ia=6, IIb=4)) == (IA, DecisionPath.MAJORITY)

    def test_union_fires_when_no_majority(self):
        c = census_of(Ia=3, IIb=3, IaIIb=2, IIIb=2)
        assert decide(c) == (IAIIB, DecisionPath.MIXED_UNION)

    def test_both_unions_exceed_tie_goes_canonical(self):
        # u_b = 1+2+0 = 3 > 2.5 and u_c = 1+2+0 = 3 > 2.5: exact tie
        c = census_of(IIb=2, IIIb=2, Ia=1)
        assert decide(c) == (IAIIB, DecisionPath.MIXED_UNION)

    def test_single_union_exceeds(self):
        c = census_of(IIIb=2, IIb=2, IaIIb=1)
        assert decide(c) == (IAIIB, DecisionPath.MIXED_UNION)

    def test_fallback_tie_canonical(self):
        c = census_of(IIb=1, IIIb=1)
        assert decide(c) == (IIB, DecisionPath.FALLBACK)

    def test_unanimous_is_majority(self):
        for c in CANONICAL_ORDER:
            assert decide(census_of(**{c.tag: 7})) == (c, DecisionPath.MAJORITY)


class TestCensus:
    def test_empty_list_raises(self):
        with pytest.raises(LithovidError, match="^no labels to aggregate$"):
            LabelCensus.from_labels([])
        with pytest.raises(ValidationError):
            LabelCensus(counts={})

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError):
            LabelCensus(counts={IA: -1, IIB: 3})

    def test_from_labels_counts(self):
        census = LabelCensus.from_labels([IA, IA, IIIB])
        assert census.counts[IA] == 2
        assert census.counts[IIIB] == 1
        assert census.total == 3


class TestOracleEquivalence:
    def test_exhaustive_small_censuses(self):
        checked = 0
        exactly_eight = 0
        for counts in itertools.product(range(9), repeat=5):
            total = sum(counts)
            if not 1 <= total <= 8:
                continue
            census = LabelCensus(counts=dict(zip(CANONICAL_ORDER, counts)))
            got_class, got_path = decide(census)
            want_class, want_path = oracle(expand(census))
            assert got_class is want_class, census.counts
            assert got_path.value == want_path, census.counts
            checked += 1
            exactly_eight += total == 8
        assert exactly_eight == 495  # multisets of size 8 over 5 classes
        assert checked >= 495

    def test_random_censuses(self):
        rng = np.random.Generator(np.random.Philox(key=[7, 11]))
        for _ in range(2000):
            total = int(rng.integers(1, 1001))
            cuts = np.sort(rng.integers(0, total + 1, size=4))
            counts = np.diff(np.concatenate([[0], cuts, [total]]))
            census = LabelCensus(counts=dict(zip(CANONICAL_ORDER, map(int, counts))))
            got = decide(census)
            want_class, want_path = oracle(expand(census))
            assert got[0] is want_class
            assert got[1].value == want_path

    def test_scale_invariance(self):
        rng = np.random.Generator(np.random.Philox(key=[3, 5]))
        for _ in range(300):
            counts = [int(x) for x in rng.integers(0, 6, size=5)]
            if sum(counts) == 0:
                counts[0] = 1
            base = LabelCensus(counts=dict(zip(CANONICAL_ORDER, counts)))
            for k in (2, 3, 10):
                scaled = LabelCensus(
                    counts={c: n * k for c, n in base.counts.items()}
                )
                assert decide(scaled) == decide(base)


def test_decide_labels_convenience():
    assert decide_labels([IA, IA, IIB]) == (IA, DecisionPath.MAJORITY)
    with pytest.raises(LithovidError, match="^no labels to aggregate$"):
        decide_labels([])
