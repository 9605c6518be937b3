"""Whole-video decision from the per-frame label census.

Three tiers: (1) a strict majority class wins outright; (2) otherwise a
mixed type is marked when the pooled count of its pure components plus
itself exceeds half the list; (3) otherwise the most represented class
wins. Ties resolve by canonical class order at every tier.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

from .core import CANONICAL_ORDER, DecisionPath, MorphClass, argmax_scores
from .errors import LithovidError


@dataclass(frozen=True)
class LabelCensus:
    """Counts of per-frame predicted labels over one video."""

    counts: Mapping[MorphClass, int]

    def __post_init__(self) -> None:
        full = {c: 0 for c in CANONICAL_ORDER}
        for c, n in self.counts.items():
            if n < 0:
                raise LithovidError(f"negative count for {c.tag}")
            full[c] = int(n)
        if sum(full.values()) < 1:
            raise LithovidError("census must count at least one label")
        object.__setattr__(self, "counts", full)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @classmethod
    def from_labels(cls, labels: Iterable[MorphClass]) -> "LabelCensus":
        counts = Counter(labels)
        if not counts:
            raise LithovidError("no labels to aggregate")
        return cls(counts=counts)


def decide(census: LabelCensus) -> tuple[MorphClass, DecisionPath]:
    """Collapse a census into the final class; integer arithmetic only."""
    counts = census.counts
    total = census.total

    top = argmax_scores(counts)
    if 2 * counts[top] > total:
        return top, DecisionPath.MAJORITY

    pools = {m: counts[m] + sum(counts[c] for c in m.components)
             for m in CANONICAL_ORDER if m.is_mixed}
    mixed = argmax_scores(pools)
    if 2 * pools[mixed] > total:
        return mixed, DecisionPath.MIXED_UNION
    return top, DecisionPath.FALLBACK


def decide_labels(labels: Iterable[MorphClass]) -> tuple[MorphClass, DecisionPath]:
    """Convenience: build the census from a label list and decide."""
    return decide(LabelCensus.from_labels(labels))
