"""Frame-level quality control.

Two tests gate every frame: the segmented stone must cover more than
min_coverage of the field of view, and the mask must be stable against
the immediately preceding frame's mask (Dice similarity strictly above
min_dsc). The first frame of a stream has no reference and cannot pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import QcTag, QcVerdict, StoneMask
from .errors import ValidationError
from .segmentation import dsc


@dataclass(frozen=True)
class QcConfig:
    """Gate thresholds; both are strict (the value must be exceeded)."""

    min_coverage: float = 0.10
    min_dsc: float = 0.90

    def __post_init__(self) -> None:
        if not 0.0 < self.min_coverage < 1.0:
            raise ValidationError(f"min_coverage {self.min_coverage} outside (0, 1)")
        if not 0.0 < self.min_dsc < 1.0:  # dsc <= 1, so at 1 no frame passes
            raise ValidationError(f"min_dsc {self.min_dsc} outside (0, 1)")


def check_frame(
    current: StoneMask,
    previous: Optional[StoneMask],
    cfg: QcConfig = QcConfig(),
) -> QcVerdict:
    """Gate one frame given its mask and the previous frame's mask.

    The coverage test runs first; the stability test is only evaluated
    (and its dsc reported) once coverage holds and a reference exists.
    """
    if current.coverage <= cfg.min_coverage:
        return QcVerdict(QcTag.REJECTED_COVERAGE)
    if previous is None:
        return QcVerdict(QcTag.REJECTED_NO_REFERENCE)
    d = dsc(current, previous)
    if d > cfg.min_dsc:
        return QcVerdict(QcTag.PASS, dsc=d)
    return QcVerdict(QcTag.REJECTED_INSTABILITY, dsc=d)
