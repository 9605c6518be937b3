import numpy as np
import pytest

from lithovid.core import MorphClass, QcTag, StoneMask
from lithovid.errors import LithovidError, ValidationError
from lithovid.phantom import EventKind, EventScript, PhantomSpec, generate_phantom
from lithovid.qc import QcConfig, check_frame


def mask_with_count(side, count):
    bits = np.zeros(side * side, dtype=bool)
    bits[:count] = True
    return StoneMask(bits.reshape(side, side))


def test_config_validation():
    QcConfig()
    with pytest.raises(ValidationError):
        QcConfig(min_coverage=0.0)
    with pytest.raises(ValidationError):
        QcConfig(min_dsc=1.5)
    with pytest.raises(ValidationError, match=r"^min_dsc 1.0 outside \(0, 1\)$"):
        QcConfig(min_dsc=1.0)


def test_coverage_rejected_even_with_identical_previous():
    # coverage 0.09 on a 20x20 grid: 36 of 400 pixels
    m = mask_with_count(20, 36)
    verdict = check_frame(m, m, QcConfig())
    assert verdict.tag is QcTag.REJECTED_COVERAGE
    assert verdict.dsc is None


def test_exact_coverage_boundary_is_rejected():
    # 40/400 = 0.10 exactly; the gate is strict
    m = mask_with_count(20, 40)
    assert check_frame(m, m).tag is QcTag.REJECTED_COVERAGE
    assert check_frame(mask_with_count(20, 41), mask_with_count(20, 41)).passed


def test_pass_with_stable_masks():
    cur = mask_with_count(20, 100)
    verdict = check_frame(cur, cur, QcConfig())
    assert verdict.passed and verdict.dsc == 1.0


def test_exact_dsc_boundary_is_rejected():
    # |A| = |B| = 100, overlap 90: dsc = 180/200 = 0.9 exactly
    a = mask_with_count(20, 100)
    bits = np.zeros(400, dtype=bool)
    bits[10:110] = True
    b = StoneMask(bits.reshape(20, 20))
    verdict = check_frame(a, b, QcConfig())
    assert verdict.tag is QcTag.REJECTED_INSTABILITY
    assert verdict.dsc == 0.9


def test_dsc_just_above_boundary_passes():
    a = mask_with_count(20, 100)
    bits = np.zeros(400, dtype=bool)
    bits[9:109] = True  # overlap 91: dsc = 0.91
    verdict = check_frame(a, StoneMask(bits.reshape(20, 20)), QcConfig())
    assert verdict.passed
    assert verdict.dsc == pytest.approx(0.91)


def test_first_frame_rejected_no_reference():
    m = mask_with_count(20, 100)
    assert check_frame(m, None).tag is QcTag.REJECTED_NO_REFERENCE


def test_dimension_mismatch():
    with pytest.raises(LithovidError, match=r"^shape \(20, 20\) vs \(16, 16\)$"):
        check_frame(mask_with_count(20, 100), mask_with_count(16, 100))


def test_verdict_is_pure_function():
    a = mask_with_count(20, 100)
    b = mask_with_count(20, 120)
    v1 = check_frame(a, b)
    v2 = check_frame(a, b)
    assert v1 == v2


def test_coverage_gate_runs_before_stability():
    # tiny current mask, totally unstable previous: coverage verdict wins
    cur = mask_with_count(20, 10)
    prev = mask_with_count(20, 390)
    assert check_frame(cur, prev).tag is QcTag.REJECTED_COVERAGE


def test_jitter_interval_rejected_on_phantom():
    spec = PhantomSpec(
        seed=13,
        label=MorphClass.IA,
        duration_s=4.0,
        events=(EventScript(EventKind.JITTER, 1.0, 3.0, 0.5),),
    )
    _, masks, _ = generate_phantom(spec)
    cfg = QcConfig()
    previous = None
    for i, mask in enumerate(masks):
        verdict = check_frame(mask, previous, cfg)
        previous = mask
        t = i / 8.0
        if 1.0 <= t < 3.0:
            assert not verdict.passed
            if verdict.dsc is not None:
                assert verdict.dsc < 0.9
