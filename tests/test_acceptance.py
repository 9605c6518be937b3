"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion. Criteria 6-8 share one seeded end-to-end execution
(model training plus three phantom cohorts); criterion 10 re-executes it
from scratch in a spawned process, alongside the first execution, and
compares artifact bytes.

Criterion 1 treats every printed integer percent x in the reference
table as a true value in [x - 0.5, x + 0.5) (halves round upward),
clipped to [0, 100], and requires each printed balanced accuracy and F1
to be reachable from the printed sensitivity, specificity and precision
within those intervals.
"""

import collections
import hashlib
import itertools
import multiprocessing
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import pytest

from lithovid.classify import train_centroid
from lithovid.core import CANONICAL_ORDER, DecisionPath, MorphClass, QcTag, StoneMask
from lithovid.decision import LabelCensus, decide
from lithovid.evaluate import (
    metrics_csv,
    qc_pass_stats,
    round_half_up_percent,
    run_ablation,
    sample_std,
    score_cohort,
    summary_text,
    timeline_to_json,
)
from lithovid.phantom import (
    adversarial_spec,
    clean_spec,
    generate_phantom,
    training_stills,
)
from lithovid.pipeline import Variant, run_raw_video, run_timeline
from lithovid.qc import QcConfig, check_frame
from lithovid.segmentation import (
    OracleSegmenter,
    bce_loss,
    bce_loss_grad,
    calibrate_chroma,
    dice_loss,
    dice_loss_grad,
    dsc,
)
from lithovid.video_io import normalize_video

IA, IIB, IIIB, IAIIB, IAIIIB = CANONICAL_ORDER

TRAIN_SEED = 20260808
CLEAN_BASE = 101_0000
ADVERS_BASE = 202_0000
MIXED_BASE = 303_0000

# Reference diagnostic scores (rounded integer percents) from the published
# clinical evaluation, per class in canonical order, used purely to
# validate metric arithmetic: (balanced accuracy, sensitivity,
# specificity, precision, F1) per variant block.
REFERENCE_SCORES = {
    "full": {
        "Ia": (90, 85, 95, 92, 88),
        "IIb": (86, 75, 96, 86, 80),
        "IIIb": (96, 100, 92, 62, 76),
        "IaIIb": (81, 69, 93, 69, 69),
        "IaIIIb": (85, 71, 98, 83, 77),
    },
    "no-masking": {
        "Ia": (89, 96, 82, 76, 85),
        "IIb": (81, 63, 100, 100, 77),
        "IIIb": (97, 100, 94, 67, 80),
        "IaIIb": (67, 38, 95, 63, 48),
        "IaIIIb": (76, 57, 95, 57, 57),
    },
    "no-qc": {
        "Ia": (50, 0, 100, 0, 0),
        "IIb": (50, 0, 100, 0, 0),
        "IIIb": (50, 0, 100, 0, 0),
        "IaIIb": (58, 38, 77, 28, 32),
        "IaIIIb": (64, 100, 29, 13, 24),
    },
}
REFERENCE_SENSITIVITIES = (85, 75, 100, 69, 71)   # full block -> 80 +- 13
REFERENCE_BALANCED_ACC = (90, 86, 96, 81, 85)     # full block -> 88 +- 6


_CAPTURE_MANAGER = None


@pytest.fixture(scope="module", autouse=True)
def _capture_manager(request):
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = request.config.pluginmanager.getplugin("capturemanager")


def report(num: int, ok: bool, detail: str) -> None:
    """One visible line per criterion, bypassing pytest output capture."""
    line = f"\nACCEPTANCE {num:>2} [{'PASS' if ok else 'FAIL'}] {detail}"
    if _CAPTURE_MANAGER is not None:
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


# -- shared seeded execution (criteria 6-8, re-run by criterion 10) -------------


@dataclass
class Execution:
    clean: dict = field(default_factory=dict)
    advers: dict = field(default_factory=dict)
    mixed: dict = field(default_factory=dict)
    train_elapsed: float = 0.0
    digest: str = ""
    rerun_digest: Optional[Future] = None  # criterion 10's independent re-execution


def oracle_factory(frames, truths):
    return OracleSegmenter.from_masks(truths)


def run_full_execution() -> Execution:
    ex = Execution()
    hasher = hashlib.sha256()

    t0 = time.perf_counter()
    model = train_centroid(training_stills(TRAIN_SEED, 50))
    ex.train_elapsed = time.perf_counter() - t0

    # criterion 6: clean cohort, 20 videos per class
    t0 = time.perf_counter()
    pairs = []
    for label in CANONICAL_ORDER:
        for i in range(20):
            spec = clean_spec(CLEAN_BASE + label.rank * 100 + i, label, 10.0)
            video, _, _ = generate_phantom(spec)
            tl = run_raw_video(video, oracle_factory, model)[Variant.FULL]
            pairs.append((label, tl))
            hasher.update(timeline_to_json(tl, truth_label=label, variant=Variant.FULL).encode())
    scores = score_cohort([tl for _, tl in pairs], [t for t, _ in pairs])
    per_class, overall = scores.per_class, scores.overall
    csv_text = metrics_csv({Variant.FULL: per_class})
    text = summary_text(Variant.FULL, per_class, overall, qc_pass_stats(scores.timelines))
    hasher.update(csv_text.encode())
    hasher.update(text.encode())
    ex.clean = {
        "per_class": per_class,
        "overall": overall,
        "elapsed": time.perf_counter() - t0,
    }

    # criterion 7: adversarial cohort, 10 videos per class, three variants
    t0 = time.perf_counter()

    def adversarial_cohort():
        for label in CANONICAL_ORDER:
            for i in range(10):
                spec = adversarial_spec(ADVERS_BASE + label.rank * 100 + i, label, 14.0)
                video, _, _ = generate_phantom(spec)
                yield video, label

    results = run_ablation(adversarial_cohort(), oracle_factory, model)
    for variant in (Variant.FULL, Variant.NO_MASKING, Variant.NO_QC):
        r = results[variant]
        for truth, tl in zip(r.truths, r.timelines):
            hasher.update(timeline_to_json(tl, truth_label=truth, variant=variant).encode())
    combined = metrics_csv({v: results[v].per_class for v in results})
    hasher.update(combined.encode())
    ex.advers = {"results": results, "elapsed": time.perf_counter() - t0}

    # criterion 8: mixed-stone temporal logic, 10 seeded runs per mixed class
    t0 = time.perf_counter()
    outcomes = {IAIIB: [], IAIIIB: []}
    for label in (IAIIB, IAIIIB):
        for i in range(10):
            spec = clean_spec(MIXED_BASE + label.rank * 100 + i, label, 10.0)
            video, _, _ = generate_phantom(spec)
            tl = run_raw_video(video, oracle_factory, model)[Variant.FULL]
            outcomes[label].append((tl.decision, tl.decision_path))
            hasher.update(timeline_to_json(tl, truth_label=label, variant=Variant.FULL).encode())
    mixed_report = "\n".join(
        f"{label.tag},{i},{dec.tag if dec else None},{path.value if path else None}"
        for label, rows in outcomes.items()
        for i, (dec, path) in enumerate(rows)
    )
    hasher.update(mixed_report.encode())
    ex.mixed = {"outcomes": outcomes, "elapsed": time.perf_counter() - t0}

    ex.digest = hasher.hexdigest()
    return ex


def execution_digest() -> str:
    return run_full_execution().digest


@pytest.fixture(scope="module")
def execution(request):
    # a spawned child shares none of this process's cached geometry, templates or
    # background phases, and it runs on the other core while this one executes
    pool = ProcessPoolExecutor(max_workers=1, mp_context=multiprocessing.get_context("spawn"))
    request.addfinalizer(pool.shutdown)
    rerun_digest = pool.submit(execution_digest)
    ex = run_full_execution()
    ex.rerun_digest = rerun_digest
    return ex


# -- criterion 1 -----------------------------------------------------------------


def reference_table_violations(table: dict) -> list[str]:
    """Printed BA and F1 that their row's printed sens/spec/prec cannot reach.

    Rounding halves upward (as `round_half_up_percent` does), a printed
    integer percent x stands for a true value in [x - 0.5, x + 0.5),
    clipped to [0, 100]. Both formulas increase monotonically in each
    input, so the reachable range of each runs from its value at the lower
    corner of the inputs' intervals up to (not including) its value at the
    upper corner. A printed value is consistent when that range overlaps
    its own interval; ranges that only touch at an endpoint do not.
    """

    def interval(printed: int) -> tuple[float, float]:
        return max(0.0, printed - 0.5), min(100.0, printed + 0.5)

    def f1_score(prec: float, sens: float) -> float:
        return 0.0 if prec + sens == 0 else 2.0 * prec * sens / (prec + sens)

    violations = []
    for block, rows in table.items():
        for tag, (ba, sens, spec, prec, f1) in rows.items():
            (s_lo, s_hi), (sp_lo, sp_hi), (p_lo, p_hi) = map(interval, (sens, spec, prec))
            for name, lo, hi, printed in (
                ("balanced accuracy", (s_lo + sp_lo) / 2.0, (s_hi + sp_hi) / 2.0, ba),
                ("F1", f1_score(p_lo, s_lo), f1_score(p_hi, s_hi), f1),
            ):
                v_lo, v_hi = interval(printed)
                if hi <= v_lo or lo >= v_hi:
                    violations.append(
                        f"{block}/{tag}: reachable {name} [{lo:.3f}, {hi:.3f}] vs printed {printed}"
                    )
    return violations


def test_c01_metric_arithmetic_vs_reference_table():
    started = time.perf_counter()
    violations = reference_table_violations(REFERENCE_SCORES)
    elapsed = time.perf_counter() - started
    ok = not violations and elapsed < 1.0
    report(1, ok, f"metric arithmetic vs reference table ({len(violations)} deviations, "
                  f"{elapsed:.3f}s)")
    assert elapsed < 1.0
    assert not violations, (
        "printed metrics lie outside what the printed inputs can reach "
        "within their +-0.5 rounding intervals:\n  " + "\n  ".join(violations)
    )


def test_c01_rule_rejects_corrupted_reference_table():
    def corrupted(*changes):
        table = {block: dict(rows) for block, rows in REFERENCE_SCORES.items()}
        for block, tag, column, value in changes:
            row = list(table[block][tag])
            row[column] = value
            table[block][tag] = tuple(row)
        return table

    BA, F1 = 0, 4
    assert reference_table_violations(
        corrupted(("full", "IIIb", F1, 78), ("full", "Ia", BA, 92))
    ) == [
        "full/Ia: reachable balanced accuracy [89.500, 90.500] vs printed 92",
        "full/IIIb: reachable F1 [76.016, 76.923] vs printed 78",
    ]
    # One point off: the printed value's interval only touches the reachable range.
    assert reference_table_violations(
        corrupted(("full", "Ia", BA, 91), ("full", "IaIIb", F1, 70))
    ) == [
        "full/Ia: reachable balanced accuracy [89.500, 90.500] vs printed 91",
        "full/IaIIb: reachable F1 [68.500, 69.500] vs printed 70",
    ]
    assert reference_table_violations(
        corrupted(("full", "Ia", BA, 89), ("full", "IaIIb", F1, 68))
    ) == [
        "full/Ia: reachable balanced accuracy [89.500, 90.500] vs printed 89",
        "full/IaIIb: reachable F1 [68.500, 69.500] vs printed 68",
    ]


# -- criterion 2 -----------------------------------------------------------------


def test_c02_aggregation_arithmetic():
    started = time.perf_counter()
    sens_mean = sum(REFERENCE_SENSITIVITIES) / 5
    sens_std = sample_std(REFERENCE_SENSITIVITIES)
    ba_mean = sum(REFERENCE_BALANCED_ACC) / 5
    ba_std = sample_std(REFERENCE_BALANCED_ACC)
    rounded = (
        round_half_up_percent(sens_mean / 100),
        round_half_up_percent(sens_std / 100),
        round_half_up_percent(ba_mean / 100),
        round_half_up_percent(ba_std / 100),
    )
    elapsed = time.perf_counter() - started
    ok = rounded == (80, 13, 88, 6) and elapsed < 1.0
    report(2, ok, f"sample-std aggregation: sensitivities -> {rounded[0]} +- {rounded[1]}, "
                  f"balanced accuracies -> {rounded[2]} +- {rounded[3]} ({elapsed:.3f}s)")
    assert rounded == (80, 13, 88, 6)
    assert elapsed < 1.0


# -- criterion 3 -----------------------------------------------------------------


def brute_force_decide(labels):
    n = len(labels)
    count = collections.Counter(labels)  # one pass over the label list
    for c in CANONICAL_ORDER:
        if count[c] * 2 > n:
            return c, "Majority"
    hits = []
    for mixed, members in ((IAIIB, (IA, IIB, IAIIB)), (IAIIIB, (IA, IIIB, IAIIIB))):
        pooled = sum(count[m] for m in members)
        if pooled * 2 > n:
            hits.append((pooled, mixed.rank, mixed))
    if hits:
        hits.sort(key=lambda h: (-h[0], h[1]))
        return hits[0][2], "MixedUnion"
    return (
        sorted(CANONICAL_ORDER, key=lambda c: (-count[c], c.rank))[0],
        "Fallback",
    )


def test_c03_decision_rule_oracle_equivalence():
    started = time.perf_counter()
    checked = 0
    for counts in itertools.product(range(9), repeat=5):
        total = sum(counts)
        if not 1 <= total <= 8:
            continue
        census = LabelCensus(counts=dict(zip(CANONICAL_ORDER, counts)))
        labels = [c for c in CANONICAL_ORDER for _ in range(census.counts[c])]
        got = decide(census)
        want = brute_force_decide(labels)
        assert got[0] is want[0] and got[1].value == want[1], census.counts
        checked += 1

    rng = np.random.Generator(np.random.Philox(key=[11, 13]))
    for _ in range(10_000):
        total = int(rng.integers(1, 1001))
        cuts = np.sort(rng.integers(0, total + 1, size=4))
        counts = [int(x) for x in np.diff(np.concatenate([[0], cuts, [total]]))]
        census = LabelCensus(counts=dict(zip(CANONICAL_ORDER, counts)))
        labels = [c for c in CANONICAL_ORDER for _ in range(census.counts[c])]
        got = decide(census)
        want = brute_force_decide(labels)
        assert got[0] is want[0] and got[1].value == want[1], census.counts
    elapsed = time.perf_counter() - started
    ok = elapsed < 10.0
    report(3, ok, f"decide() == brute force on {checked} exhaustive + 10000 random "
                  f"censuses ({elapsed:.2f}s)")
    assert elapsed < 10.0


# -- criterion 4 -----------------------------------------------------------------


def test_c04_dsc_and_qc_properties():
    started = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(key=[17, 19]))
    for _ in range(1000):
        a = rng.random((64, 64)) < rng.uniform(0.05, 0.95)
        b = rng.random((64, 64)) < rng.uniform(0.05, 0.95)
        d_ab = dsc(a, b)
        assert d_ab == dsc(b, a)
        assert 0.0 <= d_ab <= 1.0
        assert dsc(a, a) == 1.0

    cfg = QcConfig()
    # coverage exactly 0.10 must be rejected (strict gate)
    bits = np.zeros(400, dtype=bool)
    bits[:40] = True
    exact_cov = StoneMask(bits.reshape(20, 20))
    assert check_frame(exact_cov, exact_cov, cfg).tag is QcTag.REJECTED_COVERAGE
    # dsc exactly 0.90 must be rejected (strict gate)
    a_bits = np.zeros(400, dtype=bool)
    a_bits[:100] = True
    b_bits = np.zeros(400, dtype=bool)
    b_bits[10:110] = True
    verdict = check_frame(
        StoneMask(a_bits.reshape(20, 20)), StoneMask(b_bits.reshape(20, 20)), cfg
    )
    assert verdict.tag is QcTag.REJECTED_INSTABILITY and verdict.dsc == 0.9
    # first frame can never pass
    big = np.zeros((20, 20), dtype=bool)
    big[:10] = True
    assert check_frame(StoneMask(big), None, cfg).tag is QcTag.REJECTED_NO_REFERENCE

    elapsed = time.perf_counter() - started
    ok = elapsed < 10.0
    report(4, ok, f"dsc symmetry/range/identity on 1000 pairs, strict QC boundaries, "
                  f"first-frame rejection ({elapsed:.2f}s)")
    assert elapsed < 10.0


# -- criterion 5 -----------------------------------------------------------------


def central_difference(loss, p, t, h=1e-5):
    grad = np.zeros_like(p)
    for idx in np.ndindex(p.shape):
        hi = p.copy()
        lo = p.copy()
        hi[idx] += h
        lo[idx] -= h
        grad[idx] = (loss(hi, t) - loss(lo, t)) / (2 * h)
    return grad


def test_c05_loss_gradients_match_finite_differences():
    started = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(key=[23, 29]))
    worst = 0.0
    for _ in range(100):
        p = rng.uniform(0.05, 0.95, size=(8, 8))
        t = rng.integers(0, 2, size=(8, 8)).astype(bool)
        for loss, grad_fn in ((bce_loss, bce_loss_grad), (dice_loss, dice_loss_grad)):
            analytic = grad_fn(p, t)
            fd = central_difference(loss, p, t)
            rel = np.abs(analytic - fd).max() / max(np.abs(fd).max(), 1e-12)
            worst = max(worst, rel)
            assert rel < 1e-4
    elapsed = time.perf_counter() - started
    ok = elapsed < 10.0
    report(5, ok, f"bce/dice gradients vs central differences on 100 instances, "
                  f"worst rel err {worst:.2e} ({elapsed:.2f}s)")
    assert elapsed < 10.0


# -- criterion 6 -----------------------------------------------------------------


def test_c06_end_to_end_clean_phantom_accuracy(execution):
    per_class = execution.clean["per_class"]
    overall = execution.clean["overall"]
    elapsed = execution.clean["elapsed"] + execution.train_elapsed
    sens = {c.tag: per_class[c].sensitivity for c in CANONICAL_ORDER}
    mean_ba = overall["balanced_accuracy"].mean
    ok = all(v >= 0.90 for v in sens.values()) and mean_ba >= 0.90 and elapsed < 600
    report(6, ok, f"clean cohort (100 videos): per-class sensitivity {sens}, "
                  f"overall balanced accuracy {mean_ba:.3f} ({elapsed:.0f}s)")
    for tag, v in sens.items():
        assert v >= 0.90, f"sensitivity for {tag} below 0.90"
    assert mean_ba >= 0.90
    assert elapsed < 600


# -- criterion 7 -----------------------------------------------------------------


def test_c07_ablation_direction(execution):
    results = execution.advers["results"]
    elapsed = execution.advers["elapsed"] + execution.train_elapsed
    ba = {
        v: results[v].overall["balanced_accuracy"].mean
        for v in (Variant.FULL, Variant.NO_MASKING, Variant.NO_QC)
    }
    gap = ba[Variant.FULL] - ba[Variant.NO_QC]
    ok = (
        ba[Variant.FULL] >= ba[Variant.NO_MASKING] >= ba[Variant.NO_QC]
        and gap >= 0.10
        and elapsed < 900
    )
    report(7, ok, "adversarial cohort balanced accuracy: "
                  f"full {ba[Variant.FULL]:.3f} >= no-masking {ba[Variant.NO_MASKING]:.3f} "
                  f">= no-qc {ba[Variant.NO_QC]:.3f}, gap {gap * 100:.1f}pp ({elapsed:.0f}s)")
    assert ba[Variant.FULL] >= ba[Variant.NO_MASKING] >= ba[Variant.NO_QC]
    assert gap >= 0.10
    assert elapsed < 900


# -- criterion 8 -----------------------------------------------------------------


def test_c08_mixed_stone_temporal_logic(execution):
    outcomes = execution.mixed["outcomes"]
    elapsed = execution.mixed["elapsed"] + execution.train_elapsed
    hits = {}
    for label, rows in outcomes.items():
        hits[label.tag] = sum(
            1 for dec, path in rows
            if dec is label and path is DecisionPath.MIXED_UNION
        )
    ok = all(h >= 8 for h in hits.values()) and elapsed < 300
    report(8, ok, f"mixed classes decided via MixedUnion: "
                  f"{hits} of 10 runs each ({elapsed:.0f}s)")
    for tag, h in hits.items():
        assert h >= 8, f"{tag}: only {h}/10 runs decided via MixedUnion"
    assert elapsed < 300


# -- criterion 9 -----------------------------------------------------------------


def test_c09_throughput_real_time_budget():
    model = train_centroid(training_stills(TRAIN_SEED, 20))
    chroma = calibrate_chroma((f, m) for f, m, _ in training_stills(TRAIN_SEED + 1, 8))
    video, _, _ = generate_phantom(clean_spec(909, IA, 60.0))
    frames = list(normalize_video(video)[0])  # rendered before the clock: it times the pipeline
    started = time.perf_counter()
    timeline = run_timeline("throughput", frames, chroma, model)[Variant.FULL]
    elapsed = time.perf_counter() - started
    fps = len(frames) / elapsed
    ok = fps >= 8.0
    report(9, ok, f"full pipeline (chroma + centroid) on a 60s phantom: "
                  f"{fps:.1f} frames/s on one core (decision {timeline.decision.tag})")
    assert fps >= 8.0


# -- criterion 10 ----------------------------------------------------------------


def test_c10_determinism_of_full_executions(execution):
    second = execution.rerun_digest.result(timeout=1800)
    ok = second == execution.digest
    report(10, ok, f"repeated execution of criteria 6-8 artifacts: "
                   f"digest {execution.digest[:16]}... "
                   f"{'==' if ok else '!='} {second[:16]}...")
    assert second == execution.digest
