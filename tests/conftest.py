import pytest

from lithovid.classify import SCORE_HEADER, train_centroid
from lithovid.core import CANONICAL_ORDER
from lithovid.phantom import training_stills
from lithovid.segmentation import OracleSegmenter


@pytest.fixture(scope="session")
def small_model():
    """Centroid model trained on a few stills per class; shared by unit tests."""
    return train_centroid(training_stills(1, 6))


@pytest.fixture(scope="session")
def oracle_factory():
    def factory(frames, truths):
        return OracleSegmenter.from_masks(truths)

    return factory


def write_score_csv(path, rows):
    """Write {stream index: scores} as an import CSV, one repr(float) per cell.

    repr round-trips a float exactly, so import_scores reads back the same
    floats.
    """
    lines = [",".join(SCORE_HEADER)]
    for idx, scores in sorted(rows.items()):
        lines.append(",".join([str(idx)] + [repr(float(scores[c])) for c in CANONICAL_ORDER]))
    path.write_text("\n".join(lines) + "\n", "utf-8")
