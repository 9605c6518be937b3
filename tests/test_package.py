"""The package itself: what `import lithovid` loads and the version it states."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lithovid

ROOT = Path(__file__).resolve().parents[1]


def test_import_loads_no_submodule_and_no_numpy():
    """Each name is imported from the module that owns it; the package re-exports none,
    so reading __version__ costs no numpy import."""
    code = ("import sys, lithovid\n"
            "print(sorted(m for m in sys.modules if m.startswith('lithovid.') or m == 'numpy'))")
    env = {**os.environ, "PYTHONPATH": str(Path(lithovid.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out == "[]\n"


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == lithovid.__version__


def test_oracle_run_and_eval_load_no_scipy(tmp_path):
    """scipy serves only chroma's mask cleanup: phantom, train-cls, an oracle run and eval
    load none of it."""
    code = (
        "import sys\n"
        "from lithovid.cli import main\n"
        "d = sys.argv[1]\n"
        "assert main(['phantom', '--out', d + '/c', '--per-class', '1', '--seed', '2',\n"
        "             '--duration', '1']) == 0\n"
        "assert main(['train-cls', '--stills', '2', '--out', d + '/m.json']) == 0\n"
        "assert main(['run', '--videos', d + '/c', '--out', d + '/t', '--segmenter', 'oracle',\n"
        "             '--classifier', 'centroid', '--model', d + '/m.json']) == 0\n"
        "assert main(['eval', '--timelines', d + '/t', '--out', d + '/e']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(lithovid.__file__).parents[1])}
    env.pop("LITHO_WORKERS", None)
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "[]"
