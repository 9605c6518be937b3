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
