import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import coverspectra


def test_all_is_sorted():
    assert coverspectra.__all__ == sorted(coverspectra.__all__)


def test_all_is_every_public_binding():
    bound = {
        name
        for name, value in vars(coverspectra).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(coverspectra.__all__) == bound


def test_every_exported_name_resolves():
    for name in coverspectra.__all__:
        assert getattr(coverspectra, name) is not None


@pytest.mark.parametrize("module", ["coverspectra", "coverspectra.cli"])
def test_import_loads_no_scipy(module):
    """scipy is imported inside the functions that use it, so importing the
    package or its CLI does not pay for scipy's own import."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = f"import sys, {module}; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    assert proc.stdout == "[]\n"
