"""Smoke test: every script under ``demos/`` runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gwlocal

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs(demo, tmp_path):
    # as in test_module_entry_point: the child imports the same gwlocal as
    # this process, from a checkout or an installed package alike
    package_root = str(Path(gwlocal.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = package_root + (os.pathsep + inherited if inherited else "")
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": pythonpath,
            "GW_CACHE_DIR": str(tmp_path / "cache"),
        },
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_demos_found():
    # an empty glob would otherwise leave test_demo_runs silently skipped
    assert DEMOS
