"""A cold start loads the process-pool machinery only for a call that opens a
pool, and the CLI's own standard-library modules only for a command that
uses them.

``concurrent.futures.process`` pulls in ``multiprocessing``, ``socket``,
``subprocess`` and ``logging``; importing them at package import would cost
every short CLI run, though only ``sum_invariant`` with ``jobs > 1`` and
enough items ever opens a pool.  Likewise ``hashlib`` serves only cache
keys, ``datetime`` only a cache store and ``csv`` only ``--format csv``.
Each check runs in a fresh interpreter, since this one has long since loaded
them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import gwlocal

POOL_MODULES = ["concurrent.futures.process", "multiprocessing"]
CLI_MODULES = ["csv", "hashlib", "datetime"]

DIMS = ["dims", "--genus", "1", "--c1a", "10", "--half-dim", "4", "--bundle-c1a", "10"]
WDVV = ["wdvv", "--max-degree", "3"]
QUINTIC_LINES = ["genus0", "--ambient-dim", "4", "--degrees", "5", "--curve-degree", "1"]

COMMANDS = """
import json, runpy, sys
import gwlocal
for argv in ARGVS:
    sys.argv = ["gwlocal", *argv]
    try:
        runpy.run_module("gwlocal", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        assert exc.code == 0, argv
print(json.dumps([name for name in MODULES if name in sys.modules]))
"""

POOLED = """
import json, sys
from gwlocal import CITarget, sum_invariant
before = [name for name in MODULES if name in sys.modules]
value = str(sum_invariant(CITarget(4, (5,), 3), jobs=2).value)
print(json.dumps([before, value, [name for name in MODULES if name in sys.modules]]))
"""


def fresh_interpreter(script, tmp_path, modules=POOL_MODULES):
    # the last line of stdout, parsed, from a child that imports gwlocal
    # from the same directory as this process; MODULES in the script is
    # replaced by ``modules``
    package_root = str(Path(gwlocal.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    proc = subprocess.run(
        [sys.executable, "-c", script.replace("MODULES", repr(modules))],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": package_root + (os.pathsep + inherited if inherited else ""),
            "GW_CACHE_DIR": str(tmp_path / "cache"),
        },
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_after(tmp_path, modules, *argvs):
    # which of ``modules`` a fresh interpreter holds after the commands
    return fresh_interpreter(COMMANDS.replace("ARGVS", repr(argvs)), tmp_path, modules)


def test_serial_commands_never_load_the_pool(tmp_path):
    assert loaded_after(tmp_path, POOL_MODULES, DIMS, WDVV) == []


def test_dims_and_wdvv_load_no_cli_only_module(tmp_path):
    assert loaded_after(tmp_path, CLI_MODULES, DIMS, WDVV) == []


def test_csv_output_loads_csv(tmp_path):
    assert loaded_after(tmp_path, CLI_MODULES, WDVV + ["--format", "csv"]) == ["csv"]


def test_cache_hit_needs_only_the_key(tmp_path):
    # a miss stores a record, with its creation time; a hit only hashes
    assert loaded_after(tmp_path, CLI_MODULES, QUINTIC_LINES) == ["hashlib", "datetime"]
    assert loaded_after(tmp_path, CLI_MODULES, QUINTIC_LINES) == ["hashlib"]


def test_first_pool_loads_it(tmp_path):
    # quintic d=3 has 4 shapes, enough for a pool of 2
    before, value, after = fresh_interpreter(POOLED, tmp_path)
    assert before == []
    assert value == "8564575000/27"
    assert after == POOL_MODULES
