"""``python -m gwlocal ARGS`` with calibration samples taken while it runs.

Usage: ``python command.py INTERVAL ARGS...`` with ``src`` on
``PYTHONPATH``.  Runs the package's ``__main__`` exactly as ``-m`` does,
interrupted every INTERVAL seconds by a sample of the reference work (see
``calibrate.py``), and reports the samples on standard error.  The exit
status is the command's.
"""

import runpy
import sys

from calibrate import Sampler

sampler = Sampler(float(sys.argv.pop(1)))
try:
    with sampler:
        runpy.run_module("gwlocal", run_name="__main__", alter_sys=True)
finally:
    sampler.report()
