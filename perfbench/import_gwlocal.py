"""``import gwlocal`` in a fresh interpreter, with calibration samples taken
while it runs.

Usage: ``python import_gwlocal.py INTERVAL`` with ``src`` on ``PYTHONPATH``.
The runner times the whole interpreter and takes the samples (see
``calibrate.py``), reported on standard error, back out.
"""

import sys

from calibrate import Sampler

with Sampler(float(sys.argv[1])) as sampler:
    import gwlocal  # noqa: F401
sampler.report()
