"""Entry point of ``python -m hierwave`` and the ``hierwave`` script.

Command-line runs use one BLAS thread, so that a config gives the same bytes
on every host; the variables act only before numpy loads, and forked sweep
workers inherit them.  Library callers of :func:`hierwave.cli.main` keep theirs.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from .cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
