"""SciPy's LAPACK wrappers, imported at the first call that needs them.

Reaching ``scipy.linalg.lapack`` runs the ``scipy.linalg`` package's
``__init__`` (mostly its array-API shim): about a quarter of a second, more
than the rest of ``import hierwave.cli``, which a process that never solves
need not pay.  Callers look routines up on it at call time, never at import.
"""
import functools


@functools.cache
def lapack():
    """The ``scipy.linalg.lapack`` module, imported on the first call."""
    import scipy.linalg.lapack
    return scipy.linalg.lapack
