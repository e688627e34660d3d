"""SciPy's LAPACK wrappers, loaded at the first call that needs them.

Production calls seven of them (``dgtsv``, ``dgttrf``, ``dgttrs``,
``dsyevr``, ``dpotrf``, ``dpotrs``, ``dtrtrs``).  Each is defined by the
compiled extension ``scipy.linalg._flapack``, and ``scipy.linalg.lapack``
re-exports the same objects.  Importing either module by name first runs
``scipy/__init__`` and ``scipy/linalg/__init__`` (mostly its array-API
shim), about 0.2 s: more than the rest of ``import hierwave.cli``.  So
:func:`lapack` loads the extension from its file, in a few milliseconds and
with no other scipy module, and registers it in ``sys.modules`` under its own
name.  A later ``import scipy.linalg`` reuses that very module:
``scipy.linalg.lapack._flapack`` is it, though the package then has no
``_flapack`` attribute.  The load skips the NumPy-version check in
``scipy/__init__`` (a warning when NumPy is outside the range scipy
supports); a process that imports scipy still makes it.

Callers look routines up on :func:`lapack` at call time, never at import, so
a process that never solves loads no scipy module.
"""
import functools
import importlib.machinery
import importlib.util
import os
import sys

_NAME = "scipy.linalg._flapack"


@functools.cache
def lapack():
    """The ``scipy.linalg._flapack`` extension module, loaded on the first call.

    If ``sys.modules`` already holds it (scipy.linalg was imported first),
    that module; otherwise the one found by file in scipy's ``linalg``
    directory, located without importing scipy.  ImportError names the
    directory if it holds no such extension.
    """
    module = sys.modules.get(_NAME)
    if module is not None:
        return module
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    loader = (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
    finder = importlib.machinery.FileFinder(os.path.join(scipy.submodule_search_locations[0], "linalg"), loader)
    spec = finder.find_spec(_NAME)
    if spec is None:
        raise ImportError(f"no {_NAME} extension in {finder.path}", name=_NAME)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # registered once loaded, so that a failed load leaves no entry behind
    sys.modules[_NAME] = module
    return module
