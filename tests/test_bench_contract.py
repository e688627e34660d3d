"""What the benchmark in ``bench/`` relies on in hierwave.

``bench/tracing.py`` wraps each of its ``TARGETS`` and ``COUNTED`` by
attribute lookup and calls the wrapper in place of the original.  A target
that is renamed or deleted silently drops its per-layer metrics, and one
turned into a property, staticmethod or classmethod breaks the wrapped
calls.  The tables are read with ``ast``, so nothing under ``bench/`` is
imported here.
"""

import ast
import importlib
import inspect
import types
from pathlib import Path

import numpy as np
import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _table(name: str) -> tuple:
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned in {TRACING}")


TRACED = sorted({(entry[0], entry[1]) for entry in _table("TARGETS") + _table("COUNTED")})


@pytest.mark.parametrize("module, path", TRACED, ids=[f"{m}:{p}" for m, p in TRACED])
def test_traced_target_is_plain_function(module, path):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    raw = inspect.getattr_static(owner, attr)
    assert isinstance(raw, types.FunctionType), f"{module}.{path} is a {type(raw).__name__}"


def test_marcher_call():
    """The call ``bench/run.py``'s ``marcher`` makes to re-march a state."""
    from hierwave.geometry import DomainSpec
    from hierwave.grid import GridSpec, Mesh
    from hierwave.wave_core import WaveOperator

    check = {"k": 0.1, "T": 2.0, "Ny": 16, "Nt": 44}
    op = WaveOperator(Mesh(DomainSpec(k=check["k"], T=check["T"]), GridSpec(Ny=check["Ny"], Nt=check["Nt"])))
    zeros_t = np.zeros(check["Nt"] + 1)
    zeros_y = np.zeros(check["Ny"] + 1)
    bc = np.sin(np.linspace(0.0, np.pi, check["Nt"] + 1))
    field = op.march(bc, zeros_t, zeros_y, zeros_y)
    assert field.shape == (check["Ny"] + 1, check["Nt"] + 1)
    assert np.array_equal(field[0], bc) and np.all(field[-1] == 0.0)
    assert np.all(np.isfinite(field)) and np.max(np.abs(field[1:-1])) > 0.0
