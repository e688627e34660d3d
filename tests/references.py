"""References that the library's norms and dual model are checked against.

- The H^1_0 norm by first differences, sqrt(sum (f_{j+1} - f_j)^2 / hx): the
  leader's dual measures ||f0||_H through the Cholesky factor R0 of the
  stiffness matrix instead, and the H^-1 norm of ``hierwave.grid`` is the
  norm of the Poisson lift in it.
- The dual objective and a subgradient at a point in f coordinates,
  evaluated on a fresh ``leader_dual._DualModel``: the library runs the model
  only from inside ``minimize_dual`` and its certificates.
- The time-trapezoid L2 norm of a boundary trace over its mask, the norm the
  leader's cost is half the square of.
"""

import numpy as np

from hierwave.errors import ConfigurationError
from hierwave.grid import SpatialProfile, Trace
from hierwave.leader_dual import DualPoint, _DualModel


def h10_values(g_values: np.ndarray, hx: float):
    """First-difference norm of nodal values; row-wise over a 2-D block."""
    d = np.diff(g_values, axis=-1)
    return np.sqrt(np.sum(d * d, axis=-1) / hx)


def h10_norm_physical(f: SpatialProfile) -> float:
    """First-difference energy norm, equal to the integral of f_x^2 in x.

    Requires Dirichlet-compatible endpoint values (both zero).
    """
    scale = np.max(np.abs(f.values)) if f.values.size else 0.0
    if abs(f.values[0]) > 1e-10 * max(1.0, scale) or abs(f.values[-1]) > 1e-10 * max(1.0, scale):
        raise ConfigurationError("h10 norm requires zero endpoint values")
    return float(h10_values(f.values, f.alpha * f.mesh.dy))


def trace_norm(trace: Trace) -> float:
    """Time-trapezoid L2 norm over the masked boundary piece."""
    return float(np.sqrt(np.sum(trace.mesh.tau * trace.mask * trace.values**2)))


def dual_functional(f: DualPoint, targets, cfg) -> float:
    """Value of the dual objective at ``f``."""
    model = _DualModel(targets.mesh, cfg, targets)
    return model.value(model.at(model.whiten(f)))


def dual_subgradient(f: DualPoint, targets, cfg) -> DualPoint:
    """An element of the subdifferential, lifted into the (H, L2) geometry.

    At points where a norm vanishes the corresponding shrinkage direction is
    taken as zero (a valid subgradient choice).  The gradient in z, mapped
    back by R^-1, is the lifted one: B^-1 R^T = R^-1.
    """
    model = _DualModel(targets.mesh, cfg, targets)
    point = model.at(model.whiten(f))
    grad = point.V.copy()
    nh, nl = point.norms
    if nh > 0.0:
        grad[: model.n0] += targets.rho1 * point.z[: model.n0] / nh
    if nl > 0.0:
        grad[model.n0 :] += targets.rho0 * point.z[model.n0 :] / nl
    return model.unwhiten(grad)
