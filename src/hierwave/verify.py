"""Independent oracles and cross-checks.

Each oracle is algorithmically independent of the code path it checks:
grid-refinement order studies against exact solutions, one-shot direct
solves of the assembled coupled systems against the reduced (Schur) solve
that every default path takes, and a two-sided duality identity.  The
discretization itself is validated only against exact solutions, never
against a fine-grid run of itself: d'Alembert's characteristics on the
fixed string (k = 0), Moore's moving-mirror solution on the expanding
string (k > 0), and u = x, which the scheme reproduces to round-off.
Each marches the exact field's own boundary and initial data, so a wrong
moving-boundary coefficient shows as a lost order.  The direct coupled
solves share the stencils on purpose, so they isolate errors in the
coupling logic.  Each runs through one coupled LU, factored for that call
and dropped with it
(:meth:`~hierwave.coupled.CoupledEngine.direct_pair`,
:meth:`~hierwave.coupled.CoupledEngine.direct_adjoint_pair`), which refuses
grids above Ny = 64.  Of the transposed system only the leader's trace is
returned, the one output of :func:`~hierwave.coupled.apply_A_star`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError
from .geometry import DomainSpec, SigmaPartition
from .grid import (
    Field,
    Mesh,
    SpatialProfile,
    Trace,
    duality_pairing,
)
from .coupled import FollowerConfig, _utilde_values, apply_A, apply_A_star, get_engine, solve_nash_system
from .wave_core import solve_forward

__all__ = [
    "dalembert_reference",
    "OracleCase",
    "moving_end_solution",
    "order_studies",
    "monolithic_solve",
    "transpose_check",
    "convergence_study",
    "run_verification",
]


# ---------------------------------------------------------------------------
# one-shot direct solves of the coupled systems
# ---------------------------------------------------------------------------

def _relative_residual(K, eng, fields, rhs: np.ndarray) -> float:
    """||K sol - rhs||_inf / ||rhs||_inf, sol the stacked fields as the system orders them."""
    sol = np.concatenate([eng.op._flatten(values) for values in fields])
    return float(np.max(np.abs(K @ sol - rhs))) / max(float(np.max(np.abs(rhs))), 1e-300)


def monolithic_solve(
    system: str,
    mesh: Mesh,
    cfg: FollowerConfig,
    w1: Trace | None = None,
    f: tuple[SpatialProfile, SpatialProfile] | None = None,
):
    """Solve a coupled system in one shot, no fixed-point iteration.

    ``system`` is ``nash``, the equilibrium pair for the leader trace ``w1``
    and ``cfg``'s tracked trajectory, or ``adjoint_pair``, the transposed
    system driven by the final data ``f`` = (f0, f1), of which only the
    leader's trace (:func:`~hierwave.coupled.apply_A_star`'s output) is
    returned.  All unknown fields form a single sparse linear system sharing
    the stepper's stencils, solved through one coupled LU that lives only
    for this call; ``residual`` is taken against the assembled matrix.
    Grids above Ny = 64 are refused (memory guard of
    :meth:`~hierwave.coupled.CoupledEngine.coupled_lu`).
    """
    eng = get_engine(mesh, cfg)

    if system == "nash":
        if w1 is None:
            raise ConfigurationError("system 'nash' needs a leader trace")
        utilde = _utilde_values(cfg, mesh)
        state, lam, w2 = eng.direct_pair(w1.values, utilde)
        rhs = eng.coupled_rhs(w1.values, utilde)
        return {
            "state": Field(state, mesh),
            "companion": Field(eng.companion_field(lam), mesh),
            "w2": Trace(w2, cfg.partition.mask2, mesh),
            "residual": _relative_residual(eng.coupled_matrix(), eng, (state, lam), rhs),
        }

    if system == "adjoint_pair":
        if f is None:
            raise ConfigurationError("system 'adjoint_pair' needs final data (f0, f1)")
        f0, f1 = f
        rho = eng.terminal_cotangent(f0.values, f1.values)
        mu, psi = eng.direct_adjoint_pair(rho)
        return {
            "leader_trace": Trace(mu[0, :] / eng.tau, cfg.partition.mask1, mesh),
            "residual": _relative_residual(eng.coupled_matrix().T, eng, (mu, psi), eng.adjoint_rhs(rho)),
        }

    raise ConfigurationError(f"unknown system {system!r}")


# ---------------------------------------------------------------------------
# two-sided duality identity
# ---------------------------------------------------------------------------

def transpose_check(mesh: Mesh, cfg: FollowerConfig, trials: int = 20, seed: int = 0) -> float:
    """Compare the reach-operator pairing against the adjoint-trace pairing.

    For seeded random controls and final data, evaluates both sides of the
    duality identity independently (operator application plus profile
    pairings on one side, adjoint application plus trace quadrature on the
    other) and returns the worst relative discrepancy.
    """
    rng = np.random.default_rng(seed)
    mask1 = cfg.partition.mask1
    T = mesh.domain.T
    worst = 0.0
    for _ in range(trials):
        w1 = Trace(rng.standard_normal(mesh.Nt + 1), mask1, mesh)
        f0v = rng.standard_normal(mesh.Ny + 1)
        f0v[0] = f0v[-1] = 0.0
        f0 = SpatialProfile(f0v, T, mesh)
        f1 = SpatialProfile(rng.standard_normal(mesh.Ny + 1), T, mesh)
        c1, c2 = apply_A(w1, cfg)
        lhs = duality_pairing(c1, f0) + duality_pairing(c2, f1)
        rhs = float(np.sum(mesh.tau * mask1 * apply_A_star(f0, f1, cfg).values * w1.values))
        worst = max(worst, abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-300))
    return worst


# ---------------------------------------------------------------------------
# exact solutions and refinement studies
# ---------------------------------------------------------------------------

@dataclass
class OracleCase:
    """A named exact solution with a grid ladder.

    ``solution(mesh)`` returns the exact nodal field, shape (Ny+1, Nt+1),
    and its physical velocity at t = 0, shape (Ny+1,).
    """

    name: str
    domain: DomainSpec
    grids: tuple[int, ...]
    solution: Callable[[Mesh], tuple[np.ndarray, np.ndarray]]


def dalembert_reference(bc0, x, t):
    """Fixed string on (0,1), zero data, Dirichlet control h(t) at x=0.

    Characteristics with reflections:
        u(x,t) = sum_m [ h(t - x - 2m) - h(t + x - 2 - 2m) ],
    where h vanishes for nonpositive arguments.  Exact for any number of
    reflections present in [0, t].
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    x, t = np.broadcast_arrays(x, t)
    out = np.zeros_like(t)
    t_max = float(np.max(t)) if t.size else 0.0
    m = 0
    while 2 * m < t_max + 2.0:
        arg1 = t - x - 2.0 * m
        arg2 = t + x - 2.0 - 2.0 * m
        out = out + np.where(arg1 > 0, bc0(np.maximum(arg1, 0.0)), 0.0)
        out = out - np.where(arg2 > 0, bc0(np.maximum(arg2, 0.0)), 0.0)
        m += 1
    return out


def dalembert_solution(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """:func:`dalembert_reference` for a Gaussian pulse datum, at rest at t = 0."""
    pulse = dalembert_reference(lambda s: np.exp(-(((s - 0.35) / 0.08) ** 2)), mesh.y[:, None], mesh.times)
    return pulse, np.zeros(mesh.Ny + 1)


def moving_end_solution(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Moore's moving-mirror solution u = f(tau + x) - f(K (tau - x)), f = sin 3z.

    With tau = t + 1/k and K = (1+k)/(1-k), u solves u_tt = u_xx on
    0 < x < 1 + k t (0 < k < 1) for every smooth f, and vanishes at the
    moving end, where both arguments equal (1+k) tau (Moore, J. Math. Phys.
    11, 1970).
    """
    k = mesh.domain.k
    K = (1.0 + k) / (1.0 - k)
    tau = mesh.times + 1.0 / k
    x = np.outer(mesh.y, mesh.alphas)
    field = np.sin(3.0 * (tau + x)) - np.sin(3.0 * K * (tau - x))
    velocity = 3.0 * np.cos(3.0 * (tau[0] + mesh.y)) - 3.0 * K * np.cos(3.0 * K * (tau[0] - mesh.y))
    return field, velocity


def linear_solution(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """u = x, at rest: the moving end traces alpha(t), and the scheme is exact."""
    return np.outer(mesh.y, mesh.alphas), np.zeros(mesh.Ny + 1)


def _march(mesh: Mesh, exact: np.ndarray, velocity: np.ndarray) -> np.ndarray:
    """The scheme's field for an exact field's own data: its values at y = 0
    and y = 1 and at t = 0, and the physical ``velocity`` at t = 0."""
    every = np.ones(mesh.Nt + 1, bool)
    data = (SpatialProfile(exact[:, 0], 0.0, mesh), SpatialProfile(velocity, 0.0, mesh))
    bc0, bc1 = Trace(exact[0], every, mesh), Trace(exact[-1], every, mesh, side="y=1")
    return solve_forward(bc0, bc1, data).values


def convergence_study(case: OracleCase) -> list[dict]:
    """Errors against the case's exact solution over its grid ladder.

    A row holds ``error`` in the space-time quadrature norm, the largest
    nodal error ``max_error`` and, from the second grid on, the observed
    ``order`` log2(error_prev / error).
    """
    rows: list[dict] = []
    for Ny in case.grids:
        mesh = Mesh.auto(case.domain, Ny)
        exact, velocity = case.solution(mesh)
        diff = _march(mesh, exact, velocity) - exact
        error = float(np.sqrt(np.sum(mesh.W * diff**2)))
        rows.append({"Ny": Ny, "error": error, "max_error": float(np.max(np.abs(diff)))})
    for prev, row in zip(rows, rows[1:]):
        row["order"] = float(np.log2(prev["error"] / row["error"])) if row["error"] > 0 else float("inf")
    return rows


def order_studies(level: str = "fast") -> list[OracleCase]:
    """The suite's second-order studies: d'Alembert at k = 0 and Moore's
    moving end at k = 0.3.  ``full`` adds a finer grid to each ladder."""
    n = 4 if level == "full" else 3
    fixed = DomainSpec(k=0.0, T=2.0, allow_k_zero=True)
    return [
        OracleCase("dalembert_order", fixed, (64, 128, 256, 512)[:n], dalembert_solution),
        OracleCase("moving_end_order", DomainSpec(k=0.3, T=2.0), (32, 64, 128, 256)[:n], moving_end_solution),
    ]


def energy_drift(Ny: int = 200, T: float = 2.0) -> float:
    """Relative drift of the physical energy for the fixed-domain standing
    wave u = sin(pi x) cos(pi t), whose energy is pi^2 / 4 for all time."""
    mesh = Mesh.auto(DomainSpec(k=0.0, T=T, allow_k_zero=True), Ny)
    standing = np.outer(np.sin(np.pi * mesh.y), np.cos(np.pi * mesh.times))
    v = _march(mesh, standing, np.zeros(Ny + 1))
    u_t = (v[:, 2:] - v[:, :-2]) / (2.0 * mesh.dt)
    u_x = np.gradient(v[:, 1:-1], mesh.dy, axis=0)
    energy = 0.5 * mesh.wy @ (u_t**2 + u_x**2)
    e_exact = np.pi**2 / 4.0
    return float(np.max(np.abs(energy - e_exact))) / e_exact


# ---------------------------------------------------------------------------
# canned verification suites
# ---------------------------------------------------------------------------

def run_verification(level: str = "fast", seed: int = 0) -> dict:
    """Run the oracle suites; returns a machine-readable report."""
    if level not in ("fast", "full"):
        raise ConfigurationError("level must be 'fast' or 'full'")
    checks: list[dict] = []

    def record(name: str, metric: float, threshold: float, passed: bool):
        checks.append(
            {"name": name, "metric": metric, "threshold": threshold, "passed": bool(passed)}
        )

    lo, hi = 1.7, 2.3
    for case in order_studies(level):
        orders = [r["order"] for r in convergence_study(case)[1:]]
        record(case.name, min(orders), lo, all(lo <= o <= hi for o in orders))

    lin = convergence_study(OracleCase("linear_exact", DomainSpec(k=0.3, T=2.0), (16, 32), linear_solution))
    worst = max(r["max_error"] for r in lin)
    record("linear_exact", worst, 1e-12, worst <= 1e-12)

    drift = energy_drift(Ny=200 if level == "full" else 100, T=2.0)
    record("energy_drift", drift, 1e-3, drift <= 1e-3)

    domain = DomainSpec(k=0.1, T=4.0)
    mesh = Mesh.auto(domain, 41)
    modes = ["overlap"] if level == "fast" else ["overlap", "time-split"]
    for mode in modes:
        part = (
            SigmaPartition.overlap(mesh.Nt + 1)
            if mode == "overlap"
            else SigmaPartition.time_split(mesh.Nt + 1)
        )
        cfg = FollowerConfig(sigma=1.0, partition=part)
        worst = transpose_check(mesh, cfg, trials=20 if mode == "overlap" else 10, seed=seed)
        record(f"transpose_identity_{mode}", worst, 1e-8, worst <= 1e-8)

    # one-shot direct solve against the reduced solve on the equilibrium pair
    Y, Tm = np.meshgrid(mesh.y, mesh.times, indexing="ij")
    ut2 = Field(np.sin(np.pi * Y) * np.sin(Tm), mesh)
    part = SigmaPartition.overlap(mesh.Nt + 1)
    cfg = FollowerConfig(sigma=1.0, partition=part, u_tilde2=ut2)
    w1 = Trace(np.sin(np.pi * mesh.times / domain.T), part.mask1, mesh)
    mono = monolithic_solve("nash", mesh, cfg, w1=w1)
    mono_scale = max(np.max(np.abs(mono["state"].values)), 1e-300)
    sol = solve_nash_system(w1, cfg)
    err = float(np.max(np.abs(sol.u.values - mono["state"].values)) / mono_scale)
    record("nash_schur_vs_monolithic", err, 1e-6, err <= 1e-6)
    record("monolithic_residual", mono["residual"], 1e-10, mono["residual"] <= 1e-10)

    return {
        "level": level,
        "seed": seed,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
