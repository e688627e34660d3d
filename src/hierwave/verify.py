"""Independent oracles and cross-checks.

Each oracle is algorithmically independent of the code path it checks:
closed-form characteristics for the fixed-domain limit, one-shot direct
solves of the assembled coupled systems against the reduced (Schur) solve
that every default path takes, a two-sided duality identity, and
grid-refinement order studies against either exact solutions or a
fine-grid reference.  The discretization itself is validated only against
closed forms; the direct coupled solves share the stencils on purpose, so
they isolate errors in the coupling logic.  They run through the engine's
one coupled LU (:meth:`~hierwave.coupled.CoupledEngine.direct_pair`,
:meth:`~hierwave.coupled.CoupledEngine.direct_adjoint_pair`), which refuses
grids above Ny = 64.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from pathlib import Path
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
    l2_inner_physical,
    space_time_weights,
    trapezoid_weights,
)
from .coupled import FollowerConfig, apply_A, apply_A_star, get_engine, solve_nash_system
from .wave_core import WaveProblem, solve_forward

__all__ = [
    "dalembert_reference",
    "OracleCase",
    "monolithic_solve",
    "transpose_check",
    "TransposeReport",
    "convergence_study",
    "run_verification",
]


# ---------------------------------------------------------------------------
# closed-form reference for the fixed-domain limit
# ---------------------------------------------------------------------------

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
    return out if out.ndim else float(out)


@dataclass
class OracleCase:
    """A named reference problem with a grid ladder."""

    name: str
    domain: DomainSpec
    grids: tuple[int, ...]
    bc0_func: Callable | None = None
    reference: str = "closed-form"


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
    delta: float = 0.0,
):
    """Solve a coupled system in one shot, no fixed-point iteration.

    ``system`` is one of nash, free_part, leader_part, adjoint_pair.  All
    unknown fields form a single sparse linear system sharing the stepper's
    stencils, solved through the engine's coupled LU; ``residual`` is taken
    against the assembled matrix.  Grids above Ny = 64 are refused (memory
    guard of :meth:`~hierwave.coupled.CoupledEngine.coupled_lu`).
    """
    eng = get_engine(mesh, cfg)

    if system in ("nash", "free_part", "leader_part"):
        if system == "free_part":
            w1_values = np.zeros(mesh.Nt + 1)
        elif w1 is None:
            raise ConfigurationError(f"system {system!r} needs a leader trace")
        else:
            w1_values = w1.values
        utilde = cfg.u_tilde2.values if system != "leader_part" and cfg.u_tilde2 is not None else None
        state, lam, w2 = eng.direct_pair(w1_values, utilde)
        rhs = eng.coupled_rhs(w1_values, utilde)
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
        rho = eng.terminal_cotangent(f0.values, f1.values, delta)
        mu, psi = eng.direct_adjoint_pair(rho)
        trace = np.where(cfg.partition.mask1, mu[0, :] / eng.tau, 0.0)
        return {
            "phi": Field(eng.phi_field(mu, psi, f0.values, f1.values), mesh),
            "psi": Field(psi, mesh),
            "leader_trace": Trace(trace, cfg.partition.mask1, mesh),
            "residual": _relative_residual(eng.coupled_matrix().T, eng, (mu, psi), eng.adjoint_rhs(rho)),
        }

    raise ConfigurationError(f"unknown system {system!r}")


# ---------------------------------------------------------------------------
# two-sided duality identity
# ---------------------------------------------------------------------------

@dataclass
class TransposeReport:
    max_rel_error: float
    per_trial: list[dict] = dc_field(default_factory=list)


def transpose_check(
    mesh: Mesh,
    cfg: FollowerConfig,
    trials: int = 20,
    seed: int = 0,
    delta: float = 0.0,
) -> TransposeReport:
    """Compare the reach-operator pairing against the adjoint-trace pairing.

    For seeded random controls and final data, evaluates both sides of the
    duality identity independently (operator application plus profile
    pairings on one side, adjoint application plus trace quadrature on the
    other) and reports the worst relative discrepancy.
    """
    rng = np.random.default_rng(seed)
    tau = trapezoid_weights(mesh.Nt + 1, mesh.dt)
    mask1 = cfg.partition.mask1
    T = mesh.domain.T
    report = TransposeReport(0.0, [])
    for trial in range(trials):
        w1 = Trace(rng.standard_normal(mesh.Nt + 1), mask1, mesh)
        f0v = rng.standard_normal(mesh.Ny + 1)
        f0v[0] = f0v[-1] = 0.0
        f0 = SpatialProfile(f0v, T, mesh)
        f1 = SpatialProfile(rng.standard_normal(mesh.Ny + 1), T, mesh)
        c1, c2 = apply_A(w1, cfg, delta)
        lhs = duality_pairing(c1, f0) + l2_inner_physical(c2, f1)
        pair = apply_A_star(f0, f1, cfg, delta)
        rhs = float(np.sum(tau * mask1 * pair.leader_trace.values * w1.values))
        denom = abs(lhs) + abs(rhs) + 1e-300
        rel = abs(lhs - rhs) / denom
        report.per_trial.append({"trial": trial, "lhs": lhs, "rhs": rhs, "rel": rel})
        report.max_rel_error = max(report.max_rel_error, rel)
    return report


# ---------------------------------------------------------------------------
# refinement studies
# ---------------------------------------------------------------------------

def _gaussian_pulse(s):
    return np.exp(-(((s - 0.35) / 0.08) ** 2))


def _field_error(mesh: Mesh, fld: Field, exact_vals: np.ndarray) -> float:
    W = space_time_weights(mesh)
    diff = fld.values - exact_vals
    return float(np.sqrt(np.sum(W * diff**2)))


def _solve_bc_problem(
    domain: DomainSpec, Ny: int, bc0_func, nested: bool = False
) -> tuple[Mesh, Field]:
    if nested:
        # fixed dt/dy ratio so that grid ladders nest in both directions
        steps_per_cell = int(np.ceil(domain.T * (1.0 + domain.k) / 0.8))
        from .grid import GridSpec

        mesh = Mesh(domain, GridSpec(Ny=Ny, Nt=steps_per_cell * Ny))
    else:
        mesh = Mesh.auto(domain, Ny)
    bc_vals = bc0_func(mesh.times)
    prob = WaveProblem(direction="forward", bc0=Trace(bc_vals, np.ones(mesh.Nt + 1, bool), mesh))
    return mesh, solve_forward(prob)


def convergence_study(case: OracleCase) -> list[dict]:
    """Errors and observed orders over the case's grid ladder."""
    if len(case.grids) < 3 and case.reference != "linear-exact":
        raise ConfigurationError("need a ladder of at least 3 grids")
    bc0 = case.bc0_func or _gaussian_pulse
    rows: list[dict] = []

    if case.reference == "closed-form":
        for Ny in case.grids:
            mesh, fld = _solve_bc_problem(case.domain, Ny, bc0)
            Y, Tm = np.meshgrid(mesh.y, mesh.times, indexing="ij")
            exact = dalembert_reference(bc0, Y, Tm)
            rows.append({"Ny": Ny, "error": _field_error(mesh, fld, exact)})
    elif case.reference == "self":
        ref_Ny = case.grids[-1] * 4
        ref_mesh, ref_fld = _solve_bc_problem(case.domain, ref_Ny, bc0, nested=True)
        for Ny in case.grids:
            mesh, fld = _solve_bc_problem(case.domain, Ny, bc0, nested=True)
            ry = ref_Ny // Ny
            rt = ref_mesh.Nt // mesh.Nt
            if ref_mesh.Nt % mesh.Nt or ref_Ny % Ny:
                raise ConfigurationError("self-convergence ladder must nest")
            ref_on_coarse = ref_fld.values[::ry, ::rt]
            rows.append({"Ny": Ny, "error": _field_error(mesh, fld, ref_on_coarse)})
    elif case.reference == "linear-exact":
        # u = x is a solution with the moving endpoint tracing alpha(t)
        for Ny in case.grids:
            mesh = Mesh.auto(case.domain, Ny)
            a = mesh.alphas
            bc1 = Trace(a.copy(), np.ones(mesh.Nt + 1, bool), mesh, side="y=1")
            bc0 = Trace(np.zeros(mesh.Nt + 1), np.ones(mesh.Nt + 1, bool), mesh)
            init_val = SpatialProfile(mesh.y.copy(), 0.0, mesh)
            init_vel = SpatialProfile(np.zeros(mesh.Ny + 1), 0.0, mesh)
            prob = WaveProblem("forward", bc0, bc1, None, (init_val, init_vel))
            fld = solve_forward(prob)
            exact = np.outer(mesh.y, a)
            rows.append({"Ny": Ny, "error": float(np.max(np.abs(fld.values - exact)))})
    else:
        raise ConfigurationError(f"unknown reference kind {case.reference!r}")

    for i in range(1, len(rows)):
        e0, e1 = rows[i - 1]["error"], rows[i]["error"]
        rows[i]["order"] = float(np.log2(e0 / e1)) if e1 > 0 else float("inf")
    return rows


def energy_drift(Ny: int = 200, T: float = 2.0) -> float:
    """Relative drift of the physical energy for the fixed-domain standing wave.

    Initial shape sin(pi x), zero velocity, zero boundary data; the energy is
    pi^2 / 4 for all time.
    """
    domain = DomainSpec(k=0.0, T=T, allow_k_zero=True)
    mesh = Mesh.auto(domain, Ny)
    zero_tr = Trace(np.zeros(mesh.Nt + 1), np.ones(mesh.Nt + 1, bool), mesh)
    zero_tr1 = Trace(np.zeros(mesh.Nt + 1), np.ones(mesh.Nt + 1, bool), mesh, side="y=1")
    init_val = SpatialProfile(np.sin(np.pi * mesh.y), 0.0, mesh)
    init_vel = SpatialProfile(np.zeros(mesh.Ny + 1), 0.0, mesh)
    fld = solve_forward(WaveProblem("forward", zero_tr, zero_tr1, None, (init_val, init_vel)))
    v = fld.values
    wy = trapezoid_weights(mesh.Ny + 1, mesh.dy)
    e_exact = np.pi**2 / 4.0
    worst = 0.0
    for n in range(1, mesh.Nt):
        u_t = (v[:, n + 1] - v[:, n - 1]) / (2.0 * mesh.dt)
        u_x = np.gradient(v[:, n], mesh.dy)
        energy = 0.5 * float(np.sum(wy * (u_t**2 + u_x**2)))
        worst = max(worst, abs(energy - e_exact) / e_exact)
    return worst


# ---------------------------------------------------------------------------
# canned verification suites
# ---------------------------------------------------------------------------

def _case_dalembert(grids=(64, 128, 256)) -> OracleCase:
    return OracleCase(
        name="dalembert_order",
        domain=DomainSpec(k=0.0, T=2.0, allow_k_zero=True),
        grids=grids,
        reference="closed-form",
    )


def _case_self(grids=(50, 100, 200)) -> OracleCase:
    return OracleCase(
        name="self_convergence_order",
        domain=DomainSpec(k=0.1, T=1.0),
        grids=grids,
        reference="self",
    )


def _case_linear(grids=(16, 32)) -> OracleCase:
    return OracleCase(
        name="linear_exact",
        domain=DomainSpec(k=0.3, T=2.0),
        grids=grids,
        reference="linear-exact",
    )


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
    dal = convergence_study(_case_dalembert((64, 128, 256) if level == "fast" else (64, 128, 256, 512)))
    orders = [r["order"] for r in dal if "order" in r]
    record("dalembert_order", min(orders), lo, all(lo <= o <= hi for o in orders))

    slf = convergence_study(_case_self((50, 100, 200)))
    orders = [r["order"] for r in slf if "order" in r]
    record("self_convergence_order", min(orders), lo, all(lo <= o <= hi for o in orders))

    lin = convergence_study(_case_linear())
    record("linear_exact", max(r["error"] for r in lin), 1e-12, all(r["error"] <= 1e-12 for r in lin))

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
        rep = transpose_check(mesh, cfg, trials=20 if mode == "overlap" else 10, seed=seed)
        record(f"transpose_identity_{mode}", rep.max_rel_error, 1e-8, rep.max_rel_error <= 1e-8)

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


def write_verification_report(report: dict, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True))
