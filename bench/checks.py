"""Independent checks of hierwave outputs.

Everything here is the benchmark's own arithmetic: trapezoid weights, the
physical L2 norm, the H^-1 norm through a hand-written tridiagonal solve, the
leader cost, and the analytic input profiles.  The only program code the
checks call is the time-stepping march (``WaveOperator.march``, the path
``solve_forward`` takes), which is a different solve path from the sparse LU
solves the follower and the leader use, and ``hierwave nash`` itself when a
leader control has to be replayed.

Every check returns a list of failure messages, each tagged with the check
that raised it ([J-report], [J-ref], [reach], [ladder], [march], [FOC]); an
empty list means pass.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# Relative slack on the ball radii when a leader control is replayed through
# ``hierwave nash``: the replay converges Picard to 1e-11 while the leader
# used the direct coupled solve, and the feasibility polish leaves a 1e-7
# margin inside the balls.
REACH_SLACK = 1e-6
# J(w1*) read back from w1_star.csv against report.json's primal_J.
J_RTOL = 1e-9
# Re-marched state against u.csv, relative to max |u|.
MARCH_RTOL = 1e-7
# Follower first-order condition, relative to the sum of the absolute values
# of its summands (its round-off scale: the two terms nearly cancel, and each
# is itself a sum with cancellation).
FOC_RTOL = 1e-6
FOC_DIRECTIONS = 3


# ---------------------------------------------------------------------------
# grids, quadrature, norms
# ---------------------------------------------------------------------------

def auto_nt(Ny: int, k: float, T: float, cfl: float = 0.8) -> int:
    """Smallest step count with dt <= cfl * dy / (1 + k)."""
    return max(int(math.ceil(T * (1.0 + k) / (cfl / Ny))), 8)


def trap(n_nodes: int, spacing: float) -> np.ndarray:
    w = np.full(n_nodes, spacing)
    w[0] = w[-1] = spacing / 2.0
    return w


def l2_phys(values: np.ndarray, alpha_T: float) -> float:
    """L2 norm on (0, alpha_T) of nodal values on the unit grid."""
    Ny = values.size - 1
    return math.sqrt(alpha_T * float(np.sum(trap(Ny + 1, 1.0 / Ny) * values**2)))


def _tridiag_solve(diag: float, off: float, rhs: np.ndarray) -> np.ndarray:
    """Thomas algorithm for the constant tridiagonal matrix (off, diag, off)."""
    n = rhs.size
    c = np.empty(n)
    d = np.empty(n)
    c[0] = off / diag
    d[0] = rhs[0] / diag
    for i in range(1, n):
        den = diag - off * c[i - 1]
        c[i] = off / den
        d[i] = (rhs[i] - off * d[i - 1]) / den
    x = np.empty(n)
    x[-1] = d[-1]
    for i in range(n - 2, -1, -1):
        x[i] = d[i] - c[i] * x[i + 1]
    return x


def hm1_phys(values: np.ndarray, alpha_T: float) -> float:
    """Dual norm of H^1_0(0, alpha_T): sqrt(<f, v>) with -v'' = f, v = 0 at the ends."""
    Ny = values.size - 1
    hx = alpha_T / Ny
    f = values[1:-1]
    v = _tridiag_solve(2.0 / hx**2, -1.0 / hx**2, f)
    return math.sqrt(max(hx * float(f @ v), 0.0))


def leader_cost(values: np.ndarray, T: float) -> float:
    """J(w) = 1/2 sum tau_n w_n^2 on the time grid of the trace."""
    Nt = values.size - 1
    return 0.5 * float(np.sum(trap(Nt + 1, T / Nt) * values**2))


def space_time_weights(Ny: int, Nt: int, k: float, T: float) -> np.ndarray:
    t = np.linspace(0.0, T, Nt + 1)
    return np.outer(trap(Ny + 1, 1.0 / Ny), trap(Nt + 1, T / Nt) * (1.0 + k * t))


def profile(spec: dict, xi: np.ndarray) -> np.ndarray:
    """The analytic families the benchmark generates inputs from."""
    fam = spec["family"]
    a = float(spec.get("amplitude", 1.0))
    if fam == "gaussian":
        return a * np.exp(-0.5 * ((xi - spec["center"]) / spec["width"]) ** 2)
    if fam == "sine":
        return a * np.sin(np.pi * spec.get("frequency", 1.0) * xi + spec.get("phase", 0.0))
    raise ValueError(f"no evaluator for profile family {fam!r}")


def tracked_field(spec: dict, Ny: int, Nt: int, T: float) -> np.ndarray:
    y = np.linspace(0.0, 1.0, Ny + 1)
    t = np.linspace(0.0, T, Nt + 1)
    return np.outer(profile(spec["space"], y), profile(spec["time"], t / T))


def read_csv(path) -> np.ndarray:
    """Rows of a hierwave CSV: '#' comment lines, one header row, numbers."""
    rows = []
    header_seen = False
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            if not header_seen:
                header_seen = True
                continue
            rows.append([float(x) for x in line.split(",")])
    return np.asarray(rows)


def read_values(path) -> np.ndarray:
    return read_csv(path)[:, -1]


def read_field(path, Ny: int, Nt: int) -> np.ndarray:
    """u.csv rows run over j fastest, then n; returns shape (Ny+1, Nt+1)."""
    return read_values(path).reshape(Nt + 1, Ny + 1).T.copy()


# ---------------------------------------------------------------------------
# leader ops
# ---------------------------------------------------------------------------

def leader_J(out_dir: Path, T: float) -> float:
    return leader_cost(read_values(out_dir / "w1_star.csv"), T)


def check_leader(out_dir: Path, check: dict, replay) -> list[str]:
    """J(w1*) against the report and the reference control, then reach.

    ``replay(config, out_dir)`` runs ``hierwave nash`` driven by
    w1_star.csv and returns its exit code.
    """
    errors = []
    T = check["T"]
    J_star = leader_J(out_dir, T)
    report = json.loads((out_dir / "report.json").read_text())
    if abs(J_star - report["primal_J"]) > J_RTOL * max(abs(J_star), 1e-300):
        errors.append(f"[J-report] J(w1*)={J_star:.12g} disagrees with primal_J={report['primal_J']:.12g}")
    if J_star > check["J_ref"] * (1.0 + J_RTOL):
        errors.append(f"[J-ref] J(w1*)={J_star:.12g} exceeds J(w1_ref)={check['J_ref']:.12g}")

    config = json.loads(json.dumps(check["replay_config"]))
    config["leader"] = {"csv": str(out_dir / "w1_star.csv")}
    replay_dir = out_dir / "replay"
    code = replay(config, replay_dir)
    if code != 0:
        return errors + [f"[reach] hierwave nash on w1_star exited {code}"]
    alpha_T = 1.0 + check["k"] * T
    u_T = read_values(replay_dir / "u_T.csv")
    ut_T = read_values(replay_dir / "ut_T.csv")
    d0 = l2_phys(u_T - read_values(check["target_u0"]), alpha_T)
    d1 = hm1_phys(ut_T - read_values(check["target_u1"]), alpha_T)
    rho0, rho1 = check["rho0"], check["rho1"]
    if d0 > rho0 * (1.0 + REACH_SLACK):
        errors.append(f"[reach] value distance {d0:.12g} outside rho0={rho0:.12g} ({d0 / rho0:.9f} rho0)")
    if d1 > rho1 * (1.0 + REACH_SLACK):
        errors.append(f"[reach] velocity distance {d1:.12g} outside rho1={rho1:.12g} ({d1 / rho1:.9f} rho1)")
    return errors


def check_ladder(points: list[tuple[float, float]]) -> list[str]:
    """J must not increase as the balls grow: points are (rho_rel, J) in run order."""
    errors = []
    for (r_a, J_a), (r_b, J_b) in zip(points, points[1:]):
        if r_b <= r_a:
            errors.append(f"[ladder] not ascending in rho: {r_a} then {r_b}")
        elif J_b > J_a * (1.0 + J_RTOL):
            errors.append(f"[ladder] J rose from {J_a:.12g} at rho={r_a} to {J_b:.12g} at rho={r_b}")
    return errors


# ---------------------------------------------------------------------------
# nash ops
# ---------------------------------------------------------------------------

def check_nash(out_dir: Path, check: dict, march, seed: int) -> list[str]:
    """Re-march u.csv from w1 + w2 and test the follower's first-order condition.

    ``march(bc)`` returns the state driven by boundary data ``bc`` at the
    fixed endpoint from zero initial data, shape (Ny+1, Nt+1).  Both
    partitions are the overlap mode, so the state sees w1 + w2 everywhere.
    """
    errors = []
    Ny, Nt, k, T = check["Ny"], check["Nt"], check["k"], check["T"]
    sigma = check["sigma"]
    t = np.linspace(0.0, T, Nt + 1)
    w1 = profile(check["leader"], t / T)
    w2 = read_values(out_dir / "w2.csv")
    u = read_field(out_dir / "u.csv", Ny, Nt)
    scale = max(float(np.max(np.abs(u))), 1e-300)
    drift = float(np.max(np.abs(march(w1 + w2) - u)))
    if drift > MARCH_RTOL * scale:
        errors.append(f"[march] u.csv differs from the march of w1 + w2 by {drift / scale:.3e} (relative)")

    W = space_time_weights(Ny, Nt, k, T)
    tau = trap(Nt + 1, T / Nt)
    misfit = u - tracked_field(check["u_tilde2"], Ny, Nt, T)
    rng = np.random.default_rng([seed, 0xF0C])
    for i in range(FOC_DIRECTIONS):
        h = rng.standard_normal(Nt + 1)
        parts1 = W * misfit * march(h)
        parts2 = sigma * tau * w2 * h
        term1 = float(np.sum(parts1))
        term2 = float(np.sum(parts2))
        scale = float(np.sum(np.abs(parts1)) + np.sum(np.abs(parts2)))
        if abs(term1 + term2) > FOC_RTOL * scale:
            errors.append(
                f"[FOC] first-order condition fails along direction {i}: "
                f"{term1:.6e} + {term2:.6e} = {term1 + term2:.3e}"
            )
    return errors
