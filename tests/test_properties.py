"""Properties of the method that every follower solve path must keep.

Each example draws a grid, a domain, a follower weight, a partition and
seeded smooth data, solves on the default path and checks it against
properties computed here from scratch: the state re-marched from the two
controls, the follower's first-order condition, the one-shot coupled
oracle of ``verify.monolithic_solve``, and the transpose identity between
the reach operator and its adjoint.  A second test solves the leader's
problem on manufactured targets and checks its answer: the reach replayed
through the equilibrium solve, the cost read back from the control, weak
duality, and monotonicity in the ball radii.  Weights, pairings and norms
are written out below rather than taken from the program.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from hierwave.coupled import (
    FollowerConfig,
    apply_A,
    apply_A_star,
    solve_nash_system,
)
from hierwave.geometry import DomainSpec, SigmaPartition, min_control_time
from hierwave.grid import Field, Mesh, SpatialProfile, Trace
from hierwave.leader_dual import DualOptions, TargetSpec, minimize_dual
from hierwave.verify import monolithic_solve
from hierwave.wave_core import WaveOperator
from references import dual_functional

# T is drawn from [T0, T0 + 2] with T0 = min(T*(k), T_CAP): T*(k) passes 6
# near k = 0.17 and is 444 at k = 0.4, where a grid would need 10^4 steps.
# None of the properties below depends on T >= T*.
T_CAP = 6.0
MARCH_RTOL = 1e-7
FOC_RTOL = 1e-6
FOC_DIRECTIONS = 3
# the bound hierwave verify puts on the reduced solve against the same oracle
ORACLE_RTOL = 1e-6
TRANSPOSE_RTOL = 1e-8
# the leader's answer: ball membership, as the program's REACHED_RTOL, and
# the weak-duality excess J + D(f*).  The solve aims at radii shrunk by 1e-7,
# which leaves an excess of 1e-7 (rho1 |f0*| + rho0 |f1*|): bounded relative
# to that sum, not to J alone, which nears 0 as a ball nears the free state.
REACH_RTOL = 1e-9
DUALITY_LOW = -1e-9
DUALITY_HIGH = 1e-6


def trap(n_nodes, spacing):
    w = np.full(n_nodes, spacing)
    w[0] = w[-1] = spacing / 2.0
    return w


def smooth_inputs(mesh, rng):
    """A leader trace of three time modes and a separable tracked field."""
    t = mesh.times / mesh.domain.T
    leader = sum(rng.normal() * np.sin((i + 1) * np.pi * t + rng.uniform(0, 1)) for i in range(3))
    space = np.sin(np.pi * rng.integers(1, 3) * mesh.y)
    time = np.cos(rng.uniform(0.5, 3.0) * np.pi * t)
    return leader, rng.uniform(0.1, 1.0) * np.outer(space, time)


@settings(max_examples=40, deadline=None)
@given(
    Ny=st.integers(8, 24),
    k=st.floats(0.01, 0.5, exclude_max=True),
    T_extra=st.floats(0.0, 2.0),
    log_sigma=st.floats(-4.0, 2.0),
    time_split=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_default_path_properties(Ny, k, T_extra, log_sigma, time_split, seed):
    T = min(min_control_time(k), T_CAP) + T_extra
    sigma = 10.0**log_sigma
    mesh = Mesh.auto(DomainSpec(k=k, T=T), Ny)
    n = mesh.Nt + 1
    part = SigmaPartition.time_split(n) if time_split else SigmaPartition.overlap(n)
    chi1, chi2 = part.mask1.astype(float), part.mask2.astype(float)
    rng = np.random.default_rng(seed)
    leader, tracked = smooth_inputs(mesh, rng)
    cfg = FollowerConfig(sigma=sigma, partition=part, u_tilde2=Field(tracked, mesh))
    w1 = Trace(leader, part.mask1, mesh)
    sol = solve_nash_system(w1, cfg)
    u, w2 = sol.u.values, sol.w2.values

    # the state, re-marched from the two controls
    op = WaveOperator(mesh)
    zeros_t, zeros_y = np.zeros(n), np.zeros(Ny + 1)

    def march(bc):
        return op.march(bc, zeros_t, zeros_y, zeros_y)

    scale = max(float(np.max(np.abs(u))), 1e-300)
    drift = float(np.max(np.abs(march(chi1 * leader + chi2 * w2) - u)))
    assert drift <= MARCH_RTOL * scale, drift / scale

    # the follower's first-order condition along random directions
    tau = trap(n, mesh.dt)
    W = np.outer(trap(Ny + 1, mesh.dy), tau * (1.0 + k * mesh.times))
    for _ in range(FOC_DIRECTIONS):
        h = chi2 * rng.standard_normal(n)
        parts1 = W * (u - tracked) * march(h)
        parts2 = sigma * tau * w2 * h
        defect = abs(parts1.sum() + parts2.sum())
        assert defect <= FOC_RTOL * (np.abs(parts1).sum() + np.abs(parts2).sum())

    # the one-shot coupled oracle
    mono = monolithic_solve("nash", mesh, cfg, w1=w1)["state"].values
    gap = float(np.max(np.abs(u - mono)))
    assert gap <= ORACLE_RTOL * max(float(np.max(np.abs(mono))), 1e-300), gap

    # the transpose identity, reach operator against its adjoint
    plain = FollowerConfig(sigma=sigma, partition=part)
    omega = (1.0 + k * T) * trap(Ny + 1, mesh.dy)
    f0v = rng.standard_normal(Ny + 1)
    f0v[0] = f0v[-1] = 0.0
    f1v = rng.standard_normal(Ny + 1)
    c1, c2 = apply_A(w1, plain)
    lhs = float(np.sum(omega * (c1.values * f0v + c2.values * f1v)))
    trace = apply_A_star(SpatialProfile(f0v, T, mesh), SpatialProfile(f1v, T, mesh), plain)
    rhs = float(np.sum(tau * chi1 * trace.values * leader))
    assert abs(lhs - rhs) <= TRANSPOSE_RTOL * (abs(lhs) + abs(rhs)), (lhs, rhs)


def final_state(mesh, u):
    """u(T) and the physical u_t(T): second order one-sided in time, less the
    drift of the moving frame."""
    N, k, aT = mesh.Nt, mesh.domain.k, 1.0 + mesh.domain.k * mesh.domain.T
    v_t = (3.0 * u[:, N] - 4.0 * u[:, N - 1] + u[:, N - 2]) / (2.0 * mesh.dt)
    return u[:, N], v_t - (k * mesh.y / aT) * np.gradient(u[:, N], mesh.dy, edge_order=2)


def l2_norm(mesh, e):
    aT = 1.0 + mesh.domain.k * mesh.domain.T
    return float(np.sqrt(np.sum(aT * trap(mesh.Ny + 1, mesh.dy) * e**2)))


def h10_norm(mesh, e):
    hx = (1.0 + mesh.domain.k * mesh.domain.T) * mesh.dy
    return float(np.sqrt(np.sum(np.diff(e) ** 2) / hx))


def hminus1_norm(mesh, e):
    """sqrt(<e, v>) with -v'' = e on (0, 1 + k T), v = 0 at both ends."""
    hx = (1.0 + mesh.domain.k * mesh.domain.T) * mesh.dy
    n = mesh.Ny - 1
    lap = (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / hx**2
    inner = e[1:-1]
    return float(np.sqrt(hx * inner @ np.linalg.solve(lap, inner)))


@settings(max_examples=20, deadline=None)
@given(
    Ny=st.integers(8, 20),
    k=st.floats(0.01, 0.15),
    T_extra=st.floats(0.0, 1.0),
    log_sigma=st.floats(-2.0, 1.0),
    time_split=st.booleans(),
    seed=st.integers(0, 2**16),
)
# the leader acts on [0, T/2] only: the unguarded Newton step pushed a
# multiplier through zero and cycled between two points missing both balls
@example(Ny=8, k=0.015625, T_extra=0.0, log_sigma=0.0, time_split=True, seed=1768)
# two slow early iterates met the stall rule meant for the round-off floor,
# and the solve stopped at 4% above the optimum with a ball missed
@example(Ny=10, k=0.0625, T_extra=0.0, log_sigma=-1.5, time_split=False, seed=432)
def test_leader_default_path_properties(Ny, k, T_extra, log_sigma, time_split, seed):
    T = min_control_time(k) + T_extra
    mesh = Mesh.auto(DomainSpec(k=k, T=T), Ny)
    n = mesh.Nt + 1
    part = SigmaPartition.time_split(n) if time_split else SigmaPartition.overlap(n)
    rng = np.random.default_rng(seed)
    leader, tracked = smooth_inputs(mesh, rng)
    cfg = FollowerConfig(sigma=10.0**log_sigma, partition=part, u_tilde2=Field(tracked, mesh))
    tau = trap(n, mesh.dt)
    # targets: the final state of a reference leader, so the balls are reachable
    u_T, ut_T = final_state(mesh, solve_nash_system(Trace(leader, part.mask1, mesh), cfg).u.values)
    costs = []
    for rho_rel in (0.05, 0.1):
        targets = TargetSpec(
            SpatialProfile(u_T, T, mesh),
            SpatialProfile(ut_T, T, mesh),
            rho_rel * l2_norm(mesh, u_T),
            rho_rel * hminus1_norm(mesh, ut_T),
        )
        f_star, w1_star, rep = minimize_dual(targets, cfg, DualOptions())
        assert rep.certified, rep.notes

        # the reach, replayed through the equilibrium solve
        v_T, vt_T = final_state(mesh, solve_nash_system(w1_star, cfg).u.values)
        assert l2_norm(mesh, v_T - u_T) <= targets.rho0 * (1.0 + REACH_RTOL)
        assert hminus1_norm(mesh, vt_T - ut_T) <= targets.rho1 * (1.0 + REACH_RTOL)

        # the cost, read back from the control by the trapezoid rule
        J = 0.5 * float(np.sum(tau * part.mask1 * w1_star.values**2))
        assert abs(J - rep.primal_J) <= 1e-12 * J

        # weak duality: J bounds -D from above, and the optimum closes the gap
        excess = J + dual_functional(f_star, targets, cfg)
        scale = J + targets.rho1 * h10_norm(mesh, f_star.f0.values) + targets.rho0 * l2_norm(
            mesh, f_star.f1.values
        )
        assert DUALITY_LOW * J <= excess <= DUALITY_HIGH * scale, (excess, J, scale)
        costs.append(J)
    # a larger ball never costs more
    assert costs[1] <= costs[0] * (1.0 - DUALITY_LOW), costs
