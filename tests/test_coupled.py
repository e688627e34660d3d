import gc
import weakref

import numpy as np
import pytest
import scipy.linalg

from hierwave.errors import ConfigurationError, ConvergenceError
from hierwave.geometry import DomainSpec, SigmaPartition
from hierwave.grid import (
    Field,
    Mesh,
    SpatialProfile,
    Trace,
    duality_pairing,
    trapezoid_weights,
)
from hierwave import coupled
from hierwave.coupled import (
    CoupledEngine,
    FollowerConfig,
    PicardOptions,
    apply_A,
    apply_A_star,
    cost_J,
    cost_J2,
    euler_lagrange_residual,
    get_engine,
    solve_nash_system,
)
from hierwave.wave_core import (
    WaveOperator,
    extract_terminal,
    trace_normal_derivative,
)
from references import trace_norm
from reversed_time import solve_backward


def rand_trace(mesh, mask, rng):
    return Trace(rng.standard_normal(mesh.Nt + 1), mask, mesh)


def rand_dual_profiles(mesh, rng):
    T = mesh.domain.T
    f0v = rng.standard_normal(mesh.Ny + 1)
    f0v[0] = f0v[-1] = 0.0
    return (
        SpatialProfile(f0v, T, mesh),
        SpatialProfile(rng.standard_normal(mesh.Ny + 1), T, mesh),
    )


def direct_reach(draws, cfg):
    """apply_A and apply_A_star's leader trace through the coupled LU, for
    every draw (w1, f0, f1): one factorization solves the state systems, and
    transposed, the adjoint pairs, as verify.monolithic_solve's ``nash``
    with no tracked trajectory and ``adjoint_pair`` do one at a time."""
    mesh = draws[0][0].mesh
    eng = get_engine(mesh, cfg)
    lu = eng.coupled_lu()
    size = eng.W.size
    states = lu.solve(np.stack([eng.coupled_rhs(w1.values, None) for w1, _, _ in draws], axis=1))
    rhos = [eng.terminal_cotangent(f0.values, f1.values) for _, f0, f1 in draws]
    mus = lu.solve(np.stack([eng.adjoint_rhs(rho) for rho in rhos], axis=1), trans="T")
    T = mesh.domain.T
    out = []
    for i in range(len(draws)):
        c1, c2 = extract_terminal(mesh, eng.op._unflatten(states[:size, i]))
        trace = np.where(cfg.partition.mask1, eng.op._unflatten(mus[:size, i])[0, :] / eng.tau, 0.0)
        out.append((SpatialProfile(c1, T, mesh), SpatialProfile(c2, T, mesh), trace))
    return out


def reach(draws, cfg):
    return [(*apply_A(w1, cfg), apply_A_star(f0, f1, cfg).values) for w1, f0, f1 in draws]


def el_scale(sol, cfg, direction):
    W = sol.u.mesh.W
    ut = cfg.u_tilde2.values if cfg.u_tilde2 is not None else 0.0
    misfit = np.sqrt(np.sum(W * (sol.u.values - ut) ** 2))
    return misfit + cfg.sigma * trace_norm(sol.w2) * trace_norm(direction) + 1e-30


def test_zero_fixed_point(mesh41, overlap41):
    cfg = FollowerConfig(sigma=1.0, partition=overlap41)
    w1 = Trace(np.zeros(mesh41.Nt + 1), overlap41.mask1, mesh41)
    sol = solve_nash_system(w1, cfg)
    assert np.all(sol.u.values == 0.0)
    assert np.all(sol.p.values == 0.0)
    assert np.all(sol.w2.values == 0.0)
    assert sol.residual == 0.0


def test_linearity_in_data(mesh41, overlap41):
    cfg = FollowerConfig(sigma=1.0, partition=overlap41)
    rng = np.random.default_rng(2)
    wa = rand_trace(mesh41, overlap41.mask1, rng)
    wb = rand_trace(mesh41, overlap41.mask1, rng)
    wab = Trace(wa.values + wb.values, overlap41.mask1, mesh41)
    sa = solve_nash_system(wa, cfg)
    sb = solve_nash_system(wb, cfg)
    sab = solve_nash_system(wab, cfg)
    scale = np.max(np.abs(sab.u.values)) + 1.0
    assert np.max(np.abs(sab.u.values - sa.u.values - sb.u.values)) < 1e-9 * scale
    assert np.max(np.abs(sab.p.values - sa.p.values - sb.p.values)) < 1e-9 * scale


def test_decomposition_identity(mesh41, cfg41, w1_smooth):
    nash = solve_nash_system(w1_smooth, cfg41)
    free = solve_nash_system(Trace.zeros(mesh41, cfg41.partition.mask1), cfg41)
    # the leader-linear part: the same system with the tracked trajectory removed
    lead = solve_nash_system(w1_smooth, FollowerConfig(cfg41.sigma, cfg41.partition))
    scale = np.max(np.abs(nash.u.values)) + 1.0
    assert np.max(np.abs(nash.u.values - free.u.values - lead.u.values)) < 1e-9 * scale
    assert np.max(np.abs(nash.p.values - free.p.values - lead.p.values)) < 1e-9 * scale


def test_free_part_zero_without_tracking(mesh41, overlap41):
    cfg = FollowerConfig(sigma=1.0, partition=overlap41)
    free = solve_nash_system(Trace.zeros(mesh41, cfg.partition.mask1), cfg)
    assert np.all(free.u.values == 0.0)
    assert np.all(free.p.values == 0.0)


def test_nash_boundary_condition(mesh41, cfg41, w1_smooth):
    sol = solve_nash_system(w1_smooth, cfg41)
    bc_expected = (
        cfg41.partition.mask1 * w1_smooth.values + cfg41.partition.mask2 * sol.w2.values
    )
    # the state's boundary row carries the superposed controls up to the
    # final Picard update of the follower trace
    assert np.max(np.abs(sol.u.values[0, :] - bc_expected)) < 1e-8
    assert np.max(np.abs(sol.u.values[-1, :])) < 1e-11
    assert np.max(np.abs(sol.p.values[0, :])) == 0.0
    assert np.max(np.abs(sol.p.values[-1, :])) == 0.0


def test_euler_lagrange_residual_zero_direction(mesh41, cfg41, w1_smooth):
    sol = solve_nash_system(w1_smooth, cfg41)
    zero = Trace(np.zeros(mesh41.Nt + 1), cfg41.partition.mask2, mesh41)
    assert euler_lagrange_residual(sol, cfg41, [zero])[0] == 0.0


def test_euler_lagrange_residual_small(mesh41, cfg41, w1_smooth):
    sol = solve_nash_system(w1_smooth, cfg41)
    rng = np.random.default_rng(5)
    for _ in range(50):
        direction = rand_trace(mesh41, cfg41.partition.mask2, rng)
        res = euler_lagrange_residual(sol, cfg41, [direction])[0]
        assert abs(res) <= 1e-6 * el_scale(sol, cfg41, direction)


def test_follower_cost_increases(mesh41, cfg41, w1_smooth):
    sol = solve_nash_system(w1_smooth, cfg41)
    eng = get_engine(mesh41, cfg41)
    base = cost_J2(sol.u, sol.w2, cfg41)
    rng = np.random.default_rng(6)
    for eps in (0.01, 0.1):
        for _ in range(50):
            eta = rng.standard_normal(mesh41.Nt + 1)
            w2p = Trace(sol.w2.values + eps * eta, cfg41.partition.mask2, mesh41)
            bc = eng.chi1 * w1_smooth.values + eng.chi2 * w2p.values
            up = Field(eng.state_solve(bc), mesh41)
            assert cost_J2(up, w2p, cfg41) > base


def test_picard_matches_direct(mesh41, cfg41, w1_smooth):
    eng = get_engine(mesh41, cfg41)
    w1v = np.where(cfg41.partition.mask1, w1_smooth.values, 0.0)
    utilde = cfg41.u_tilde2.values
    picard_u, _, _, iterations, residuals = eng.picard_pair(w1v, utilde)
    direct_u, _, _ = eng.direct_pair(w1v, utilde)
    scale = np.max(np.abs(direct_u))
    assert np.max(np.abs(picard_u - direct_u)) < 1e-8 * scale
    assert iterations > 1
    assert residuals[-1] < residuals[0]


def test_companion_matches_natural_backward(mesh41, cfg41, w1_smooth):
    """The transpose-route companion is a consistent discretization of the
    backward tracking equation."""
    sol = solve_nash_system(w1_smooth, cfg41)
    src = Field(sol.u.values - cfg41.u_tilde2.values, mesh41)
    mask = np.ones(mesh41.Nt + 1, bool)
    z0 = Trace(np.zeros(mesh41.Nt + 1), mask, mesh41)
    z1 = Trace(np.zeros(mesh41.Nt + 1), mask, mesh41, side="y=1")
    p_nat = solve_backward(z0, z1, src)
    scale = np.max(np.abs(p_nat.values))
    assert np.max(np.abs(sol.p.values - p_nat.values)) < 1e-2 * scale
    # follower trace against the natural outward normal derivative, in the
    # time-quadratured norm (corner layers keep the max-norm O(1))
    tr = -trace_normal_derivative(p_nat).values
    tau = trapezoid_weights(mesh41.Nt + 1, mesh41.dt)
    num = np.sqrt(np.sum(tau * (cfg41.sigma * sol.w2.values - tr) ** 2))
    den = np.sqrt(np.sum(tau * tr**2))
    assert num / den < 5e-2


def test_cost_j2_examples(mesh41, overlap41):
    # perfect tracking and no control: zero cost
    Y, T = np.meshgrid(mesh41.y, mesh41.times, indexing="ij")
    ut2 = Field(np.sin(np.pi * Y) * np.cos(T), mesh41)
    cfg = FollowerConfig(sigma=1.0, partition=overlap41, u_tilde2=ut2)
    w2_zero = Trace(np.zeros(mesh41.Nt + 1), overlap41.mask2, mesh41)
    assert cost_J2(Field(ut2.values.copy(), mesh41), w2_zero, cfg) == 0.0
    # sigma/2 * T for a unit follower on the whole boundary
    cfg2 = FollowerConfig(sigma=2.0, partition=overlap41)
    w2_one = Trace(np.ones(mesh41.Nt + 1), overlap41.mask2, mesh41)
    zero = Field(np.zeros((mesh41.Ny + 1, mesh41.Nt + 1)), mesh41)
    assert cost_J2(zero, w2_one, cfg2) == pytest.approx(4.0, rel=1e-12)
    # quadratic homogeneity
    rng = np.random.default_rng(8)
    u = Field(rng.standard_normal((mesh41.Ny + 1, mesh41.Nt + 1)), mesh41)
    w2 = rand_trace(mesh41, overlap41.mask2, rng)
    cfg3 = FollowerConfig(sigma=1.3, partition=overlap41)
    j1 = cost_J2(u, w2, cfg3)
    j9 = cost_J2(Field(3.0 * u.values, mesh41), Trace(3.0 * w2.values, overlap41.mask2, mesh41), cfg3)
    assert j9 == pytest.approx(9.0 * j1, rel=1e-12)


def test_cost_j_examples(mesh41, overlap41):
    zero = Trace(np.zeros(mesh41.Nt + 1), overlap41.mask1, mesh41)
    assert cost_J(zero) == 0.0
    one = Trace(np.ones(mesh41.Nt + 1), overlap41.mask1, mesh41)
    assert cost_J(one) == pytest.approx(2.0, rel=1e-12)
    # sin(pi t) over a horizon of 2: the energy is 1/2
    mesh2 = Mesh.auto(DomainSpec(k=0.1, T=2.0), 16)
    part = SigmaPartition.overlap(mesh2.Nt + 1)
    w1 = Trace(np.sin(np.pi * mesh2.times), part.mask1, mesh2)
    assert cost_J(w1) == pytest.approx(0.5, rel=1e-12)


def test_apply_A_zero_and_linear(mesh41, cfg41_plain):
    mask1 = cfg41_plain.partition.mask1
    zero = Trace(np.zeros(mesh41.Nt + 1), mask1, mesh41)
    c1, c2 = apply_A(zero, cfg41_plain)
    assert np.all(c1.values == 0.0) and np.all(c2.values == 0.0)
    rng = np.random.default_rng(11)
    w = rand_trace(mesh41, mask1, rng)
    c1a, c2a = apply_A(w, cfg41_plain)
    c1b, c2b = apply_A(Trace(2.5 * w.values, mask1, mesh41), cfg41_plain)
    assert np.max(np.abs(c1b.values - 2.5 * c1a.values)) < 1e-10 * (np.max(np.abs(c1a.values)) + 1)
    assert np.max(np.abs(c2b.values - 2.5 * c2a.values)) < 1e-10 * (np.max(np.abs(c2a.values)) + 1)


def _transpose_worst(mesh, cfg, trials, solve=reach, seed=42):
    rng = np.random.default_rng(seed)
    draws = [(rand_trace(mesh, cfg.partition.mask1, rng), *rand_dual_profiles(mesh, rng)) for _ in range(trials)]
    tau = trapezoid_weights(mesh.Nt + 1, mesh.dt)
    worst = 0.0
    for (w1, f0, f1), (c1, c2, trace) in zip(draws, solve(draws, cfg)):
        lhs = duality_pairing(c1, f0) + duality_pairing(c2, f1)
        rhs = float(np.sum(tau * cfg.partition.mask1 * trace * w1.values))
        worst = max(worst, abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-300))
    return worst


def test_transpose_identity_direct(mesh41, cfg41_plain):
    assert _transpose_worst(mesh41, cfg41_plain, 5, direct_reach) < 1e-8


def test_transpose_identity_time_split(mesh41):
    part = SigmaPartition.time_split(mesh41.Nt + 1)
    cfg = FollowerConfig(sigma=1.0, partition=part)
    assert _transpose_worst(mesh41, cfg, 5, direct_reach) < 1e-8


@pytest.mark.parametrize("mode", ["overlap", "time-split"])
def test_transpose_identity_default_path(mode):
    """The reduced solve at Ny = 80 over the follower weights where relaxed
    Picard, the default there before, diverged (sigma = 1e-4)."""
    mesh = Mesh.auto(DomainSpec(k=0.1, T=4.0), 80)
    n = mesh.Nt + 1
    part = SigmaPartition.overlap(n) if mode == "overlap" else SigmaPartition.time_split(n)
    for sigma in (1e-4, 1.0, 100.0):
        cfg = FollowerConfig(sigma=sigma, partition=part)
        assert _transpose_worst(mesh, cfg, 2) < 1e-8, sigma


def test_apply_A_star_zero(mesh41, cfg41_plain):
    T = mesh41.domain.T
    z = SpatialProfile(np.zeros(mesh41.Ny + 1), T, mesh41)
    assert np.all(apply_A_star(z, z, cfg41_plain).values == 0.0)


def test_apply_A_star_decoupled_limit(mesh41, overlap41):
    """With the feedback weight huge the adjoint pair collapses to one
    terminal solve; the Picard loop must reproduce it to round-off."""
    cfg = FollowerConfig(sigma=1e14, partition=overlap41)
    rng = np.random.default_rng(13)
    f0, f1 = rand_dual_profiles(mesh41, rng)
    eng = get_engine(mesh41, cfg)
    rho = eng.terminal_cotangent(f0.values, f1.values)
    mu_pair, _, _, _, _ = eng.picard_adjoint_pair(rho)
    pair_trace = np.where(overlap41.mask1, mu_pair[0, :] / eng.tau, 0.0)
    mu = eng.op.solve_adjoint(rho)
    single = np.where(overlap41.mask1, mu[0, :] / eng.tau, 0.0)
    scale = np.max(np.abs(single)) + 1e-30
    assert np.max(np.abs(pair_trace - single)) < 1e-10 * scale


def test_adjoint_pair_invariants(mesh41, cfg41_plain):
    """psi boundary feedback: sigma * psi(0, t) = -(leader trace) on the
    overlapped boundary (both masks full here), with psi from the direct
    oracle and the trace from apply_A_star; psi vanishes at y = 1."""
    rng = np.random.default_rng(14)
    f0, f1 = rand_dual_profiles(mesh41, rng)
    trace = apply_A_star(f0, f1, cfg41_plain).values
    eng = get_engine(mesh41, cfg41_plain)
    _, psi = eng.direct_adjoint_pair(eng.terminal_cotangent(f0.values, f1.values))
    lhs = cfg41_plain.sigma * psi[0, :]
    # 2.3e-11 measured: the reduced solve against the coupled LU
    assert np.max(np.abs(lhs + trace)) < 1e-9 * (np.max(np.abs(trace)) + 1.0)
    assert np.max(np.abs(psi[-1, :])) == 0.0


def test_adjoint_pair_consistent_with_natural_solve(mesh41, overlap41):
    """With the feedback weight huge the follower drops out, and the leader's
    trace is the boundary derivative of the reversed-time solve from (f0, f1).

    On the last few levels before T, the terminal layer, the transposed
    scheme and the reversed-time march differ by up to O(1), so the
    comparison stops at T - 0.25.  There the relative difference is 0.029
    at Ny = 41 (0.032, 0.020 and 0.015 at Ny = 32, 64 and 128)."""
    cfg = FollowerConfig(sigma=1e14, partition=overlap41)
    T = mesh41.domain.T
    f0 = SpatialProfile(0.7 * np.sin(np.pi * mesh41.y), T, mesh41)
    f1 = SpatialProfile(0.4 * np.cos(2 * np.pi * mesh41.y), T, mesh41)
    trace = apply_A_star(f0, f1, cfg).values
    mask = np.ones(mesh41.Nt + 1, bool)
    z0 = Trace(np.zeros(mesh41.Nt + 1), mask, mesh41)
    z1 = Trace(np.zeros(mesh41.Nt + 1), mask, mesh41, side="y=1")
    natural = trace_normal_derivative(solve_backward(z0, z1, None, (f0, f1))).values
    keep = mesh41.times <= T - 0.25
    scale = np.max(np.abs(natural[keep]))
    assert np.max(np.abs(trace[keep] - natural[keep])) < 0.05 * scale


def test_apply_A_star_rejects_bad_f0(mesh41, cfg41_plain):
    T = mesh41.domain.T
    f0 = SpatialProfile(np.ones(mesh41.Ny + 1), T, mesh41)
    f1 = SpatialProfile(np.zeros(mesh41.Ny + 1), T, mesh41)
    with pytest.raises(ConfigurationError):
        apply_A_star(f0, f1, cfg41_plain)


def test_coupled_lu_memory_guard():
    """The coupled LU refuses grids above Ny = 64 wherever it is reached
    from, not only through verify.monolithic_solve."""
    mesh = Mesh.auto(DomainSpec(k=0.1, T=1.0), 80)
    eng = get_engine(mesh, FollowerConfig(sigma=1.0, partition=SigmaPartition.overlap(mesh.Nt + 1)))
    with pytest.raises(ConfigurationError, match="Ny <= 64"):
        eng.direct_pair(np.zeros(mesh.Nt + 1), None)


def test_engines_on_one_mesh_share_the_operator(mesh41, overlap41):
    """The sigma ladder builds each mesh's step factors and H once."""
    eng = get_engine(mesh41, FollowerConfig(sigma=1.0, partition=overlap41))
    other = get_engine(mesh41, FollowerConfig(sigma=0.1, partition=overlap41))
    assert other is not eng
    assert other.op is eng.op


def test_engine_cache_evicts_least_recent(monkeypatch):
    """The least recently used mesh's wave operator is dropped from the cache
    and freed."""
    monkeypatch.setattr(coupled, "_OPERATOR_CACHE", {})

    def engine(Ny):
        mesh = Mesh.auto(DomainSpec(k=0.1, T=1.0), Ny)
        return get_engine(mesh, FollowerConfig(sigma=1.0, partition=SigmaPartition.overlap(mesh.Nt + 1)))

    first_op = weakref.ref(engine(8).op)
    for Ny in range(9, 9 + coupled.OPERATOR_CACHE_SIZE):
        engine(Ny)
    gc.collect()
    assert first_op() is None
    assert len(coupled._OPERATOR_CACHE) == coupled.OPERATOR_CACHE_SIZE
    # a hit makes the mesh the most recent, so the next one out is Ny = 10
    engine(9)
    engine(9 + coupled.OPERATOR_CACHE_SIZE)
    kept = [mesh.Ny for mesh in coupled._OPERATOR_CACHE]
    assert kept == [*range(11, 9 + coupled.OPERATOR_CACHE_SIZE), 9, 9 + coupled.OPERATOR_CACHE_SIZE]


def test_warm_nash_sweeps_once(cfg41, w1_smooth, monkeypatch):
    """A repeated tracked trajectory reuses its boundary row: the warm solve
    runs the companion's sweep and no other."""
    solve_nash_system(w1_smooth, cfg41)
    calls = []
    sweep = WaveOperator.solve_adjoint

    def counted(self, rho):
        calls.append(rho)
        return sweep(self, rho)

    monkeypatch.setattr(WaveOperator, "solve_adjoint", counted)
    solve_nash_system(w1_smooth, cfg41)
    assert len(calls) == 1


def test_engines_on_one_mesh_share_the_tracked_row(mesh41, overlap41, utilde41, w1_smooth, monkeypatch):
    """A second sigma on the mesh finds S^T W u_tilde with the shared operator:
    its first solve runs the companion's sweep and no other."""
    monkeypatch.setattr(coupled, "_OPERATOR_CACHE", {})
    solve_nash_system(w1_smooth, FollowerConfig(sigma=1.0, partition=overlap41, u_tilde2=utilde41))
    calls = []
    sweep = WaveOperator.solve_adjoint

    def counted(self, rho):
        calls.append(rho)
        return sweep(self, rho)

    monkeypatch.setattr(WaveOperator, "solve_adjoint", counted)
    solve_nash_system(w1_smooth, FollowerConfig(sigma=0.3, partition=overlap41, u_tilde2=utilde41))
    assert len(coupled._OPERATOR_CACHE) == 1
    assert len(calls) == 1


def test_kept_row_follows_the_tracked_trajectory(mesh41, overlap41, utilde41, w1_smooth, monkeypatch):
    """Alternating trajectories on one mesh's operator give a fresh operator's
    answers bit for bit."""
    other = Field(np.roll(utilde41.values, 7, axis=1), mesh41)

    def run(utilde):
        cfg = FollowerConfig(sigma=0.5, partition=overlap41, u_tilde2=utilde)
        sol = solve_nash_system(w1_smooth, cfg)
        return sol.u.values, sol.p.values, sol.w2.values, *get_engine(mesh41, cfg).free_terminal(utilde.values)

    monkeypatch.setattr(coupled, "_OPERATOR_CACHE", {})
    warm = [run(u) for u in (utilde41, other, utilde41)]
    assert len(coupled._OPERATOR_CACHE) == 1
    for u, got in zip((utilde41, other, utilde41), warm):
        monkeypatch.setattr(coupled, "_OPERATOR_CACHE", {})
        for a, b in zip(got, run(u)):
            assert np.array_equal(a, b)
    assert not np.array_equal(warm[0][0], warm[1][0])


def test_kept_values_are_read_only_and_found_by_value(mesh41, overlap41, utilde41, monkeypatch):
    """The tracked row, the first-order sample's levels, the free state's
    final pair, the follower spectrum, the leader's whitened Gram (C, G, R)
    and H with the last levels of S are kept read-only; an equal input in a
    new array finds them and runs no march, sweep, follower solve or
    decomposition, and a kept input is a copy, so changing the caller's array
    is a new input."""
    from hierwave.leader_dual import TargetSpec, _DualModel

    monkeypatch.setattr(coupled, "_OPERATOR_CACHE", {})
    utilde = utilde41.values.copy()
    bc = np.random.default_rng(3).standard_normal((mesh41.Nt + 1, 2))
    T = mesh41.domain.T
    targets = TargetSpec(
        SpatialProfile(0.2 * np.sin(np.pi * mesh41.y), T, mesh41),
        SpatialProfile(0.5 * np.sin(2 * np.pi * mesh41.y), T, mesh41),
        0.01,
        0.01,
    )

    def kept(utilde, bc, sigma, mask1, mask2):
        # every input a new array of the same values
        cfg = FollowerConfig(sigma, SigmaPartition("overlap", mask1, mask2), Field(utilde, mesh41))
        eng = get_engine(mesh41, cfg)
        model = _DualModel(mesh41, cfg, targets)
        return [
            eng.op.tracked_row(utilde),
            eng.op.sample_responses(bc),
            *eng.free_terminal(utilde),
            *eng.op.follower_spectrum(np.flatnonzero(mask2)),
            model.C,
            model.G,
            model.R,
            eng.op.boundary_response().H,
            eng.op.boundary_response().tail,
        ]

    first = kept(utilde, bc, 0.5, overlap41.mask1, overlap41.mask2)

    def refuse(*args, **kwargs):
        raise AssertionError("a kept value was computed again")

    for cls, name in (
        (WaveOperator, "march"),
        (WaveOperator, "solve_adjoint"),
        (CoupledEngine, "follower_trace"),
        (scipy.linalg.lapack, "dsyevr"),
    ):
        monkeypatch.setattr(cls, name, refuse)
    again = kept(utilde.copy(), bc.copy(), 0.5, overlap41.mask1.copy(), overlap41.mask2.copy())
    assert len(first) == len(again) == 12
    for a, b in zip(first, again):
        assert a is b and not a.flags.writeable
        with pytest.raises(ValueError):
            a.flat[0] = 1.0
    monkeypatch.undo()
    utilde *= 2.0
    assert np.array_equal(get_engine(mesh41, FollowerConfig(0.5, overlap41)).op.tracked_row(utilde), 2.0 * first[0])


def test_engines_share_their_operator_mesh_weights(mesh41, overlap41, monkeypatch):
    """Two engines (two sigma) on one mesh, the second asked for with an equal
    but distinct Mesh, hold the operator's mesh's W and tau themselves, and
    the mesh's quadrature and d/dy arrays are read-only."""
    monkeypatch.setattr(coupled, "_OPERATOR_CACHE", {})
    first = get_engine(mesh41, FollowerConfig(sigma=1.0, partition=overlap41))
    twin = Mesh(mesh41.domain, mesh41.grid)
    assert twin == mesh41 and twin is not mesh41
    second = get_engine(twin, FollowerConfig(sigma=0.01, partition=overlap41))
    op = first.op
    assert second is not first and second.op is op and second.mesh is op.mesh
    for eng in (first, second, op):
        assert eng.W is op.mesh.W
    for eng in (first, second):
        assert eng.tau is op.mesh.tau
    for name in ("W", "tau", "wy", "D"):
        with pytest.raises(ValueError):
            getattr(twin, name).flat[0] = 1.0


@pytest.mark.parametrize("mode", ["overlap", "time-split"])
def test_follower_trace_matches_dense_solve(mode):
    """The solve through the mesh's follower spectrum matches numpy's dense
    solve of (sigma tau + H)_22 at every scale of sigma, vanishes off the
    follower's nodes, and refuses a sigma that leaves the system singular."""
    mesh = Mesh.auto(DomainSpec(k=0.1, T=2.0), 16)
    n = mesh.Nt + 1
    part = SigmaPartition.overlap(n) if mode == "overlap" else SigmaPartition.time_split(n)
    op = WaveOperator(mesh)
    i = np.flatnonzero(part.mask2)
    H22 = op.boundary_response().H[np.ix_(i, i)]
    rhs = np.random.default_rng(5).standard_normal((n, 3))
    for sigma in (1e-300, 1e-6, 1.0, 1e6):
        eng = CoupledEngine(op, sigma, part)
        ref = np.linalg.solve(H22 + np.diag(sigma * mesh.tau[i]), rhs[i])
        for b, want in ((rhs, ref), (rhs[:, 0], ref[:, 0])):
            x = eng.follower_trace(b)
            assert x.shape == b.shape and np.all(x[~part.mask2] == 0.0)
            assert np.max(np.abs(x[i] - want)) <= 1e-12 * np.max(np.abs(want))
    lam_min = op.follower_spectrum(i)[1][0]
    with pytest.raises(np.linalg.LinAlgError):
        CoupledEngine(op, -lam_min, part).follower_trace(rhs)


def test_sigma_ladder_shares_one_spectrum(monkeypatch):
    """Three sigma on one mesh decompose the follower block once, on the
    mesh's one cached operator, and no engine holds an (N+1)^2 array."""
    monkeypatch.setattr(coupled, "_OPERATOR_CACHE", {})
    calls = []
    dsyevr = scipy.linalg.lapack.dsyevr

    def counted(*args, **kwargs):
        calls.append(1)
        return dsyevr(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dsyevr", counted)
    mesh = Mesh.auto(DomainSpec(k=0.1, T=2.0), 16)
    part = SigmaPartition.overlap(mesh.Nt + 1)
    w1 = Trace(np.sin(np.pi * mesh.times / 2.0), part.mask1, mesh)
    for sigma in (3.0, 0.3, 0.03):
        solve_nash_system(w1, FollowerConfig(sigma=sigma, partition=part))
    assert len(calls) == 1
    assert list(coupled._OPERATOR_CACHE) == [mesh]
    engines = [get_engine(mesh, FollowerConfig(sigma=sigma, partition=part)) for sigma in (3.0, 0.3, 0.03)]
    assert all(e.op is coupled._OPERATOR_CACHE[mesh] for e in engines)

    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, tuple):
            for item in value:
                yield from arrays(item)

    for eng in engines:
        assert all(a.size < (mesh.Nt + 1) ** 2 for v in vars(eng).values() for a in arrays(v))


def test_cholesky_pair_matches_scipy():
    """The direct dpotrf/dpotrs pair gives scipy's cho_factor/cho_solve bits,
    upper triangle read, and raises what they raise."""
    import scipy.linalg

    from hierwave.coupled import _cho_factor, _cho_solve

    rng = np.random.default_rng(11)
    x = rng.standard_normal((40, 40))
    a = x @ x.T + 40.0 * np.eye(40)
    a[3, 7] += 1e-9  # not symmetric to the bit: the triangle read matters
    ref = scipy.linalg.cho_factor(a)
    c = _cho_factor(a)
    assert np.array_equal(c, ref[0])
    for b in (rng.standard_normal(40), rng.standard_normal((40, 3))):
        assert np.array_equal(_cho_solve(c, b), scipy.linalg.cho_solve(ref, b))
    with pytest.raises(np.linalg.LinAlgError):
        _cho_factor(-a)
    bad = a.copy()
    bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        _cho_factor(bad)
    with pytest.raises(ValueError):
        _cho_solve(c, np.full(40, np.nan))


def test_picard_divergence(mesh41, overlap41, w1_smooth):
    cfg = FollowerConfig(sigma=1e-6, partition=overlap41)
    eng = get_engine(mesh41, cfg)
    w1v = np.where(overlap41.mask1, w1_smooth.values, 0.0)
    with pytest.raises(ConvergenceError) as err:
        eng.picard_pair(w1v, None, PicardOptions(max_iters=60))
    hist = err.value.residual_history
    assert len(hist) >= 2 and hist[-2] > hist[0]


def test_time_split_nash(mesh41):
    part = SigmaPartition.time_split(mesh41.Nt + 1)
    Y, T = np.meshgrid(mesh41.y, mesh41.times, indexing="ij")
    cfg = FollowerConfig(
        sigma=1.0, partition=part, u_tilde2=Field(0.2 * np.sin(np.pi * Y) * np.sin(T), mesh41)
    )
    t = mesh41.times
    w1 = Trace(np.sin(np.pi * t / mesh41.domain.T), part.mask1, mesh41)
    sol = solve_nash_system(w1, cfg)
    # follower control vanishes on the leader's window
    assert np.all(sol.w2.values[part.mask1] == 0.0)
    rng = np.random.default_rng(15)
    for _ in range(10):
        direction = rand_trace(mesh41, part.mask2, rng)
        res = euler_lagrange_residual(sol, cfg, [direction])[0]
        assert abs(res) <= 1e-6 * el_scale(sol, cfg, direction)


def test_follower_config_validation(overlap41):
    with pytest.raises(ConfigurationError):
        FollowerConfig(sigma=0.0, partition=overlap41)
    with pytest.raises(ConfigurationError):
        FollowerConfig(sigma=-1.0, partition=overlap41)


def test_equilibrium_trace_characterization(mesh41, cfg41, w1_smooth):
    """sigma * w2 equals the companion's operator trace, recomputed from the
    returned state (not from the iteration's own bookkeeping)."""
    sol = solve_nash_system(w1_smooth, cfg41)
    eng = get_engine(mesh41, cfg41)
    lam = eng.op.solve_adjoint(eng.W * (sol.u.values - cfg41.u_tilde2.values))
    rhs = eng.chi2 * eng.normal_trace(lam)
    diff = np.sqrt(np.sum(eng.tau * (cfg41.sigma * sol.w2.values - rhs) ** 2))
    assert diff <= 10 * PicardOptions().tol * max(1.0, trace_norm(sol.w2))


def test_energy_identity_cross_check(mesh41, cfg41_plain):
    """The two coupled pairs satisfy the cross pairing
    int g psi dx dt = -(1/sigma) int (dq/dn)(dphi/dn) over the follower's
    boundary part, exactly in the operator traces."""
    eng = get_engine(mesh41, cfg41_plain)
    rng = np.random.default_rng(33)
    w1v = rng.standard_normal(mesh41.Nt + 1)
    g_state, lam_q, _ = eng.direct_pair(w1v, None)

    f0v = rng.standard_normal(mesh41.Ny + 1)
    f0v[0] = f0v[-1] = 0.0
    f1v = rng.standard_normal(mesh41.Ny + 1)
    mu, psi = eng.direct_adjoint_pair(eng.terminal_cotangent(f0v, f1v))

    lhs = float(np.sum(eng.W * g_state * psi))
    qn = eng.normal_trace(lam_q)
    phin = eng.normal_trace(mu)
    rhs = -(1.0 / eng.sigma) * float(np.sum(eng.tau * eng.chi2 * qn * phin))
    assert abs(lhs - rhs) <= 1e-6 * (abs(lhs) + abs(rhs) + 1e-30)
