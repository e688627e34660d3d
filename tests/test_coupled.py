import gc
import weakref

import numpy as np
import pytest

from hierwave.errors import ConfigurationError, ConvergenceError
from hierwave.geometry import DomainSpec, SigmaPartition
from hierwave.grid import (
    Field,
    Mesh,
    SpatialProfile,
    Trace,
    duality_pairing,
    l2_inner_physical,
    trapezoid_weights,
)
from hierwave import coupled
from hierwave.coupled import (
    FollowerConfig,
    PicardOptions,
    apply_A,
    apply_A_star,
    cost_J,
    cost_J2,
    euler_lagrange_residual,
    get_engine,
    solve_free_part,
    solve_leader_part,
    solve_nash_system,
)
from hierwave.verify import monolithic_solve
from hierwave.wave_core import (
    WaveOperator,
    WaveProblem,
    extract_terminal,
    solve_backward,
    trace_normal_derivative,
)


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


def direct_reach(w1, f0, f1, cfg, delta):
    """apply_A and apply_A_star's leader trace through the coupled LU."""
    mesh = w1.mesh
    state = monolithic_solve("leader_part", mesh, cfg, w1=w1)["state"].values
    c1, c2 = extract_terminal(mesh, state, delta)
    T = mesh.domain.T
    trace = monolithic_solve("adjoint_pair", mesh, cfg, f=(f0, f1), delta=delta)["leader_trace"].values
    return SpatialProfile(c1, T, mesh), SpatialProfile(c2, T, mesh), trace


def reach(w1, f0, f1, cfg, delta):
    c1, c2 = apply_A(w1, cfg, delta)
    return c1, c2, apply_A_star(f0, f1, cfg, delta).leader_trace.values


def el_scale(sol, cfg, direction):
    from hierwave.grid import space_time_weights

    W = space_time_weights(sol.u.mesh)
    ut = cfg.u_tilde2.values if cfg.u_tilde2 is not None else 0.0
    misfit = np.sqrt(np.sum(W * (sol.u.values - ut) ** 2))
    return misfit + cfg.sigma * sol.w2.norm() * direction.norm() + 1e-30


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
    u0, p0 = solve_free_part(cfg41, mesh41)
    g, q = solve_leader_part(w1_smooth, cfg41)
    scale = np.max(np.abs(nash.u.values)) + 1.0
    assert np.max(np.abs(nash.u.values - u0.values - g.values)) < 1e-9 * scale
    assert np.max(np.abs(nash.p.values - p0.values - q.values)) < 1e-9 * scale


def test_free_part_zero_without_tracking(mesh41, overlap41):
    cfg = FollowerConfig(sigma=1.0, partition=overlap41)
    u0, p0 = solve_free_part(cfg, mesh41)
    assert np.all(u0.values == 0.0)
    assert np.all(p0.values == 0.0)


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
    assert euler_lagrange_residual(sol, w1_smooth, cfg41, zero) == 0.0


def test_euler_lagrange_residual_small(mesh41, cfg41, w1_smooth):
    sol = solve_nash_system(w1_smooth, cfg41)
    rng = np.random.default_rng(5)
    for _ in range(50):
        direction = rand_trace(mesh41, cfg41.partition.mask2, rng)
        res = euler_lagrange_residual(sol, w1_smooth, cfg41, direction)
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
    p_nat = solve_backward(WaveProblem("backward", z0, z1, src))
    scale = np.max(np.abs(p_nat.values))
    assert np.max(np.abs(sol.p.values - p_nat.values)) < 1e-2 * scale
    # follower trace against the natural outward normal derivative, in the
    # time-quadratured norm (corner layers keep the max-norm O(1))
    tr = -trace_normal_derivative(p_nat, side="y=0").values
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
    assert cost_J2(Field.zeros(mesh41), w2_one, cfg2) == pytest.approx(4.0, rel=1e-12)
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


def _transpose_worst(mesh, cfg, trials, solve=reach, delta=0.0, seed=42):
    rng = np.random.default_rng(seed)
    tau = trapezoid_weights(mesh.Nt + 1, mesh.dt)
    worst = 0.0
    for _ in range(trials):
        w1 = rand_trace(mesh, cfg.partition.mask1, rng)
        f0, f1 = rand_dual_profiles(mesh, rng)
        c1, c2, trace = solve(w1, f0, f1, cfg, delta)
        lhs = duality_pairing(c1, f0) + l2_inner_physical(c2, f1)
        rhs = float(np.sum(tau * cfg.partition.mask1 * trace * w1.values))
        worst = max(worst, abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-300))
    return worst


def test_transpose_identity_direct(mesh41, cfg41_plain):
    assert _transpose_worst(mesh41, cfg41_plain, 5, direct_reach) < 1e-8


def test_transpose_identity_time_split(mesh41):
    part = SigmaPartition.time_split(mesh41.Nt + 1)
    cfg = FollowerConfig(sigma=1.0, partition=part)
    assert _transpose_worst(mesh41, cfg, 5, direct_reach) < 1e-8


def test_transpose_identity_with_delta(mesh41, cfg41_plain):
    assert _transpose_worst(mesh41, cfg41_plain, 4, direct_reach, delta=0.5) < 1e-8


@pytest.mark.parametrize("mode", ["overlap", "time-split"])
def test_transpose_identity_default_path(mode):
    """The reduced solve at Ny = 80 over the follower weights where relaxed
    Picard, the default there before, diverged (sigma = 1e-4)."""
    mesh = Mesh.auto(DomainSpec(k=0.1, T=4.0), 80)
    n = mesh.Nt + 1
    part = SigmaPartition.overlap(n) if mode == "overlap" else SigmaPartition.time_split(n)
    for sigma in (1e-4, 1.0, 100.0):
        cfg = FollowerConfig(sigma=sigma, partition=part)
        for delta in (0.0, 0.5):
            assert _transpose_worst(mesh, cfg, 2, delta=delta) < 1e-8, (sigma, delta)


def test_apply_A_star_zero(mesh41, cfg41_plain):
    T = mesh41.domain.T
    z = SpatialProfile(np.zeros(mesh41.Ny + 1), T, mesh41)
    pair = apply_A_star(z, z, cfg41_plain)
    assert np.all(pair.leader_trace.values == 0.0)
    assert np.all(pair.psi.values == 0.0)


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
    mu = eng.multiplier_solve(rho)
    single = np.where(overlap41.mask1, mu[0, :] / eng.tau, 0.0)
    scale = np.max(np.abs(single)) + 1e-30
    assert np.max(np.abs(pair_trace - single)) < 1e-10 * scale


def test_adjoint_pair_invariants(mesh41, cfg41_plain):
    rng = np.random.default_rng(14)
    f0, f1 = rand_dual_profiles(mesh41, rng)
    pair = apply_A_star(f0, f1, cfg41_plain)
    # phi vanishes on the lateral boundary
    assert np.max(np.abs(pair.phi.values[0, :])) == 0.0
    assert np.max(np.abs(pair.phi.values[-1, :])) == 0.0
    # psi boundary feedback: sigma * psi(0, t) = -(leader trace) on the
    # overlapped boundary (both masks full here)
    lhs = cfg41_plain.sigma * pair.psi.values[0, :]
    assert np.max(np.abs(lhs + pair.leader_trace.values)) < 1e-12 * (
        np.max(np.abs(pair.leader_trace.values)) + 1.0
    )
    assert np.max(np.abs(pair.psi.values[-1, :])) == 0.0


def test_adjoint_pair_consistent_with_natural_solve(mesh41, overlap41):
    cfg = FollowerConfig(sigma=1e14, partition=overlap41)
    T = mesh41.domain.T
    f0 = SpatialProfile(0.7 * np.sin(np.pi * mesh41.y), T, mesh41)
    f1 = SpatialProfile(0.4 * np.cos(2 * np.pi * mesh41.y), T, mesh41)
    phi = monolithic_solve("adjoint_pair", mesh41, cfg, f=(f0, f1))["phi"].values
    mask = np.ones(mesh41.Nt + 1, bool)
    z0 = Trace(np.zeros(mesh41.Nt + 1), mask, mesh41)
    z1 = Trace(np.zeros(mesh41.Nt + 1), mask, mesh41, side="y=1")
    phi_nat = solve_backward(WaveProblem("backward", z0, z1, None, (f0, f1)))
    scale = np.max(np.abs(phi_nat.values))
    assert np.max(np.abs(phi - phi_nat.values)) < 1e-2 * scale


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
    """The least recently used engine is dropped, and its wave operator with it."""
    monkeypatch.setattr(coupled, "_ENGINE_CACHE", {})

    def engine(Ny):
        mesh = Mesh.auto(DomainSpec(k=0.1, T=1.0), Ny)
        return get_engine(mesh, FollowerConfig(sigma=1.0, partition=SigmaPartition.overlap(mesh.Nt + 1)))

    first_op = weakref.ref(engine(8).op)
    for Ny in range(9, 9 + coupled.ENGINE_CACHE_SIZE):
        engine(Ny)
    gc.collect()
    assert first_op() is None
    assert len(coupled._ENGINE_CACHE) == coupled.ENGINE_CACHE_SIZE
    # a hit makes the engine the most recent, so the next one out is Ny = 10
    engine(9)
    engine(9 + coupled.ENGINE_CACHE_SIZE)
    kept = [key[0][0] for key in coupled._ENGINE_CACHE]
    assert kept == [*range(11, 9 + coupled.ENGINE_CACHE_SIZE), 9, 9 + coupled.ENGINE_CACHE_SIZE]


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
    monkeypatch.setattr(coupled, "_ENGINE_CACHE", {})
    solve_nash_system(w1_smooth, FollowerConfig(sigma=1.0, partition=overlap41, u_tilde2=utilde41))
    calls = []
    sweep = WaveOperator.solve_adjoint

    def counted(self, rho):
        calls.append(rho)
        return sweep(self, rho)

    monkeypatch.setattr(WaveOperator, "solve_adjoint", counted)
    solve_nash_system(w1_smooth, FollowerConfig(sigma=0.3, partition=overlap41, u_tilde2=utilde41))
    assert len(coupled._ENGINE_CACHE) == 2
    assert len(calls) == 1


def test_kept_row_follows_the_tracked_trajectory(mesh41, overlap41, utilde41, w1_smooth, monkeypatch):
    """Alternating trajectories on one engine give a fresh engine's answers bit for bit."""
    other = Field(np.roll(utilde41.values, 7, axis=1), mesh41)

    def run(utilde):
        cfg = FollowerConfig(sigma=0.5, partition=overlap41, u_tilde2=utilde)
        sol = solve_nash_system(w1_smooth, cfg)
        return sol.u.values, sol.p.values, sol.w2.values, *get_engine(mesh41, cfg).free_terminal(utilde.values)

    monkeypatch.setattr(coupled, "_ENGINE_CACHE", {})
    warm = [run(u) for u in (utilde41, other, utilde41)]
    assert len(coupled._ENGINE_CACHE) == 1
    for u, got in zip((utilde41, other, utilde41), warm):
        monkeypatch.setattr(coupled, "_ENGINE_CACHE", {})
        for a, b in zip(got, run(u)):
            assert np.array_equal(a, b)
    assert not np.array_equal(warm[0][0], warm[1][0])


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
        res = euler_lagrange_residual(sol, w1, cfg, direction)
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
    lam = eng.multiplier_solve(eng.W * (sol.u.values - cfg41.u_tilde2.values))
    rhs = eng.chi2 * eng.normal_trace(lam)
    diff = np.sqrt(np.sum(eng.tau * (cfg41.sigma * sol.w2.values - rhs) ** 2))
    assert diff <= 10 * PicardOptions().tol * max(1.0, sol.w2.norm())


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
