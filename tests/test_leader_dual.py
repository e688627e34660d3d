import math

import numpy as np
import pytest

from hierwave.errors import ConfigurationError, InfeasibleError
from hierwave.geometry import DomainSpec, SigmaPartition
from hierwave.grid import (
    Field,
    Mesh,
    PoissonRiesz,
    SpatialProfile,
    Trace,
    duality_pairing,
    l2_norm_physical,
    hminus1_norm_physical,
)
from hierwave.coupled import (
    FollowerConfig,
    apply_A,
    apply_A_star,
    cost_J,
    solve_nash_system,
)
from hierwave.wave_core import extract_terminal, final_value_profile, final_velocity_profile
from hierwave.leader_dual import (
    HISTORY_VI_SAMPLES,
    DualOptions,
    DualPoint,
    _DualModel,
    _certificates,
    _check_target_reached,
    _comparison_points,
    _secular_newton,
    TargetSpec,
    duality_gap,
    minimize_dual,
    vi_residual,
)
from references import dual_functional, dual_subgradient, h10_norm_physical, trace_norm


def manufactured_setup(Ny):
    """The manufactured case of scripts/run_manufactured.py: 5% balls around
    the final state that a reference leader control reaches."""
    mesh = Mesh.auto(DomainSpec(k=0.1, T=4.0), Ny)
    part = SigmaPartition.overlap(mesh.Nt + 1)
    Y, T = np.meshgrid(mesh.y, mesh.times, indexing="ij")
    cfg = FollowerConfig(
        sigma=1.0, partition=part, u_tilde2=Field(0.3 * np.sin(np.pi * Y) * np.sin(T), mesh)
    )
    t = mesh.times
    w1_ref = Trace(
        np.sin(2 * np.pi * t / 4.0) * np.exp(-0.5 * ((t - 2.0) / 0.8) ** 2), part.mask1, mesh
    )
    sol_ref = solve_nash_system(w1_ref, cfg)
    u_T = final_value_profile(sol_ref.u)
    ut_T = final_velocity_profile(sol_ref.u)
    targets = TargetSpec(
        u_T, ut_T, 0.05 * l2_norm_physical(u_T), 0.05 * hminus1_norm_physical(ut_T)
    )
    return mesh, cfg, w1_ref, targets


@pytest.fixture(scope="module")
def small_setup():
    """Everything the leader tests need, on a quick grid."""
    return manufactured_setup(24)


def rand_dual_point(mesh, rng, scale=1.0):
    f0 = rng.standard_normal(mesh.Ny + 1) * scale
    f0[0] = f0[-1] = 0.0
    f1 = rng.standard_normal(mesh.Ny + 1) * scale
    T = mesh.domain.T
    return DualPoint(SpatialProfile(f0, T, mesh), SpatialProfile(f1, T, mesh))


def zero_point(mesh):
    T = mesh.domain.T
    zero = np.zeros(mesh.Ny + 1)
    return DualPoint(SpatialProfile(zero, T, mesh), SpatialProfile(zero, T, mesh))


def combine(a: DualPoint, b: DualPoint, c: float) -> DualPoint:
    """The point a + c b."""
    T = a.f0.mesh.domain.T
    return DualPoint(
        SpatialProfile(a.f0.values + c * b.f0.values, T, a.f0.mesh),
        SpatialProfile(a.f1.values + c * b.f1.values, T, a.f1.mesh),
    )


def h_inner(a: DualPoint, b: DualPoint) -> float:
    """The geometry the dual iteration runs in."""
    pr = PoissonRiesz(a.f0.mesh, a.f0.mesh.domain.T)
    e = float(np.sum(np.diff(a.f0.values) * np.diff(b.f0.values)) / pr.hx)
    return e + duality_pairing(a.f1, b.f1)


def test_dual_functional_zero(small_setup):
    mesh, cfg, _, targets = small_setup
    z = zero_point(mesh)
    assert dual_functional(z, targets, cfg) == 0.0


def test_dual_functional_rho_homogeneity(small_setup):
    """Doubling the point doubles the norm part exactly."""
    mesh, cfg, _, targets = small_setup
    rng = np.random.default_rng(0)
    f = rand_dual_point(mesh, rng)

    def rho_part(point):
        return targets.rho1 * h10_norm_physical(point.f0) + targets.rho0 * l2_norm_physical(
            point.f1
        )

    c = 2.0
    cf = combine(zero_point(mesh), f, c)
    smooth_f = dual_functional(f, targets, cfg) - rho_part(f)
    smooth_cf = dual_functional(cf, targets, cfg) - rho_part(cf)
    # after removing the smooth quadratic, what is left is 1-homogeneous
    d_f = dual_functional(f, targets, cfg) - smooth_f
    d_cf = dual_functional(cf, targets, cfg) - smooth_cf
    assert d_cf == pytest.approx(c * d_f, rel=1e-10)


def test_subgradient_finite_difference(small_setup):
    """Central differences of the full objective match the subgradient in the
    lifted geometry away from the kinks."""
    mesh, cfg, _, targets = small_setup
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(10):
        f = rand_dual_point(mesh, rng)
        g = dual_subgradient(f, targets, cfg)
        h = rand_dual_point(mesh, rng)
        eps = 1e-5
        fp = combine(f, h, eps)
        fm = combine(f, h, -eps)
        fd = (dual_functional(fp, targets, cfg) - dual_functional(fm, targets, cfg)) / (2 * eps)
        an = h_inner(g, h)
        worst = max(worst, abs(fd - an) / (abs(fd) + abs(an) + 1e-30))
    assert worst < 1e-5


def test_subgradient_zero_at_origin_with_free_targets(small_setup):
    mesh, cfg, _, _ = small_setup
    u0 = solve_nash_system(Trace.zeros(mesh, cfg.partition.mask1), cfg).u
    free_targets = TargetSpec(
        final_value_profile(u0), final_velocity_profile(u0), 0.1, 0.1
    )
    g = dual_subgradient(zero_point(mesh), free_targets, cfg)
    assert np.max(np.abs(g.f0.values)) < 1e-10
    assert np.max(np.abs(g.f1.values)) < 1e-10


def test_smooth_gradient_scales_linearly(small_setup):
    mesh, cfg, _, targets = small_setup
    rng = np.random.default_rng(2)
    f = rand_dual_point(mesh, rng)
    g1 = dual_subgradient(f, targets, cfg)
    c = 3.0
    cf = combine(zero_point(mesh), f, c)
    gc = dual_subgradient(cf, targets, cfg)
    # remove the scale-invariant shrinkage directions, leaving the affine part
    def shrink_dir(point):
        nh = h10_norm_physical(point.f0)
        nl = l2_norm_physical(point.f1)
        return (
            targets.rho1 * point.f0.values / nh,
            targets.rho0 * point.f1.values / nl,
        )

    s1 = shrink_dir(f)
    smooth1 = (g1.f0.values - s1[0], g1.f1.values - s1[1])
    sc = shrink_dir(cf)
    smoothc = (gc.f0.values - sc[0], gc.f1.values - sc[1])
    zero = zero_point(mesh)
    g0 = dual_subgradient(zero, targets, cfg)
    for block in (0, 1):
        lin = smoothc[block] - (g0.f0.values, g0.f1.values)[block]
        lin1 = smooth1[block] - (g0.f0.values, g0.f1.values)[block]
        assert np.max(np.abs(lin - c * lin1)) < 1e-9 * (np.max(np.abs(lin)) + 1.0)


def test_minimize_trivial_zero_control(small_setup):
    mesh, cfg, _, _ = small_setup
    u0 = solve_nash_system(Trace.zeros(mesh, cfg.partition.mask1), cfg).u
    targets = TargetSpec(final_value_profile(u0), final_velocity_profile(u0), 0.1, 0.1)
    f_star, w1_star, rep = minimize_dual(targets, cfg, DualOptions())
    assert trace_norm(w1_star) <= 1e-8
    assert abs(rep.dual_value) <= 1e-10
    assert rep.reached == (True, True)
    assert rep.certified


def test_minimize_manufactured(small_setup):
    mesh, cfg, w1_ref, targets = small_setup
    f_star, w1_star, rep = minimize_dual(targets, cfg, DualOptions())
    assert rep.reached == (True, True)
    assert rep.certified
    assert rep.vi_residual >= -1e-5
    assert rep.primal_J <= cost_J(w1_ref) + 1e-3
    hist = [h["dual_value"] for h in rep.history]
    assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))
    assert rep.gap_rel <= 1e-4


@pytest.mark.parametrize("Ny", [16, 41])
def test_reached_distances_keep_the_radius_margin(Ny):
    """The secular equation aims at radii shrunk by RADIUS_MARGIN, so the
    state that the reach operator itself reaches lands at most (1 - 5e-8) rho
    from each target, not on the sphere to round-off."""
    _, cfg, _, targets = manufactured_setup(Ny)
    _, _, rep = minimize_dual(targets, cfg, DualOptions())
    assert rep.reached == (True, True)
    assert rep.dist_L2 <= (1.0 - 5e-8) * targets.rho0
    assert rep.dist_Hm1 <= (1.0 - 5e-8) * targets.rho1


def test_dual_refuses_a_tracked_field_on_another_mesh(small_setup):
    """The leader checks the tracked field's mesh as the follower's solve
    does: u_tilde2 on a k = 0.2 mesh is refused on a k = 0.1 one."""
    mesh, cfg, _, targets = small_setup
    other = Mesh(DomainSpec(k=0.2, T=mesh.domain.T), mesh.grid)
    moved = FollowerConfig(cfg.sigma, cfg.partition, Field(cfg.u_tilde2.values, other))
    with pytest.raises(ConfigurationError, match="different mesh"):
        minimize_dual(targets, moved, DualOptions())


def test_vi_residual_detects_perturbation(small_setup):
    mesh, cfg, _, targets = small_setup
    f_star, _, rep = minimize_dual(targets, cfg, DualOptions())
    assert vi_residual(f_star, targets, cfg, sample_count=100, seed=5) >= -1e-5
    rng = np.random.default_rng(6)
    bad = rand_dual_point(mesh, rng, scale=1.0)
    f_bad = combine(f_star, bad, 1.0)
    assert vi_residual(f_bad, targets, cfg, sample_count=100, seed=5) < -1e-3


@pytest.mark.parametrize("count", [0, -5])
def test_vi_residual_refuses_no_comparison_point(small_setup, count):
    """With no comparison point the certificate would read 0.0, which passes."""
    mesh, cfg, _, targets = small_setup
    with pytest.raises(ConfigurationError, match="sample_count"):
        vi_residual(zero_point(mesh), targets, cfg, sample_count=count)


def test_check_target_reached_examples(small_setup):
    mesh, _, _, targets = small_setup
    d0, d1, r0, r1 = _check_target_reached(targets.u_target0, targets.u_target1, targets)
    assert (d0, d1) == (0.0, 0.0) and r0 and r1
    # a point exactly on the sphere counts as inside (closed ball)
    T = mesh.domain.T
    unit = np.ones(mesh.Ny + 1) / l2_norm_physical(SpatialProfile(np.ones(mesh.Ny + 1), T, mesh))
    shifted = SpatialProfile(targets.u_target0.values + targets.rho0 * unit, T, mesh)
    d0, _, r0, _ = _check_target_reached(shifted, targets.u_target1, targets)
    assert d0 == pytest.approx(targets.rho0, rel=1e-12)
    assert r0


def test_duality_gap_trivial_and_manufactured(small_setup):
    mesh, cfg, _, targets = small_setup
    u0 = solve_nash_system(Trace.zeros(mesh, cfg.partition.mask1), cfg).u
    free_targets = TargetSpec(final_value_profile(u0), final_velocity_profile(u0), 0.1, 0.1)
    zero_w = Trace(np.zeros(mesh.Nt + 1), cfg.partition.mask1, mesh)
    assert duality_gap(zero_w, zero_point(mesh), free_targets, cfg) == 0.0

    f_star, w1_star, rep = minimize_dual(targets, cfg, DualOptions())
    gap = duality_gap(w1_star, f_star, targets, cfg)
    assert gap <= 1e-4 * max(rep.primal_J, 1e-30)


def test_duality_gap_requires_feasibility(small_setup):
    mesh, cfg, w1_ref, targets = small_setup
    tiny = TargetSpec(targets.u_target0, targets.u_target1, 1e-9, 1e-9)
    bad_w = Trace(np.zeros(mesh.Nt + 1), cfg.partition.mask1, mesh)
    with pytest.raises(InfeasibleError):
        duality_gap(bad_w, zero_point(mesh), tiny, cfg)


def test_gap_scaling_invariance(small_setup):
    """Scaling the data scales both optimal values quadratically; the
    relative gap is unchanged."""
    mesh, cfg, w1_ref, targets = small_setup
    _, _, rep1 = minimize_dual(targets, cfg, DualOptions())
    c = 2.5
    Y, T = np.meshgrid(mesh.y, mesh.times, indexing="ij")
    cfg_scaled = FollowerConfig(
        sigma=cfg.sigma,
        partition=cfg.partition,
        u_tilde2=Field(c * cfg.u_tilde2.values, mesh),
    )
    targets_scaled = TargetSpec(
        SpatialProfile(c * targets.u_target0.values, mesh.domain.T, mesh),
        SpatialProfile(c * targets.u_target1.values, mesh.domain.T, mesh),
        c * targets.rho0,
        c * targets.rho1,
    )
    _, _, rep2 = minimize_dual(targets_scaled, cfg_scaled, DualOptions())
    assert rep2.primal_J == pytest.approx(c**2 * rep1.primal_J, rel=1e-5)
    assert rep2.gap_rel <= 1e-4
    # the secular residuals are scale free, so the Newton path is too
    assert rep2.iterations == rep1.iterations


def test_radius_monotonicity(small_setup):
    mesh, cfg, _, targets = small_setup
    costs = []
    for frac in (0.02, 0.05, 0.10):
        tg = TargetSpec(
            targets.u_target0,
            targets.u_target1,
            frac * l2_norm_physical(targets.u_target0),
            frac * hminus1_norm_physical(targets.u_target1),
        )
        _, _, rep = minimize_dual(tg, cfg, DualOptions())
        assert rep.reached == (True, True), frac
        assert rep.certified, frac
        assert rep.iterations <= 12, frac
        costs.append(rep.primal_J)
    assert costs[0] >= costs[1] >= costs[2]


def test_dual_point_validation(small_setup):
    mesh, _, _, _ = small_setup
    T = mesh.domain.T
    bad = SpatialProfile(np.ones(mesh.Ny + 1), T, mesh)
    good = SpatialProfile(np.zeros(mesh.Ny + 1), T, mesh)
    with pytest.raises(ConfigurationError):
        DualPoint(bad, good)
    with pytest.raises(ConfigurationError):
        TargetSpec(good, good, rho0=-1.0, rho1=0.1)


def test_ball_slack_zero_control(small_setup):
    """When the free trajectory already sits strictly inside both balls the
    zero control is optimal and the iteration never leaves the origin."""
    mesh, cfg, _, _ = small_setup
    u0 = solve_nash_system(Trace.zeros(mesh, cfg.partition.mask1), cfg).u
    u_T = final_value_profile(u0)
    ut_T = final_velocity_profile(u0)
    rng = np.random.default_rng(44)
    bump0 = rng.standard_normal(mesh.Ny + 1) * 1e-3
    bump1 = rng.standard_normal(mesh.Ny + 1) * 1e-3
    shifted = TargetSpec(
        SpatialProfile(u_T.values + bump0, u_T.time, mesh),
        SpatialProfile(ut_T.values + bump1, ut_T.time, mesh),
        rho0=0.5,
        rho1=0.5,
    )
    d0, d1, r0, r1 = _check_target_reached(u_T, ut_T, shifted)
    assert r0 and r1 and d0 < 0.5 * shifted.rho0 and d1 < 0.5 * shifted.rho1
    _, w1_star, rep = minimize_dual(shifted, cfg, DualOptions())
    assert trace_norm(w1_star) <= 1e-8
    assert rep.reached == (True, True)


def test_minimize_with_delta_outer_loop(small_setup):
    """No outer loop over a change of reach variables is needed: the balls
    are on u(T) and u_t(T), and the reach output (u_t(T), -u(T)) of the
    answer, mapped back to (u(T), u_t(T)), lands in both balls at no more
    cost than the reference control."""
    mesh, cfg, w1_ref, targets = small_setup
    f_star, w1_star, rep = minimize_dual(targets, cfg, DualOptions())
    assert rep.reached == (True, True)
    assert rep.gap_rel <= 1e-3
    assert rep.primal_J <= cost_J(w1_ref) + 1e-3
    u = solve_nash_system(w1_star, cfg).u
    c1, c2 = extract_terminal(mesh, u.values)
    T = mesh.domain.T
    u_T = SpatialProfile(-c2, T, mesh)
    ut_T = SpatialProfile(c1, T, mesh)
    assert np.allclose(u_T.values, final_value_profile(u).values)
    assert np.allclose(ut_T.values, final_velocity_profile(u).values)
    _, _, r0, r1 = _check_target_reached(u_T, ut_T, targets)
    assert (r0, r1) == (True, True)


def test_minimize_time_split_partition():
    """The leader problem also runs on disjoint time windows (experimental
    mode): certificate and feasibility still hold on its own discrete
    operator, and the run is flagged."""
    mesh = Mesh.auto(DomainSpec(k=0.1, T=4.0), 20)
    part = SigmaPartition.time_split(mesh.Nt + 1, 0.5)
    Y, T = np.meshgrid(mesh.y, mesh.times, indexing="ij")
    cfg = FollowerConfig(
        sigma=1.0, partition=part, u_tilde2=Field(0.2 * np.sin(np.pi * Y) * np.sin(T), mesh)
    )
    t = mesh.times
    w1_ref = Trace(
        np.sin(2 * np.pi * t / 4.0) * np.exp(-0.5 * ((t - 1.2) / 0.5) ** 2), part.mask1, mesh
    )
    sol = solve_nash_system(w1_ref, cfg)
    u_T = final_value_profile(sol.u)
    ut_T = final_velocity_profile(sol.u)
    targets = TargetSpec(
        u_T, ut_T, 0.05 * l2_norm_physical(u_T), 0.05 * hminus1_norm_physical(ut_T)
    )
    f_star, w1_star, rep = minimize_dual(targets, cfg, DualOptions())
    assert "time_split_experimental" in rep.notes
    assert rep.reached == (True, True)
    assert rep.certified
    assert rep.primal_J <= cost_J(w1_ref) + 1e-3
    # the reconstructed leader respects its window
    assert np.all(w1_star.values[~part.mask1] == 0.0)


@pytest.mark.parametrize("sigma", [0.1, 10.0])
def test_minimize_robust_across_follower_weights(sigma):
    """Both ball flags must hold away from the reference weight; the two
    ball multipliers are solved for jointly, so opposing constraint
    sensitivities of the two blocks are handled exactly."""
    mesh = Mesh.auto(DomainSpec(k=0.1, T=4.0), 24)
    part = SigmaPartition.overlap(mesh.Nt + 1)
    Y, T = np.meshgrid(mesh.y, mesh.times, indexing="ij")
    cfg = FollowerConfig(
        sigma=sigma, partition=part, u_tilde2=Field(0.3 * np.sin(np.pi * Y) * np.sin(T), mesh)
    )
    t = mesh.times
    w1_ref = Trace(
        np.sin(2 * np.pi * t / 4.0) * np.exp(-0.5 * ((t - 2.0) / 0.8) ** 2), part.mask1, mesh
    )
    sol = solve_nash_system(w1_ref, cfg)
    u_T = final_value_profile(sol.u)
    ut_T = final_velocity_profile(sol.u)
    targets = TargetSpec(
        u_T, ut_T, 0.05 * l2_norm_physical(u_T), 0.05 * hminus1_norm_physical(ut_T)
    )
    _, w1_star, rep = minimize_dual(targets, cfg, DualOptions())
    assert rep.reached == (True, True)
    assert rep.certified
    assert rep.iterations <= 12
    assert rep.gap_rel <= 1e-4
    assert rep.primal_J <= cost_J(w1_ref) + 1e-3


# -- the certificate on a block of comparison points --------------------------

def _point_norms(model, fvec):
    """(||f0||_H, ||f1||_L2) of one coordinate vector, as scalars."""
    hx = PoissonRiesz(model.mesh, model.mesh.domain.T).hx
    f0 = np.zeros(model.n1)
    f0[1:-1] = fvec[: model.n0]
    d = np.diff(f0)
    n_h = float(np.sqrt(np.sum(d * d) / hx))
    return n_h, math.sqrt(float(np.sum(model.omega * fvec[model.n0 :] ** 2)))


def _point_h_norm(model, fvec):
    n_h, n_l2 = _point_norms(model, fvec)
    return math.sqrt(n_h**2 + n_l2**2)


def _points_one_by_one(model, fvec, count, rng):
    """Comparison points drawn one at a time, each with its own normal vector."""
    base = _point_h_norm(model, fvec)
    scale = base if base > 0 else 1.0
    hats = []
    for i in range(count):
        if i % 3 == 0:
            hats.append(rng.standard_normal(model.m) * scale)
        elif i % 3 == 1:
            direction = rng.standard_normal(model.m)
            hats.append(fvec + 0.1 * scale * direction / _point_h_norm(model, direction))
        else:
            hats.append((0.0, 0.5, 0.9, 1.1, 2.0)[(i // 3) % 5] * fvec)
    return hats


def _vi_min_one_by_one(model, fvec, hats):
    """The smallest normalized defect, one comparison point at a time."""
    # V f = G f + ell from the unwhitened columns C = C^ R and ell = R^T ell^
    cols = model.C @ model.R
    w = model.eng.tau * model.cfg.partition.mask1
    Vf = cols.T @ (w * (cols @ fvec)) + model.R.T @ model.ell
    omega = model.omega
    # the velocity and value misfits, u'(T) - target1 and u(T) - target0
    ev = Vf[: model.n0] / omega[1:-1]
    e_val = -Vf[model.n0 :] / omega
    nh, nl = _point_norms(model, fvec)
    rho0, rho1 = model.targets.rho0, model.targets.rho1
    best = np.inf
    for hat in hats:
        dh = hat - fvec
        nh_hat, nl_hat = _point_norms(model, hat)
        terms = (
            float(ev @ (omega[1:-1] * dh[: model.n0])),
            -float(e_val @ (omega * dh[model.n0 :])),
            rho1 * (nh_hat - nh),
            rho0 * (nl_hat - nl),
        )
        den = sum(abs(t) for t in terms)
        if den != 0.0:
            best = min(best, sum(terms) / den)
    return 0.0 if best == np.inf else best


@pytest.fixture(scope="module")
def model16():
    mesh = Mesh.auto(DomainSpec(k=0.1, T=4.0), 16)
    part = SigmaPartition.overlap(mesh.Nt + 1)
    T = mesh.domain.T
    targets = TargetSpec(
        SpatialProfile(0.2 * np.sin(np.pi * mesh.y), T, mesh),
        SpatialProfile(0.5 * np.sin(2 * np.pi * mesh.y), T, mesh),
        0.01,
        0.01,
    )
    return _DualModel(mesh, FollowerConfig(sigma=1.0, partition=part), targets)


def test_gram_factor_is_scipy_block_cholesky(model16):
    """The whitening factor R is blkdiag(cholesky(K), Omega^1/2) as
    scipy.linalg builds it, bit for bit, though the model calls LAPACK
    directly: the lower triangle of K's factor is zero, as whiten's R @ f
    needs."""
    import scipy.linalg

    n0, hx = model16.n0, model16.mesh.alphas[-1] * model16.mesh.dy
    K = (2.0 * np.eye(n0) - np.eye(n0, k=1) - np.eye(n0, k=-1)) / hx
    want = scipy.linalg.block_diag(scipy.linalg.cholesky(K), np.diag(np.sqrt(model16.omega)))
    assert model16.R.dtype == want.dtype and model16.R.shape == want.shape
    assert model16.R.tobytes() == want.tobytes()


def _batch(model, fvec, count):
    """``fvec`` and two more points, each compared with ``count`` points
    drawn from its own stream: the inputs of one batched certificate, and
    the f-coordinate points of each."""
    others = np.random.default_rng(9).standard_normal((2, model.m))
    fs, seeds = [fvec, *others], [[4, count], [4, 0], [4, 1]]
    points = [model.at(model.R @ f) for f in fs]
    return fs, points, seeds


@pytest.mark.parametrize("count", [8, 100])
@pytest.mark.parametrize("at", ["random", "zero"])
def test_sample_points_match_draws_one_at_a_time(model16, count, at):
    """The batched comparison points are the f-coordinate points, drawn one
    at a time, mapped by R."""
    fvec = np.random.default_rng(1).standard_normal(model16.m) if at == "random" else np.zeros(model16.m)
    fs, points, seeds = _batch(model16, fvec, count)
    Z = np.array([p.z for p in points])
    norms = np.array([p.norms for p in points], dtype=float)
    got = _comparison_points(model16, Z, norms, count, [np.random.default_rng(s) for s in seeds])
    assert got.shape == (len(fs), count, model16.m)
    for rows, f, seed in zip(got, fs, seeds):
        want = np.array(_points_one_by_one(model16, f, count, np.random.default_rng(seed))) @ model16.R.T
        err = np.linalg.norm(rows - want, axis=1)
        assert np.all(err <= 1e-12 * np.linalg.norm(want, axis=1))


@pytest.mark.parametrize("count", [8, 100])
@pytest.mark.parametrize("at", ["random", "zero"])
def test_vi_min_matches_the_point_loop(model16, count, at):
    """Each certificate of one batch is the f-coordinate defect minimum over
    that point's comparison points, one point at a time."""
    fvec = np.random.default_rng(2).standard_normal(model16.m) if at == "random" else np.zeros(model16.m)
    fs, points, seeds = _batch(model16, fvec, count)
    # the last point in a batch of its own count, as the answer's certificate is
    counts = [count, count, 5]
    got = _certificates(model16, points, counts, [np.random.default_rng(s) for s in seeds])
    for s, (f, c, seed) in enumerate(zip(fs, counts, seeds)):
        want = _vi_min_one_by_one(model16, f, _points_one_by_one(model16, f, c, np.random.default_rng(seed)))
        # away from zero, so that the relative bound means something
        assert abs(want) > 1e-3
        assert got[s] == pytest.approx(want, rel=1e-12, abs=0.0)


def test_history_certificates_match_each_iterate(model16):
    """Each history row's certificate is the single-point certificate at
    that iterate's f over the comparison points of the stream [seed, iter]."""
    opts = DualOptions(seed=3)
    iterates, *_ = _secular_newton(model16, opts)
    f_star, _, rep = minimize_dual(model16.targets, model16.cfg, opts)
    assert len(rep.history) == len(iterates) >= 3
    for row, point in zip(rep.history, iterates):
        f = np.linalg.solve(model16.R, point.z)
        rng = np.random.default_rng([opts.seed, row["iter"]])
        want = _vi_min_one_by_one(model16, f, _points_one_by_one(model16, f, HISTORY_VI_SAMPLES, rng))
        assert row["vi_residual"] == pytest.approx(want, rel=1e-9, abs=1e-11)
    fvec = np.concatenate([f_star.f0.values[1:-1], f_star.f1.values])
    rng = np.random.default_rng(opts.seed)
    want = _vi_min_one_by_one(model16, fvec, _points_one_by_one(model16, fvec, opts.vi_samples, rng))
    assert rep.vi_residual == pytest.approx(want, rel=1e-9, abs=1e-11)


def test_dual_matches_the_f_coordinate_values(small_setup):
    """The dual value and subgradient, computed in whitened coordinates,
    agree with the ones built in f from the honest adjoint trace, the
    physical norms and the Poisson lift."""
    mesh, cfg, _, targets = small_setup
    u0 = solve_nash_system(Trace.zeros(mesh, cfg.partition.mask1), cfg).u
    b0 = targets.u_target1 - final_velocity_profile(u0)
    e1 = targets.u_target0 - final_value_profile(u0)
    pr = PoissonRiesz(mesh, mesh.domain.T)
    rng = np.random.default_rng(8)
    for _ in range(3):
        f = rand_dual_point(mesh, rng)
        w1 = apply_A_star(f.f0, f.f1, cfg)
        nh, nl = h10_norm_physical(f.f0), l2_norm_physical(f.f1)
        linear = -duality_pairing(b0, f.f0) + duality_pairing(e1, f.f1)
        want = cost_J(w1) + linear + targets.rho1 * nh + targets.rho0 * nl
        assert dual_functional(f, targets, cfg) == pytest.approx(want, rel=1e-10)

        # the gradient of the smooth part pairs the final-state misfits, from
        # one honest application of the reach operator, with f; the Poisson
        # solve lifts the velocity block into H^1_0
        c1, c2 = apply_A(w1, cfg)
        g0 = pr.solve_values((c1 - b0).values) + (targets.rho1 / nh) * f.f0.values
        g1 = c2.values + e1.values + (targets.rho0 / nl) * f.f1.values
        got = dual_subgradient(f, targets, cfg)
        scale = max(np.max(np.abs(g0)), np.max(np.abs(g1)))
        assert np.max(np.abs(got.f0.values - g0)) <= 1e-9 * scale
        assert np.max(np.abs(got.f1.values - g1)) <= 1e-9 * scale


def test_kept_free_terminal_follows_the_tracked_trajectory(mesh41, overlap41, utilde41, monkeypatch):
    """A second dual model on the mesh, follower and tracked trajectory finds
    the free state's final pair kept by the mesh's operator and runs no
    follower solve; a changed trajectory gives a fresh operator's pair bit
    for bit."""
    from hierwave import coupled
    from hierwave.coupled import CoupledEngine

    other = Field(np.roll(utilde41.values, 7, axis=1), mesh41)
    T = mesh41.domain.T
    targets = TargetSpec(
        SpatialProfile(0.2 * np.sin(np.pi * mesh41.y), T, mesh41),
        SpatialProfile(0.5 * np.sin(2 * np.pi * mesh41.y), T, mesh41),
        0.01,
        0.01,
    )

    def model(utilde):
        return _DualModel(mesh41, FollowerConfig(sigma=0.5, partition=overlap41, u_tilde2=utilde), targets)

    monkeypatch.setattr(coupled, "_OPERATOR_CACHE", {})
    first = model(utilde41)
    calls = []
    solve = CoupledEngine.follower_trace

    def counted(self, rhs):
        calls.append(rhs.shape)
        return solve(self, rhs)

    monkeypatch.setattr(CoupledEngine, "follower_trace", counted)
    second = model(utilde41)
    assert second.eng.op is first.eng.op
    assert calls == []
    changed = model(other)
    assert len(calls) == 1
    again = model(utilde41)
    assert len(calls) == 2
    for a, b in ((second, first), (again, first)):
        assert np.array_equal(a.u0T, b.u0T) and np.array_equal(a.u0pT, b.u0pT)
    monkeypatch.setattr(coupled, "_OPERATOR_CACHE", {})
    fresh = model(other)
    assert np.array_equal(changed.u0T, fresh.u0T) and np.array_equal(changed.u0pT, fresh.u0pT)
    assert not np.array_equal(changed.u0T, first.u0T)
