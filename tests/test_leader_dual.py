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
    l2_norm_physical,
    hminus1_norm_physical,
)
from hierwave.coupled import FollowerConfig, cost_J, solve_free_part, solve_nash_system
from hierwave.wave_core import extract_terminal, final_value_profile, final_velocity_profile
from hierwave.leader_dual import (
    DualPoint,
    _DualModel,
    _sample_points,
    TargetSpec,
    check_target_reached,
    dual_functional,
    dual_subgradient,
    duality_gap,
    minimize_dual,
    vi_residual,
)


@pytest.fixture(scope="module")
def small_setup():
    """Everything the leader tests need, on a quick grid."""
    mesh = Mesh.auto(DomainSpec(k=0.1, T=4.0), 24)
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


def rand_dual_point(mesh, rng, scale=1.0):
    f0 = rng.standard_normal(mesh.Ny + 1) * scale
    f0[0] = f0[-1] = 0.0
    f1 = rng.standard_normal(mesh.Ny + 1) * scale
    T = mesh.domain.T
    return DualPoint(SpatialProfile(f0, T, mesh), SpatialProfile(f1, T, mesh))


def h_inner(a: DualPoint, b: DualPoint) -> float:
    """The geometry the dual iteration runs in."""
    pr = PoissonRiesz(a.f0.mesh, a.f0.mesh.domain.T)
    e = float(np.sum(np.diff(a.f0.values) * np.diff(b.f0.values)) / pr.hx)
    from hierwave.grid import l2_inner_physical

    return e + l2_inner_physical(a.f1, b.f1)


def test_dual_functional_zero(small_setup):
    mesh, cfg, _, targets = small_setup
    z = DualPoint.zeros(mesh)
    assert dual_functional(z, targets, cfg) == 0.0


def test_dual_functional_rho_homogeneity(small_setup):
    """Doubling the point doubles the norm part exactly."""
    mesh, cfg, _, targets = small_setup
    rng = np.random.default_rng(0)
    f = rand_dual_point(mesh, rng)
    from hierwave.grid import h10_norm_physical

    def rho_part(point):
        return targets.rho1 * h10_norm_physical(point.f0) + targets.rho0 * l2_norm_physical(
            point.f1
        )

    c = 2.0
    cf = DualPoint(c * f.f0, c * f.f1)
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
        fp = DualPoint(f.f0 + eps * h.f0, f.f1 + eps * h.f1)
        fm = DualPoint(f.f0 + (-eps) * h.f0, f.f1 + (-eps) * h.f1)
        fd = (dual_functional(fp, targets, cfg) - dual_functional(fm, targets, cfg)) / (2 * eps)
        an = h_inner(g, h)
        worst = max(worst, abs(fd - an) / (abs(fd) + abs(an) + 1e-30))
    assert worst < 1e-5


def test_subgradient_zero_at_origin_with_free_targets(small_setup):
    mesh, cfg, _, _ = small_setup
    u0, _ = solve_free_part(cfg, mesh)
    free_targets = TargetSpec(
        final_value_profile(u0), final_velocity_profile(u0), 0.1, 0.1
    )
    g = dual_subgradient(DualPoint.zeros(mesh), free_targets, cfg)
    assert np.max(np.abs(g.f0.values)) < 1e-10
    assert np.max(np.abs(g.f1.values)) < 1e-10


def test_smooth_gradient_scales_linearly(small_setup):
    mesh, cfg, _, targets = small_setup
    rng = np.random.default_rng(2)
    f = rand_dual_point(mesh, rng)
    g1 = dual_subgradient(f, targets, cfg)
    c = 3.0
    gc = dual_subgradient(DualPoint(c * f.f0, c * f.f1), targets, cfg)
    # remove the scale-invariant shrinkage directions, leaving the affine part
    from hierwave.grid import h10_norm_physical

    def shrink_dir(point):
        nh = h10_norm_physical(point.f0)
        nl = l2_norm_physical(point.f1)
        return (
            targets.rho1 * point.f0.values / nh,
            targets.rho0 * point.f1.values / nl,
        )

    s1 = shrink_dir(f)
    smooth1 = (g1.f0.values - s1[0], g1.f1.values - s1[1])
    sc = shrink_dir(DualPoint(c * f.f0, c * f.f1))
    smoothc = (gc.f0.values - sc[0], gc.f1.values - sc[1])
    zero = DualPoint.zeros(mesh)
    g0 = dual_subgradient(zero, targets, cfg)
    for block in (0, 1):
        lin = smoothc[block] - (g0.f0.values, g0.f1.values)[block]
        lin1 = smooth1[block] - (g0.f0.values, g0.f1.values)[block]
        assert np.max(np.abs(lin - c * lin1)) < 1e-9 * (np.max(np.abs(lin)) + 1.0)


def test_minimize_trivial_zero_control(small_setup):
    mesh, cfg, _, _ = small_setup
    u0, _ = solve_free_part(cfg, mesh)
    targets = TargetSpec(final_value_profile(u0), final_velocity_profile(u0), 0.1, 0.1)
    f_star, w1_star, rep = minimize_dual(targets, cfg)
    assert w1_star.norm() <= 1e-8
    assert abs(rep.dual_value) <= 1e-10
    assert rep.reached == (True, True)
    assert rep.certified


def test_minimize_manufactured(small_setup):
    mesh, cfg, w1_ref, targets = small_setup
    f_star, w1_star, rep = minimize_dual(targets, cfg)
    assert rep.reached == (True, True)
    assert rep.certified
    assert rep.vi_residual >= -1e-5
    assert rep.primal_J <= cost_J(w1_ref) + 1e-3
    hist = [h["dual_value"] for h in rep.history]
    assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))
    assert rep.gap_rel <= 1e-4


def test_vi_residual_detects_perturbation(small_setup):
    mesh, cfg, _, targets = small_setup
    f_star, _, rep = minimize_dual(targets, cfg)
    assert vi_residual(f_star, targets, cfg, sample_count=100, seed=5) >= -1e-5
    rng = np.random.default_rng(6)
    bad = rand_dual_point(mesh, rng, scale=1.0)
    f_bad = DualPoint(f_star.f0 + bad.f0, f_star.f1 + bad.f1)
    assert vi_residual(f_bad, targets, cfg, sample_count=100, seed=5) < -1e-3


def test_check_target_reached_examples(small_setup):
    mesh, _, _, targets = small_setup
    d0, d1, r0, r1 = check_target_reached(targets.u_target0, targets.u_target1, targets)
    assert (d0, d1) == (0.0, 0.0) and r0 and r1
    # a point exactly on the sphere counts as inside (closed ball)
    unit = SpatialProfile(np.ones(mesh.Ny + 1), mesh.domain.T, mesh)
    unit = (1.0 / l2_norm_physical(unit)) * unit
    shifted = targets.u_target0 + targets.rho0 * unit
    d0, _, r0, _ = check_target_reached(shifted, targets.u_target1, targets)
    assert d0 == pytest.approx(targets.rho0, rel=1e-12)
    assert r0


def test_duality_gap_trivial_and_manufactured(small_setup):
    mesh, cfg, _, targets = small_setup
    u0, _ = solve_free_part(cfg, mesh)
    free_targets = TargetSpec(final_value_profile(u0), final_velocity_profile(u0), 0.1, 0.1)
    zero_w = Trace(np.zeros(mesh.Nt + 1), cfg.partition.mask1, mesh)
    assert duality_gap(zero_w, DualPoint.zeros(mesh), free_targets, cfg) == 0.0

    f_star, w1_star, rep = minimize_dual(targets, cfg)
    gap = duality_gap(w1_star, f_star, targets, cfg)
    assert gap <= 1e-4 * max(rep.primal_J, 1e-30)


def test_duality_gap_requires_feasibility(small_setup):
    mesh, cfg, w1_ref, targets = small_setup
    tiny = TargetSpec(targets.u_target0, targets.u_target1, 1e-9, 1e-9)
    bad_w = Trace(np.zeros(mesh.Nt + 1), cfg.partition.mask1, mesh)
    with pytest.raises(InfeasibleError):
        duality_gap(bad_w, DualPoint.zeros(mesh), tiny, cfg)


def test_gap_scaling_invariance(small_setup):
    """Scaling the data scales both optimal values quadratically; the
    relative gap is unchanged."""
    mesh, cfg, w1_ref, targets = small_setup
    _, _, rep1 = minimize_dual(targets, cfg)
    c = 2.5
    Y, T = np.meshgrid(mesh.y, mesh.times, indexing="ij")
    cfg_scaled = FollowerConfig(
        sigma=cfg.sigma,
        partition=cfg.partition,
        u_tilde2=Field(c * cfg.u_tilde2.values, mesh),
    )
    targets_scaled = TargetSpec(
        c * targets.u_target0, c * targets.u_target1, c * targets.rho0, c * targets.rho1
    )
    _, _, rep2 = minimize_dual(targets_scaled, cfg_scaled)
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
        _, _, rep = minimize_dual(tg, cfg)
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
    u0, _ = solve_free_part(cfg, mesh)
    u_T = final_value_profile(u0)
    ut_T = final_velocity_profile(u0)
    rng = np.random.default_rng(44)
    bump0 = rng.standard_normal(mesh.Ny + 1) * 1e-3
    bump1 = rng.standard_normal(mesh.Ny + 1) * 1e-3
    shifted = TargetSpec(
        u_T.with_values(u_T.values + bump0),
        ut_T.with_values(ut_T.values + bump1),
        rho0=0.5,
        rho1=0.5,
    )
    d0, d1, r0, r1 = check_target_reached(u_T, ut_T, shifted)
    assert r0 and r1 and d0 < 0.5 * shifted.rho0 and d1 < 0.5 * shifted.rho1
    _, w1_star, rep = minimize_dual(shifted, cfg)
    assert w1_star.norm() <= 1e-8
    assert rep.reached == (True, True)


def test_minimize_with_delta_outer_loop(small_setup):
    """No outer loop over delta is needed: the balls are on u(T) and u_t(T),
    and the delta = 0.3 reach output (u_t(T) + delta u(T), -u(T)) of the
    delta = 0 answer, mapped back to (u(T), u_t(T)), lands in both balls at
    no more cost than the reference control."""
    mesh, cfg, w1_ref, targets = small_setup
    delta = 0.3
    f_star, w1_star, rep = minimize_dual(targets, cfg)
    assert rep.reached == (True, True)
    assert rep.gap_rel <= 1e-3
    assert rep.primal_J <= cost_J(w1_ref) + 1e-3
    u = solve_nash_system(w1_star, cfg).u
    c1, c2 = extract_terminal(mesh, u.values, delta)
    T = mesh.domain.T
    u_T = SpatialProfile(-c2, T, mesh)
    ut_T = SpatialProfile(c1 + delta * c2, T, mesh)
    assert np.allclose(u_T.values, final_value_profile(u).values)
    assert np.allclose(ut_T.values, final_velocity_profile(u).values)
    _, _, r0, r1 = check_target_reached(u_T, ut_T, targets)
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
    f_star, w1_star, rep = minimize_dual(targets, cfg)
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
    _, w1_star, rep = minimize_dual(targets, cfg)
    assert rep.reached == (True, True)
    assert rep.certified
    assert rep.iterations <= 12
    assert rep.gap_rel <= 1e-4
    assert rep.primal_J <= cost_J(w1_ref) + 1e-3


# -- the certificate on a block of comparison points --------------------------

def _point_norms(model, fvec):
    """(||f0||_H, ||f1||_L2) of one coordinate vector, as scalars."""
    f0 = np.zeros(model.n1)
    f0[1:-1] = fvec[: model.n0]
    d = np.diff(f0)
    n_h = float(np.sqrt(np.sum(d * d) / model.poisson.hx))
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
    ev, e_val = model.state_misfits(fvec)
    nh, nl = _point_norms(model, fvec)
    rho0, rho1 = model.targets.rho0, model.targets.rho1
    best = np.inf
    for hat in hats:
        dh = hat - fvec
        nh_hat, nl_hat = _point_norms(model, hat)
        terms = (
            float(ev[1:-1] @ (model.omega[1:-1] * dh[: model.n0])),
            -float(e_val @ (model.omega * dh[model.n0 :])),
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


@pytest.mark.parametrize("count", [8, 100])
@pytest.mark.parametrize("at", ["random", "zero"])
def test_sample_points_match_draws_one_at_a_time(model16, count, at):
    fvec = np.random.default_rng(1).standard_normal(model16.m) if at == "random" else np.zeros(model16.m)
    got = _sample_points(model16, fvec, count, np.random.default_rng([4, count]))
    want = _points_one_by_one(model16, fvec, count, np.random.default_rng([4, count]))
    assert got.shape == (count, model16.m)
    assert np.array_equal(got, np.array(want))


@pytest.mark.parametrize("count", [8, 100])
@pytest.mark.parametrize("at", ["random", "zero"])
def test_vi_min_matches_the_point_loop(model16, count, at):
    fvec = np.random.default_rng(2).standard_normal(model16.m) if at == "random" else np.zeros(model16.m)
    hats = _sample_points(model16, fvec, count, np.random.default_rng(3))
    want = _vi_min_one_by_one(model16, fvec, list(hats))
    # away from zero, so that the relative bound means something
    assert abs(want) > 1e-3
    assert model16.vi_min(fvec, hats) == pytest.approx(want, rel=1e-12, abs=0.0)
