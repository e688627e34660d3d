import json

import numpy as np
import pytest
import scipy.sparse.linalg

from hierwave.errors import ConfigurationError
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
from hierwave.coupled import FollowerConfig, apply_A, apply_A_star, get_engine
from hierwave.wave_core import WaveOperator
from hierwave.verify import (
    OracleCase,
    TransposeReport,
    convergence_study,
    dalembert_reference,
    dalembert_solution,
    energy_drift,
    linear_solution,
    monolithic_solve,
    moving_end_solution,
    order_studies,
    run_verification,
    transpose_check,
    write_verification_report,
)

SIN_QUARTER = 0.7071067811865476


def bump(s):
    return np.exp(-(((s - 0.35) / 0.08) ** 2))


def test_dalembert_examples():
    assert dalembert_reference(np.sin, 0.25, 0.5) == pytest.approx(
        np.sin(0.25), abs=1e-14
    )
    # sine control h(t) = sin(pi t) sampled at the quarter point
    h = lambda s: np.sin(np.pi * s)
    assert dalembert_reference(h, 0.25, 0.5) == pytest.approx(SIN_QUARTER, abs=1e-14)
    # causality: nothing arrives before the first characteristic
    assert dalembert_reference(h, 0.8, 0.5) == 0.0
    # the far endpoint stays pinned
    for t in (0.3, 0.9, 1.7, 2.9):
        assert dalembert_reference(h, 1.0, t) == pytest.approx(0.0, abs=1e-14)


def test_dalembert_telescopes_to_control():
    h = lambda s: np.sin(np.pi * s) ** 2
    t = np.linspace(0, 3.5, 201)
    assert np.max(np.abs(dalembert_reference(h, 0.0, t) - h(t))) < 1e-12


@pytest.fixture(scope="module")
def setup41():
    mesh = Mesh.auto(DomainSpec(k=0.1, T=4.0), 41)
    part = SigmaPartition.overlap(mesh.Nt + 1)
    Y, T = np.meshgrid(mesh.y, mesh.times, indexing="ij")
    cfg = FollowerConfig(
        sigma=1.0, partition=part, u_tilde2=Field(0.3 * np.sin(np.pi * Y) * np.sin(T), mesh)
    )
    t = mesh.times
    w1 = Trace(np.sin(2 * np.pi * t / 4.0) * np.exp(-0.5 * ((t - 2.0) / 0.8) ** 2), part.mask1, mesh)
    return mesh, cfg, w1


def test_monolithic_zero_data(setup41):
    mesh, cfg, _ = setup41
    zero_cfg = FollowerConfig(sigma=1.0, partition=cfg.partition)
    zero = Trace(np.zeros(mesh.Nt + 1), cfg.partition.mask1, mesh)
    out = monolithic_solve("nash", mesh, zero_cfg, w1=zero)
    assert np.all(out["state"].values == 0.0)
    assert np.all(out["companion"].values == 0.0)


def test_monolithic_residual_and_agreement(setup41):
    mesh, cfg, w1 = setup41
    out = monolithic_solve("nash", mesh, cfg, w1=w1)
    assert out["residual"] <= 1e-10
    eng = get_engine(mesh, cfg)
    w1v = np.where(cfg.partition.mask1, w1.values, 0.0)
    state, lam, _, _, _ = eng.picard_pair(w1v, cfg.u_tilde2.values)
    scale = np.max(np.abs(out["state"].values))
    assert np.max(np.abs(state - out["state"].values)) <= 1e-6 * scale
    assert np.max(np.abs(eng.companion_field(lam) - out["companion"].values)) <= 1e-6 * scale


def test_monolithic_leader_and_free(setup41):
    mesh, cfg, w1 = setup41
    lead = monolithic_solve("leader_part", mesh, cfg, w1=w1)
    free = monolithic_solve("free_part", mesh, cfg)
    nash = monolithic_solve("nash", mesh, cfg, w1=w1)
    scale = np.max(np.abs(nash["state"].values))
    recon = free["state"].values + lead["state"].values
    assert np.max(np.abs(recon - nash["state"].values)) < 1e-9 * scale


def test_monolithic_adjoint_pair(setup41):
    mesh, cfg, _ = setup41
    T = mesh.domain.T
    rng = np.random.default_rng(21)
    f0v = rng.standard_normal(mesh.Ny + 1)
    f0v[0] = f0v[-1] = 0.0
    f0 = SpatialProfile(f0v, T, mesh)
    f1 = SpatialProfile(rng.standard_normal(mesh.Ny + 1), T, mesh)
    out = monolithic_solve("adjoint_pair", mesh, cfg, f=(f0, f1))
    assert out["residual"] <= 1e-9
    eng = get_engine(mesh, cfg)
    mu, _, _, _, _ = eng.picard_adjoint_pair(eng.terminal_cotangent(f0.values, f1.values))
    trace = np.where(cfg.partition.mask1, mu[0, :] / eng.tau, 0.0)
    scale = np.max(np.abs(out["leader_trace"].values))
    assert np.max(np.abs(trace - out["leader_trace"].values)) <= 1e-6 * scale


def test_monolithic_memory_guard():
    mesh = Mesh.auto(DomainSpec(k=0.1, T=1.0), 80)
    cfg = FollowerConfig(sigma=1.0, partition=SigmaPartition.overlap(mesh.Nt + 1))
    with pytest.raises(ConfigurationError):
        monolithic_solve("free_part", mesh, cfg)


def test_monolithic_factors_once(monkeypatch):
    """Every system on one engine is solved through the engine's coupled LU:
    one factorization and no further sparse solve."""
    mesh = Mesh.auto(DomainSpec(k=0.1, T=2.0), 16)
    part = SigmaPartition.overlap(mesh.Nt + 1)
    Y, T = np.meshgrid(mesh.y, mesh.times, indexing="ij")
    cfg = FollowerConfig(sigma=0.7, partition=part, u_tilde2=Field(np.sin(np.pi * Y) * np.cos(T), mesh))
    w1 = Trace(np.sin(np.pi * mesh.times / 2.0), part.mask1, mesh)
    f0v = np.sin(np.pi * mesh.y)
    f = (SpatialProfile(f0v, 2.0, mesh), SpatialProfile(np.cos(np.pi * mesh.y), 2.0, mesh))
    calls = {"splu": 0, "spsolve": 0}

    def counted(name):
        original = getattr(scipy.sparse.linalg, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return call

    for name in calls:
        monkeypatch.setattr(scipy.sparse.linalg, name, counted(name))
    # a fresh engine, so that no earlier test's factorization is reused
    monkeypatch.setattr("hierwave.coupled._ENGINE_CACHE", {})
    for system in ("nash", "free_part", "leader_part"):
        assert monolithic_solve(system, mesh, cfg, w1=w1)["residual"] <= 1e-10
    assert monolithic_solve("adjoint_pair", mesh, cfg, f=f)["residual"] <= 1e-9
    assert calls == {"splu": 1, "spsolve": 0}


def test_transpose_check_report(setup41):
    mesh, cfg, _ = setup41
    rep = transpose_check(mesh, cfg, trials=5, seed=0)
    assert isinstance(rep, TransposeReport)
    assert rep.max_rel_error <= 1e-8
    assert len(rep.per_trial) == 5


def test_transpose_check_zero_control(setup41):
    mesh, cfg, _ = setup41
    zero = Trace(np.zeros(mesh.Nt + 1), cfg.partition.mask1, mesh)
    rng = np.random.default_rng(1)
    f0v = rng.standard_normal(mesh.Ny + 1)
    f0v[0] = f0v[-1] = 0.0
    f0 = SpatialProfile(f0v, mesh.domain.T, mesh)
    f1 = SpatialProfile(rng.standard_normal(mesh.Ny + 1), mesh.domain.T, mesh)
    c1, c2 = apply_A(zero, cfg)
    lhs = duality_pairing(c1, f0) + l2_inner_physical(c2, f1)
    pair = apply_A_star(f0, f1, cfg)
    tau = trapezoid_weights(mesh.Nt + 1, mesh.dt)
    rhs = float(np.sum(tau * pair.leader_trace.values * zero.values))
    assert lhs == 0.0 and rhs == 0.0


def test_transpose_mismatched_quadrature_detected(setup41):
    """Negative control: dropping the moving-domain Jacobian from the pairing
    must break the identity well past the certification threshold."""
    mesh, cfg, _ = setup41
    rng = np.random.default_rng(3)
    w1 = Trace(rng.standard_normal(mesh.Nt + 1), cfg.partition.mask1, mesh)
    f0v = rng.standard_normal(mesh.Ny + 1)
    f0v[0] = f0v[-1] = 0.0
    c1, c2 = apply_A(w1, cfg)
    wy = trapezoid_weights(mesh.Ny + 1, mesh.dy)
    f1v = rng.standard_normal(mesh.Ny + 1)
    # deliberately unit Jacobian instead of alpha(T)
    lhs_bad = float(np.sum(wy * (c1.values * f0v + c2.values * f1v)))
    pair = apply_A_star(
        SpatialProfile(f0v, mesh.domain.T, mesh),
        SpatialProfile(f1v, mesh.domain.T, mesh),
        cfg,
    )
    tau = trapezoid_weights(mesh.Nt + 1, mesh.dt)
    rhs = float(np.sum(tau * pair.leader_trace.values * w1.values))
    rel = abs(lhs_bad - rhs) / (abs(lhs_bad) + abs(rhs))
    assert rel > 1e-3


def test_convergence_orders():
    dal = convergence_study(
        OracleCase("dal", DomainSpec(k=0.0, T=2.0, allow_k_zero=True), (64, 128, 256), dalembert_solution)
    )
    for row in dal[1:]:
        assert 1.7 <= row["order"] <= 2.3
    moving = convergence_study(OracleCase("moving", DomainSpec(k=0.3, T=2.0), (32, 64, 128), moving_end_solution))
    for row in moving[1:]:
        assert 1.7 <= row["order"] <= 2.3


def test_moving_end_solution_solves_the_moving_end_problem():
    """Moore's field vanishes on the moving end, satisfies u_tt = u_xx by
    finite differences, and its velocity is u_t at t = 0."""
    mesh = Mesh.auto(DomainSpec(k=0.3, T=2.0), 64)
    field, velocity = moving_end_solution(mesh)
    assert np.max(np.abs(field[-1])) < 1e-13
    k, h = 0.3, 1e-4
    K = (1 + k) / (1 - k)
    x, t = 0.4, 0.7

    def u(x, t):
        tau = t + 1 / k
        return np.sin(3 * (tau + x)) - np.sin(3 * K * (tau - x))

    u_tt = (u(x, t + h) - 2 * u(x, t) + u(x, t - h)) / h**2
    u_xx = (u(x + h, t) - 2 * u(x, t) + u(x - h, t)) / h**2
    assert abs(u_tt - u_xx) < 1e-5 * abs(u_xx)
    u_t = (u(mesh.y, h) - u(mesh.y, -h)) / (2 * h)
    assert np.max(np.abs(velocity - u_t)) < 1e-6 * np.max(np.abs(velocity))


def test_moving_end_study_sees_a_wrong_moving_boundary_coefficient(monkeypatch):
    """b = 2 k y / a, the mixed-derivative coefficient that the moving end
    brings in, off by one part in 1e3 must cost the suite's k > 0 study its
    order.  A study against a fine-grid run of the same scheme kept order 2
    (2.04, 2.08) here."""
    coefficients = WaveOperator._coefficients

    def perturbed(self):
        b, c, d = coefficients(self)
        return b * (1.0 + 1e-3), c, d

    monkeypatch.setattr(WaveOperator, "_coefficients", perturbed)
    (case,) = [case for case in order_studies("fast") if case.domain.k > 0]
    orders = [row["order"] for row in convergence_study(case)[1:]]
    assert not all(1.7 <= o <= 2.3 for o in orders), orders


def test_linear_solution_exact():
    rows = convergence_study(OracleCase("lin", DomainSpec(k=0.3, T=2.0), (16, 32), linear_solution))
    assert all(r["max_error"] <= 1e-12 for r in rows)


def test_energy_drift_threshold():
    assert energy_drift(Ny=200, T=2.0) <= 1e-3


def test_run_verification_fast_and_report(tmp_path):
    rep = run_verification("fast", seed=0)
    assert rep["passed"]
    names = {c["name"] for c in rep["checks"]}
    assert {"dalembert_order", "moving_end_order", "transpose_identity_overlap", "nash_schur_vs_monolithic"} <= names
    for check in rep["checks"]:
        assert set(check) == {"name", "metric", "threshold", "passed"}
    write_verification_report(rep, tmp_path / "report.json")
    loaded = json.loads((tmp_path / "report.json").read_text())
    assert loaded == rep


def test_run_verification_reproducible():
    a = run_verification("fast", seed=0)
    b = run_verification("fast", seed=0)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_run_verification_bad_level():
    with pytest.raises(ConfigurationError):
        run_verification("paranoid")


def test_monolithic_leader_part_vs_picard(setup41):
    mesh, cfg, w1 = setup41
    eng = get_engine(mesh, cfg)
    g, lam, _, _, _ = eng.picard_pair(np.where(cfg.partition.mask1, w1.values, 0.0), None)
    mono = monolithic_solve("leader_part", mesh, cfg, w1=w1)
    scale = np.max(np.abs(mono["state"].values))
    assert np.max(np.abs(g - mono["state"].values)) <= 1e-6 * scale
    assert np.max(np.abs(eng.companion_field(lam) - mono["companion"].values)) <= 1e-6 * scale


def test_run_verification_full_passes():
    rep = run_verification("full", seed=0)
    assert rep["passed"]
    names = {c["name"] for c in rep["checks"]}
    assert "transpose_identity_time-split" in names
