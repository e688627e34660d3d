"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion with its runtime.  The reference configuration throughout is
k = 0.1, T = 4, Ny = 41, unit follower weight, overlapping boundary parts.
"""

import math
import time

import numpy as np
import pytest

from hierwave.geometry import DomainSpec, SigmaPartition, min_control_time
from hierwave.grid import (
    Field,
    Mesh,
    SpatialProfile,
    Trace,
    duality_pairing,
    hminus1_norm_physical,
    l2_norm_physical,
    trapezoid_weights,
)
from hierwave.coupled import (
    FollowerConfig,
    apply_A,
    apply_A_star,
    cost_J,
    cost_J2,
    euler_lagrange_residual,
    get_engine,
    solve_nash_system,
)
from hierwave.wave_core import final_value_profile, final_velocity_profile
from hierwave.leader_dual import (
    DualOptions,
    TargetSpec,
    duality_gap,
    minimize_dual,
    vi_residual,
)
from hierwave.verify import (
    OracleCase,
    convergence_study,
    dalembert_solution,
    energy_drift,
    monolithic_solve,
    moving_end_solution,
    transpose_check,
)
from hierwave.cli import main as cli_main
from references import trace_norm


class Timer:
    def __init__(self, budget):
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def report(name, ok, timer):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name} ({timer.elapsed:.2f}s / budget {timer.budget:.0f}s)")


@pytest.fixture(scope="module")
def acc():
    """The acceptance configuration and its manufactured targets."""
    mesh = Mesh.auto(DomainSpec(k=0.1, T=4.0), 41)
    part = SigmaPartition.overlap(mesh.Nt + 1)
    Y, T = np.meshgrid(mesh.y, mesh.times, indexing="ij")
    utilde = Field(0.3 * np.sin(np.pi * Y) * np.sin(T), mesh)
    cfg = FollowerConfig(sigma=1.0, partition=part, u_tilde2=utilde)
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
    return mesh, cfg, w1_ref, sol_ref, targets


def test_criterion_1_threshold_formula():
    with Timer(1.0) as tm:
        v_01 = min_control_time(0.1)
        v_tiny = min_control_time(1e-4)
        # independent small-speed oracle: two traversals, (e^{2k} - 1) / k
        taylor = math.expm1(2e-4) / 1e-4
        ok = abs(v_01 - 3.5227) <= 1e-3 and abs(v_tiny - taylor) <= 1e-3
    report("criterion 1: threshold formula", ok and tm.elapsed < 1.0, tm)
    assert abs(v_01 - 3.5227) <= 1e-3
    assert abs(v_tiny - taylor) <= 1e-3
    assert tm.elapsed < 1.0


def test_criterion_2_transpose_identity(acc):
    mesh, _, _, _, _ = acc
    cfg = FollowerConfig(sigma=1.0, partition=SigmaPartition.overlap(mesh.Nt + 1))
    with Timer(60.0) as tm:
        worst = transpose_check(mesh, cfg, trials=20, seed=0)
    ok = worst <= 1e-8
    report("criterion 2: transpose identity", ok and tm.elapsed < 60, tm)
    assert worst <= 1e-8
    assert tm.elapsed < 60


def test_criterion_3_nash_optimality(acc):
    mesh, cfg, w1_ref, sol_ref, _ = acc
    with Timer(120.0) as tm:
        rng = np.random.default_rng(0)
        W = mesh.W
        misfit = math.sqrt(float(np.sum(W * (sol_ref.u.values - cfg.u_tilde2.values) ** 2)))
        worst_rel = 0.0
        for _ in range(50):
            direction = Trace(rng.standard_normal(mesh.Nt + 1), cfg.partition.mask2, mesh)
            res = euler_lagrange_residual(sol_ref, cfg, [direction])[0]
            scale = misfit + cfg.sigma * trace_norm(sol_ref.w2) * trace_norm(direction) + 1e-30
            worst_rel = max(worst_rel, abs(res) / scale)
        el_ok = worst_rel <= 1e-6

        eng = get_engine(mesh, cfg)
        base = cost_J2(sol_ref.u, sol_ref.w2, cfg)
        convex_ok = True
        for eps in (0.01, 0.1):
            for _ in range(50):
                eta = rng.standard_normal(mesh.Nt + 1)
                w2p = Trace(sol_ref.w2.values + eps * eta, cfg.partition.mask2, mesh)
                bc = eng.chi1 * w1_ref.values + eng.chi2 * w2p.values
                up = Field(eng.state_solve(bc), mesh)
                if cost_J2(up, w2p, cfg) <= base:
                    convex_ok = False

        mono = monolithic_solve("nash", mesh, cfg, w1=w1_ref)
        scale = np.max(np.abs(mono["state"].values))
        mono_ok = (
            np.max(np.abs(sol_ref.u.values - mono["state"].values)) <= 1e-6 * scale
            and np.max(np.abs(sol_ref.p.values - mono["companion"].values)) <= 1e-6 * scale
        )
        ok = el_ok and convex_ok and mono_ok
    report("criterion 3: equilibrium optimality", ok and tm.elapsed < 120, tm)
    assert el_ok, f"worst EL residual {worst_rel:.3e}"
    assert convex_ok
    assert mono_ok
    assert tm.elapsed < 120


def test_criterion_4_approximate_controllability(acc):
    mesh, cfg, _, _, targets = acc
    with Timer(600.0) as tm:
        f_star, w1_star, rep = minimize_dual(targets, cfg, DualOptions(seed=0))
        hist = [h["dual_value"] for h in rep.history]
        monotone = all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))
        vi = vi_residual(f_star, targets, cfg, sample_count=100, seed=1)
        ok = rep.reached == (True, True) and monotone and vi >= -1e-5
    report("criterion 4: approximate controllability", ok and tm.elapsed < 600, tm)
    assert rep.reached == (True, True)
    assert monotone
    assert vi >= -1e-5
    assert tm.elapsed < 600


def test_criterion_5_duality_gap(acc):
    mesh, cfg, _, _, targets = acc
    with Timer(600.0) as tm:
        f_star, w1_star, rep = minimize_dual(targets, cfg, DualOptions(seed=0))
        gap = duality_gap(w1_star, f_star, targets, cfg)
        rel = gap / max(rep.primal_J, 1e-30)
        ok = rel <= 1e-4
    report("criterion 5: duality gap", ok, tm)
    assert rel <= 1e-4, f"relative gap {rel:.3e}"


def test_criterion_6_discretization_order():
    with Timer(120.0) as tm:
        dal = convergence_study(
            OracleCase("dal", DomainSpec(k=0.0, T=2.0, allow_k_zero=True), (64, 128, 256), dalembert_solution)
        )
        orders_dal = [r["order"] for r in dal if "order" in r]
        moving = convergence_study(
            OracleCase("moving", DomainSpec(k=0.3, T=2.0), (32, 64, 128), moving_end_solution)
        )
        orders_moving = [r["order"] for r in moving if "order" in r]
        drift = energy_drift(Ny=200, T=2.0)
        ok = (
            all(1.7 <= o <= 2.3 for o in orders_dal + orders_moving)
            and drift <= 1e-3
        )
    report("criterion 6: discretization order + energy", ok, tm)
    assert all(1.7 <= o <= 2.3 for o in orders_dal), orders_dal
    assert all(1.7 <= o <= 2.3 for o in orders_moving), orders_moving
    assert drift <= 1e-3


def test_criterion_7_zero_control_optimality(acc):
    mesh, cfg, _, _, _ = acc
    with Timer(120.0) as tm:
        u0 = solve_nash_system(Trace.zeros(mesh, cfg.partition.mask1), cfg).u
        targets = TargetSpec(
            final_value_profile(u0), final_velocity_profile(u0), 0.05, 0.05
        )
        f_star, w1_star, rep = minimize_dual(targets, cfg, DualOptions(seed=0))
        ok = trace_norm(w1_star) <= 1e-8 and abs(rep.dual_value) <= 1e-10
    report("criterion 7: zero-control optimality", ok, tm)
    assert trace_norm(w1_star) <= 1e-8
    assert abs(rep.dual_value) <= 1e-10


def test_criterion_8_radius_monotonicity(acc):
    mesh, cfg, _, _, targets = acc
    with Timer(600.0) as tm:
        costs = []
        for frac in (0.02, 0.05, 0.10):
            tg = TargetSpec(
                targets.u_target0,
                targets.u_target1,
                frac * l2_norm_physical(targets.u_target0),
                frac * hminus1_norm_physical(targets.u_target1),
            )
            _, _, rep = minimize_dual(tg, cfg, DualOptions(seed=0))
            costs.append(rep.primal_J)
        ok = costs[0] >= costs[1] >= costs[2]
    report("criterion 8: radius monotonicity", ok, tm)
    assert costs[0] >= costs[1] >= costs[2], costs


def test_criterion_9_sweep_reproducibility(tmp_path):
    import json

    with Timer(300.0) as tm:
        config = {
            "domain": {"k": 0.1, "T": 4.0},
            "grid": {"Ny": 20},
            "partition": {"mode": "overlap"},
            "follower": {"sigma": 1.0},
            "seed": 3,
            "sweep": {
                "rho_rel": [0.05, 0.1],
                "reference_control": {
                    "family": "gaussian",
                    "amplitude": 1.0,
                    "center": 0.4,
                    "width": 0.15,
                },
            },
        }
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(config))
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        c1 = cli_main(["sweep", "--config", str(cfg_path), "--out", str(out1), "--workers", "1"])
        c2 = cli_main(["sweep", "--config", str(cfg_path), "--out", str(out2), "--workers", "2"])
        identical = (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
        ok = c1 == 0 and c2 == 0 and identical
    report("criterion 9: sweep reproducibility", ok, tm)
    assert c1 == 0 and c2 == 0
    assert identical
