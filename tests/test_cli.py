import json

import numpy as np
import pytest

from hierwave.cli import main
from hierwave.geometry import DomainSpec
from hierwave.grid import (
    Field,
    GridSpec,
    Mesh,
    hminus1_norm_physical,
    l2_norm_physical,
    load_profile_csv,
    save_field_csv,
)


def write_config(tmp_path, name, config):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def base_config(**extra):
    config = {
        "domain": {"k": 0.1, "T": 4.0},
        "grid": {"Ny": 20},
        "partition": {"mode": "overlap"},
        "follower": {"sigma": 1.0},
        "seed": 7,
    }
    config.update(extra)
    return config


def read_csv_values(path):
    rows = [
        line.strip().split(",")
        for line in open(path)
        if line.strip() and not line.startswith("#")
    ]
    return np.array([[float(v) for v in row] for row in rows[1:]])


def test_threshold_command(tmp_path, capsys):
    code = main(["threshold", "--k", "0.0001", "0.1", "0.5", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "3.52268" in out
    data = read_csv_values(tmp_path / "threshold.csv")
    assert data.shape == (3, 2)
    assert data[1, 1] == pytest.approx(3.522681107741945, rel=1e-12)


def test_simulate_zero_control(tmp_path):
    cfg = base_config(control={"family": "constant", "value": 0.0})
    code = main(
        ["simulate", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(tmp_path / "out")]
    )
    assert code == 0
    field = read_csv_values(tmp_path / "out" / "field.csv")
    assert np.all(field[:, 2] == 0.0)
    trace = read_csv_values(tmp_path / "out" / "trace.csv")
    assert np.all(trace[:, 1] == 0.0)


def test_simulate_matches_closed_form(tmp_path):
    from hierwave.verify import dalembert_reference

    cfg = {
        "domain": {"k": 0.0, "T": 1.0, "allow_k_zero": True},
        "grid": {"Ny": 128},
        "partition": {"mode": "overlap"},
        "follower": {"sigma": 1.0},
        "control": {"family": "sine", "amplitude": 1.0, "frequency": 1.0},
        "seed": 0,
    }
    out = tmp_path / "sim"
    assert main(["simulate", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
    field = read_csv_values(out / "field.csv")
    # control profile is sine in normalized time = sin(pi t / T) with T = 1
    h = lambda s: np.sin(np.pi * s)
    exact = dalembert_reference(h, field[:, 0], field[:, 1])
    # kinked data: tight agreement pointwise at the quarter point, loose in max
    sel = (np.abs(field[:, 0] - 0.25) < 1e-9) & (np.abs(field[:, 1] - 0.5) < 1e-9)
    assert np.max(np.abs(field[sel, 2] - exact[sel])) < 5e-3
    assert np.max(np.abs(field[:, 2] - exact)) < 5e-2


def test_invalid_speed_exits_2(tmp_path, capsys):
    cfg = base_config(control={"family": "constant", "value": 0.0})
    cfg["domain"]["k"] = 1.2
    code = main(
        ["simulate", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(tmp_path / "o")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "0 <= k < 1" in err


@pytest.mark.parametrize("flag", ["false", 1, "yes"])
def test_allow_k_zero_must_be_boolean(tmp_path, capsys, flag):
    cfg = base_config(control={"family": "constant", "value": 0.0})
    cfg["domain"].update(k=0.0, allow_k_zero=flag)
    code = main(
        ["simulate", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert "allow_k_zero must be true or false" in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path)]) == 2


def test_nash_zero_leader(tmp_path):
    cfg = base_config(leader={"family": "constant", "value": 0.0})
    out = tmp_path / "nash"
    assert main(["nash", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["J2"] == 0.0 and summary["J"] == 0.0
    u = read_csv_values(out / "u.csv")
    assert np.all(u[:, 2] == 0.0)
    assert summary["header"]["warnings"] == "none"


@pytest.mark.filterwarnings("error")
def test_nash_non_finite_cost_exits_3(tmp_path, capsys):
    """A leader amplitude that passes validation but overflows the costs used
    to exit 0 with ``"J": Infinity`` in summary.json, which is not JSON.  The
    costs overflow quietly: the exit-3 message is all the run prints, where
    numpy's two overflow warnings used to come first."""
    cfg = base_config(leader={"family": "sine", "amplitude": 1e200, "frequency": 1.0})
    out = tmp_path / "nash"
    code = main(["nash", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err.splitlines() == ["solver error: summary.json: J2 = inf is not finite"]
    assert not (out / "summary.json").exists()


def nash_el_bound(summary, T):
    """First-order residual bound: 1e-6 of sqrt(2 J2 T), the size of the
    tracking misfit's norm times that of a unit-variance direction."""
    return 1e-6 * np.sqrt(2.0 * summary["J2"] * T)


def test_nash_tiny_sigma_solves(tmp_path):
    # Relaxed Picard diverged here; the reduced solve is exact for every
    # sigma > 0, and the Picard keys are accepted and ignored.
    cfg = base_config(
        leader={"family": "gaussian", "amplitude": 1.0, "center": 0.4, "width": 0.15},
        follower={
            "sigma": 1e-6,
            "picard": {"max_iters": 40, "allow_fallback": False},
        },
    )
    out = tmp_path / "o"
    assert main(["nash", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["method"] == "schur" and summary["iterations"] == 1
    assert summary["el_residual_max_abs"] <= nash_el_bound(summary, 4.0)


@pytest.mark.parametrize("sigma", [1e-2, 1e-4])
def test_nash_ny80_small_sigma_solves(tmp_path, sigma):
    """Above Ny = 64 small weights used to exit 3: Picard diverged and the
    coupled-LU fallback was capped at Ny <= 64."""
    cfg = base_config(
        grid={"Ny": 80},
        leader={"family": "gaussian", "amplitude": 1.0, "center": 0.4, "width": 0.15},
        follower={
            "sigma": sigma,
            "u_tilde2": {
                "space": {"family": "sine", "frequency": 1, "amplitude": 0.5},
                "time": {"family": "sine", "frequency": 2},
            },
        },
    )
    out = tmp_path / "o"
    assert main(["nash", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["method"] == "schur" and summary["iterations"] == 1
    assert summary["el_residual_max_abs"] <= nash_el_bound(summary, 4.0)


@pytest.mark.parametrize("grid, T, code", [("own", 4.0, 0), ("swapped", 4.0, 2), ("own", 2.0, 2)])
def test_nash_tracked_csv_from_another_mesh_exits_2(tmp_path, capsys, grid, T, code):
    """A u_tilde2 file with the config's row count but another grid or
    horizon used to load as garbage; now only the config's own mesh loads."""
    mesh = Mesh.auto(DomainSpec(k=0.1, T=4.0), 20)
    Ny, Nt = (mesh.Ny, mesh.Nt) if grid == "own" else (mesh.Nt, mesh.Ny)
    other = Mesh(DomainSpec(k=0.1, T=T), GridSpec(Ny=Ny, Nt=Nt))
    Y, S = np.meshgrid(other.y, other.times / T, indexing="ij")
    save_field_csv(tmp_path / "ut.csv", Field(np.sin(np.pi * Y) * np.sin(np.pi * S), other))
    cfg = base_config(
        leader={"family": "constant", "value": 0.0},
        follower={"sigma": 1.0, "u_tilde2": {"csv": str(tmp_path / "ut.csv")}},
    )
    out = tmp_path / "o"
    assert main(["nash", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)]) == code
    if code == 2:
        assert "column does not match the grid" in capsys.readouterr().err
        assert not out.exists()


def test_default_paths_factor_no_sparse_lu(tmp_path, monkeypatch):
    """simulate, nash and leader run without the sparse LU of the wave
    operator M or of the coupled system, and without the coupled-solve
    oracles: the march, the transposed sweep and the follower's dense
    Cholesky carry every default path."""
    from hierwave.coupled import CoupledEngine
    from hierwave.wave_core import WaveOperator

    def refuse(what):
        def call(self, *args, **kwargs):
            raise AssertionError(f"{what} ran on a default path")

        return call

    monkeypatch.setattr(CoupledEngine, "coupled_lu", refuse("the coupled LU"))
    monkeypatch.setattr(WaveOperator, "lu", refuse("the wave LU"))
    for oracle in ("picard_pair", "picard_adjoint_pair", "direct_pair", "direct_adjoint_pair"):
        monkeypatch.setattr(CoupledEngine, oracle, refuse(oracle))
    sim_cfg = base_config(grid={"Ny": 41}, control={"family": "sine", "amplitude": 1.0, "frequency": 1.0})
    assert main(["simulate", "--config", write_config(tmp_path, "s.json", sim_cfg), "--out", str(tmp_path / "sim")]) == 0
    ref_spec = {"family": "gaussian", "amplitude": 1.0, "center": 0.4, "width": 0.15}
    tracked = {
        "space": {"family": "sine", "frequency": 1, "amplitude": 0.3},
        "time": {"family": "sine", "frequency": 2},
    }
    nash_cfg = base_config(grid={"Ny": 41}, leader=ref_spec, follower={"sigma": 1.0, "u_tilde2": tracked})
    ref_out = tmp_path / "ref"
    assert main(["nash", "--config", write_config(tmp_path, "n.json", nash_cfg), "--out", str(ref_out)]) == 0
    mesh = Mesh.auto(DomainSpec(k=0.1, T=4.0), 41)
    u0 = load_profile_csv(ref_out / "u_T.csv", mesh, 4.0)
    u1 = load_profile_csv(ref_out / "ut_T.csv", mesh, 4.0)
    leader_cfg = base_config(
        grid={"Ny": 41},
        follower={"sigma": 1.0, "u_tilde2": tracked},
        targets={
            "u0": {"csv": str(ref_out / "u_T.csv")},
            "u1": {"csv": str(ref_out / "ut_T.csv")},
            "rho0": 0.05 * l2_norm_physical(u0),
            "rho1": 0.05 * hminus1_norm_physical(u1),
        },
    )
    out = tmp_path / "leader"
    assert main(["leader", "--config", write_config(tmp_path, "l.json", leader_cfg), "--out", str(out)]) == 0


def test_warm_ops_call_no_scipy_wrapper(tmp_path, monkeypatch):
    """Warm leader and nash ops call LAPACK directly: scipy's Cholesky and
    banded-solve wrappers, whose per-call cost outweighed the arithmetic on
    the leader's small systems, are not reached."""
    import scipy.linalg

    tracked = {
        "space": {"family": "sine", "frequency": 1, "amplitude": 0.3},
        "time": {"family": "sine", "frequency": 2},
    }
    leader_spec = {"family": "gaussian", "amplitude": 1.0, "center": 0.4, "width": 0.15}
    nash_cfg = write_config(
        tmp_path, "n.json", base_config(leader=leader_spec, follower={"sigma": 1.0, "u_tilde2": tracked})
    )
    ref_out = tmp_path / "ref"
    assert main(["nash", "--config", nash_cfg, "--out", str(ref_out)]) == 0
    mesh = Mesh.auto(DomainSpec(k=0.1, T=4.0), 20)
    leader_cfg = base_config(
        follower={"sigma": 1.0, "u_tilde2": tracked},
        targets={
            "u0": {"csv": str(ref_out / "u_T.csv")},
            "u1": {"csv": str(ref_out / "ut_T.csv")},
            "rho0": 0.05 * l2_norm_physical(load_profile_csv(ref_out / "u_T.csv", mesh, 4.0)),
            "rho1": 0.05 * hminus1_norm_physical(load_profile_csv(ref_out / "ut_T.csv", mesh, 4.0)),
        },
    )
    leader_path = write_config(tmp_path, "l.json", leader_cfg)
    assert main(["leader", "--config", leader_path, "--out", str(tmp_path / "cold")]) == 0

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"scipy.linalg.{name} ran on a warm path")

        return call

    for name in ("cho_factor", "cho_solve", "solve_banded"):
        monkeypatch.setattr(scipy.linalg, name, refuse(name))
    assert main(["leader", "--config", leader_path, "--out", str(tmp_path / "warm")]) == 0
    assert main(["nash", "--config", nash_cfg, "--out", str(tmp_path / "nash")]) == 0
    for name in ("w1_star.csv", "f0.csv", "f1.csv", "report.json", "history.csv"):
        assert (tmp_path / "warm" / name).read_bytes() == (tmp_path / "cold" / name).read_bytes()


def test_warm_nash_op_marches_once(tmp_path, monkeypatch):
    """A warm nash op marches its state alone: the mesh's operator keeps the
    first-order sample's responses.  A later euler_lagrange_residual on the
    same directions marches nothing, and its residuals are, bit for bit,
    those computed with every engine dropped; the kept levels are read-only."""
    from hierwave import coupled
    from hierwave.cli import RunSetup
    from hierwave.coupled import euler_lagrange_residual, get_engine, solve_nash_system
    from hierwave.grid import Trace
    from hierwave.wave_core import WaveOperator

    tracked = {
        "space": {"family": "sine", "frequency": 1, "amplitude": 0.3},
        "time": {"family": "sine", "frequency": 2},
    }
    leader_spec = {"family": "gaussian", "amplitude": 1.0, "center": 0.4, "width": 0.15}
    cfg = base_config(leader=leader_spec, follower={"sigma": 0.3, "u_tilde2": tracked})
    path = write_config(tmp_path, "n.json", cfg)
    assert main(["nash", "--config", path, "--out", str(tmp_path / "cold")]) == 0

    march = WaveOperator.march
    widths = []

    def counted(self, bc0, *args, **kwargs):
        widths.append(np.shape(bc0)[1] if np.ndim(bc0) == 2 else 1)
        return march(self, bc0, *args, **kwargs)

    monkeypatch.setattr(WaveOperator, "march", counted)
    out = tmp_path / "warm"
    assert main(["nash", "--config", path, "--out", str(out)]) == 0
    assert widths == [1]
    written = json.loads((out / "summary.json").read_text())["el_residual_max_abs"]

    setup = RunSetup(cfg)
    w1 = setup.build_time_trace(leader_spec, setup.partition.mask1, "leader")
    rng = np.random.default_rng(cfg["seed"])
    directions = [
        Trace(rng.standard_normal(setup.mesh.Nt + 1), setup.partition.mask2, setup.mesh) for _ in range(8)
    ]
    sol = solve_nash_system(w1, setup.follower)
    widths.clear()
    warm = euler_lagrange_residual(sol, w1, setup.follower, directions)
    assert widths == []
    assert written == float(np.max(np.abs(warm))) > 0.0
    # the overlap partition masks no follower node
    hat = np.stack([d.values for d in directions], axis=1)
    levels = get_engine(setup.mesh, setup.follower).op.sample_responses(hat)
    assert widths == [] and not levels.flags.writeable
    with pytest.raises(ValueError):
        levels[1, 1, 0] = 0.0

    monkeypatch.setattr(coupled, "_ENGINE_CACHE", {})
    cold = euler_lagrange_residual(solve_nash_system(w1, setup.follower), w1, setup.follower, directions)
    assert widths == [1, 8]
    assert warm.tobytes() == cold.tobytes()


def test_kept_sample_follows_seed_and_partition(tmp_path, monkeypatch):
    """Runs in one process whose seed or partition changes between them
    write, byte for byte, what the same config writes with every engine
    dropped: the first-order sample kept by the mesh's operator never answers
    for other directions."""
    from hierwave import coupled

    base = base_config(
        grid={"Ny": 16},
        partition={"mode": "time-split", "split_fraction": 0.5},
        leader={"family": "gaussian", "amplitude": 1.0, "center": 0.4, "width": 0.15},
        follower={"sigma": 0.3, "u_tilde2": {"space": {"family": "sine", "amplitude": 0.3},
                                             "time": {"family": "sine", "frequency": 2}}},
    )
    runs = [(0, 0.5), (1, 0.5), (0, 0.5), (0, 0.3)]
    samples = []
    for i, (seed, fraction) in enumerate(runs):
        cfg = {**base, "seed": seed, "partition": {"mode": "time-split", "split_fraction": fraction}}
        path = write_config(tmp_path, f"c{i}.json", cfg)
        warm = tmp_path / f"warm{i}"
        assert main(["nash", "--config", path, "--out", str(warm)]) == 0
        with monkeypatch.context() as m:
            m.setattr(coupled, "_ENGINE_CACHE", {})
            cold = tmp_path / f"cold{i}"
            assert main(["nash", "--config", path, "--out", str(cold)]) == 0
        for name in ("u.csv", "p.csv", "w2.csv", "u_T.csv", "ut_T.csv", "summary.json"):
            assert (warm / name).read_bytes() == (cold / name).read_bytes(), (i, name)
        samples.append(json.loads((warm / "summary.json").read_text())["el_residual_max_abs"])
    # the sample differs across seeds and partitions, so a stale one would show
    assert samples[0] == samples[2] and len({samples[0], samples[1], samples[3]}) == 3


def test_leader_free_targets_zero_control(tmp_path):
    # free trajectory of the zero-tracking case is zero: targets at the origin
    cfg = base_config(
        targets={
            "u0": {"family": "constant", "value": 0.0},
            "u1": {"family": "constant", "value": 0.0},
            "rho0": 0.1,
            "rho1": 0.1,
        }
    )
    out = tmp_path / "leader"
    assert main(["leader", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["certified"] and report["reached"] == [True, True]
    w1 = read_csv_values(out / "w1_star.csv")
    assert np.max(np.abs(w1[:, 1])) <= 1e-8


def test_leader_manufactured_via_csv_targets(tmp_path):
    nash_cfg = base_config(
        leader={"family": "gaussian", "amplitude": 1.0, "center": 0.4, "width": 0.15}
    )
    ref_out = tmp_path / "ref"
    assert main(["nash", "--config", write_config(tmp_path, "n.json", nash_cfg), "--out", str(ref_out)]) == 0
    mesh = Mesh.auto(DomainSpec(k=0.1, T=4.0), 20)
    u0 = load_profile_csv(ref_out / "u_T.csv", mesh, 4.0)
    u1 = load_profile_csv(ref_out / "ut_T.csv", mesh, 4.0)
    leader_cfg = base_config(
        targets={
            "u0": {"csv": str(ref_out / "u_T.csv")},
            "u1": {"csv": str(ref_out / "ut_T.csv")},
            "rho0": 0.05 * l2_norm_physical(u0),
            "rho1": 0.05 * hminus1_norm_physical(u1),
        },
        # keys of an earlier dual solver stay accepted and have no effect
        optimizer={"grad_tol": 1e-3, "polish": False},
    )
    out = tmp_path / "leader"
    assert main(["leader", "--config", write_config(tmp_path, "l.json", leader_cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["reached"] == [True, True]
    assert report["gap_rel"] <= 1e-4
    # history rows carry the documented columns
    header_line = [
        line for line in open(out / "history.csv") if line.startswith("iter,")
    ][0]
    assert header_line.strip() == "iter,dual_value,vi_residual,dist_L2,dist_Hm1"

    # The balls are on u(T) and u_t(T), which delta does not touch: every
    # delta poses the delta = 0 problem and gets its certified answer.  A
    # loop that froze delta g(T) into the data term cost more at delta = 3
    # and missed a ball at delta = 1000.
    def answer(run_dir):
        report = json.loads((run_dir / "report.json").read_text())
        del report["header"]
        return report, [line for line in open(run_dir / "w1_star.csv") if not line.startswith("#")]

    for delta in (0.3, 3.0, 1000.0):
        other = tmp_path / f"leader{delta}"
        path = write_config(tmp_path, f"l{delta}.json", {**leader_cfg, "delta": delta})
        assert main(["leader", "--config", path, "--out", str(other)]) == 0
        assert answer(other) == answer(out), delta


@pytest.mark.parametrize(
    "section, key",
    [(None, "seed"), ("grid", "Ny"), ("follower", "sigma"), ("targets", "rho0"), ("optimizer", "max_iters")],
)
def test_non_numeric_config_value_exits_2(tmp_path, capsys, section, key):
    """A numeric key that does not parse exits 2; it used to exit 1 with a
    ValueError traceback."""
    cfg = base_config(
        targets={
            "u0": {"family": "constant", "value": 0.0},
            "u1": {"family": "constant", "value": 0.0},
            "rho0": 0.1,
            "rho1": 0.1,
        },
        optimizer={"max_iters": 50},
    )
    (cfg if section is None else cfg[section])[key] = "x"
    out = tmp_path / "leader"
    assert main(["leader", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)]) == 2
    name = key if section is None else f"{section}.{key}"
    assert f"{name} must be a number" in capsys.readouterr().err
    assert not out.exists()


SWEEP_REF = {"family": "gaussian", "amplitude": 1.0, "center": 0.4, "width": 0.15}
ZERO_TARGETS = {
    "u0": {"family": "constant", "value": 0.0},
    "u1": {"family": "constant", "value": 0.0},
    "rho0": 0.1,
    "rho1": 0.1,
}


@pytest.mark.parametrize(
    "command, change",
    [
        ("nash", {"grid": 5}),
        ("nash", {"follower": [1]}),
        ("sweep", {"sweep": {"rho_rel": ["x"], "reference_control": SWEEP_REF}}),
        ("sweep", {"sweep": {"rho_rel": ["0.05"], "reference_control": SWEEP_REF}}),
        ("sweep", {"sweep": {"k": 0.2, "reference_control": SWEEP_REF}}),
        ("nash", {"leader": {"family": "polynomial", "coefficients": ["x"]}}),
        ("leader", {"targets": {key: v for key, v in ZERO_TARGETS.items() if key != "u0"}}),
    ],
    ids=["grid-number", "follower-array", "sweep-axis-text", "sweep-axis-numeric-text", "sweep-axis-number",
         "coefficient-text", "targets-no-u0"],
)
def test_malformed_config_exits_2(tmp_path, capsys, command, change):
    """A section, sweep axis or required key of the wrong shape exits 2 with
    a message; each used to exit 1 with a traceback."""
    cfg = base_config(
        leader={"family": "constant", "value": 0.0},
        targets=ZERO_TARGETS,
        sweep={"rho_rel": [0.05], "reference_control": SWEEP_REF},
    )
    cfg.update(change)
    out = tmp_path / "o"
    assert main([command, "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("delta", [-1.0, float("nan"), "abc"])
def test_leader_invalid_delta_exits_2(tmp_path, capsys, delta):
    cfg = base_config(
        delta=delta,
        targets={
            "u0": {"family": "constant", "value": 0.0},
            "u1": {"family": "constant", "value": 0.0},
            "rho0": 0.1,
            "rho1": 0.1,
        },
    )
    out = tmp_path / "leader"
    assert main(["leader", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)]) == 2
    assert "delta" in capsys.readouterr().err
    assert not out.exists()


NASH_NY12 = base_config(
    grid={"Ny": 12},
    leader={"family": "gaussian", "amplitude": 1.0, "center": 0.4, "width": 0.15},
    follower={
        "sigma": 1.0,
        "u_tilde2": {"space": {"family": "sine", "amplitude": 0.3}, "time": {"family": "sine", "frequency": 2}},
    },
)


@pytest.mark.parametrize(
    "path, value, key",
    [
        (("leader", "amplitude"), "nan", "leader.amplitude"),
        (("leader", "amplitude"), "inf", "leader.amplitude"),
        (("leader", "width"), "nan", "leader.width"),
        (("follower", "u_tilde2", "space", "amplitude"), "inf", "follower.u_tilde2.space.amplitude"),
        (("grid", "cfl_safety"), 0, "cfl_safety"),
        (("grid", "cfl_safety"), 1e-320, "cfl_safety"),
        (("grid", "cfl_safety"), "nan", "cfl_safety"),
        (("seed",), -1, "seed"),
    ],
    ids=[
        "amplitude-nan",
        "amplitude-inf",
        "width-nan",
        "tracked-amplitude-inf",
        "cfl-0",
        "cfl-1e-320",
        "cfl-nan",
        "seed-negative",
    ],
)
def test_validated_config_values_exit_2(tmp_path, capsys, path, value, key):
    """A non-finite profile value, a cfl_safety that gives no finite step
    count and a negative seed exit 2 with a message naming the key; each used
    to escape as a ValueError, ZeroDivisionError or OverflowError (exit 1)."""
    cfg = json.loads(json.dumps(NASH_NY12))
    *parents, last = path
    section = cfg
    for name in parents:
        section = section[name]
    section[last] = value
    out = tmp_path / "o"
    assert main(["nash", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and key in err
    assert not out.exists()


LEADER_NY12 = {**NASH_NY12, "targets": ZERO_TARGETS, "optimizer": {"max_iters": 50}}


@pytest.mark.parametrize(
    "command, path, value",
    [
        ("nash", ("grid", "Ny"), 12.9),
        ("nash", ("grid", "Nt"), 80.5),
        ("nash", ("seed",), 1.5),
        ("nash", ("grid", "Ny"), True),
        ("nash", ("grid", "Nt"), False),
        ("nash", ("seed",), True),
        ("leader", ("optimizer", "max_iters"), 50.5),
        ("leader", ("optimizer", "vi_samples"), True),
    ],
    ids=["Ny-fraction", "Nt-fraction", "seed-fraction", "Ny-true", "Nt-false", "seed-true",
         "max_iters-fraction", "vi_samples-true"],
)
def test_integer_config_keys_reject_fractions_and_booleans(tmp_path, capsys, command, path, value):
    """An integer key holding a fraction or a boolean exits 2 naming the key.
    int() used to cut 12.9 to 12 and 1.5 to 1 and run (exit 0), and read
    true as 1, which then failed the Ny >= 8 check with a message that hid
    the cause."""
    assert_key_rejected(tmp_path, capsys, command, path, value, "an integer")


def assert_key_rejected(tmp_path, capsys, command, path, value, what):
    """``command`` on LEADER_NY12 with the key at ``path`` set to ``value``
    exits 2, writes nothing, and says the key must be ``what``."""
    cfg = json.loads(json.dumps(LEADER_NY12))
    *parents, last = path
    section = cfg
    for name in parents:
        section = section[name]
    section[last] = value
    out = tmp_path / "o"
    assert main([command, "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{'.'.join(path)} must be {what}, got {value!r}" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, path, value",
    [
        ("nash", ("follower", "sigma"), True),
        ("nash", ("leader", "amplitude"), True),
        ("nash", ("follower", "u_tilde2", "time", "frequency"), True),
        ("nash", ("domain", "k"), False),
        ("nash", ("grid", "cfl_safety"), True),
        ("nash", ("delta",), False),
        ("leader", ("targets", "rho0"), True),
        ("leader", ("optimizer", "tol_vi"), True),
        ("nash", ("follower", "sigma"), "0.3"),
        ("nash", ("grid", "Ny"), "41.0"),
        ("nash", ("grid", "Ny"), "12"),
        ("nash", ("leader", "amplitude"), "1e200"),
        ("leader", ("targets", "rho0"), "0.1"),
    ],
    ids=["sigma", "amplitude", "frequency", "k", "cfl_safety", "delta", "rho0", "tol_vi",
         "sigma-text", "Ny-fraction-text", "Ny-text", "amplitude-text", "rho0-text"],
)
def test_number_config_keys_reject_booleans(tmp_path, capsys, command, path, value):
    """A number key holding a boolean or a string exits 2 naming the key.
    float() used to read true as 1.0 and false as 0.0, so all but one of
    the booleans ran (exit 0), and domain.k = false failed the k = 0 check
    with a message that hid the cause.  Strings were parsed: "0.3" and "12"
    ran, while "41.0" failed int() with a message that did not say why."""
    assert_key_rejected(tmp_path, capsys, command, path, value, "a number")


def test_integral_float_config_keys_still_load(tmp_path):
    """Integral floats load as the integer they equal, with the same outputs."""
    cfg = json.loads(json.dumps(NASH_NY12))
    as_ints, as_floats = tmp_path / "ints", tmp_path / "floats"
    assert main(["nash", "--config", write_config(tmp_path, "i.json", cfg), "--out", str(as_ints)]) == 0
    cfg["grid"] = {"Ny": 12.0}
    cfg["seed"] = float(cfg["seed"])
    # the header names the config's hash, which sees the floats
    assert main(["nash", "--config", write_config(tmp_path, "f.json", cfg), "--out", str(as_floats)]) == 0
    for name in ("u.csv", "p.csv", "w2.csv"):
        assert read_csv_values(as_floats / name).tolist() == read_csv_values(as_ints / name).tolist()
    summaries = [json.loads((d / "summary.json").read_text()) for d in (as_ints, as_floats)]
    for summary in summaries:
        del summary["header"]
    assert summaries[0] == summaries[1]


def test_leader_uncertified_exits_4(tmp_path):
    # Below the controllability time the balls are still reachable on this
    # grid, at a large leader cost; three Newton steps leave both missed.
    cfg = base_config(
        optimizer={"max_iters": 3},
        targets={
            "u0": {"family": "sine", "amplitude": 5.0, "frequency": 1.0},
            "u1": {"family": "sine", "amplitude": 5.0, "frequency": 2.0},
            "rho0": 0.01,
            "rho1": 0.01,
        },
    )
    cfg["domain"]["T"] = 2.0  # below the controllability threshold for k = 0.1
    out = tmp_path / "hard"
    code = main(["leader", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)])
    assert code == 4
    report = json.loads((out / "report.json").read_text())
    assert not report["certified"]
    assert report["reached"] != [True, True]
    header = report["header"]
    assert "below_threshold" in header["warnings"]
    rows = read_csv_values(out / "history.csv")
    dual = rows[:, 1]
    assert len(dual) == 3
    assert np.all(np.diff(dual) <= 1e-12)


def test_leader_unfactorable_trial_step_exits_cleanly(tmp_path, capsys):
    """Below the control time the multipliers grow until a trial step's
    matrix is not numerically positive definite; that halves the step, and
    the run ends with a verdict rather than a traceback."""
    cfg = base_config(
        grid={"Ny": 64},
        targets={
            "u0": {"family": "sine", "amplitude": 0.2, "frequency": 1},
            "u1": {"family": "sine", "amplitude": 0.5, "frequency": 2},
            "rho0": 0.001,
            "rho1": 0.001,
        },
    )
    cfg["domain"]["T"] = 2.0
    cfg.pop("seed")
    out = tmp_path / "out"
    code = main(["leader", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)])
    assert code in (3, 4)
    assert "Traceback" not in capsys.readouterr().err
    if code == 4:
        assert not json.loads((out / "report.json").read_text())["certified"]


def test_verify_fast(tmp_path, capsys):
    assert main(["verify", "--level", "fast", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "verification_report.json").read_text())
    assert report["passed"]
    out = capsys.readouterr().out
    assert "[pass]" in out


def test_sweep_single_cell_matches_leader(tmp_path):
    cfg = base_config(
        sweep={
            "rho_rel": [0.05],
            "reference_control": {"family": "gaussian", "amplitude": 1.0, "center": 0.4, "width": 0.15},
        }
    )
    out = tmp_path / "sw"
    assert main(["sweep", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
    rows = read_csv_values(out / "sweep.csv")
    assert rows.shape[0] == 1
    assert rows[0, 5] == 1.0 and rows[0, 6] == 1.0  # both reached flags


def test_sweep_rho_ladder_monotone_and_deterministic(tmp_path):
    cfg = base_config(
        sweep={
            "rho_rel": [0.02, 0.05, 0.1],
            "reference_control": {"family": "gaussian", "amplitude": 1.0, "center": 0.4, "width": 0.15},
        }
    )
    path = write_config(tmp_path, "c.json", cfg)
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert main(["sweep", "--config", path, "--out", str(out1), "--workers", "1"]) == 0
    assert main(["sweep", "--config", path, "--out", str(out2), "--workers", "2"]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    rows = read_csv_values(out1 / "sweep.csv")
    J = rows[:, 4]
    assert J[0] >= J[1] >= J[2]


def test_output_headers_present(tmp_path):
    cfg = base_config(control={"family": "constant", "value": 0.0})
    out = tmp_path / "sim"
    assert main(["simulate", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
    for name in ("field.csv", "trace.csv"):
        head = (out / name).read_text().splitlines()[:8]
        joined = "\n".join(head)
        assert "config_hash" in joined and "seed" in joined and "grid" in joined


def test_seed_reproducibility(tmp_path):
    cfg = base_config(
        leader={"family": "gaussian", "amplitude": 1.0, "center": 0.4, "width": 0.15}
    )
    path = write_config(tmp_path, "c.json", cfg)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["nash", "--config", path, "--out", str(out1)]) == 0
    assert main(["nash", "--config", path, "--out", str(out2)]) == 0
    assert (out1 / "u.csv").read_bytes() == (out2 / "u.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_sweep_single_cell_equals_leader_run(tmp_path):
    """A one-cell sweep reproduces the standalone leader run on the same
    manufactured targets (same seed, targets carried through CSV)."""
    ref_spec = {"family": "gaussian", "amplitude": 1.0, "center": 0.4, "width": 0.15}
    sweep_cfg = base_config(sweep={"rho_rel": [0.05], "reference_control": ref_spec})
    out_sw = tmp_path / "sw"
    assert main(["sweep", "--config", write_config(tmp_path, "s.json", sweep_cfg), "--out", str(out_sw)]) == 0
    sweep_J = read_csv_values(out_sw / "sweep.csv")[0, 4]

    nash_cfg = base_config(leader=ref_spec)
    ref_out = tmp_path / "ref"
    assert main(["nash", "--config", write_config(tmp_path, "n.json", nash_cfg), "--out", str(ref_out)]) == 0
    mesh = Mesh.auto(DomainSpec(k=0.1, T=4.0), 20)
    u0 = load_profile_csv(ref_out / "u_T.csv", mesh, 4.0)
    u1 = load_profile_csv(ref_out / "ut_T.csv", mesh, 4.0)
    leader_cfg = base_config(
        targets={
            "u0": {"csv": str(ref_out / "u_T.csv")},
            "u1": {"csv": str(ref_out / "ut_T.csv")},
            "rho0": 0.05 * l2_norm_physical(u0),
            "rho1": 0.05 * hminus1_norm_physical(u1),
        }
    )
    out_ld = tmp_path / "ld"
    assert main(["leader", "--config", write_config(tmp_path, "l.json", leader_cfg), "--out", str(out_ld)]) == 0
    leader_J = json.loads((out_ld / "report.json").read_text())["primal_J"]
    assert leader_J == pytest.approx(sweep_J, rel=1e-12)


def test_verify_negative_seed_exits_2(tmp_path, capsys):
    # the flag is checked when parsed, as a config's seed is when loaded,
    # not by numpy's generator after the first checks have run
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--level", "fast", "--seed", "-1", "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "non-negative" in err
    assert not (tmp_path / "verification_report.json").exists()


def test_nash_outputs_same_bytes_on_the_per_value_route(tmp_path, monkeypatch):
    # the bulk "%.17g" formatter of the field CSVs changes no output byte
    from hierwave import grid

    cfg = base_config(
        grid={"Ny": 16},
        leader={"family": "gaussian", "amplitude": 1.0, "center": 0.4, "width": 0.15},
    )
    path = write_config(tmp_path, "c.json", cfg)
    bulk, per_value = tmp_path / "bulk", tmp_path / "per_value"
    assert main(["nash", "--config", path, "--out", str(bulk)]) == 0
    monkeypatch.setattr(grid, "_BULK_G17", False)
    assert main(["nash", "--config", path, "--out", str(per_value)]) == 0
    names = sorted(p.name for p in bulk.iterdir())
    assert {"u.csv", "p.csv"} <= set(names)
    assert names == sorted(p.name for p in per_value.iterdir())
    for name in names:
        assert (bulk / name).read_bytes() == (per_value / name).read_bytes(), name
