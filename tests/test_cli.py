import json
import re

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


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"domain": "\xff"}')
    assert main(["nash", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert str(path) in capsys.readouterr().err


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
    those computed with every operator dropped; the kept levels are read-only."""
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
    warm = euler_lagrange_residual(sol, setup.follower, directions)
    assert widths == []
    assert written == float(np.max(np.abs(warm))) > 0.0
    # the overlap partition masks no follower node
    hat = np.stack([d.values for d in directions], axis=1)
    levels = get_engine(setup.mesh, setup.follower).op.sample_responses(hat)
    assert widths == [] and not levels.flags.writeable
    with pytest.raises(ValueError):
        levels[1, 1, 0] = 0.0

    monkeypatch.setattr(coupled, "_OPERATOR_CACHE", {})
    cold = euler_lagrange_residual(solve_nash_system(w1, setup.follower), setup.follower, directions)
    assert widths == [1, 8]
    assert warm.tobytes() == cold.tobytes()


def test_warm_nash_ops_build_mesh_arrays_once(tmp_path, monkeypatch):
    """Four nash ops on one grid in one process build each node array,
    quadrature weight and d/dy once: a warm op's set-up and outputs are built
    on the kept operator's mesh, which compares equal to the config's."""
    from hierwave import coupled

    monkeypatch.setattr(coupled, "_OPERATOR_CACHE", {})
    builds = dict.fromkeys(("W", "wy", "alphas", "D", "y", "times", "tau"), 0)
    for name in builds:
        prop = Mesh.__dict__[name]

        def counted(mesh, build=prop.func, name=name):
            builds[name] += 1
            return build(mesh)

        monkeypatch.setattr(prop, "func", counted)
    cfg = base_config(grid={"Ny": 64}, leader={"family": "gaussian", "amplitude": 1.0, "center": 0.4, "width": 0.15})
    path = write_config(tmp_path, "n.json", cfg)
    for i in range(4):
        assert main(["nash", "--config", path, "--out", str(tmp_path / f"o{i}")]) == 0
    assert builds == dict.fromkeys(builds, 1)


def test_setups_after_a_solve_share_the_engine_mesh(monkeypatch):
    """Two set-ups of one document, made after a solve, are built on the
    kept operator's mesh object, not on meshes of their own."""
    from hierwave import coupled
    from hierwave.cli import RunSetup
    from hierwave.coupled import solve_nash_system

    monkeypatch.setattr(coupled, "_OPERATOR_CACHE", {})
    doc = base_config(grid={"Ny": 12})
    first = RunSetup(doc)
    w1 = first.build_time_trace({"family": "constant", "value": 1.0}, first.partition.mask1, "leader")
    mesh = solve_nash_system(w1, first.follower).u.mesh
    a, b = RunSetup(doc), RunSetup(doc)
    assert a.mesh is mesh and b.mesh is mesh


def test_kept_sample_follows_seed_and_partition(tmp_path, monkeypatch):
    """Runs in one process whose seed or partition changes between them
    write, byte for byte, what the same config writes with every operator
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
            m.setattr(coupled, "_OPERATOR_CACHE", {})
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
    "command, change, key",
    [
        ("nash", {"grid": 5}, "grid"),
        ("nash", {"follower": [1]}, "follower"),
        ("sweep", {"sweep": {"rho_rel": ["x"], "reference_control": SWEEP_REF}}, "sweep.rho_rel"),
        ("sweep", {"sweep": {"rho_rel": ["0.05"], "reference_control": SWEEP_REF}}, "sweep.rho_rel"),
        ("sweep", {"sweep": {"k": 0.2, "reference_control": SWEEP_REF}}, "sweep.k"),
        ("nash", {"leader": {"family": "polynomial", "coefficients": ["x"]}}, "leader.coefficients"),
        ("leader", {"targets": {key: v for key, v in ZERO_TARGETS.items() if key != "u0"}}, "targets.u0"),
        ("sweep", {"domain": {"k": "abc", "T": 4.0}}, "domain.k"),
        ("nash", {"partition": {"mode": 5}}, "partition.mode"),
        ("sweep", {"sweep": {"rho_rel": [0.05, 0.1, 0.0], "reference_control": SWEEP_REF}}, "sweep.rho_rel"),
        ("sweep", {"sweep": {"k": [0.1, 0.2, 1.5], "reference_control": SWEEP_REF}}, "sweep.k"),
        ("sweep", {"sweep": {"T": [4.0, 0.0], "reference_control": SWEEP_REF}}, "sweep.T"),
        ("sweep", {"sweep": {"sigma": [1.0, 0.0], "reference_control": SWEEP_REF}}, "sweep.sigma"),
    ],
    ids=["grid-number", "follower-array", "sweep-axis-text", "sweep-axis-numeric-text", "sweep-axis-number",
         "coefficient-text", "targets-no-u0", "sweep-domain-k-text", "partition-mode-number",
         "sweep-radius-zero", "sweep-k-inadmissible", "sweep-T-nonpositive", "sweep-sigma-zero"],
)
def test_malformed_config_exits_2(tmp_path, capsys, monkeypatch, command, change, key):
    """A section, sweep axis or required key of the wrong shape exits 2 with
    a message naming the key, before anything is solved; each used to exit 1
    with a traceback, or to name another key (sweep.k for domain.k), no key
    (a partition mode of 5) or, after the earlier sweep cells had run, no
    key (a sweep radius of 0) or another key (domain for a sweep's k or T,
    none for its sigma)."""
    from hierwave import cli

    def unreachable(*args, **kwargs):
        raise AssertionError("a solve ran before the config was checked")

    monkeypatch.setattr(cli, "solve_nash_system", unreachable)
    monkeypatch.setattr(cli, "minimize_dual", unreachable)
    cfg = base_config(
        leader={"family": "constant", "value": 0.0},
        targets=ZERO_TARGETS,
        sweep={"rho_rel": [0.05], "reference_control": SWEEP_REF},
    )
    cfg.update(change)
    out = tmp_path / "o"
    assert main([command, "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert re.search(rf"(?<![\w.]){re.escape(key)}(?!\w)", err), err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, path, near",
    [
        ("nash", ("follower", "sigmma"), "follower.sigma"),
        ("leader", ("targets", "rh0"), "targets.rho0"),
        ("nash", ("grid", "NY"), "grid.Ny"),
        ("nash", ("domian",), "domain"),
        ("nash", ("leader", "amplitud"), "leader.amplitude"),
        ("nash", ("leader", "frequency"), None),
    ],
    ids=["sigmma", "rh0", "NY", "domian", "gaussian-amplitud", "gaussian-frequency"],
)
def test_misspelt_config_key_exits_2(tmp_path, capsys, command, path, near):
    """A key the config table does not know exits 2 naming it, and its
    nearest known key where one is close; each used to be dropped without a
    word, and the run went on with the default (exit 0).  A frequency is
    not a key of a gaussian profile."""
    cfg = base_config(
        grid={"Ny": 12},
        leader={"family": "gaussian", "amplitude": 1.0, "center": 0.4, "width": 0.15},
        targets=dict(ZERO_TARGETS),
    )
    *parents, last = path
    section = cfg
    for name in parents:
        section = section[name]
    section[last] = {"k": 0.1, "T": 4.0} if last == "domian" else 0.01
    out = tmp_path / "o"
    assert main([command, "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"unknown key {'.'.join(path)}" in err
    if near is None:
        assert "did you mean" not in err
    else:
        assert f"(did you mean {near}?)" in err
    assert not out.exists()


CSV_KEYS = [
    ("nash", "leader"),
    ("simulate", "control"),
    ("sweep", "sweep.reference_control"),
    ("leader", "targets.u0"),
    ("leader", "targets.u1"),
    ("nash", "follower.u_tilde2"),
]


def bad_csv(tmp_path, kind: str, loader: str, mesh: Mesh):
    """The "csv" value of a malformed-input case ``kind`` for ``loader``
    (trace, profile or field) on ``mesh``."""
    if kind == "number":
        return 5
    if kind == "null":
        return None
    path = tmp_path / f"{kind}.csv"
    # the coordinate columns a loader checks, with the row count it expects
    coords = {
        "trace": mesh.times[:, None],
        "profile": mesh.alphas[-1] * mesh.y[:, None],
        "field": np.column_stack([np.tile(mesh.y, mesh.Nt + 1), np.repeat(mesh.times, mesh.Ny + 1)]),
    }[loader]
    if kind == "directory":
        path.mkdir()
    elif kind == "latin1":
        path.write_bytes(b"coordinate,value\n0,\xe9\n")
    elif kind == "text":
        path.write_text("coordinate,value\n0,abc\n")
    elif kind == "ragged":
        path.write_text("coordinate,value\n0,1\n0.1,1,2\n")
    elif kind == "nan":
        rows = np.column_stack([coords, np.full(len(coords), np.nan)])
        path.write_text("header\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows.tolist()))
    elif kind == "one-column":
        path.write_text("coordinate\n" + "".join(f"{v!r}\n" for v in coords[:, 0].tolist()))
    return str(path)


@pytest.mark.parametrize(
    "kind", ["missing", "directory", "number", "null", "latin1", "text", "nan", "ragged", "one-column"]
)
@pytest.mark.parametrize("command, key", CSV_KEYS, ids=[key for _, key in CSV_KEYS])
def test_malformed_csv_input_exits_2(tmp_path, capsys, command, key, kind):
    """A "csv" value that is not a string, or names a file that is missing,
    a directory, not UTF-8, has a cell that is not a finite number, ragged
    rows or too few columns, exits 2 naming the key or the file.  Each used
    to exit 1 with a traceback (FileNotFoundError, IsADirectoryError,
    OSError on file descriptor 5, TypeError, UnicodeDecodeError, ValueError,
    IndexError), except a NaN control, which marched and exited 3."""
    cfg = base_config(
        grid={"Ny": 12},
        leader={"family": "constant", "value": 0.0},
        control={"family": "constant", "value": 0.0},
        targets=dict(ZERO_TARGETS),
        sweep={"rho_rel": [0.05], "reference_control": SWEEP_REF},
    )
    mesh = Mesh.auto(DomainSpec(k=0.1, T=4.0), 12)
    loader = "profile" if key.startswith("targets") else "field" if key.endswith("u_tilde2") else "trace"
    csv = bad_csv(tmp_path, kind, loader, mesh)
    *parents, last = key.split(".")
    section = cfg
    for name in parents:
        section = section[name]
    section[last] = {"csv": csv}
    out = tmp_path / "o"
    assert main([command, "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert (f"{key}.csv" if kind in ("number", "null") else csv) in err
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
        (("leader",), {"family": "polynomial", "coefficients": [1e308, 1e308]}, "leader:"),
        (("leader",), {"family": "sine", "frequency": 1e308}, "leader:"),
        (
            ("follower", "u_tilde2"),
            {"space": {"family": "constant", "value": 1e200}, "time": {"family": "constant", "value": 1e200}},
            "follower.u_tilde2:",
        ),
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
        "polynomial-past-float-range",
        "sine-frequency-past-float-range",
        "tracked-field-past-float-range",
        "cfl-0",
        "cfl-1e-320",
        "cfl-nan",
        "seed-negative",
    ],
)
def test_validated_config_values_exit_2(tmp_path, capsys, path, value, key):
    """A non-finite profile value, a cfl_safety that gives no finite step
    count and a negative seed exit 2 with a message naming the key; each used
    to escape as a ValueError, ZeroDivisionError or OverflowError (exit 1).
    So do a profile and a tracked field whose values on the grid pass the
    float range; they used to exit 3 on an "unstable march" of NaNs."""
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
    "command, path, value, what",
    [
        ("nash", ("grid", "Ny"), 12.9, "an integer"),
        ("nash", ("grid", "Nt"), 80.5, "an integer"),
        ("nash", ("seed",), 1.5, "an integer"),
        ("nash", ("grid", "Ny"), True, "an integer"),
        ("nash", ("grid", "Nt"), False, "an integer"),
        ("nash", ("seed",), True, "an integer"),
        ("leader", ("optimizer", "max_iters"), 50.5, "an integer"),
        ("leader", ("optimizer", "vi_samples"), True, "an integer"),
        ("leader", ("optimizer", "vi_samples"), 0, "at least 1"),
        ("leader", ("optimizer", "max_iters"), 0, "at least 1"),
        ("leader", ("optimizer", "max_iters"), -2, "at least 1"),
    ],
    ids=["Ny-fraction", "Nt-fraction", "seed-fraction", "Ny-true", "Nt-false", "seed-true",
         "max_iters-fraction", "vi_samples-true", "vi_samples-zero", "max_iters-zero", "max_iters-negative"],
)
def test_integer_config_keys_reject_fractions_and_booleans(tmp_path, capsys, command, path, value, what):
    """An integer key holding a fraction or a boolean exits 2 naming the key.
    int() used to cut 12.9 to 12 and 1.5 to 1 and run (exit 0), and read
    true as 1, which then failed the Ny >= 8 check with a message that hid
    the cause.  An optimizer count below 1 exits 2 too: with no comparison
    point the leader used to certify its answer (vi_residual 0.0), and a
    max_iters below 1 was taken as 1."""
    assert_key_rejected(tmp_path, capsys, command, path, value, what)


@pytest.mark.parametrize("command", ["leader", "verify", "sweep"])
def test_unwritable_out_exits_2(tmp_path, capsys, monkeypatch, command):
    """An --out that names an existing regular file exits 2 with one stderr
    line naming the path, and leaves the file as it was; the first write
    used to escape as a NotADirectoryError traceback (exit 1).  The check
    comes before anything is solved: a verification, a leader run or a
    sweep cell fails the test."""
    from hierwave import cli

    def solve(*args, **kwargs):
        pytest.fail("solved before the output directory was checked")

    for name in ("run_verification", "minimize_dual", "_run_sweep_cell"):
        monkeypatch.setattr(cli, name, solve)
    out = tmp_path / "taken"
    out.write_text("kept")
    config = {**LEADER_NY12, "sweep": {"rho_rel": [0.05], "reference_control": {"family": "constant", "value": 1.0}}}
    argv = ["verify"] if command == "verify" else [command, "--config", write_config(tmp_path, "c.json", config)]
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"configuration error: {out}")
    assert out.read_text() == "kept"


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


@pytest.mark.parametrize(
    "amplitude, radius, codes",
    [(1e100, 0.01, (0, 3)), (1e160, 0.01, (0, 3)), (0.2, 1e160, (0,)), (1e-150, 0.01, (0,))],
)
def test_leader_extreme_target_exits_cleanly(tmp_path, amplitude, radius, codes):
    """A target amplitude or a radius near the ends of the float range either
    solves or ends with the solver-error exit and its one line, naming the
    quantity that is not finite; no traceback and no floating-point
    warnings.  At amplitude 1e160 the first iterate's distance squares past
    the float range, and a radius of 1e160 squares past it in the
    multipliers' objective.  At amplitude 1e-150 the value target's
    distance cubes to zero, in a row of the Newton system that does not
    enter while that ball holds."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import hierwave

    cfg = base_config(
        grid={"Ny": 16},
        targets={
            "u0": {"family": "sine", "amplitude": amplitude, "frequency": 1.0},
            "u1": {"family": "sine", "amplitude": 0.5, "frequency": 2.0},
            "rho0": radius,
            "rho1": radius,
        },
    )
    argv = ["leader", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(tmp_path / "o")]
    src = str(Path(hierwave.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "hierwave", *argv], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode in codes, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) <= 1, proc.stderr
    if proc.returncode == 3:
        assert lines[0].startswith("solver error:") and "is not finite" in lines[0]


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
        report = json.loads((out / "report.json").read_text())
        assert not report["certified"]
        assert "newton_stopped_not_factorable" in report["notes"]


def test_leader_newton_stop_is_noted(tmp_path):
    """At sigma = 1e-150 the Gram matrix's entries are near 1e-298 and the
    first Newton step is not finite; the report says that the iteration
    stopped there rather than converged."""
    cfg = base_config(
        grid={"Ny": 12},
        follower={
            "sigma": 1e-150,
            "u_tilde2": {"space": {"family": "sine", "amplitude": 0.3}, "time": {"family": "sine", "frequency": 2}},
        },
        targets={
            "u0": {"family": "sine", "amplitude": 0.1},
            "u1": {"family": "constant", "value": 0.0},
            "rho0": 1e-3,
            "rho1": 1e-3,
        },
    )
    cfg["domain"]["T"] = 2.0
    out = tmp_path / "out"
    assert main(["leader", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)]) == 4
    report = json.loads((out / "report.json").read_text())
    assert report["iterations"] == 1
    assert report["notes"] == ["newton_stopped_not_finite", "not_certified"]


def test_leader_newton_jacobian_past_float_range_stops_cleanly(tmp_path):
    """At domain.T = 1e-150 the Newton Jacobian's right-hand side is not
    finite; the iteration stops with newton_stopped_not_finite and the run
    exits 3 or 4 with at most its exit message on stderr, where a ValueError
    traceback (exit 1) used to escape."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import hierwave

    cfg = base_config(
        grid={"Ny": 12},
        targets={
            "u0": {"family": "sine", "amplitude": 0.1},
            "u1": {"family": "constant", "value": 0.0},
            "rho0": 0.01,
            "rho1": 0.01,
        },
    )
    cfg["domain"]["T"] = 1e-150
    out = tmp_path / "o"
    argv = ["leader", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)]
    src = str(Path(hierwave.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "hierwave", *argv], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode in (3, 4), proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) <= 1 and all(line.startswith("solver error:") for line in lines), proc.stderr
    if proc.returncode == 4:
        assert "newton_stopped_not_finite" in json.loads((out / "report.json").read_text())["notes"]


@pytest.mark.parametrize("command", ["simulate", "nash", "leader"])
@pytest.mark.parametrize("T, Nt", [(1e-155, None), (1e-160, None), (1e-200, None), (1e-300, None), (5e-324, None),
                                   (1e-200, 8)])
def test_step_too_short_to_square_exits_2(tmp_path, capsys, command, T, Nt):
    """A horizon so short that 2/dt^2, which every step's coefficients hold,
    is not finite exits 2 naming domain.T and dt, before any output.  dt^2
    used to underflow to zero (a ZeroDivisionError traceback, exit 1) or
    its inverse to overflow (exit 3, "unstable march")."""
    cfg = {**LEADER_NY12, "control": {"family": "constant", "value": 0.0}}
    cfg["domain"] = {"k": 0.1, "T": T}
    if Nt is not None:
        cfg["grid"] = {"Ny": 12, "Nt": Nt}
    out = tmp_path / "o"
    assert main([command, "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "domain.T" in err and "dt =" in err
    assert not out.exists()


def test_gaussian_narrower_than_float_range_warns_nothing(tmp_path, capsys):
    """A leader gaussian of width 1e-300 squares past the float range off
    its center, where its limit, 0, is exact: the run exits 0 with no
    warning, where numpy's overflow RuntimeWarning used to reach stderr."""
    import warnings

    cfg = {**NASH_NY12, "leader": {"family": "gaussian", "width": 1e-300}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["nash", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""


def test_nash_tiny_sigma_residual_is_finite(tmp_path):
    """At sigma = 1e-300 the trace residual is the follower's optimality
    condition times sigma, which stays finite; divided by sigma it
    overflowed and the run exited 3 on residual_tail."""
    tracked = {"space": {"family": "sine", "amplitude": 0.5}, "time": {"family": "sine", "frequency": 2}}
    cfg = base_config(grid={"Ny": 16}, leader={"family": "gaussian"}, follower={"sigma": 1e-300, "u_tilde2": tracked})
    out = tmp_path / "nash"
    assert main(["nash", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
    tail = json.loads((out / "summary.json").read_text())["residual_tail"]
    assert len(tail) == 1 and 0.0 <= tail[0] < 1e-12


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


def test_sweep_pool_has_no_more_workers_than_cells(tmp_path, monkeypatch):
    """A one-cell sweep asked for a million workers starts no pool larger
    than one: the pool forks all its workers at the first submit.  The fake
    executor records the size asked for and runs the cells in this process."""
    import concurrent.futures

    sizes = []

    class Recorder:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    cfg = base_config(
        sweep={
            "rho_rel": [0.05],
            "reference_control": {"family": "gaussian", "amplitude": 1.0, "center": 0.4, "width": 0.15},
        }
    )
    out = tmp_path / "sw"
    assert main(["sweep", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out), "--workers", "1000000"]) == 0
    assert all(size <= 1 for size in sizes)
    assert read_csv_values(out / "sweep.csv").shape[0] == 1


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


def readme_table(header: str) -> list[list[str]]:
    """The rows of README's table under ``header``, cell by cell, without
    the backticks around a cell."""
    from pathlib import Path

    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index(header) + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip().strip("`") for cell in line.strip("|").split("|")])
    return rows


def table_entry(kind, default) -> tuple:
    """A (kind, default) of the config tables as README writes it: a choice
    of strings as "a" or "b", and the default as "required", "none" or its
    JSON text, parsed."""
    from hierwave.cli import REQUIRED

    kind = " or ".join(json.dumps(c) for c in kind) if isinstance(kind, tuple) else kind
    return kind, "required" if default is REQUIRED else "none" if default is None else default


def readme_entry(kind: str, default: str) -> tuple:
    return kind, default if default in ("required", "none") else json.loads(default)


def test_readme_lists_every_config_key():
    """README's configuration tables and the config tables KEYS and
    FAMILIES name the same keys, with the same kinds and defaults."""
    from hierwave.cli import CSV, FAMILIES, KEYS, TRACKED

    def leaves(table, prefix=""):
        for key, (kind, default) in table.items():
            if isinstance(kind, dict):
                yield from leaves(kind, f"{prefix}{key}.")
                continue
            yield f"{prefix}{key}", table_entry(kind, default)
            if kind == "field":
                yield from leaves(TRACKED, f"{prefix}{key}.")

    rows = readme_table("| key | kind | default | read by |")
    assert [key for key, *_ in rows] == [key for key, _ in leaves(KEYS)]
    assert {key: readme_entry(kind, default) for key, kind, default, _ in rows} == dict(leaves(KEYS))

    forms = {**FAMILIES, "csv": CSV}
    rows = readme_table("| profile | key | kind | default |")
    want = {(form, key): table_entry(*entry) for form, table in forms.items() for key, entry in table.items()}
    assert [tuple(row[:2]) for row in rows] == list(want)
    assert {(form, key): readme_entry(kind, default) for form, key, kind, default in rows} == want


@pytest.mark.parametrize("module", ["geometry", "grid", "wave_core", "coupled", "leader_dual", "verify"])
def test_every_exported_name_resolves(module):
    """Each name in a module's ``__all__`` exists there: a name removed from
    the module but left in ``__all__`` breaks ``from ... import *``, which
    ``import hierwave`` does not run."""
    import importlib

    mod = importlib.import_module(f"hierwave.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def _production_reads():
    """Names and attributes read in ``src/hierwave``, ``scripts/`` and ``bench/``
    (a ``def``, an ``__all__`` entry or an import does not count), and the
    components of the paths that ``bench/tracing.py`` wraps: its ``TARGETS``
    and ``COUNTED``, read with ``ast``.  Returns (names, attributes)."""
    import ast
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    names, attributes = set(), set()
    for path in [*(root / "src" / "hierwave").glob("*.py"), *root.glob("scripts/*.py"), *root.glob("bench/*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Assign) and path.name == "tracing.py" and any(
                getattr(t, "id", None) in ("TARGETS", "COUNTED") for t in node.targets
            ):
                attributes.update(part for entry in ast.literal_eval(node.value) for part in entry[1].split("."))
    return names, attributes


def _library_modules():
    """(file name, parsed module, the names in its ``__all__``) for each
    module of ``src/hierwave``."""
    import ast
    from pathlib import Path

    out = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "hierwave").glob("*.py")):
        tree = ast.parse(path.read_text())
        exported = {
            name
            for node in tree.body
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)
        }
        out.append((path.name, tree, exported))
    return out


def test_every_exported_name_has_a_production_caller():
    """Each name in a module's ``__all__`` or imported by ``hierwave/__init__.py``
    is used by the library, a script or the benchmark (see
    :func:`_production_reads`); a name only the tests use belongs under
    ``tests/``.
    """
    import ast

    exported = set()
    for name, tree, listed in _library_modules():
        exported |= listed
        if name == "__init__.py":
            imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
            exported.update(alias.name for node in imports for alias in node.names)
    names, attributes = _production_reads()
    assert sorted(exported - names - attributes) == []


def test_every_member_of_an_exported_class_has_a_production_reader():
    """Each public method, property and dataclass field of a class named in a
    module's ``__all__`` is read as an attribute by the library, a script or
    the benchmark, or is a path component that ``bench/tracing.py`` wraps
    (see :func:`_production_reads`); a member only the tests read belongs
    under ``tests/``.

    The match is by name, so a member that shares its name with an attribute
    read elsewhere (a ``zeros`` classmethod and numpy's ``zeros``) passes
    unseen, and so do dunder methods, which operators call without naming
    them.
    """
    import ast

    members = set()
    for _, tree, exported in _library_modules():
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and cls.name in exported):
                continue
            for item in cls.body:
                if isinstance(item, ast.FunctionDef):
                    members.add((cls.name, item.name))
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    members.add((cls.name, item.target.id))
    _, attributes = _production_reads()
    public = sorted((cls, name) for cls, name in members if not name.startswith("_"))
    unread = [f"{cls}.{name}" for cls, name in public if name not in attributes]
    assert unread == []


def test_production_runs_load_no_sparse_module(tmp_path):
    """`hierwave nash` and `hierwave leader` never import scipy.sparse: only
    the oracles (the LUs of M and of the coupled system) use it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import hierwave

    nash = write_config(
        tmp_path,
        "n.json",
        base_config(grid={"Ny": 16}, leader={"family": "sine", "amplitude": 0.5, "frequency": 1.0}),
    )
    leader = write_config(
        tmp_path,
        "l.json",
        base_config(
            grid={"Ny": 16},
            targets={
                "u0": {"family": "sine", "amplitude": 0.2, "frequency": 1.0},
                "u1": {"family": "sine", "amplitude": 0.5, "frequency": 2.0},
                "rho0": 0.05,
                "rho1": 0.05,
            },
        ),
    )
    program = (
        "import sys\n"
        "from hierwave.cli import main\n"
        f"codes = [main(['nash', '--config', {nash!r}, '--out', {str(tmp_path / 'n')!r}]),\n"
        f"         main(['leader', '--config', {leader!r}, '--out', {str(tmp_path / 'l')!r}])]\n"
        "print(codes, sorted(m for m in sys.modules if m.startswith('scipy.sparse')))\n"
    )
    src = str(Path(hierwave.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0] []"
