"""Batch-experiment command line.

Subcommands
-----------
simulate    forward solve with a prescribed boundary control
nash        equilibrium pair for a given leader control
leader      optimal leader via the dual minimization
verify      oracle suites (fast / full)
threshold   table of the controllability time threshold over k
sweep       cartesian parameter sweep of leader runs

One JSON config document drives everything; analytic profiles are limited
to the families sine, gaussian, polynomial, constant (plus CSV sample
paths), so that runs are reproducible without an expression parser.  Exit
codes are frozen for scripting: 0 ok, 2 invalid configuration, 3 solver
failure, 4 uncertified optimum, 5 verification failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ConvergenceError, InstabilityError
from .geometry import DomainSpec, SigmaPartition, check_admissible
from .grid import (
    Field,
    GridSpec,
    Mesh,
    SpatialProfile,
    Trace,
    load_field_csv,
    load_profile_csv,
    load_trace_csv,
    save_field_csv,
    save_profile_csv,
    save_trace_csv,
    l2_norm_physical,
    hminus1_norm_physical,
)
from .wave_core import (
    WaveProblem,
    final_value_profile,
    final_velocity_profile,
    solve_forward,
    trace_normal_derivative,
)
from .coupled import (
    FollowerConfig,
    cost_J,
    cost_J2,
    euler_lagrange_residual,
    solve_nash_system,
)
from .leader_dual import DualOptions, TargetSpec, minimize_dual
from .verify import run_verification, write_verification_report
from .geometry import min_control_time

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_UNCERTIFIED = 4
EXIT_VERIFY = 5


# ---------------------------------------------------------------------------
# config ingestion
# ---------------------------------------------------------------------------

def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigurationError(f"cannot read config {path}: {err}") from err
    if not isinstance(config, dict):
        raise ConfigurationError("config root must be a JSON object")
    return config


def _as_number(value, name: str, kind=float):
    """``value`` as a finite ``kind``; anything else is a configuration error
    that names the key.

    No key takes a string, which ``kind`` would parse ("0.3"), or a
    boolean, which it would read as 0 or 1.  An integer key takes an
    integral number: 41 and 41.0 load, while 40.9, which ``int`` would cut
    to 40, does not.
    """
    if isinstance(value, str):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    if isinstance(value, bool) or (kind is int and isinstance(value, float) and not value.is_integer()):
        what = "an integer" if kind is int else "a number"
        raise ConfigurationError(f"{name} must be {what}, got {value!r}")
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigurationError(f"{name} must be a number, got {value!r}") from err
    if isinstance(number, float) and not math.isfinite(number):
        raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
    return number


def read_number(conf: dict, name: str, default, kind=float):
    """The key ``name`` (dotted path, last part looked up in ``conf``) as ``kind``.

    ``default`` stands in for a missing key; a value that ``kind`` cannot
    convert is a configuration error.
    """
    return _as_number(conf.get(name.rsplit(".", 1)[-1], default), name, kind)


_REQUIRED = object()


def read_key(conf: dict, name: str, default=_REQUIRED, kind=dict):
    """The key ``name`` (dotted path, last part looked up in ``conf``), which
    must hold a JSON object (``kind=dict``) or array (``kind=list``).

    ``default`` stands in for a missing key; without one the key is
    required.  A missing required key or a value of another type is a
    configuration error.
    """
    value = conf.get(name.rsplit(".", 1)[-1], default)
    if value is _REQUIRED:
        raise ConfigurationError(f"config needs {name}")
    if value is not default and not isinstance(value, kind):
        what = "an object" if kind is dict else "an array"
        raise ConfigurationError(f"{name} must be {what}, got {value!r}")
    return value


def read_numbers(conf: dict, name: str, default=_REQUIRED) -> list[float]:
    """The array at key ``name`` (see :func:`read_key`) as floats."""
    return [_as_number(value, name) for value in read_key(conf, name, default, list)]


def eval_profile(spec: dict, xi: np.ndarray, at: str) -> np.ndarray:
    """Evaluate an analytic profile on the normalized coordinate xi in [0, 1].

    ``at`` is the spec's dotted path in the config, which messages name.
    """
    if not isinstance(spec, dict) or "family" not in spec:
        raise ConfigurationError(f"{at} must name a profile family: {spec!r}")
    fam = spec["family"]
    if fam == "sine":
        a = read_number(spec, f"{at}.amplitude", 1.0)
        freq = read_number(spec, f"{at}.frequency", 1.0)
        phase = read_number(spec, f"{at}.phase", 0.0)
        return a * np.sin(np.pi * freq * xi + phase)
    if fam == "gaussian":
        a = read_number(spec, f"{at}.amplitude", 1.0)
        c = read_number(spec, f"{at}.center", 0.5)
        w = read_number(spec, f"{at}.width", 0.1)
        if w <= 0:
            raise ConfigurationError(f"{at}.width of a gaussian must be positive")
        return a * np.exp(-0.5 * ((xi - c) / w) ** 2)
    if fam == "polynomial":
        coeffs = read_numbers(spec, f"{at}.coefficients")
        if not coeffs:
            raise ConfigurationError("polynomial profile needs coefficients")
        return np.polynomial.polynomial.polyval(xi, np.asarray(coeffs))
    if fam == "constant":
        return np.full_like(xi, read_number(spec, f"{at}.value", 0.0))
    raise ConfigurationError(f"{at}: unknown profile family {fam!r}")


def _csv_path(spec: dict, at: str) -> str:
    """The file named by the "csv" key of the spec at config key ``at``,
    which must be a JSON string (``open`` would take a number as a file
    descriptor)."""
    path = spec["csv"]
    if not isinstance(path, str):
        raise ConfigurationError(f"{at}.csv must be a file path string, got {path!r}")
    return path


class RunSetup:
    """Validated objects built from one config document."""

    def __init__(self, config: dict):
        self.config = config
        dom_conf = read_key(config, "domain")
        k = read_number(dom_conf, "domain.k", 0.0)
        T = read_number(dom_conf, "domain.T", 0.0)
        allow0 = dom_conf.get("allow_k_zero", False)
        if not isinstance(allow0, bool):
            raise ConfigurationError(f"domain.allow_k_zero must be true or false, got {allow0!r}")
        report = check_admissible(k, T, allow_k_zero=allow0)
        if report.hard_error:
            raise ConfigurationError(f"domain: {report.hard_error}")
        self.adm_report = report
        self.domain = DomainSpec(k=k, T=T, allow_k_zero=allow0)

        grid_conf = read_key(config, "grid", {})
        Ny = read_number(grid_conf, "grid.Ny", 41, int)
        cfl = read_number(grid_conf, "grid.cfl_safety", 0.8)
        if grid_conf.get("Nt") is None:
            self.mesh = Mesh.auto(self.domain, Ny, cfl)
        else:
            Nt = read_number(grid_conf, "grid.Nt", None, int)
            self.mesh = Mesh(self.domain, GridSpec(Ny=Ny, Nt=Nt, cfl_safety=cfl))
            self.mesh.require_cfl()

        part_conf = read_key(config, "partition", {})
        mode = part_conf.get("mode", "overlap")
        n_nodes = self.mesh.Nt + 1
        if mode == "overlap":
            self.partition = SigmaPartition.overlap(n_nodes)
        elif mode == "time-split":
            self.partition = SigmaPartition.time_split(
                n_nodes, read_number(part_conf, "partition.split_fraction", 0.5)
            )
        else:
            raise ConfigurationError(f"unknown partition mode {mode!r}")

        self.seed = read_number(config, "seed", 0, int)
        if self.seed < 0:
            raise ConfigurationError(f"seed must be a non-negative integer, got {config['seed']!r}")
        # 'delta' is accepted, validated and has no effect: the leader's balls
        # are on u(T) and u_t(T), which no change of reach variables moves
        delta = read_number(config, "delta", 0.0)
        if not (np.isfinite(delta) and delta >= 0.0):
            raise ConfigurationError(f"delta must be a finite number >= 0, got {config['delta']!r}")
        self.warnings = list(report.warnings)
        if mode == "time-split":
            self.warnings.append("time_split_experimental")

        # 'follower.picard' is accepted and has no effect: the follower solve
        # is exact and has no iteration to tune
        fol = read_key(config, "follower", {})
        self.follower = FollowerConfig(
            sigma=read_number(fol, "follower.sigma", 1.0),
            partition=self.partition,
            u_tilde2=self._build_field(read_key(fol, "follower.u_tilde2", None)),
        )

    # -- builders ------------------------------------------------------------

    def _build_field(self, spec) -> Field | None:
        if spec is None:
            return None
        if "csv" in spec:
            return load_field_csv(_csv_path(spec, "follower.u_tilde2"), self.mesh)
        space = eval_profile(
            spec.get("space", {"family": "constant", "value": 1.0}), self.mesh.y, "follower.u_tilde2.space"
        )
        time = eval_profile(
            spec.get("time", {"family": "constant", "value": 1.0}),
            self.mesh.times / self.domain.T,
            "follower.u_tilde2.time",
        )
        return Field(np.outer(space, time), self.mesh)

    def build_time_trace(self, spec: dict, mask, where: str) -> Trace:
        """The trace of the config key ``where``, which holds ``spec``."""
        if "csv" in spec:
            return load_trace_csv(_csv_path(spec, where), self.mesh, mask)
        vals = eval_profile(spec, self.mesh.times / self.domain.T, where)
        return Trace(vals, mask, self.mesh)

    def build_space_profile(self, spec: dict, time: float, where: str) -> SpatialProfile:
        """The profile of the config key ``where``, which holds ``spec``."""
        if "csv" in spec:
            return load_profile_csv(_csv_path(spec, where), self.mesh, time)
        vals = eval_profile(spec, self.mesh.y, where)
        return SpatialProfile(vals, time, self.mesh)

    def build_targets(self) -> TargetSpec:
        tg = read_key(self.config, "targets")
        T = self.domain.T
        u0 = self.build_space_profile(read_key(tg, "targets.u0"), T, "targets.u0")
        u1 = self.build_space_profile(read_key(tg, "targets.u1"), T, "targets.u1")
        rho0 = read_number(tg, "targets.rho0", None)
        rho1 = read_number(tg, "targets.rho1", None)
        return TargetSpec(u0, u1, rho0, rho1)

    def dual_options(self, seed: int | None = None) -> DualOptions:
        # 'grad_tol' and 'polish' are accepted in configs and have no effect:
        # the dual solve is exact and aims inside the balls by itself
        opt = read_key(self.config, "optimizer", {})
        return DualOptions(
            max_iters=read_number(opt, "optimizer.max_iters", 20000, int),
            tol_vi=read_number(opt, "optimizer.tol_vi", 1e-6),
            vi_samples=read_number(opt, "optimizer.vi_samples", 100, int),
            seed=self.seed if seed is None else seed,
        )

    def header(self) -> dict:
        return {
            "config_hash": _config_hash(self.config),
            "seed": self.seed,
            "grid": f"Ny={self.mesh.Ny} Nt={self.mesh.Nt} k={self.domain.k} T={self.domain.T}",
            "warnings": ";".join(self.warnings) or "none",
        }


def _finite(doc: dict, name: str) -> dict:
    """``doc``, checked before it is written as ``name``: a number that is
    not finite raises InstabilityError naming its key.

    JSON has no inf or NaN; ``json.dumps`` would write ``Infinity``.
    """

    def check(value, at):
        if isinstance(value, dict):
            for key, item in value.items():
                check(item, f"{at}.{key}" if at else key)
        elif isinstance(value, list):
            for i, item in enumerate(value):
                check(item, f"{at}[{i}]")
        elif isinstance(value, float) and not math.isfinite(value):
            raise InstabilityError(f"{name}: {at} = {value} is not finite")

    check(doc, "")
    return doc


def _write_summary(out_dir: Path, name: str, header: dict, payload: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = _finite({"header": header, **payload}, name)
    (out_dir / name).write_text(json.dumps(doc, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_simulate(config: dict, out_dir: Path) -> int:
    setup = RunSetup(config)
    header = setup.header()
    control = setup.build_time_trace(read_key(config, "control"), np.ones(setup.mesh.Nt + 1, dtype=bool), "control")
    problem = WaveProblem(direction="forward", bc0=control)
    field = solve_forward(problem)
    observation = trace_normal_derivative(field, side="y=0")
    save_field_csv(out_dir / "field.csv", field, header)
    save_trace_csv(out_dir / "trace.csv", observation, header)
    _write_summary(
        out_dir,
        "summary.json",
        header,
        {
            "command": "simulate",
            "field_max_abs": float(np.max(np.abs(field.values))),
        },
    )
    return EXIT_OK


def cmd_nash(config: dict, out_dir: Path) -> int:
    setup = RunSetup(config)
    header = setup.header()
    w1 = setup.build_time_trace(read_key(config, "leader"), setup.partition.mask1, "leader")
    sol = solve_nash_system(w1, setup.follower)
    rng = np.random.default_rng(setup.seed)
    directions = [
        Trace(rng.standard_normal(setup.mesh.Nt + 1), setup.partition.mask2, setup.mesh)
        for _ in range(8)
    ]
    el_samples = euler_lagrange_residual(sol, w1, setup.follower, directions)
    # a cost past the float range is inf, which _finite reports
    with np.errstate(over="ignore"):
        J2, J = cost_J2(sol.u, sol.w2, setup.follower), cost_J(w1)
    # checked before any output is written
    summary = _finite(
        {
            "command": "nash",
            "J2": J2,
            "J": J,
            "el_residual_max_abs": float(np.max(np.abs(el_samples))),
            # kept for readers of summary.json: the reduced solve is one step
            "iterations": 1,
            "method": "schur",
            "residual_tail": [sol.residual],
        },
        "summary.json",
    )
    save_field_csv(out_dir / "u.csv", sol.u, header)
    save_field_csv(out_dir / "p.csv", sol.p, header)
    save_trace_csv(out_dir / "w2.csv", sol.w2, header)
    save_profile_csv(out_dir / "u_T.csv", final_value_profile(sol.u), header)
    save_profile_csv(out_dir / "ut_T.csv", final_velocity_profile(sol.u), header)
    _write_summary(out_dir, "summary.json", header, summary)
    return EXIT_OK


def cmd_leader(config: dict, out_dir: Path) -> int:
    setup = RunSetup(config)
    header = setup.header()
    targets = setup.build_targets()
    f_star, w1_star, report = minimize_dual(targets, setup.follower, setup.dual_options())
    doc = _finite({"header": header, **report.payload()}, "report.json")
    out_dir.mkdir(parents=True, exist_ok=True)
    save_trace_csv(out_dir / "w1_star.csv", w1_star, header)
    save_profile_csv(out_dir / "f0.csv", f_star.f0, header)
    save_profile_csv(out_dir / "f1.csv", f_star.f1, header)
    (out_dir / "report.json").write_text(json.dumps(doc, indent=2, sort_keys=True))
    with open(out_dir / "history.csv", "w") as fh:
        for key, val in header.items():
            fh.write(f"# {key}: {val}\n")
        fh.write("iter,dual_value,vi_residual,dist_L2,dist_Hm1\n")
        for row in report.history:
            fh.write(
                f"{row['iter']},{row['dual_value']:.17g},{row['vi_residual']:.17g},"
                f"{row['dist_L2']:.17g},{row['dist_Hm1']:.17g}\n"
            )
    return EXIT_OK if report.certified else EXIT_UNCERTIFIED


def cmd_verify(level: str, out_dir: Path, seed: int = 0) -> int:
    report = run_verification(level, seed=seed)
    write_verification_report(report, out_dir / "verification_report.json")
    for check in report["checks"]:
        status = "pass" if check["passed"] else "FAIL"
        print(f"[{status}] {check['name']}: metric={check['metric']:.3e}")
    return EXIT_OK if report["passed"] else EXIT_VERIFY


def cmd_threshold(k_values: list[float], out_dir: Path | None) -> int:
    rows = []
    for k in k_values:
        t_min = min_control_time(float(k))
        rows.append((float(k), t_min))
        print(f"k={k:g}  T_min={t_min:.6g}")
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "threshold.csv", "w") as fh:
            fh.write("k,T_min\n")
            for k, t_min in rows:
                fh.write(f"{k:.17g},{t_min:.17g}\n")
    return EXIT_OK


def _sweep_cells(config: dict) -> list[dict]:
    sw = read_key(config, "sweep")
    dom = read_key(config, "domain", {})
    fol = read_key(config, "follower", {})
    ks = read_numbers(sw, "sweep.k", [dom.get("k", 0.1)])
    Ts = read_numbers(sw, "sweep.T", [dom.get("T", 4.0)])
    sigmas = read_numbers(sw, "sweep.sigma", [fol.get("sigma", 1.0)])
    rhos = read_numbers(sw, "sweep.rho_rel", [0.05])
    cells = []
    for k in ks:
        for T in Ts:
            for sig in sigmas:
                for rho in rhos:
                    cells.append({"k": k, "T": T, "sigma": sig, "rho_rel": rho})
    return cells


def _run_sweep_cell(args: tuple) -> tuple[int, dict]:
    """One leader run on manufactured targets; executed possibly in a worker."""
    index, config, cell = args
    cell_config = json.loads(json.dumps(config))
    cell_config.setdefault("domain", {})
    cell_config["domain"]["k"] = cell["k"]
    cell_config["domain"]["T"] = cell["T"]
    cell_config.setdefault("follower", {})["sigma"] = cell["sigma"]
    cell_config["seed"] = read_number(config, "seed", 0, int) + index
    setup = RunSetup(cell_config)
    ref_spec = read_key(
        config["sweep"],
        "sweep.reference_control",
        {"family": "gaussian", "amplitude": 1.0, "center": 0.4, "width": 0.15},
    )
    w1_ref = setup.build_time_trace(ref_spec, setup.partition.mask1, "sweep.reference_control")
    sol_ref = solve_nash_system(w1_ref, setup.follower)
    u_T = final_value_profile(sol_ref.u)
    ut_T = final_velocity_profile(sol_ref.u)
    rho0 = cell["rho_rel"] * max(l2_norm_physical(u_T), 1e-12)
    rho1 = cell["rho_rel"] * max(hminus1_norm_physical(ut_T), 1e-12)
    targets = TargetSpec(u_T, ut_T, rho0, rho1)
    _, w1_star, report = minimize_dual(
        targets, setup.follower, setup.dual_options(seed=cell_config["seed"])
    )
    result = {
        **cell,
        "J": report.primal_J,
        "reached0": int(report.reached[0]),
        "reached1": int(report.reached[1]),
        "gap": report.gap,
        "iterations": report.iterations,
        "certified": int(report.certified),
    }
    return index, result


def cmd_sweep(config: dict, out_dir: Path, workers: int = 1) -> int:
    cells = _sweep_cells(config)
    jobs = [(i, config, cell) for i, cell in enumerate(cells)]
    results: dict[int, dict] = {}
    if workers <= 1:
        for job in jobs:
            idx, res = _run_sweep_cell(job)
            results[idx] = res
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            for idx, res in pool.map(_run_sweep_cell, jobs):
                results[idx] = res
    header = {
        "config_hash": _config_hash(config),
        "seed": read_number(config, "seed", 0, int),
        "cells": len(cells),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    columns = ["k", "T", "sigma", "rho_rel", "J", "reached0", "reached1", "gap", "iterations", "certified"]
    with open(out_dir / "sweep.csv", "w") as fh:
        for key, val in header.items():
            fh.write(f"# {key}: {val}\n")
        fh.write(",".join(columns) + "\n")
        for i in range(len(cells)):
            row = results[i]
            fh.write(",".join(f"{row[c]:.17g}" if isinstance(row[c], float) else str(row[c]) for c in columns) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _seed(text: str) -> int:
    """A --seed value: a non-negative integer, as a config's seed must be."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hierwave", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("simulate", "nash", "leader", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default="runs/" + name, help="output directory")
        p.add_argument("--seed", type=_seed, default=None, help="override config seed")
        if name == "sweep":
            p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("verify")
    p.add_argument("--level", choices=("fast", "full"), default="fast")
    p.add_argument("--out", default="runs/verify")
    p.add_argument("--seed", type=_seed, default=0)

    p = sub.add_parser("threshold")
    p.add_argument("--k", type=float, nargs="+", required=True)
    p.add_argument("--out", default=None)
    return parser


# parsing keeps no state in the parser, so one serves every call of main;
# building it takes about a millisecond, near a tenth of a warm Ny = 41
# leader op
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args.level, Path(args.out), seed=args.seed)
        if args.command == "threshold":
            out = Path(args.out) if args.out else None
            return cmd_threshold(args.k, out)
        config = load_config(args.config)
        if args.seed is not None:
            config["seed"] = args.seed
        out_dir = Path(args.out)
        if args.command == "simulate":
            return cmd_simulate(config, out_dir)
        if args.command == "nash":
            return cmd_nash(config, out_dir)
        if args.command == "leader":
            return cmd_leader(config, out_dir)
        if args.command == "sweep":
            return cmd_sweep(config, out_dir, workers=args.workers)
        raise ConfigurationError(f"unknown command {args.command!r}")
    except ConfigurationError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (InstabilityError, ConvergenceError) as err:
        print(f"solver error: {err}", file=sys.stderr)
        if isinstance(err, ConvergenceError) and err.residual_history:
            tail = ", ".join(f"{r:.3e}" for r in err.residual_history[-5:])
            print(f"residual history (tail): {tail}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
