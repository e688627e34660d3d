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
import difflib
import functools
import hashlib
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, InstabilityError
from .geometry import DomainSpec, SigmaPartition, check_admissible, min_control_time
from .grid import (
    Field,
    GridSpec,
    Mesh,
    SpatialProfile,
    Trace,
    check_out_dir,
    load_field_csv,
    load_profile_csv,
    load_trace_csv,
    save_field_csv,
    save_field_npy,
    save_json,
    save_profile_csv,
    save_table_csv,
    save_trace_csv,
    l2_norm_physical,
    hminus1_norm_physical,
)
from .wave_core import (
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
    kept_mesh,
    solve_nash_system,
)
from ._lapack import lapack
from .leader_dual import DualOptions, TargetSpec, minimize_dual

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_UNCERTIFIED = 4
EXIT_VERIFY = 5


# ---------------------------------------------------------------------------
# config ingestion
# ---------------------------------------------------------------------------

# Every config key: (kind, default).  A kind is "number", "integer",
# "boolean", "numbers" (an array), "path" (a file path string), "profile" (a
# family of FAMILIES, or {"csv": path}), "field" (TRACKED, or {"csv": path}),
# "any" (read by nothing), a tuple of the strings allowed, or the table of a
# section.  A default of None leaves the key out, as JSON null does.
# 'follower.picard', 'optimizer.grad_tol', 'optimizer.polish' and 'delta'
# have no effect: the follower and dual solves are exact, and no change of
# reach variables moves the leader's balls on u(T) and u_t(T).
REQUIRED = object()
KEYS = {
    "domain": ({"k": ("number", REQUIRED), "T": ("number", REQUIRED), "allow_k_zero": ("boolean", False)}, {}),
    "grid": ({"Ny": ("integer", 41), "Nt": ("integer", None), "cfl_safety": ("number", 0.8)}, {}),
    "partition": ({"mode": (("overlap", "time-split"), "overlap"), "split_fraction": ("number", 0.5)}, {}),
    "follower": ({"sigma": ("number", 1.0), "u_tilde2": ("field", None), "picard": ("any", None)}, {}),
    "leader": ("profile", None),
    "control": ("profile", None),
    "targets": (
        {"u0": ("profile", REQUIRED), "u1": ("profile", REQUIRED), "rho0": ("number", REQUIRED),
         "rho1": ("number", REQUIRED)},
        None,
    ),
    "optimizer": (
        {"max_iters": ("integer", 20000), "tol_vi": ("number", 1e-6), "vi_samples": ("integer", 100),
         "grad_tol": ("any", None), "polish": ("any", None)},
        {},
    ),
    "delta": ("number", 0.0),
    "seed": ("integer", 0),
    "sweep": (
        {"k": ("numbers", None), "T": ("numbers", None), "sigma": ("numbers", None),
         "rho_rel": ("numbers", [0.05]),
         "reference_control": ("profile", {"family": "gaussian", "amplitude": 1.0, "center": 0.4, "width": 0.15})},
        None,
    ),
}
FAMILIES = {
    "sine": {"amplitude": ("number", 1.0), "frequency": ("number", 1.0), "phase": ("number", 0.0)},
    "gaussian": {"amplitude": ("number", 1.0), "center": ("number", 0.5), "width": ("number", 0.1)},
    "polynomial": {"coefficients": ("numbers", REQUIRED)},
    "constant": {"value": ("number", 0.0)},
}
TRACKED = {
    "space": ("profile", {"family": "constant", "value": 1.0}),
    "time": ("profile", {"family": "constant", "value": 1.0}),
}
CSV = {"csv": ("path", REQUIRED)}


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, ValueError) as err:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
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


def check_config(section: dict, table: dict = KEYS, at: str = "") -> dict:
    """``section`` (by default the config document) checked against
    ``table``, as a new object with every default filled in.  An unknown
    key, a missing required key or a value not of its key's kind is a
    configuration error that names the key; the library objects built from
    the values check their ranges."""
    if not isinstance(section, dict):
        raise ConfigurationError(f"{at} must be an object, got {section!r}")
    prefix = f"{at}." if at else ""
    for key in section:
        if key not in table:
            # the nearest known key, ignoring case
            lower = {name.lower(): name for name in table}
            near = difflib.get_close_matches(key.lower(), lower, n=1)
            hint = f" (did you mean {prefix}{lower[near[0]]}?)" if near else ""
            raise ConfigurationError(f"unknown key {prefix}{key}{hint}")
    checked = {}
    for key, (kind, default) in table.items():
        value = section[key] if key in section else default
        if value is REQUIRED:
            raise ConfigurationError(f"config needs {prefix}{key}")
        checked[key] = None if value is None and default is None else _check(kind, value, prefix + key)
    return checked


def _check(kind, value, name: str):
    """``value``, the key ``name``'s, checked as ``kind``."""
    if isinstance(kind, dict):
        return check_config(value, kind, name)
    if kind in ("profile", "field"):
        if isinstance(value, dict) and "csv" in value:
            return check_config(value, CSV, name)
        if kind == "field":
            return check_config(value, TRACKED, name)
        if not isinstance(value, dict) or "family" not in value:
            raise ConfigurationError(f"{name} must name a profile family: {value!r}")
        family = value["family"]
        if not (isinstance(family, str) and family in FAMILIES):
            raise ConfigurationError(f"{name}: unknown profile family {family!r}")
        return check_config(value, {"family": ("any", REQUIRED), **FAMILIES[family]}, name)
    if kind in ("number", "integer"):
        return _as_number(value, name, int if kind == "integer" else float)
    if kind == "numbers":
        if not isinstance(value, list):
            raise ConfigurationError(f"{name} must be an array, got {value!r}")
        return [_as_number(item, name) for item in value]
    if kind == "boolean" and not isinstance(value, bool):
        raise ConfigurationError(f"{name} must be true or false, got {value!r}")
    if kind == "path" and not isinstance(value, str):
        # open() would take a number as a file descriptor
        raise ConfigurationError(f"{name} must be a file path string, got {value!r}")
    if isinstance(kind, tuple) and value not in kind:
        raise ConfigurationError(f"{name} must be one of {', '.join(map(repr, kind))}, got {value!r}")
    return value


def _needs(config: dict, key: str):
    """The checked ``config``'s ``key``, which the running command reads."""
    if config[key] is None:
        raise ConfigurationError(f"config needs {key}")
    return config[key]


def eval_profile(spec: dict, xi: np.ndarray, at: str) -> np.ndarray:
    """The checked analytic profile ``spec`` on the normalized coordinate xi
    in [0, 1]; ``at`` is its dotted path in the config, which messages name."""
    fam = spec["family"]
    # a gaussian far narrower than the grid squares past the float range, where
    # its limit, 0, is exact; any value left past that range is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        if fam == "sine":
            values = spec["amplitude"] * np.sin(np.pi * spec["frequency"] * xi + spec["phase"])
        elif fam == "gaussian":
            if spec["width"] <= 0:
                raise ConfigurationError(f"{at}.width of a gaussian must be positive")
            values = spec["amplitude"] * np.exp(-0.5 * ((xi - spec["center"]) / spec["width"]) ** 2)
        elif fam == "polynomial":
            if not spec["coefficients"]:
                raise ConfigurationError(f"{at}.coefficients of a polynomial profile must not be empty")
            values = np.polynomial.polynomial.polyval(xi, np.asarray(spec["coefficients"]))
        else:
            values = np.full_like(xi, spec["value"])
    if not np.all(np.isfinite(values)):
        raise ConfigurationError(f"{at}: a value on the grid is past the float range")
    return values


class RunSetup:
    """Validated objects built from one config document; ``config`` is the
    document checked, with its defaults filled in."""

    def __init__(self, document: dict):
        self.document = document
        self.config = config = check_config(document)
        dom = config["domain"]
        report = check_admissible(dom["k"], dom["T"], allow_k_zero=dom["allow_k_zero"])
        if report.hard_error:
            raise ConfigurationError(f"domain: {report.hard_error}")
        self.warnings = list(report.warnings)
        self.domain = DomainSpec(k=dom["k"], T=dom["T"], allow_k_zero=dom["allow_k_zero"])

        grid = config["grid"]
        if grid["Nt"] is None:
            mesh = Mesh.auto(self.domain, grid["Ny"], grid["cfl_safety"])
        else:
            mesh = Mesh(self.domain, GridSpec(Ny=grid["Ny"], Nt=grid["Nt"], cfl_safety=grid["cfl_safety"]))
            mesh.require_cfl()
        # a kept engine's equal mesh, so that a warm op builds no mesh array
        self.mesh = kept_mesh(mesh)

        mode = config["partition"]["mode"]
        n_nodes = self.mesh.Nt + 1
        if mode == "overlap":
            self.partition = SigmaPartition.overlap(n_nodes)
        else:
            self.partition = SigmaPartition.time_split(n_nodes, config["partition"]["split_fraction"])
            self.warnings.append("time_split_experimental")

        self.seed = config["seed"]
        if self.seed < 0:
            raise ConfigurationError(f"seed must be a non-negative integer, got {self.seed!r}")
        if config["delta"] < 0.0:
            raise ConfigurationError(f"delta must be a finite number >= 0, got {config['delta']!r}")

        fol = config["follower"]
        self.follower = FollowerConfig(
            sigma=fol["sigma"], partition=self.partition, u_tilde2=self._build_field(fol["u_tilde2"])
        )

    # -- builders ------------------------------------------------------------

    def _build_field(self, spec) -> Field | None:
        if spec is None:
            return None
        if "csv" in spec:
            return load_field_csv(spec["csv"], self.mesh)
        space = eval_profile(spec["space"], self.mesh.y, "follower.u_tilde2.space")
        time = eval_profile(spec["time"], self.mesh.times / self.domain.T, "follower.u_tilde2.time")
        with np.errstate(over="ignore"):
            values = np.outer(space, time)
        if not np.all(np.isfinite(values)):
            raise ConfigurationError("follower.u_tilde2: a value on the grid is past the float range")
        return Field(values, self.mesh)

    def build_time_trace(self, spec: dict, mask, where: str) -> Trace:
        """The trace of the config key ``where``, which holds the checked ``spec``."""
        if "csv" in spec:
            return load_trace_csv(spec["csv"], self.mesh, mask)
        vals = eval_profile(spec, self.mesh.times / self.domain.T, where)
        return Trace(vals, mask, self.mesh)

    def build_space_profile(self, spec: dict, time: float, where: str) -> SpatialProfile:
        """The profile of the config key ``where``, which holds the checked ``spec``."""
        if "csv" in spec:
            return load_profile_csv(spec["csv"], self.mesh, time)
        vals = eval_profile(spec, self.mesh.y, where)
        return SpatialProfile(vals, time, self.mesh)

    def build_targets(self) -> TargetSpec:
        tg = _needs(self.config, "targets")
        u0, u1 = (self.build_space_profile(tg[key], self.domain.T, f"targets.{key}") for key in ("u0", "u1"))
        return TargetSpec(u0, u1, tg["rho0"], tg["rho1"])

    def header(self) -> dict:
        return {
            "config_hash": _config_hash(self.document),
            "seed": self.seed,
            "grid": f"Ny={self.mesh.Ny} Nt={self.mesh.Nt} k={self.domain.k} T={self.domain.T}",
            "warnings": ";".join(self.warnings) or "none",
        }


def dual_options(config: dict) -> DualOptions:
    """The checked ``config``'s optimizer settings and seed; DualOptions checks their ranges."""
    opt = config["optimizer"]
    return DualOptions(
        max_iters=opt["max_iters"], tol_vi=opt["tol_vi"], vi_samples=opt["vi_samples"], seed=config["seed"]
    )


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


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_simulate(config: dict, out_dir: Path) -> int:
    setup = RunSetup(config)
    header = setup.header()
    control = setup.build_time_trace(_needs(setup.config, "control"), np.ones(setup.mesh.Nt + 1, dtype=bool), "control")
    field = solve_forward(control)
    observation = trace_normal_derivative(field)
    summary = _finite(
        {"header": header, "command": "simulate", "field_max_abs": float(np.max(np.abs(field.values)))},
        "summary.json",
    )
    save_field_csv(out_dir / "field.csv", field, header)
    save_trace_csv(out_dir / "trace.csv", observation, header)
    save_json(out_dir / "summary.json", summary)
    return EXIT_OK


def cmd_nash(config: dict, out_dir: Path) -> int:
    setup = RunSetup(config)
    header = setup.header()
    w1 = setup.build_time_trace(_needs(setup.config, "leader"), setup.partition.mask1, "leader")
    sol = solve_nash_system(w1, setup.follower)
    rng = np.random.default_rng(setup.seed)
    directions = [
        Trace(rng.standard_normal(setup.mesh.Nt + 1), setup.partition.mask2, setup.mesh)
        for _ in range(8)
    ]
    el_samples = euler_lagrange_residual(sol, setup.follower, directions)
    # a cost past the float range is inf, which _finite reports
    with np.errstate(over="ignore"):
        J2, J = cost_J2(sol.u, sol.w2, setup.follower), cost_J(w1)
    summary = _finite(
        {
            "header": header,
            "command": "nash",
            "J2": J2,
            "J": J,
            "el_residual_max_abs": float(np.max(np.abs(el_samples))),
            "residual_tail": [sol.residual],
        },
        "summary.json",
    )
    save_field_csv(out_dir / "u.csv", sol.u, header)
    save_field_npy(out_dir / "p.npy", sol.p)
    save_trace_csv(out_dir / "w2.csv", sol.w2, header)
    save_profile_csv(out_dir / "u_T.csv", final_value_profile(sol.u), header)
    save_profile_csv(out_dir / "ut_T.csv", final_velocity_profile(sol.u), header)
    save_json(out_dir / "summary.json", summary)
    return EXIT_OK


def cmd_leader(config: dict, out_dir: Path) -> int:
    setup = RunSetup(config)
    header = setup.header()
    targets = setup.build_targets()
    f_star, w1_star, report = minimize_dual(targets, setup.follower, dual_options(setup.config))
    doc = _finite({"header": header, **report.payload()}, "report.json")
    save_trace_csv(out_dir / "w1_star.csv", w1_star, header)
    save_profile_csv(out_dir / "f0.csv", f_star.f0, header)
    save_profile_csv(out_dir / "f1.csv", f_star.f1, header)
    save_json(out_dir / "report.json", doc)
    columns = ["iter", "dual_value", "vi_residual", "dist_L2", "dist_Hm1"]
    save_table_csv(out_dir / "history.csv", header, columns, ([row[c] for c in columns] for row in report.history))
    return EXIT_OK if report.certified else EXIT_UNCERTIFIED


def cmd_verify(level: str, out_dir: Path, seed: int = 0) -> int:
    from .verify import run_verification
    report = run_verification(level, seed=seed)
    save_json(out_dir / "verification_report.json", report)
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
        save_table_csv(out_dir / "threshold.csv", None, ["k", "T_min"], rows)
    return EXIT_OK


def _run_sweep_cell(args: tuple) -> dict:
    """One leader run on manufactured targets; executed possibly in a worker."""
    index, config, cell = args
    cell_config = json.loads(json.dumps(config))
    cell_config["domain"].update(k=cell["k"], T=cell["T"])
    cell_config["follower"]["sigma"] = cell["sigma"]
    cell_config["seed"] = config["seed"] + index
    setup = RunSetup(cell_config)
    w1_ref = setup.build_time_trace(
        config["sweep"]["reference_control"], setup.partition.mask1, "sweep.reference_control"
    )
    sol_ref = solve_nash_system(w1_ref, setup.follower)
    u_T = final_value_profile(sol_ref.u)
    ut_T = final_velocity_profile(sol_ref.u)
    rho0 = cell["rho_rel"] * max(l2_norm_physical(u_T), 1e-12)
    rho1 = cell["rho_rel"] * max(hminus1_norm_physical(ut_T), 1e-12)
    targets = TargetSpec(u_T, ut_T, rho0, rho1)
    _, _, report = minimize_dual(targets, setup.follower, dual_options(setup.config))
    return {
        **cell,
        "J": report.primal_J,
        "reached0": int(report.reached[0]),
        "reached1": int(report.reached[1]),
        "gap": report.gap,
        "iterations": report.iterations,
        "certified": int(report.certified),
    }


def cmd_sweep(document: dict, out_dir: Path, workers: int = 1) -> int:
    config = check_config(document)
    sw = _needs(config, "sweep")
    base = {"k": config["domain"]["k"], "T": config["domain"]["T"], "sigma": config["follower"]["sigma"]}
    axes = {name: [base[name]] if sw[name] is None else sw[name] for name in base}
    names = {"k": "domain.k", "T": "domain.T", "sigma": "follower.sigma"}
    names.update((name, f"sweep.{name}") for name in base if sw[name] is not None)
    # every cell's values, checked before any cell runs as its RunSetup
    # checks them; check_admissible judges k before T
    allow = config["domain"]["allow_k_zero"]
    for k, T in itertools.product(axes["k"], axes["T"]):
        error = check_admissible(k, T, allow_k_zero=allow).hard_error
        if error:
            key = "k" if check_admissible(k, 1.0, allow_k_zero=allow).hard_error else "T"
            raise ConfigurationError(f"{names[key]}: {error}")
    for sigma in axes["sigma"]:
        if sigma <= 0.0:
            raise ConfigurationError(f"{names['sigma']} must be positive, got {sigma!r}")
    if any(rho <= 0.0 for rho in sw["rho_rel"]):
        raise ConfigurationError(f"sweep.rho_rel entries must be positive, got {sw['rho_rel']}")
    dual_options(config)  # the optimizer's ranges, which every cell shares
    cells = [
        {"k": k, "T": T, "sigma": sigma, "rho_rel": rho}
        for k, T, sigma, rho in itertools.product(*axes.values(), sw["rho_rel"])
    ]
    jobs = [(i, config, cell) for i, cell in enumerate(cells)]
    # the pool starts all its workers at once, so it gets no more than there
    # are cells or CPUs
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers <= 1:
        rows = list(map(_run_sweep_cell, jobs))
    else:
        import concurrent.futures
        lapack()  # loaded once here: forked workers inherit the extension instead of each loading it
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_sweep_cell, jobs))
    header = {
        "config_hash": _config_hash(document),
        "seed": config["seed"],
        "cells": len(rows),
    }
    columns = ["k", "T", "sigma", "rho_rel", "J", "reached0", "reached1", "gap", "iterations", "certified"]
    save_table_csv(out_dir / "sweep.csv", header, columns, ([row[c] for c in columns] for row in rows))
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
        if args.out is not None:
            check_out_dir(args.out)
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
    except InstabilityError as err:
        print(f"solver error: {err}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
