"""Workload inputs: seeded configs, reference targets and the op list.

Run as a script, this is the benchmark's set-up step: it writes every config
a workload needs, runs the reference ``hierwave nash`` solves that produce
the leader targets, and saves the plan as ``plan.json`` in ``--out``.  The
benchmark times several of these set-ups, each in a fresh process, and
reports their median as ``setup_s``.

The seed moves only the reference leader control (a Gaussian pulse) and the
tracked trajectory (a separable sine), inside ranges where every op of every
workload passes its checks; the grids, weights and radii ladders are fixed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

import checks

T = 4.0
WORKLOADS = ("leader-rho-sweep", "leader-cold-ny96", "nash-sigma-ladder")

# leader-rho-sweep: one process runs a ladder of radii on two meshes, as
# `hierwave sweep --workers 1` does; the first op on each mesh is cold.
SWEEP_NY = 41
SWEEP_K = (0.05, 0.1)
# Most rungs are wide balls, whose ops take similar times, so that the median
# op falls inside that cluster and not in the gap between it and the slow,
# narrow rungs.
SWEEP_RHO = (0.02, 0.05, 0.1, 0.15, 0.2, 0.3)
# A round passes over the sweep twice; the second pass finds every cache warm.
SWEEP_PASSES = 2
# leader-cold-ny96: every op factors its own coupled system; round r moves
# the time grid to Nt = base + r so that no two ops share a mesh.
COLD_NY = 96
COLD_K = 0.1
COLD_RHO = 0.05
# nash-sigma-ladder: the follower alone, from Picard-friendly weights down to
# weights where Picard diverges and the direct coupled factorization takes over.
LADDER_NY = 64
LADDER_K = 0.1
LADDER_SIGMA = (3.0, 1.0, 0.3, 0.1, 0.03, 0.01)
# A round passes over the ladder four times, the later passes with the
# fallback factorizations cached.  With one pass the median op was the single
# sigma = 0.03 op and moved by 15-25% from run to run; with four passes and
# the failing op once per round it is the middle one of the three warm
# sigma = 0.03 ops, which take similar times.
LADDER_PASSES = 4
# The kept failing op, run once per round after the passes: relaxed Picard
# diverges above Ny = 64 for small sigma and the direct fallback is capped at
# Ny <= 64, so this exits 3.  Its inputs do not depend on the seed.
FAILING_NY = 80
FAILING_SIGMA = 0.01
FIXED_LEADER = {"family": "gaussian", "amplitude": 1.0, "center": 0.4, "width": 0.15}
FIXED_TRACKED = {
    "space": {"family": "sine", "frequency": 1, "amplitude": 0.5},
    "time": {"family": "sine", "frequency": 2},
}


def seeded_inputs(seed: int) -> tuple[dict, dict]:
    """Reference leader control and tracked trajectory for one seed.

    The seed picks one signed power of two, s in {+-1/2, +-1, +-2}, that
    multiplies both the reference control and the tracked trajectory.
    Targets and radii scale with s, and scaling by a power of two is exact
    in floating point, so every seed gives the same iteration counts and the
    same work (checked: J / s^2 agrees to 12 digits).  A factor of 1.1
    instead moved the first rung of the k = 0.05 ladder from 1516 to 1359
    dual iterations, and moving the pulse's centre by 0.005 changed
    iteration counts by up to 2x.  s = 4 already moved it to 1541: the dual
    loop is not exactly scale-free (its line-search test, for one, has an
    absolute floor), so |s| stays within a factor of two.
    """
    rng = np.random.default_rng(seed)
    s = float(2.0 ** rng.integers(-1, 2)) * (1.0 if rng.integers(2) else -1.0)
    leader = {**FIXED_LEADER, "amplitude": s * FIXED_LEADER["amplitude"]}
    tracked = json.loads(json.dumps(FIXED_TRACKED))
    tracked["space"]["amplitude"] = s * FIXED_TRACKED["space"]["amplitude"]
    return leader, tracked


def base_config(Ny: int, k: float, sigma: float, leader: dict, tracked: dict, Nt: int | None = None) -> dict:
    return {
        "domain": {"k": k, "T": T},
        "grid": {"Ny": Ny, "Nt": Nt or checks.auto_nt(Ny, k, T), "cfl_safety": 0.8},
        "follower": {"sigma": sigma, "u_tilde2": tracked},
        "leader": leader,
        "seed": 0,
    }


def nash_op(name: str, config: dict, expect_exit: int) -> dict:
    return {"name": name, "command": "nash", "config": config, "expect_exit": expect_exit,
            "check": nash_check(config)}


def nash_check(config: dict) -> dict:
    return {
        "kind": "nash",
        "Ny": config["grid"]["Ny"],
        "Nt": config["grid"]["Nt"],
        "k": config["domain"]["k"],
        "T": T,
        "sigma": config["follower"]["sigma"],
        "leader": config["leader"],
        "u_tilde2": config["follower"]["u_tilde2"],
    }


def reference_targets(config: dict, out: Path, run_cli) -> dict:
    """Run `hierwave nash` on the reference control; its final state is the ball centre."""
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / "reference.json"
    cfg_path.write_text(json.dumps(config))
    code = run_cli(["nash", "--config", str(cfg_path), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"reference hierwave nash in {out} exited {code}")
    alpha_T = 1.0 + config["domain"]["k"] * T
    u0 = out / "u_T.csv"
    u1 = out / "ut_T.csv"
    Nt = config["grid"]["Nt"]
    t = np.linspace(0.0, T, Nt + 1)
    return {
        "target_u0": str(u0),
        "target_u1": str(u1),
        "norm0": checks.l2_phys(checks.read_values(u0), alpha_T),
        "norm1": checks.hm1_phys(checks.read_values(u1), alpha_T),
        "J_ref": checks.leader_cost(checks.profile(config["leader"], t / T), T),
    }


def leader_op(name: str, config: dict, ref: dict, rho_rel: float) -> dict:
    cfg = json.loads(json.dumps(config))
    rho0 = rho_rel * ref["norm0"]
    rho1 = rho_rel * ref["norm1"]
    cfg["targets"] = {
        "u0": {"csv": ref["target_u0"]},
        "u1": {"csv": ref["target_u1"]},
        "rho0": rho0,
        "rho1": rho1,
    }
    replay = json.loads(json.dumps(config))
    replay.pop("leader")
    return {
        "name": name,
        "command": "leader",
        "config": cfg,
        "expect_exit": 0,
        "check": {
            "kind": "leader",
            "T": T,
            "k": config["domain"]["k"],
            "rho_rel": rho_rel,
            "rho0": rho0,
            "rho1": rho1,
            "J_ref": ref["J_ref"],
            "target_u0": ref["target_u0"],
            "target_u1": ref["target_u1"],
            "replay_config": replay,
        },
    }


def build_plan(workload: str, seed: int, out: Path, run_cli) -> dict:
    """Configs, reference targets and the ops of one round, written under ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    leader, tracked = seeded_inputs(seed)
    ops: list[dict] = []
    ladders: list[list[str]] = []
    if workload == "leader-rho-sweep":
        refs = []
        for k in SWEEP_K:
            config = base_config(SWEEP_NY, k, 1.0, leader, tracked)
            refs.append((k, config, reference_targets(config, out / f"reference-k{k}", run_cli)))
        for p in range(SWEEP_PASSES):
            for k, config, ref in refs:
                names = [f"leader-k{k}-rho{rho}-p{p}" for rho in SWEEP_RHO]
                ops.extend(leader_op(n, config, ref, rho) for n, rho in zip(names, SWEEP_RHO))
                ladders.append(names)
    elif workload == "leader-cold-ny96":
        config = base_config(COLD_NY, COLD_K, 1.0, leader, tracked)
        ref = reference_targets(config, out / "reference", run_cli)
        ops.append(leader_op(f"leader-ny{COLD_NY}-rho{COLD_RHO}", config, ref, COLD_RHO))
    elif workload == "nash-sigma-ladder":
        for p in range(LADDER_PASSES):
            for sigma in LADDER_SIGMA:
                config = base_config(LADDER_NY, LADDER_K, sigma, leader, tracked)
                ops.append(nash_op(f"nash-sigma{sigma}-p{p}", config, 0))
        config = base_config(FAILING_NY, LADDER_K, FAILING_SIGMA, FIXED_LEADER, FIXED_TRACKED)
        ops.append(nash_op(f"nash-ny{FAILING_NY}-sigma{FAILING_SIGMA}", config, 3))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    plan = {"workload": workload, "seed": seed, "ops": ops, "ladders": ladders}
    (out / "plan.json").write_text(json.dumps(plan, indent=1))
    return plan


def round_ops(plan: dict, round_index: int) -> list[dict]:
    """The ops of one round.  Only the cold workload changes from round to round."""
    if plan["workload"] != "leader-cold-ny96" or round_index == 0:
        return plan["ops"]
    ops = json.loads(json.dumps(plan["ops"]))
    for op in ops:
        for cfg in (op["config"], op["check"]["replay_config"]):
            cfg["grid"]["Nt"] += round_index
        op["name"] += f"-nt{op['config']['grid']['Nt']}"
    return ops


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--src", required=True, help="directory holding the hierwave package")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from hierwave.cli import main as run_cli

    build_plan(args.workload, args.seed, Path(args.out), run_cli)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
