"""Self-test of the benchmark's checks: clean outputs pass, corrupted ones fail.

    python3 bench/selftest.py

Runs a two-rung leader ladder and two follower solves on a coarse grid
(Ny = 24), checks the clean outputs, then corrupts copies of them and
requires each check to reject its corruption:

* leader control scaled by 0.9        -> [J-report] and [reach]
* leader control scaled to 1.5 J(w1_ref) -> [J-ref]
* follower control w2 perturbed by 1% -> [march] and [FOC]
* radii ladder reordered              -> [ladder]

Exits 0 when every expectation holds, 1 otherwise.  Takes about ten seconds.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks
import plan
import run as bench

NY = 24
K = 0.1


def scale_csv(path: Path, factor: np.ndarray | float) -> None:
    """Multiply the value column of a hierwave trace CSV in place."""
    lines = path.read_text().splitlines()
    head = [i for i, line in enumerate(lines) if not line.startswith("#")][0]
    rows = lines[head + 1 :]
    factors = np.broadcast_to(np.asarray(factor, dtype=float), (len(rows),))
    scaled = []
    for line, f in zip(rows, factors):
        coord, value = line.split(",")
        scaled.append(f"{coord},{float(value) * f:.17g}")
    path.write_text("\n".join(lines[: head + 1] + scaled) + "\n")


def tags(errors: list[str]) -> set[str]:
    return {e.split("]")[0] + "]" for e in errors if e.startswith("[")}


def main() -> int:
    if not (bench.SRC / "hierwave" / "cli.py").is_file():
        print(f"no hierwave sources under {bench.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(bench.SRC))
    from hierwave.cli import main as cli_main

    replay = bench.replayer(cli_main)
    leader, tracked = plan.seeded_inputs(0)
    bench.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=bench.WORK))
    failures = []

    def expect(label: str, errors: list[str], wanted: set[str]) -> None:
        got = tags(errors)
        ok = wanted <= got if wanted else not errors
        print(f"{'ok ' if ok else 'BAD'} {label:<40} rejected by {sorted(got) or 'nothing'}")
        if not ok:
            failures.append(label)

    try:
        def run_op(op: dict) -> Path:
            out = work / op["name"]
            cfg = bench.write_config(op["config"], work / f"{op['name']}.json")
            code, err = bench.call_cli(cli_main, [op["command"], "--config", str(cfg), "--out", str(out)])
            if code != 0:
                raise RuntimeError(f"{op['name']} exited {code}: {err}")
            return out

        config = plan.base_config(NY, K, 1.0, leader, tracked)
        ref = plan.reference_targets(config, work / "reference", cli_main)
        ladder = [plan.leader_op(f"leader-rho{rho}", config, ref, rho) for rho in (0.05, 0.2)]
        leader_outs = [run_op(op) for op in ladder]
        nash_ops = []
        for sigma in (1.0, 0.1):
            cfg = plan.base_config(NY, K, sigma, leader, tracked)
            nash_ops.append(plan.nash_op(f"nash-sigma{sigma}", cfg, 0))
        nash_outs = [run_op(op) for op in nash_ops]

        def copy(out: Path, label: str) -> Path:
            dst = work / f"{out.name}-{label}"
            shutil.copytree(out, dst, ignore=shutil.ignore_patterns("replay*"))
            return dst

        for op, out in zip(ladder, leader_outs):
            expect(f"clean {op['name']}", checks.check_leader(out, op["check"], replay), set())
            bad = copy(out, "x0.9")
            scale_csv(bad / "w1_star.csv", 0.9)
            expect(f"{op['name']} control x0.9", checks.check_leader(bad, op["check"], replay),
                   {"[J-report]", "[reach]"})
            bad = copy(out, "costly")
            scale_csv(bad / "w1_star.csv", np.sqrt(1.5 * op["check"]["J_ref"] / checks.leader_J(out, plan.T)))
            expect(f"{op['name']} control at 1.5 J_ref", checks.check_leader(bad, op["check"], replay),
                   {"[J-ref]"})

        points = [(op["check"]["rho_rel"], checks.leader_J(out, plan.T)) for op, out in zip(ladder, leader_outs)]
        expect("clean ladder", checks.check_ladder(points), set())
        swapped = [(points[0][0], points[1][1]), (points[1][0], points[0][1])]
        expect("ladder outputs reordered", checks.check_ladder(swapped), {"[ladder]"})

        rng = np.random.default_rng(0)
        for op, out in zip(nash_ops, nash_outs):
            march = bench.marcher(op["check"])
            expect(f"clean {op['name']}", checks.check_nash(out, op["check"], march, 0), set())
            bad = copy(out, "w2pert")
            n = op["config"]["grid"]["Nt"] + 1
            scale_csv(bad / "w2.csv", 1.0 + 0.01 * rng.uniform(-1.0, 1.0, size=n))
            expect(f"{op['name']} w2 perturbed 1%", checks.check_nash(bad, op["check"], march, 0),
                   {"[march]", "[FOC]"})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("self-test", "FAILED: " + ", ".join(failures) if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
