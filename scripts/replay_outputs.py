#!/usr/bin/env python3
"""Replay the benchmark's gated plans and keep every output, for diffing commits.

For one seed, builds the plan of each workload that ``BENCHMARK.json`` gates
with ``bench/plan.py``'s ``build_plan`` (its reference solves included) and
runs every op once, in order, through ``hierwave.cli.main`` in this process,
as the benchmark's first round does.  Everything lands under ``--out``: one
directory per workload with its configs, reference solves and op outputs,
and ``exit_codes.json`` with the exit code of every op.

Paths inside the configs are relative to ``--out``, which is the working
directory of the replay, so the ``config_hash`` lines of two replays match
wherever they are written.  Each checkout imports its own ``src``, so two
commits compare with

    python scripts/replay_outputs.py --out /tmp/a        # in checkout A
    python scripts/replay_outputs.py --out /tmp/b        # in checkout B
    diff -r /tmp/a /tmp/b

When the outputs are not byte-identical, ``--compare /tmp/a`` (in checkout
B) compares the new replay with an earlier one instead.  It prints the ops
whose exit codes differ, then one line per file kind (a file name, with the
op, config or reference directory as ``*``): the largest relative
difference of its numeric cells and where it is, the files whose row count
or integers changed (a leader's ``history.csv`` or ``iterations``), and the
files whose text cells differ.  A CSV cell's difference is taken relative
to the largest magnitude in its column, a JSON number's relative to its own
magnitude.  ``config_hash`` is skipped: it hashes the configs, whose numbers
come from the reference solves.  It exits 1 if an exit code differs.

Usage: python scripts/replay_outputs.py --out DIR [--seed 7] [--compare DIR]
"""

import os

# one BLAS thread, as in the benchmark, so that sums keep one order
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from hierwave.cli import main as run_cli  # noqa: E402
from plan import build_plan  # noqa: E402


def replay(workload: str, seed: int) -> dict:
    """Run the workload's plan under ./<workload>; returns {op name: exit code}."""
    base = Path(workload)
    plan = build_plan(workload, seed, base / "plan", run_cli)
    codes = {}
    for op in plan["ops"]:
        cfg = base / "configs" / f"{op['name']}.json"
        cfg.parent.mkdir(parents=True, exist_ok=True)
        cfg.write_text(json.dumps(op["config"]))
        argv = [op["command"], "--config", str(cfg), "--out", str(base / "ops" / op["name"])]
        try:
            codes[op["name"]] = run_cli(argv)
        except Exception as err:  # an escaped exception is an outcome to compare, too
            codes[op["name"]] = f"exception: {type(err).__name__}: {err}"
    return codes


def _kind(rel: Path) -> str:
    """The file kind of an output's relative path: op, config and reference
    directories, and config files, become ``*``."""
    parts = list(rel.parts)
    if len(parts) >= 3 and parts[1] == "configs":
        parts[2] = "*" + rel.suffix
    elif len(parts) >= 4:
        parts[2:-1] = ["*"] * (len(parts) - 3)
    return "/".join(parts)


def _csv_cells(path: Path) -> tuple[list[str], list[list[str]]]:
    """(header lines other than config_hash, rows of cells) of a CSV output."""
    header, rows = [], []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            if not line.startswith("# config_hash:"):
                header.append(line)
        elif line.strip():
            rows.append(line.split(","))
    return header, rows


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


class _Kind:
    """Differences over the files of one kind."""

    def __init__(self):
        self.files = 0
        self.rel, self.where = 0.0, ""
        self.counts: list[str] = []
        self.text: list[str] = []

    def number(self, a: float, b: float, scale: float, where: str) -> None:
        if a != b:
            rel = abs(a - b) / scale if scale > 0 else float("inf")
            if not rel <= self.rel:
                self.rel, self.where = rel, where

    def csv(self, ours: Path, theirs: Path, name: str) -> None:
        (head_a, rows_a), (head_b, rows_b) = _csv_cells(ours), _csv_cells(theirs)
        if head_a != head_b:
            self.text.append(f"{name} (header)")
        if len(rows_a) != len(rows_b):
            self.counts.append(f"{name}: {len(rows_b) - 1} -> {len(rows_a) - 1} rows")
        columns = rows_a[0] if rows_a else []
        for col in range(len(columns)):
            pairs = [(r[col], q[col]) for r, q in zip(rows_a[1:], rows_b[1:]) if col < min(len(r), len(q))]
            nums = [(_number(x), _number(y)) for x, y in pairs]
            if any(x is None or y is None for x, y in nums):
                if any(x != y for x, y in pairs):
                    self.text.append(f"{name} ({columns[col]})")
                continue
            scale = max((max(abs(x), abs(y)) for x, y in nums), default=0.0)
            for x, y in nums:
                self.number(x, y, scale, f"{name} ({columns[col]})")

    def json(self, a, b, name: str, at: str = "") -> None:
        if isinstance(a, dict) and isinstance(b, dict):
            if sorted(a) != sorted(b):
                self.text.append(f"{name} (keys of {at or 'top'})")
            for key in a.keys() & b.keys():
                if key != "config_hash":
                    self.json(a[key], b[key], name, f"{at}.{key}" if at else key)
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                self.counts.append(f"{name}: {at} has {len(b)} -> {len(a)} entries")
            for i, (x, y) in enumerate(zip(a, b)):
                self.json(x, y, name, f"{at}[{i}]")
        elif isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str) or isinstance(b, str):
            if a != b:
                self.text.append(f"{name} ({at})")
        elif isinstance(a, int) and isinstance(b, int):
            if a != b:
                self.counts.append(f"{name}: {at} {b} -> {a}")
        elif isinstance(a, (int, float)) and isinstance(b, (int, float)):
            self.number(float(a), float(b), max(abs(a), abs(b)), f"{name} ({at})")
        elif a != b:
            self.text.append(f"{name} ({at})")


def compare(ours: Path, theirs: Path) -> int:
    """Print how the replay under ``ours`` differs from that under ``theirs``;
    1 if an exit code differs."""
    codes_a = json.loads((ours / "exit_codes.json").read_text())
    codes_b = json.loads((theirs / "exit_codes.json").read_text())
    flat_a = {(w, op): c for w, ops in codes_a.items() for op, c in ops.items()}
    flat_b = {(w, op): c for w, ops in codes_b.items() for op, c in ops.items()}
    moved = sorted(k for k in flat_a.keys() | flat_b.keys() if flat_a.get(k) != flat_b.get(k))
    for w, op in moved:
        print(f"exit code of {w}/{op}: {flat_b.get((w, op))} -> {flat_a.get((w, op))}")
    print(f"exit codes: {len(flat_a) - len(moved)} of {len(flat_a)} ops equal")

    files_a = {p.relative_to(ours) for p in ours.rglob("*") if p.is_file()} - {Path("exit_codes.json")}
    files_b = {p.relative_to(theirs) for p in theirs.rglob("*") if p.is_file()} - {Path("exit_codes.json")}
    for rel in sorted(files_a ^ files_b):
        print(f"only in {'this replay' if rel in files_a else theirs}: {rel}")
    kinds: dict[str, _Kind] = {}
    for rel in sorted(files_a & files_b):
        kind = kinds.setdefault(_kind(rel), _Kind())
        kind.files += 1
        a, b = ours / rel, theirs / rel
        name = "/".join(rel.parts[2:]) if len(rel.parts) > 2 else str(rel)
        if rel.suffix == ".json":
            kind.json(json.loads(a.read_text()), json.loads(b.read_text()), name)
        else:
            kind.csv(a, b, name)
    width = max(len(k) for k in kinds)
    print(f"{'file kind':<{width}}  files  max rel diff  at")
    for name, kind in kinds.items():
        print(f"{name:<{width}}  {kind.files:5d}  {kind.rel:12.3e}  {kind.where}")
        for what, lines in (("count", kind.counts), ("text", kind.text)):
            for line in lines[:5]:
                print(f"{'':<{width}}    {what} changed: {line}")
            if len(lines) > 5:
                print(f"{'':<{width}}    ... {len(lines) - 5} more")
    return 1 if moved else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, help="directory for the outputs; emptied first")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--compare", metavar="DIR", help="an earlier replay to compare this one with")
    args = parser.parse_args()
    theirs = Path(args.compare).resolve() if args.compare else None

    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    out = Path(args.out).resolve()
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    os.chdir(out)
    codes = {workload: replay(workload, args.seed) for workload in workloads}
    Path("exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")
    n_ops = sum(len(c) for c in codes.values())
    n_files = sum(1 for p in out.rglob("*") if p.is_file())
    print(f"seed {args.seed}: {n_ops} ops of {', '.join(workloads)}; {n_files} files under {out}")
    return compare(out, theirs) if theirs is not None else 0


if __name__ == "__main__":
    raise SystemExit(main())
