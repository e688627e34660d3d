"""Config fuzz: no config makes ``hierwave nash``, ``leader``, ``simulate``
or ``sweep`` exit 1.

Each example takes one valid config at Ny <= 16, with T = 2 or 4 on either
side of the control time T*(0.1) = 3.52, and applies one to three
mutations: a key's value swapped for another JSON type (numbers given as
strings, booleans or null), a section dropped or set to null, a profile
replaced by a ``csv`` key that names a missing, unreadable or malformed
file, or is not a string, or a key misspelt (a letter dropped, or its case
changed).  The keys come from the config table, ``KEYS``, and from the
profile families of the config's profiles.  The run must exit 0, 2, 3 or 4
and raise nothing; an exit-2 message must name a mutated key or file.  A
misspelt key left in the config must make the run exit 2, and, when it is
the only mutation, the message must name it.  A sweep runs one cell in one
worker.  Examples are drawn deterministically and no example database is
kept, so the suite draws the same examples on every run.
"""

import contextlib
import copy
import io
import itertools
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hierwave.cli import FAMILIES, KEYS, TRACKED, main

BASE = {
    "domain": {"k": 0.1, "T": 4.0},
    "grid": {"Ny": 12, "cfl_safety": 0.8},
    "partition": {"mode": "overlap"},
    "follower": {
        "sigma": 1.0,
        "u_tilde2": {"space": {"family": "sine", "amplitude": 0.3}, "time": {"family": "sine", "frequency": 2}},
    },
    "leader": {"family": "gaussian", "amplitude": 1.0, "center": 0.4, "width": 0.15},
    "control": {"family": "sine", "amplitude": 1.0, "frequency": 1.0},
    "targets": {
        "u0": {"family": "sine", "amplitude": 0.1},
        "u1": {"family": "constant", "value": 0.0},
        "rho0": 0.1,
        "rho1": 0.1,
    },
    "optimizer": {"max_iters": 300, "tol_vi": 1e-6},
    "delta": 0.0,
    "seed": 7,
    "sweep": {"rho_rel": [0.1]},
}


def _paths(table, doc, prefix=()):
    """Every key path of the config table ``table``, and the keys of the
    profiles that ``doc``, the config section it describes, gives."""
    for key, (kind, _) in table.items():
        path = prefix + (key,)
        yield path
        value = doc.get(key) if isinstance(doc, dict) else None
        if isinstance(kind, dict):
            yield from _paths(kind, value, path)
        elif kind == "field":
            yield from _paths(TRACKED, value, path)
        elif kind == "profile" and isinstance(value, dict) and value.get("family") in FAMILIES:
            yield path + ("family",)
            yield from _paths(FAMILIES[value["family"]], value, path)


PATHS = sorted(_paths(KEYS, BASE))
SECTIONS = [(key,) for key in KEYS]
SWAPS = ["x", "0.3", "12", True, False, None, 5, 0.5, [], [1], {}]
CSV_KEYS = [("leader",), ("control",), ("targets", "u0"), ("targets", "u1"), ("follower", "u_tilde2"),
            ("sweep", "reference_control")]
CSV_KINDS = ["missing", "directory", "text", "nan", "ragged", "latin1", "rows", 5, None, True]

mutation = st.one_of(
    st.tuples(st.just("swap"), st.sampled_from(PATHS), st.sampled_from(SWAPS)),
    st.tuples(st.just("drop"), st.sampled_from(SECTIONS), st.none()),
    st.tuples(st.just("null"), st.sampled_from(SECTIONS), st.none()),
    st.tuples(st.just("csv"), st.sampled_from(CSV_KEYS), st.sampled_from(CSV_KINDS)),
    # the letter to drop, or -1 to change the key's case
    st.tuples(st.just("misspell"), st.sampled_from(PATHS), st.integers(-1, 5)),
)


@pytest.fixture(scope="module")
def csv_files(tmp_path_factory):
    """Each string kind of CSV_KINDS mapped to a path of that kind."""
    root = tmp_path_factory.mktemp("csv")
    (root / "directory").mkdir()
    (root / "text.csv").write_text("coordinate,value\n0,abc\n")
    (root / "nan.csv").write_text("coordinate,value\n0,nan\n")
    (root / "ragged.csv").write_text("coordinate,value\n0,1\n0.1,1,2\n")
    (root / "latin1.csv").write_bytes(b"coordinate,value\n0,\xe9\n")
    (root / "rows.csv").write_text("coordinate,value\n0,0\n")
    names = {"missing": "missing.csv", "directory": "directory"}
    return {kind: str(root / names.get(kind, f"{kind}.csv")) for kind in CSV_KINDS if isinstance(kind, str)}


def misspelt(key: str, letter: int) -> str:
    if letter < 0 or len(key) < 2:
        return key.swapcase()
    return key[: letter % len(key)] + key[letter % len(key) + 1 :]


def mutate(config, mutations, csv_files):
    """Apply ``mutations`` in order; return the names an exit-2 message may
    give: each mutated key, dotted or as its last part, the profile or
    section holding it, or a file; and the paths of the misspelt keys."""
    names, renamed = set(), []
    for op, path, value in mutations:
        *parents, last = path
        section = config
        for key in parents:
            section = section.get(key) if isinstance(section, dict) else None
        if not isinstance(section, dict):
            continue
        if op == "misspell":
            if last not in section or misspelt(last, value) in section:
                continue
            last = misspelt(last, value)
            section[last] = section.pop(path[-1])
            path = (*parents, last)
            renamed.append(path)
        dotted = ".".join(path)
        names.update((dotted, last))
        if parents:
            names.add(".".join(parents))
        if op == "drop":
            section.pop(last, None)
        elif op == "null":
            section[last] = None
        elif op == "swap":
            section[last] = copy.deepcopy(value)
        elif op == "csv":
            csv = csv_files.get(value, value) if isinstance(value, str) else value
            section[last] = {"csv": csv}
            names.add(f"{dotted}.csv")
            if isinstance(csv, str):
                names.add(csv)
    return names, renamed


def present(config, path) -> bool:
    *parents, last = path
    for key in parents:
        config = config.get(key) if isinstance(config, dict) else None
    return isinstance(config, dict) and last in config


_runs = itertools.count()


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    command=st.sampled_from(["nash", "leader", "simulate", "sweep"]),
    Ny=st.integers(8, 16),
    T=st.sampled_from([2.0, 4.0]),
    mutations=st.lists(mutation, min_size=1, max_size=3),
)
def test_mutated_config_never_exits_1(tmp_path_factory, csv_files, command, Ny, T, mutations):
    config = json.loads(json.dumps(BASE))
    config["grid"]["Ny"] = Ny
    config["domain"]["T"] = T
    names, renamed = mutate(config, mutations, csv_files)
    root = tmp_path_factory.getbasetemp() / "fuzz"
    root.mkdir(exist_ok=True)
    path = root / f"c{next(_runs)}.json"
    path.write_text(json.dumps(config))
    argv = [command, "--config", str(path), "--out", str(path.with_suffix(""))]
    if command == "sweep":
        argv += ["--workers", "1"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    message = err.getvalue()
    assert code in (0, 2, 3, 4), (code, message)
    assert "Traceback" not in message
    if code == 2:
        assert any(named(name, message) for name in names), (names, message)
    left = [path for path in renamed if present(config, path)]
    if left:
        assert code == 2, (left, message)
        if len(mutations) == 1:
            assert named(left[0][-1], message), (left, message)


def named(name: str, message: str) -> bool:
    return re.search(rf"(?<!\w){re.escape(name)}(?!\w)", message) is not None
