"""Generated argvs: every CLI input works or is a usage error.

The argvs are built from the subparsers' own actions in
``cli._build_parser()``, so an option added later is fuzzed without
editing this file.  Each option's value is drawn from a small pool of
valid values (one-vertex graphs among them), and in about half the
argvs one option's from a pool of degenerate inputs: 0, -1,
non-numbers, nan, inf and 1e-320, malformed lists, empty, garbage,
binary and missing files, and a directory.  The options that set how much work a run
does (trials, budgets, lengths, sizes, ``--max-n``, ``--samples``) are
always given, from small pools, so no argv runs at a default size.
The seeds are fixed and there are 300 argvs; the set runs in about a
second on a 2-CPU machine.

Each argv must exit 0, or exit 2 with an ``error:`` line on stderr, and
no exception may escape ``cli.run``.  ``cli.run`` turns every
``ValueError`` into exit 2, so a ``ValueError`` raised by a bug inside
the package, not by a bad input, would pass here as a usage error.
"""
import io
import random
import sys

import pytest

from walklab import cli

ARGVS = 300

# per option, a pool of valid values and one of degenerate ones; the
# options that size a run are always given, and kept small
CAPPED = {
    "trials": (["1", "2", "3"], ["0", "-1", "x", "nan", ""]),
    "budget": (["1", "5", "50"], ["0", "-1", "x", "inf"]),
    "walks": (["1", "2"], ["0", "-1", "x"]),
    "length": (["0", "1", "3"], ["-1", "x", "nan"]),
    "max_l": (["0", "1", "2"], ["-1", "x"]),
    "max_n": (["2", "3"], ["-1", "0", "1", "x"]),
    "samples": (["0", "1"], ["-1", "x"]),
    "perms": (["1", "2"], ["0", "-1", "x"]),
    "sizes": (["2", "3", "2,3"], ["0", "1", "-1", "x", "", "2,,3"]),
    "lengths": (["0", "1", "0,2"], ["-1", "x", ""]),
}
# how often the options that most argvs need are given; the others, 0.3
USUAL = {"seed": 0.9, "family": 0.8, "n": 0.8, "m": 0.8, "s": 0.8, "k": 0.8}
INTS = (["1", "2", "3"], ["0", "-1", "x", "nan", "inf", "", "1e3"])
POOLS = {
    "radius": (["0", "1"], ["-1", "x"]),
    "restart_prob": (["0.5", "0.1"], ["0", "1", "-1", "nan", "inf", "1e-320", "x"]),
    "node2vec": (["1,1", "2,0.5"],
                 ["0,1", "-1,1", "nan,1", "inf,1", "1e-320,1", "1", "x,y", ""]),
    "family": (["path", "cycle", "clique", "star", "lollipop", "barbell", "csl",
                "rook4x4", "shrikhande"], ["nosuch", ""]),
    "text": (["1", "1-2", "1-2-1", "1-2#1", "1-2-3#1;1"], ["", "1;1", "1-1", "x", "2", "-"]),
}
FILES = {
    "one-vertex": b"1 0\n",
    "edge": b"2 1\n0 1\n",
    "triangle": b"3 3\n0 1\n1 2\n0 2\n",
    "comment.conf": b"# nothing set\n",
    "walks": b"0 1 0r\n1\n",
    "attrs": b"0\tA\n1\tB\tb\n",
    "record": b"1-2-1;1\n",
    "empty": b"",
    "garbage": b"not a graph\n",
    "binary": bytes(range(256)),
    "bad-key.conf": b"bogus = 1\n",
    "zero.conf": b"trials = 0\nmax_n = 0\n",
    "no-equals.conf": b"trials\n",
}
VALID_FILES = {
    "graph": ["one-vertex", "edge", "triangle"],
    "config": ["comment.conf"],
    "walks_file": ["walks"],
    "attrs": ["attrs"],
    "infile": ["record"],
}


def _file_pools(tmp_path):
    """Per file option, its valid files and the degenerate ones: the
    others (empty, garbage and binary among them), a directory and a
    missing path."""
    for name, data in FILES.items():
        (tmp_path / name).write_bytes(data)
    (tmp_path / "dir").mkdir()
    return {
        dest: ([str(tmp_path / name) for name in valid],
               [str(tmp_path / name) for name in [*FILES, "dir", "missing"] if name not in valid])
        for dest, valid in VALID_FILES.items()
    }


def _argv(command, sub, rng, files, out):
    """An argv of ``command``: every capped option and some of the
    others, valued from their valid pools, but in about half the argvs
    one option from its degenerate pool."""
    chosen = [action for action in sub._actions
              if action.option_strings and action.dest != "help"
              and (action.dest in CAPPED or rng.random() < USUAL.get(action.dest, 0.3))]
    bad = rng.randrange(2 * len(chosen) + 1)
    argv = [command]
    for i, action in enumerate(chosen):
        dest, flag = action.dest, rng.choice(action.option_strings)
        if action.nargs == 0:
            argv.append(flag)
            continue
        if dest in CAPPED:
            pools = CAPPED[dest]
        elif dest in files:
            pools = files[dest]
        elif dest == "out":
            pools = out
        elif action.choices:
            pools = (list(action.choices), ["bogus", ""])
        else:
            pools = POOLS.get(dest, INTS)
        argv += [flag, rng.choice(pools[i == bad])]
    return argv


def _run(argv, capsys):
    """The exit code and stderr of ``argv``, or the exception that escaped."""
    try:
        rc = cli.run(argv)
    except BaseException as exc:  # noqa: BLE001 - any escape is the finding
        capsys.readouterr()
        return f"raised {exc!r}"
    err = capsys.readouterr().err
    if rc == 0 or (rc == 2 and "error:" in err):
        return None
    return f"exit {rc}: {err[-300:]!r}"


def test_generated_argvs_work_or_are_usage_errors(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    files = _file_pools(tmp_path)
    out = ([str(tmp_path / "out.txt")], [str(tmp_path / "dir"), str(tmp_path / "missing" / "out")])
    _, subs = cli._build_parser()
    commands = sorted(subs.choices)
    found = []
    for seed in range(ARGVS):
        command = commands[seed % len(commands)]
        argv = _argv(command, subs.choices[command], random.Random(seed), files, out)
        fault = _run(argv, capsys)
        if fault:
            found.append((argv, fault))
    assert found == []


@pytest.mark.parametrize("argv", [
    # a walk tree as deep as this once overflowed the recursion limit
    ["invariance", "--seed", "1", "--max-n", "2", "--samples", "0", "--max-l", "1100"],
])
def test_argvs_that_once_crashed(argv, capsys):
    assert _run(argv, capsys) is None
