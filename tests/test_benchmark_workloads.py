"""The benchmark's workloads still run against the package.

``perfbench/workloads.py`` calls walklab from outside: its pair ops read
``reconstruct.decode(...).graph``, and every CLI op passes ``--config``
and ``--threads 1``.  A cut that drops a name or an option the workloads
use would otherwise show only when the benchmark runs.  This test builds
pass 0 of every workload in a fresh interpreter with ``perfbench/`` on
the path, runs the cheap operations with their own checks, and parses
the argv of the expensive ones without running their commands.
"""
from test_benchmark_hooks import run_traced

SCRIPT = r"""
import walklab.cli
import workloads as wl

passes = {name: w.build(0, 1) for name, w in wl.WORKLOADS.items()}
assert all(len(p) == 1 for p in passes.values()), passes

# scalar-records: the local-cover op and the first three fuzz pairs
# (all three cover their graph, so their named records are decoded);
# enum-invariance: its one invariance call
for op in passes["scalar-records"][0][:4] + passes["enum-invariance"][0]:
    text, work = op.run()
    op.check(text)
    assert work > 0, (op.kind, work)


class Parsed(Exception):
    pass


def parsed(args):
    raise Parsed(args)


# the lockstep workloads' CLI calls take seconds each: stop them once
# their argv, config file included, has parsed
walklab.cli._COMMANDS = dict.fromkeys(walklab.cli._COMMANDS, parsed)
expected = {
    "fig3": dict(sizes=(10, 20), trials=wl.FIG3_TRIALS, budget=wl.FIG3_BUDGET),
    "sr16": dict(trials=wl.SR16_TRIALS),
    "mixing": dict(family="barbell", k=5, trials=wl.MIXING_TRIALS,
                   lengths=wl.MIXING_LENGTHS),
}
kinds = []
for op in passes["lollipop-tail"][0] + passes["lockstep-short"][0]:
    try:
        op.run()
    except Parsed as stop:
        args = stop.args[0]
    else:
        raise AssertionError(f"{op.kind} never reached its command")
    assert (args.command, args.threads) == (op.kind, 1), args
    assert args.config.endswith(f"{op.kind}.conf"), args
    assert {key: getattr(args, key) for key in expected[op.kind]} == expected[op.kind], args
    kinds.append(op.kind)
assert kinds == ["fig3", "sr16", "mixing"], kinds
print("ok")
"""


def test_every_workload_builds_and_its_calls_parse():
    run_traced(SCRIPT)
