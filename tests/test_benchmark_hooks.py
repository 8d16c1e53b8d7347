"""The traced benchmark's hooks still find the names they wrap.

``perfbench/tracing.py`` measures the package from outside: ``install``
replaces module attributes (``walklab.reconstruct.build_graph``,
``walklab.cover.batch_cover_samples``, ...) with wrappers and reads
call arguments by name.  A rename or a dropped re-import breaks the
traced run, and only ``perfbench/selftest.py`` would otherwise notice.
These tests install the tracer in a fresh interpreter (the patches last
for the process), run a small call of each traced kind, and check that
every span those calls reach was recorded and that a global cover's
lane-steps are counted.
"""
import os
import pathlib
import subprocess
import sys

import walklab

REPO = pathlib.Path(__file__).resolve().parents[1]

SCRIPT = r"""
import io
from contextlib import redirect_stdout

import tracing
import walklab
import walklab.cli, walklab.cover, walklab.generators, walklab.records
import walklab.reconstruct, walklab.walks

tracer = tracing.Tracer()
tracing.install(tracer)
for argv in (
    ["sr16", "--trials", "32", "--seed", "3"],
    ["mixing", "--family", "path", "--n", "3", "--lengths", "2", "--trials", "64",
     "--seed", "3"],
    ["fig3", "--sizes", "2", "--trials", "16", "--budget", "50", "--seed", "3"],
    ["invariance", "--max-n", "3", "--max-l", "2", "--samples", "0", "--seed", "3"],
):
    with redirect_stdout(io.StringIO()):
        code = walklab.cli.run(argv)
    assert code == 0, (argv, code)

g = walklab.generators.gen_cycle(5)
config = walklab.WalkConfig(length=12, seed=3)
walk = walklab.walks.sample_walk(g, config, start=0)
rec = walklab.records.record_named_neighbors(walk, g)
assert rec.text.startswith("1-")
got = walklab.reconstruct.decode(rec).graph
assert walklab.reconstruct.is_isomorphic(got, got)
stats = walklab.cover.local_cover_time(
    walklab.generators.gen_path(9), 4, 1, walklab.WalkConfig(length=0,
    restart=walklab.RestartProb(0.5), seed=3), "vertex", 8)
assert stats.trials == 8

_, calls = tracer.self_times()
reached = (
    "cli.run", "cover.batch_cover_samples", "mixing.mc_visit_frequencies",
    "invariance.run_invariance_suite", "graphs.build_graph",
    "graphs.apply_permutation", "generators.gen_rook4x4",
    "generators.gen_shrikhande", "generators.gen_lollipop", "generators.gen_path",
    "generators.gen_cycle", "walks.sample_walk", "records.record_named_neighbors",
    "records.Record.text", "reconstruct.decode", "reconstruct.is_isomorphic",
    "cover.local_cover_time",
)
missing = [name for name in reached if not calls.get(name)]
assert not missing, f"spans never called: {missing}"
# build_graph refuses the disconnected edge sets the invariance suite enumerates
assert set(tracer.errors) <= {"graphs.build_graph"}, dict(tracer.errors)
metrics = tracer.layer_metrics(0.0, 0.0)
assert metrics["cover.lane_steps"] > 0 and metrics["records.tokens"] > 0
assert metrics["invariance.walks_compared"] > 0
print("ok")
"""


# A one-start global cover runs through the wrapped batch_cover_samples,
# so the tracer counts its lane-steps: in edge mode a lane steps until its
# edge time, so they sum to the CSV's mean times its trials.
COVER_SCRIPT = r"""
import io
from contextlib import redirect_stdout

import tracing
import walklab.cli

tracer = tracing.Tracer()
tracing.install(tracer)
argv = ["cover", "--family", "lollipop", "--m", "4", "--trials", "300", "--seed", "4",
        "--mode", "edge"]
out = io.StringIO()
with redirect_stdout(out):
    assert walklab.cli.run(argv) == 0
row = out.getvalue().splitlines()[1].split(",")
assert row[5:] == ["300", "0"], row
_, calls = tracer.self_times()
assert calls.get("cover.batch_cover_samples") == 1, calls
lane_steps = tracer.layer_metrics(0.0, 0.0)["cover.lane_steps"]
assert lane_steps == round(float(row[3]) * 300), (lane_steps, row)
print("ok")
"""


def run_traced(script):
    src = pathlib.Path(walklab.__file__).resolve().parents[1]
    env_path = f"{REPO / 'perfbench'}:{src}"
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": env_path, "PYTHONDONTWRITEBYTECODE": "1"},
        cwd=REPO, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


def test_traced_run_reaches_every_hook():
    run_traced(SCRIPT)


def test_traced_global_cover_counts_its_lane_steps():
    run_traced(COVER_SCRIPT)
