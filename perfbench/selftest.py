"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the repository root; takes about a minute.  It checks that

* BENCHMARK.json, layers.json and the tracer declare the same metrics;
* at the smallest size (one pass, the pinned one) every workload is
  correct untraced and traced, both runs give identical output digests,
  and each prints exactly the metric names BENCHMARK.json declares,
  end-to-end values all positive;
* the tracer's outside-in counts equal the work the untraced run
  derives from the outputs (lane-steps from the cover CSVs, and so on);
* in a directory holding only BENCHMARK.json and perfbench/, the
  benchmark exits non-zero without printing a result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

# per workload: the per-layer counters whose sum is the untraced run's work
WORK_FROM_TRACE = {
    "lollipop-tail": ("cover.lane_steps",),
    "lockstep-short": ("cover.lane_steps", "mixing.lane_steps"),
    "scalar-records": ("walks.scalar_steps", "cover.local_scalar_steps"),
    "enum-invariance": ("invariance.walks_compared",),
}


def check_declarations(spec: dict, problems: list[str]) -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    import tracing

    layer_names = [m["name"] for m in spec["per_layer"]]
    if tuple(layer_names) != tracing.LAYER_METRICS:
        problems.append("BENCHMARK.json per_layer differs from tracing.LAYER_METRICS")
    layers = json.loads((run.HERE / "layers.json").read_text())["layers"]
    if sorted(layers) != sorted(layer_names):
        problems.append("layers.json does not map exactly the per_layer metrics")
    e2e = {m["name"] for m in spec["end_to_end"]} | set(run.REPORTED)
    names = {w["name"] for w in spec["workloads"]}
    for metric, target in layers.items():
        if not set(target["moves"]) <= e2e or not set(target["on"]) <= names:
            problems.append(f"layers.json entry {metric} names unknown metrics or workloads")
    if set(WORK_FROM_TRACE) != names:
        problems.append("selftest does not cover every workload")


def check_workload(spec: dict, name: str, problems: list[str]) -> None:
    plain = run.measure(name, 0, 1, 0)
    traced = run.measure(name, 0, 1, 1)
    for label, res in (("untraced", plain), ("traced", traced)):
        if res["failed"] or res["pinned_mismatch"]:
            problems.append(f"{name} {label}: {res['failed']} failed, "
                            f"pins differ for {res['pinned_mismatch']}")
    if plain["digests"] != traced["digests"]:
        problems.append(f"{name}: traced and untraced output digests differ")
    for trace, res, section in ((0, plain, "end_to_end"), (1, traced, "per_layer")):
        line = run.result_line(res, spec, trace)
        if set(line["metrics"]) != {m["name"] for m in spec[section]}:
            problems.append(f"{name}: trace {trace} metric names differ from {section}")
    if any(v["value"] <= 0 for v in run.result_line(plain, spec, 0)["metrics"].values()):
        problems.append(f"{name}: an end-to-end metric is not positive")
    counted = sum(traced["per_layer"][m] for m in WORK_FROM_TRACE[name])
    if counted != plain["work"]:
        problems.append(f"{name}: traced counters give {counted} units of work, "
                        f"the outputs {plain['work']}")
    print(f"{name}: untraced {plain['wall_s']:.2f} s, traced {traced['wall_s']:.2f} s, "
          f"{plain['work']} {plain['work_unit']}")


def check_bare_tree(problems: list[str]) -> None:
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-bare-") as tmp:
        bare = Path(tmp)
        shutil.copy(run.SPEC, bare / "BENCHMARK.json")
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "lollipop-tail",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append("the benchmark ran without the program next to it")


def main() -> int:
    spec = json.loads(run.SPEC.read_text())
    problems: list[str] = []
    check_declarations(spec, problems)
    for w in spec["workloads"]:
        check_workload(spec, w["name"], problems)
    check_bare_tree(problems)
    for p in problems:
        print(f"FAIL: {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
