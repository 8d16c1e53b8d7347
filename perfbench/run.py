"""walklab benchmark: four workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                # every workload, untraced then traced

Run from the repository root.  A single-workload run prints a provenance
line and then, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Without ``--workload`` every workload runs, one after
another, untraced and traced, and a table with each metric, its unit,
the per-operation latencies, ``fail_frac`` and the tracing overhead is
printed.

Every workload runs in a fresh single-threaded worker process (see
``worker.py``); this file only uses the standard library.  ``setup_s``
is the time from starting a worker to its first timed call (interpreter
start, imports, config and input generation), the median of
``SETUP_REPEATS`` workers.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 7
WORKER_TIMEOUT_S = 170

# Figures reported next to the declared metrics but not declared: fail_frac
# is 0 on a correct run, and the CLI workloads make ten or fewer
# invocations, too few for a latency distribution that repeats between
# runs.  The units are those the table prints.
REPORTED = {"op_p50_ms": "ms", "op_p99_ms": "ms", "fail_frac": "1",
            "trace_overhead_s": "s"}

THREADS_NOTE = (
    "--threads 1 everywhere: on a 2-CPU machine (Python 3.11.7, numpy 2.4.6) "
    "fig3 at its checked-in settings took 122 s at 1 thread and 160 s at 2, and "
    "sr16 at 20,000 trials took 2.8-3.9 s at 1 thread and 4.0-5.1 s at 2"
)

class BenchError(Exception):
    pass


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def _run_worker(args: list[str]) -> tuple[float, dict]:
    """Start a worker; return its set-up seconds and its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    started = time.time()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out: {' '.join(args)}") from None
    finally:
        if proc.poll() is None:  # timed out, or this process is being stopped
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(args)}")
    result = json.loads(out.strip().splitlines()[-1])
    return result["ready_at"] - started, result


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def provenance(argv: list[str], seed: int, res: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        **res["versions"],
        "git_commit": _git_commit(),
        "argv": argv,
        "seed": seed,
        "threads": 1,
        "threads_note": THREADS_NOTE,
    }


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run: set-up timings, then one measured worker."""
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    setups = []
    if not trace:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(_run_worker(base + ["--setup-only"])[0])
    setup, res = _run_worker(base)
    setups.append(setup)
    res["setup_s"] = statistics.median(setups)
    res["work_per_s"] = res["work"] / res["wall_s"]
    return res


def result_line(res: dict, spec: dict, trace: int) -> dict:
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    source = res["per_layer"] if trace else res
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {
            m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in declared
        },
    }


def _check_tree() -> None:
    needed = [ROOT / "src" / "walklab" / "__init__.py", SPEC]
    needed += [ROOT / "experiments" / f"{x}.conf"
               for x in ("fig3", "sr16", "mixing", "invariance")]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise BenchError(f"not a walklab checkout, missing: {', '.join(missing)}")


def suite(spec: dict, seed: int, seconds: float, argv: list[str]) -> int:
    """Every workload untraced, then traced; one table, one exit status."""
    all_ok = True
    for w in spec["workloads"]:
        name = w["name"]
        plain = measure(name, seed, seconds, 0)
        traced = measure(name, seed, seconds, 1)
        if name == spec["workloads"][0]["name"]:
            print(json.dumps({"provenance": provenance(argv, seed, plain)}))
        same = plain["digests"] == traced["digests"]
        all_ok &= plain["failed"] == 0 and traced["failed"] == 0 and same
        print(f"\n== {name}: {w['why']}")
        print(f"   work unit: {plain['work_unit']}; {plain['passes']} passes, "
              f"{plain['op_count']} operations; traced digests "
              f"{'match' if same else 'DIFFER from'} untraced")
        plain["fail_frac"] = plain["failed"] / plain["attempted"]
        plain["trace_overhead_s"] = traced["wall_s"] - plain["wall_s"]
        rows = [(m["name"], plain[m["name"]], m["unit"]) for m in spec["end_to_end"]]
        rows += [(name, plain[name], unit) for name, unit in REPORTED.items()]
        rows += [(m["name"], traced["per_layer"][m["name"]], m["unit"])
                 for m in spec["per_layer"] if traced["per_layer"][m["name"]]]
        for metric, value, unit in rows:
            print(f"   {metric:28s} {value:>16.6g} {unit}")
    return 0 if all_ok else 1


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="one workload; default: all, in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a stop request unwinds through the worker clean-up in _run_worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        _check_tree()
        spec = json.loads(SPEC.read_text())
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        names = [w["name"] for w in spec["workloads"]]
        if args.workload is None:
            return suite(spec, args.seed, seconds, argv)
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {names}")
        res = measure(args.workload, args.seed, seconds, args.trace)
        print(json.dumps({"provenance": provenance(argv, args.seed, res),
                          "passes": res["passes"],
                          "work": res["work"], "work_unit": res["work_unit"],
                          "op_count": res["op_count"], "pass_s": res["pass_s"],
                          "op_p50_ms": res["op_p50_ms"], "op_p99_ms": res["op_p99_ms"],
                          "fail_frac": res["failed"] / res["attempted"],
                          "pass0_digests": res["digests"][0]}))
        print(json.dumps(result_line(res, spec, args.trace)))
        return 0
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
