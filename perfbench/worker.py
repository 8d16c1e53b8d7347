"""One workload in one fresh, single-threaded process.

Started by ``run.py``; prints one JSON object on stdout.  With
``--setup-only`` it stops after set-up, so the parent can time set-up
several times.  With ``--trace 1`` the layer wrappers are installed
before set-up and the object carries per-layer metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import tracing  # noqa: E402  (imports walklab, so after the path set-up)
import walklab  # noqa: E402
import workloads  # noqa: E402

PINS = Path(__file__).resolve().parent / "pins.json"
MAX_REPORTED_FAILURES = 5


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def tail_percentile(sorted_values: list[float]) -> float:
    """The highest percentile up to p99 with at least ten samples beyond it.

    With ten or fewer samples to spare above the median there is none,
    and the median is reported instead.
    """
    n = len(sorted_values)
    q = min(0.99, (n - 10) / n)
    return percentile(sorted_values, q if q > 0.5 else 0.5)


def run_passes(passes, tracer) -> dict:
    """Time every operation; check and digest each output outside its timing."""
    latencies: list[float] = []
    ok: list[bool] = []
    kinds: list[tuple[int, str]] = []
    digests: list[dict[str, str]] = []
    pass_s: list[float] = []
    pass_work: list[int] = []
    t_first = time.perf_counter()
    for p, ops in enumerate(passes):
        hashers = {}
        t_pass = time.perf_counter()
        pass_work.append(0)
        for op in ops:
            if tracer is not None:
                tracer.current_op = len(latencies)
            t0 = time.perf_counter()
            try:
                text, units = op.run()
                good = True
            except Exception:  # an operation's failure is a result, not a crash
                good, text, units = False, "", 0
                if ok.count(False) < MAX_REPORTED_FAILURES:
                    traceback.print_exc()
            latencies.append(time.perf_counter() - t0)
            if good:
                try:
                    op.check(text)
                except workloads.OpFailed as exc:
                    good = False
                    print(f"check failed ({op.kind}, pass {p}): {exc}", file=sys.stderr)
            ok.append(good)
            kinds.append((p, op.kind))
            pass_work[-1] += units
            hashers.setdefault(op.kind, hashlib.sha256()).update(text.encode())
        pass_s.append(time.perf_counter() - t_pass)
        digests.append({k: h.hexdigest() for k, h in hashers.items()})
    wall = time.perf_counter() - t_first
    return dict(latencies=latencies, ok=ok, kinds=kinds, digests=digests,
                pass_s=pass_s, pass_work=pass_work, wall=wall)


def byte_guard(workload: str, res: dict) -> list[str]:
    """Mark pass-0 operations whose output bytes differ from the pins."""
    pins = json.loads(PINS.read_text())[workload]
    bad = [k for k, digest in pins.items() if res["digests"][0].get(k) != digest]
    for i, (p, kind) in enumerate(res["kinds"]):
        if p == 0 and kind in bad:
            res["ok"][i] = False
    return bad


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    wl = workloads.WORKLOADS[args.workload]
    passes = wl.build(args.seed, wl.passes_for(args.seconds))
    ready_at = time.time()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    res = run_passes(passes, tracer)
    if tracer is not None:
        for i in sorted(tracer.bad_ops):
            print(f"operation {i}: a trial's edge time is below its vertex time",
                  file=sys.stderr)
            res["ok"][i] = False
    mismatched = byte_guard(args.workload, res)
    if mismatched:
        print(f"pinned digests differ: {mismatched}", file=sys.stderr)
    lat = sorted(res["latencies"])
    out = {
        "ready_at": ready_at,
        "passes": len(passes),
        "attempted": len(res["ok"]),
        "failed": res["ok"].count(False),
        "wall_s": res["wall"],
        "work": sum(res["pass_work"]),
        "pass_s": res["pass_s"],
        "pass_work": res["pass_work"],
        "work_unit": wl.work_unit,
        "op_count": len(lat),
        "op_p50_ms": percentile(lat, 0.50) * 1e3,
        "op_p99_ms": tail_percentile(lat) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digests": res["digests"],
        "pinned_mismatch": mismatched,
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__,
                     "walklab": walklab.__version__},
    }
    if tracer is not None:
        out["per_layer"] = tracer.layer_metrics(res["wall"], tracer.probe_compile())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
