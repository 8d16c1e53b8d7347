"""The benchmark's four workloads.

A workload is a list of passes and a pass a list of operations.  Every
operation is a call into walklab's public API: one CLI invocation, or
one fuzz pair (sample, record, decode, isomorphism) or local-cover call.
``build`` makes all inputs during set-up, so the timed part receives
only generated inputs.

Pass 0 always runs at the workload's reference seeds, the seeds the
experiment configs and acceptance gates document, and its output bytes
are pinned in ``pins.json``; later passes run at seeds derived from the
benchmark's ``--seed``, where only structural invariants are checked.
"""
from __future__ import annotations

import hashlib
import io
import math
import re
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import walklab
import walklab.cli
import walklab.cover
import walklab.generators
import walklab.invariance
import walklab.reconstruct
import walklab.records
import walklab.walks

ROOT = Path(__file__).resolve().parent.parent
CONF = ROOT / "experiments"


class OpFailed(Exception):
    """An operation returned a wrong answer (as opposed to raising)."""


@dataclass
class Op:
    """One timed call.  ``run`` returns (output text, units of work);
    ``check`` raises ``OpFailed`` on a structural violation of the text."""

    kind: str
    run: Callable[[], tuple[str, int]]
    check: Callable[[str], None] = lambda text: None


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str
    # Pass length on the reference machine (2 CPUs, Python 3.11, numpy
    # 2.4): a run makes round(seconds / nominal_pass_s) passes, so the
    # same --seconds gives the same work on every commit.
    nominal_pass_s: float
    build: Callable[[int, int], list[list[Op]]]

    def passes_for(self, seconds: float) -> int:
        return max(1, round(seconds / self.nominal_pass_s))


def pass_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


# -- CLI-driven workloads -----------------------------------------------------


def _cli_op(kind: str, argv: list[str], work: Callable[[str], int],
            check: Callable[[str], None]) -> Op:
    def run() -> tuple[str, int]:
        out = io.StringIO()
        with redirect_stdout(out):
            code = walklab.cli.run(argv)
        if code != 0:
            raise OpFailed(f"walklab {argv[0]} exited {code}")
        text = out.getvalue()
        return text, work(text)

    return Op(kind, run, check)


_COVER_HEADER = "graph,walk,mode,mean,std_err,trials,censored"


def _cover_rows(text: str) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != _COVER_HEADER:
        raise OpFailed(f"bad cover CSV header: {lines[:1]}")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != 7 for r in rows):
        raise OpFailed("cover CSV row with the wrong field count")
    return rows


def _lane_steps(text: str, budget: int, edge_mode: str) -> int:
    """Lockstep lane-steps behind a cover CSV.

    A lane runs until its edge time (edge cover implies vertex cover),
    or to the budget if it censored, so a cell's lane-steps are its
    uncensored edge mean times their count plus budget per censored
    trial.  Means carry six decimals, so rounding recovers the exact sum.
    """
    total = 0
    for graph, _, mode, mean, _, trials, censored in _cover_rows(text):
        if mode != edge_mode or graph == "sr16-mean":
            continue
        done = int(trials) - int(censored)
        total += (round(float(mean) * done) if done else 0) + int(censored) * budget
    return total


def _check_cover(text: str, rows_expected: int, trials: int, edge_mode: str) -> None:
    rows = _cover_rows(text)
    if len(rows) != rows_expected:
        raise OpFailed(f"expected {rows_expected} cover rows, got {len(rows)}")
    for vertex, edge in zip(rows[0::2], rows[1::2]):
        if vertex[:2] != edge[:2] or (vertex[2], edge[2]) != ("vertex", edge_mode):
            raise OpFailed(f"rows not paired vertex/edge: {vertex} {edge}")
        for row in (vertex, edge):
            mean, std_err = float(row[3]), float(row[4])
            cens, n = int(row[6]), int(row[5])
            if n != trials and row[0] != "sr16-mean":
                raise OpFailed(f"trials {n} != {trials} in {row}")
            if not 0 <= cens <= n or (cens < n and not mean >= 1):
                raise OpFailed(f"implausible cover row {row}")
            if cens < n and not std_err >= 0:
                raise OpFailed(f"implausible std_err in {row}")
        # per trial edge >= vertex, so with nothing censored the means
        # keep the order, and a censored vertex time censors the edge
        if int(edge[6]) < int(vertex[6]):
            raise OpFailed(f"edge censored less than vertex: {vertex} {edge}")
        if int(edge[6]) == 0 and float(edge[3]) < float(vertex[3]):
            raise OpFailed(f"edge mean below vertex mean: {vertex} {edge}")


# lollipop-tail: the fig3 grid on lollipop-20 and lollipop-40 at 256
# trials, one lockstep chunk per cell.  The budget is cut from the
# config's 2e5 to 2e4 so that the node2vec(1/2) tail on lollipop-40
# always ends at the budget: the tail then costs the same number of
# near-empty iterations on every seed, instead of flipping between
# seeds on whether one trial out of 256 censors.
FIG3_SIZES = "10,20"
FIG3_TRIALS = 256
FIG3_BUDGET = 20_000
FIG3_REFERENCE_SEED = 2025


def _fig3_op(seed: int) -> Op:
    argv = ["fig3", "--config", str(CONF / "fig3.conf"), "--sizes", FIG3_SIZES,
            "--trials", str(FIG3_TRIALS), "--budget", str(FIG3_BUDGET),
            "--threads", "1", "--seed", str(seed)]
    return _cli_op(
        "fig3", argv,
        lambda text: _lane_steps(text, FIG3_BUDGET, "edge"),
        lambda text: _check_cover(text, 24, FIG3_TRIALS, "edge"),
    )


def build_lollipop_tail(seed: int, passes: int) -> list[list[Op]]:
    seeds = [FIG3_REFERENCE_SEED] + [
        pass_seed("lollipop-tail", seed, i) for i in range(1, passes)
    ]
    return [[_fig3_op(s)] for s in seeds]


# lockstep-short: sr16 then mixing, both at their checked-in configs.
SR16_REFERENCE_SEED = 2025
MIXING_REFERENCE_SEED = 7
SR16_TRIALS = 10_000          # experiments/sr16.conf
MIXING_TRIALS = 100_000       # experiments/mixing.conf
MIXING_N = 10                 # barbell k=5
MIXING_LENGTHS = (5, 20)

_MIXING_HEADER = "l,u,v,mc_estimate,exact_value,abs_err"


def _mixing_cells(text: str) -> dict[tuple[int, int], list[tuple[float, float, float]]]:
    lines = text.splitlines()
    if not lines or lines[0] != _MIXING_HEADER:
        raise OpFailed(f"bad mixing CSV header: {lines[:1]}")
    cells: dict[tuple[int, int], list[tuple[float, float, float]]] = {}
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 6:
            raise OpFailed(f"bad mixing row {line!r}")
        l, u = int(fields[0]), int(fields[1])
        cells.setdefault((l, u), []).append(tuple(float(x) for x in fields[3:]))
    return cells


def _mixing_lane_steps(text: str) -> int:
    return sum(l * MIXING_TRIALS for l, _ in _mixing_cells(text))


def _check_mixing(text: str) -> None:
    cells = _mixing_cells(text)
    expected = {(l, u) for l in MIXING_LENGTHS for u in range(MIXING_N)}
    if set(cells) != expected:
        raise OpFailed("mixing CSV does not hold every (l, u) cell")
    for key, rows in cells.items():
        if len(rows) != MIXING_N:
            raise OpFailed(f"mixing cell {key} has {len(rows)} rows")
        # frequencies over positions sum to one (8 printed decimals)
        for col in (0, 1):
            if abs(sum(r[col] for r in rows) - 1.0) > 1e-6:
                raise OpFailed(f"mixing cell {key} column {col} does not sum to 1")
        for mc, exact, err in rows:
            if abs(abs(mc - exact) - err) > 2e-8:
                raise OpFailed(f"abs_err {err} inconsistent with {mc}, {exact}")


def build_lockstep_short(seed: int, passes: int) -> list[list[Op]]:
    out = []
    for i in range(passes):
        if i == 0:
            sr16_seed, mixing_seed = SR16_REFERENCE_SEED, MIXING_REFERENCE_SEED
        else:
            sr16_seed = mixing_seed = pass_seed("lockstep-short", seed, i)
        sr16 = _cli_op(
            "sr16",
            ["sr16", "--config", str(CONF / "sr16.conf"), "--threads", "1",
             "--seed", str(sr16_seed)],
            lambda text: _lane_steps(text, walklab.cover.DEFAULT_BUDGET, "edge-strict"),
            lambda text: _check_cover(text, 6, SR16_TRIALS, "edge-strict"),
        )
        mixing = _cli_op(
            "mixing",
            ["mixing", "--config", str(CONF / "mixing.conf"), "--threads", "1",
             "--seed", str(mixing_seed)],
            _mixing_lane_steps,
            _check_mixing,
        )
        out.append([sr16, mixing])
    return out


# enum-invariance: the relabeling suite on every graph up to 4 vertices
# plus sampled 5-vertex graphs.
INVARIANCE_MAX_N = 5
INVARIANCE_SAMPLES = 10
INVARIANCE_REFERENCE_SEED = 0
INVARIANCE_PERMS = 2          # experiments/invariance.conf
_EXACT_GRAPHS = 1 + 4 + 38    # connected labeled graphs on 2, 3, 4 vertices

_REPORT = re.compile(
    r"all distribution-equality checks passed: (\d+) graphs, (\d+) permutations, "
    r"(\d+) configs each, (\d+) walks compared, max probability gap (\S+)\n"
)


def _report_fields(text: str) -> tuple[int, ...]:
    match = _REPORT.fullmatch(text)
    if match is None:
        raise OpFailed(f"unexpected invariance report {text!r}")
    graphs, perms, configs, walks = (int(x) for x in match.groups()[:4])
    if float(match.group(5)) > 1e-9:
        raise OpFailed(f"probability gap {match.group(5)} above 1e-9")
    return graphs, perms, configs, walks


def _check_invariance(text: str) -> None:
    graphs, perms, configs, walks = _report_fields(text)
    if graphs != _EXACT_GRAPHS + INVARIANCE_SAMPLES or perms != graphs * INVARIANCE_PERMS:
        raise OpFailed(f"invariance covered {graphs} graphs, {perms} permutations")
    if configs != 7 or walks <= 0:
        raise OpFailed(f"invariance ran {configs} configs, {walks} walks")


def build_enum_invariance(seed: int, passes: int) -> list[list[Op]]:
    seeds = [INVARIANCE_REFERENCE_SEED] + [
        pass_seed("enum-invariance", seed, i) for i in range(1, passes)
    ]
    return [
        [_cli_op(
            "invariance",
            ["invariance", "--config", str(CONF / "invariance.conf"),
             "--max-n", str(INVARIANCE_MAX_N), "--samples", str(INVARIANCE_SAMPLES),
             "--threads", "1", "--seed", str(s)],
            lambda text: _report_fields(text)[3],
            _check_invariance,
        )]
        for s in seeds
    ]


# -- scalar-records -----------------------------------------------------------

# Pass 0 replays the first pairs of the reconstruction gate's fuzz stream
# and the restart-bound gate's local-cover seed.
FUZZ_REFERENCE_SEED = 20_250_819
LOCAL_REFERENCE_SEED = 0
PAIRS_PER_PASS = 2500
LOCAL_TRIALS = PAIRS_PER_PASS  # one local-cover trial per pair, as in the gates
PATH_N, PATH_CENTER = 10_001, 5_000


def fuzz_inputs(seed: int, count: int) -> list[tuple]:
    """(graph, config, start) triples from the reconstruction gate's generator."""
    rng = walklab.rng_stream(seed, 0)
    out = []
    for i in range(count):
        n = int(rng.integers(2, 13))
        g = walklab.invariance.random_connected_graph(n, rng)
        kind = walklab.Constant() if int(rng.integers(2)) == 0 else walklab.MDLR()
        second = int(rng.integers(4))
        n2v = {2: walklab.Node2Vec(2.0, 1.0), 3: walklab.Node2Vec(1.0, 2.0)}.get(second)
        restart = walklab.RestartProb(0.2) if int(rng.integers(4)) == 0 else None
        config = walklab.WalkConfig(
            length=int(rng.integers(1, 4 * n * n)), conductance=kind,
            non_backtracking=(second == 1), node2vec=n2v, restart=restart, seed=i,
        )
        out.append((g, config, int(rng.integers(n))))
    return out


def _pair_op(g, config, start) -> Op:
    def run() -> tuple[str, int]:
        walk = walklab.walks.sample_walk(g, config, start=start)
        named = walklab.records.record_named_neighbors(walk, g)
        anon = walklab.records.record_anonymized(walk)
        rec = walklab.reconstruct
        if len(set(walk.vertices)) == g.n:
            if not rec.is_isomorphic(rec.decode(named).graph, g):
                raise OpFailed("covering walk's named record decodes to another graph")
        stepped = {
            (min(a, b), max(a, b))
            for a, b, restart in zip(walk.vertices, walk.vertices[1:], walk.restart_flags[1:])
            if not restart
        }
        if len(stepped) == g.m:
            if not rec.is_isomorphic(rec.decode(anon).graph, g):
                raise OpFailed("edge-covering walk's record decodes to another graph")
        return f"{named.text} {anon.text}\n", config.length

    return Op("records", run)


def _local_op(path, seed: int) -> Op:
    config = walklab.WalkConfig(length=0, restart=walklab.RestartProb(0.5), seed=seed)

    def run() -> tuple[str, int]:
        stats = walklab.cover.local_cover_time(
            path, PATH_CENTER, 1, config, "vertex", LOCAL_TRIALS)
        if stats.censored or stats.trials != LOCAL_TRIALS or not math.isfinite(stats.mean):
            raise OpFailed(f"local cover censored or undefined: {stats}")
        steps = round(stats.mean * stats.trials)
        return f"{stats.mean!r} {stats.std_err!r} {stats.trials} {stats.censored}\n", steps

    return Op("local_cover", run)


def build_scalar_records(seed: int, passes: int) -> list[list[Op]]:
    path = walklab.generators.gen_path(PATH_N)
    out = []
    for i in range(passes):
        fuzz_seed = FUZZ_REFERENCE_SEED if i == 0 else pass_seed("scalar-records", seed, i)
        local_seed = LOCAL_REFERENCE_SEED if i == 0 else fuzz_seed
        ops = [_local_op(path, local_seed)]
        ops += [_pair_op(*x) for x in fuzz_inputs(fuzz_seed, PAIRS_PER_PASS)]
        out.append(ops)
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lollipop-tail", "lane-steps", 3.5, build_lollipop_tail),
        Workload("lockstep-short", "lane-steps", 3.7, build_lockstep_short),
        Workload("scalar-records", "walk steps", 5.0, build_scalar_records),
        Workload("enum-invariance", "walks compared", 3.3, build_enum_invariance),
    )
}
