"""Command-line front end.

One executable, ten subcommands: gen, walk, record, decode, cover,
reconstruct-test, invariance, mixing, fig3, sr16.  Every randomized
subcommand requires --seed, and given the same arguments and seed the
output is byte-identical regardless of --threads.

Options may come from a key=value config file (--config); explicit
flags override file values, and unknown file keys are rejected rather
than ignored.

Exit codes: 0 success, 1 failed assertion/check, 2 usage error.
"""
from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

from . import cover as cover_mod
from . import mixing as mixing_mod
from .generators import (
    gen_barbell,
    gen_clique,
    gen_csl,
    gen_cycle,
    gen_lollipop,
    gen_path,
    gen_rook4x4,
    gen_shrikhande,
    gen_star,
)
from .graphs import Graph, format_edge_list, parse_edge_list
from .invariance import run_invariance_suite
from .reconstruct import check_reconstruction, decode
from .records import (
    AttributeProvider,
    parse,
    record_anonymized,
    record_attributed,
    record_named_neighbors,
)
from .walks import (
    MDLR,
    Constant,
    Node2Vec,
    RestartPeriod,
    RestartProb,
    Walk,
    WalkConfig,
    sample_walk,
    transition_matrix,
)

__all__ = ["run", "main"]


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# config file merge


def _load_config_file(path: str) -> dict[str, str]:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key = value")
            key, val = line.split("=", 1)
            values[key.strip().replace("-", "_")] = val.strip()
    return values


# Parser defaults for these are None, which hides their type from _coerce.
_NONE_DEFAULT_TYPES: dict[str, type] = {
    "n": int,
    "m": int,
    "s": int,
    "k": int,
    "seed": int,
    "length": int,
    "start": int,
    "restart_period": int,
    "radius": int,
    "restart_prob": float,
}


def _coerce(raw: str, like: object) -> object:
    if isinstance(like, bool):
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise UsageError(f"expected boolean, got {raw!r}")
    if isinstance(like, int):
        return int(raw)
    if isinstance(like, float):
        return float(raw)
    return raw


def _merge_config(args: argparse.Namespace, defaults: dict[str, object]) -> None:
    """Fill argparse results from the config file.

    Parsers set every default to None so an untouched option is
    distinguishable; precedence is flag > file > default.
    """
    file_vals = {}
    if getattr(args, "config", None):
        file_vals = _load_config_file(args.config)
    for key in file_vals:
        if key not in defaults:
            raise UsageError(f"unknown config key {key!r}")
    for key, default in defaults.items():
        if getattr(args, key, None) is not None:
            continue
        if key in file_vals:
            like = _NONE_DEFAULT_TYPES.get(key, str)() if default is None else default
            setattr(args, key, _coerce(file_vals[key], like))
        else:
            setattr(args, key, default)


# ---------------------------------------------------------------------------
# shared pieces

_FAMILIES: dict[str, tuple[Callable[..., Graph], tuple[str, ...]]] = {
    "path": (gen_path, ("n",)),
    "cycle": (gen_cycle, ("n",)),
    "clique": (gen_clique, ("k",)),
    "star": (gen_star, ("k",)),
    "lollipop": (gen_lollipop, ("m",)),
    "barbell": (gen_barbell, ("k",)),
    "csl": (gen_csl, ("n", "s")),
    "rook4x4": (gen_rook4x4, ()),
    "shrikhande": (gen_shrikhande, ()),
}


def _graph_from_args(args: argparse.Namespace) -> tuple[Graph, str]:
    if getattr(args, "graph", None):
        with open(args.graph, encoding="utf-8") as fh:
            return parse_edge_list(fh.read()), args.graph
    family = getattr(args, "family", None)
    if not family:
        raise UsageError("need --graph FILE or --family NAME")
    if family not in _FAMILIES:
        raise UsageError(f"unknown family {family!r} (choices: {sorted(_FAMILIES)})")
    fn, params = _FAMILIES[family]
    kwargs = {}
    label = family
    for p in params:
        val = getattr(args, p, None)
        if val is None:
            raise UsageError(f"family {family!r} needs --{p}")
        kwargs[p] = val
        label += f"-{val}"
    return fn(**kwargs), label


def _walk_config_from_args(args: argparse.Namespace, length: int = 0) -> WalkConfig:
    cond = {"constant": Constant(), "uniform": Constant(), "mdlr": MDLR()}.get(
        args.conductance
    )
    if cond is None:
        raise UsageError(f"unknown conductance {args.conductance!r}")
    node2vec = None
    if args.node2vec:
        try:
            p, q = (float(x) for x in args.node2vec.split(","))
        except ValueError:
            raise UsageError("--node2vec expects P,Q") from None
        node2vec = Node2Vec(p, q)
    restart = None
    if args.restart_prob is not None and args.restart_period is not None:
        raise UsageError("--restart-prob and --restart-period are exclusive")
    if args.restart_prob is not None:
        restart = RestartProb(args.restart_prob)
    if args.restart_period is not None:
        restart = RestartPeriod(args.restart_period)
    try:
        return WalkConfig(
            length=length,
            conductance=cond,
            non_backtracking=args.nb,
            node2vec=node2vec,
            restart=restart,
            seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _walk_label(config: WalkConfig) -> str:
    base = "mdlr" if isinstance(config.conductance, MDLR) else "uniform"
    if config.node2vec is not None:
        # slash, not comma: the label lands in an unquoted CSV field
        base = f"node2vec({config.node2vec.p:g}/{config.node2vec.q:g})"
    if config.non_backtracking:
        base += "+nb"
    if isinstance(config.restart, RestartProb):
        base += f"+restart(a={config.restart.alpha:g})"
    if isinstance(config.restart, RestartPeriod):
        base += f"+restart(k={config.restart.k})"
    return base


def _write_out(args: argparse.Namespace, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _warn_censored(csv: str, budget: int) -> None:
    """One stderr line per cover-CSV cell whose trials censored.

    A cell is the rows of one (graph, walk), one per mode, over the same
    trials.  Censored trials are left out of the mean, which is
    therefore biased low; the CSV keeps the count but says nothing
    louder.  sr16's ``sr16-mean`` rows only sum its graphs' counts.
    """
    cells: dict[tuple[str, str], list[list[str]]] = {}
    for line in csv.splitlines()[1:]:
        # from the right: a graph file's path may hold a comma, a walk label not
        graph, walk, mode, _, _, trials, censored = line.rsplit(",", 6)
        if graph != "sr16-mean":
            cells.setdefault((graph, walk), []).append([mode, trials, censored])
    for (graph, walk), rows in cells.items():
        if any(int(censored) for _, _, censored in rows):
            counts = ", ".join(f"{mode} {censored}" for mode, _, censored in rows)
            print(
                f"warning: {graph} {walk}: censored {counts} of {rows[0][1]} "
                f"trials at budget {budget}; the mean leaves them out and is "
                "biased low",
                file=sys.stderr,
            )


def _format_walk(walk: Walk) -> str:
    parts = [str(walk.vertices[0])]
    for v, flag in zip(walk.vertices[1:], walk.restart_flags[1:]):
        parts.append(f"{v}r" if flag else str(v))
    return " ".join(parts)


def _parse_walk(line: str) -> Walk:
    vertices = []
    flags = []
    for i, token in enumerate(line.split()):
        flag = token.endswith("r")
        raw = token[:-1] if flag else token
        try:
            vertices.append(int(raw))
        except ValueError:
            raise UsageError(f"bad walk token {token!r}") from None
        if flag and i == 0:
            raise UsageError("first walk position cannot be a restart")
        flags.append(flag)
    if not vertices:
        raise UsageError("empty walk line")
    return Walk(tuple(vertices), tuple(flags))


def _require_seed(args: argparse.Namespace) -> None:
    if args.seed is None:
        raise UsageError("this subcommand requires --seed")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args: argparse.Namespace) -> int:
    g, _ = _graph_from_args(args)
    _write_out(args, format_edge_list(g))
    return 0


def _cmd_walk(args: argparse.Namespace) -> int:
    _require_seed(args)
    g, _ = _graph_from_args(args)
    config = _walk_config_from_args(args, length=args.length)
    if args.walks < 1:
        raise UsageError(f"--walks must be >= 1, got {args.walks}")
    lines = []
    for i in range(args.walks):
        walk = sample_walk(g, config, start=args.start, walk_index=i)
        lines.append(_format_walk(walk))
    _write_out(args, "\n".join(lines) + "\n")
    return 0


def _read_attrs(path: str) -> AttributeProvider:
    texts: dict[int, str] = {}
    labels: dict[int, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            cols = line.split("\t")
            if len(cols) < 2:
                raise UsageError(f"{path}:{lineno}: expected vertex<TAB>text")
            texts[int(cols[0])] = cols[1]
            if len(cols) > 2 and cols[2]:
                labels[int(cols[0])] = cols[2]
    return AttributeProvider(vertex_text=texts, labels=labels or None)


def _cmd_record(args: argparse.Namespace) -> int:
    g, _ = _graph_from_args(args)
    if args.walks_file:
        with open(args.walks_file, encoding="utf-8") as fh:
            walk_lines = [l for l in fh.read().splitlines() if l.strip()]
    else:
        walk_lines = [l for l in sys.stdin.read().splitlines() if l.strip()]
    attrs = _read_attrs(args.attrs) if args.attrs else None
    out = []
    for line in walk_lines:
        walk = _parse_walk(line)
        if args.scheme == "anon":
            out.append(record_anonymized(walk).text)
        elif args.scheme == "named":
            out.append(record_named_neighbors(walk, g).text)
        elif args.scheme == "attributed":
            if attrs is None:
                raise UsageError("--scheme attributed requires --attrs FILE")
            out.append(record_attributed(walk, g, attrs))
        else:
            raise UsageError(f"unknown scheme {args.scheme!r}")
    _write_out(args, "\n".join(out) + "\n")
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    if args.text:
        text = args.text.strip()
    elif args.infile:
        with open(args.infile, encoding="utf-8") as fh:
            text = fh.read().strip()
    else:
        text = sys.stdin.read().strip()
    try:
        rec = parse(text)
    except ValueError as exc:
        raise UsageError(f"bad record: {exc}") from None
    _write_out(args, format_edge_list(decode(rec).graph))
    return 0


def _cmd_cover(args: argparse.Namespace) -> int:
    _require_seed(args)
    g, label = _graph_from_args(args)
    config = _walk_config_from_args(args)
    if args.radius is not None:
        if args.start is None:
            raise UsageError("--radius needs --start (the ball's center)")
        stats = cover_mod.local_cover_time(
            g, args.start, args.radius, config, args.mode, args.trials,
            budget=args.budget,
        )
        label = f"{label}-ball{args.radius}"
    else:
        if config.restart is not None:
            raise UsageError("global cover takes no restart; use --radius for local")
        if args.worst_starts and args.start is not None:
            raise UsageError("--worst-starts and --start are exclusive")
        if args.worst_starts:
            policy: cover_mod.StartPolicy = cover_mod.WorstOverStarts()
        elif args.start is not None:
            policy = cover_mod.Fixed(args.start)
        else:
            policy = cover_mod.UniformRandom()
        stats = cover_mod.estimate_cover_time(
            g, config, args.mode, args.trials, policy,
            budget=args.budget, threads=args.threads,
        )
    csv = cover_mod.cover_csv([(label, _walk_label(config), stats)])
    _warn_censored(csv, args.budget)
    _write_out(args, csv)
    return 0


def _cmd_reconstruct_test(args: argparse.Namespace) -> int:
    _require_seed(args)
    g, label = _graph_from_args(args)
    config = _walk_config_from_args(args, length=args.length)
    fraction = check_reconstruction(g, config, args.trials)
    header = "graph,walk,length,trials,covering_fraction"
    row = f"{label},{_walk_label(config)},{args.length},{args.trials},{fraction:.6f}"
    _write_out(args, header + "\n" + row + "\n")
    return 0


def _cmd_invariance(args: argparse.Namespace) -> int:
    _require_seed(args)
    if args.max_n < 2:
        raise UsageError(f"--max-n must be >= 2, got {args.max_n}")
    if args.samples < 0:
        raise UsageError(f"--samples must be >= 0, got {args.samples}")
    if args.perms < 1:
        raise UsageError(f"--perms must be >= 1, got {args.perms}")
    report = run_invariance_suite(
        max_n=args.max_n,
        max_l=args.max_l,
        seed=args.seed,
        samples_per_n=args.samples,
        permutations_per_graph=args.perms,
    )
    _write_out(
        args,
        "all distribution-equality checks passed: "
        f"{report.graphs} graphs, {report.permutations} permutations, "
        f"{report.configs_per_graph} configs each, "
        f"{report.walks_compared} walks compared, "
        f"max probability gap {report.max_probability_gap:.3e}\n",
    )
    return 0


def _cmd_mixing(args: argparse.Namespace) -> int:
    _require_seed(args)
    g, _ = _graph_from_args(args)
    P = transition_matrix(g, Constant())
    lengths = [int(x) for x in args.lengths.split(",")]
    if g.m == 0 and any(l > 0 for l in lengths):
        raise UsageError("vertex 0 has no neighbor to step to")
    lines = ["l,u,v,mc_estimate,exact_value,abs_err"]
    config = WalkConfig(length=0, conductance=Constant(), seed=args.seed)
    cell = 0
    for l in lengths:
        for u in range(g.n):
            freqs = mixing_mod.mc_visit_frequencies(
                g, config, u, l, args.trials, cell=cell, threads=args.threads
            )
            cell += 1
            for v in range(g.n):
                exact = mixing_mod.jacobian_expectation(P, u, v, l)
                mc = float(freqs[v])
                lines.append(
                    f"{l},{u},{v},{mc:.8f},{exact:.8f},{abs(mc - exact):.8f}"
                )
    _write_out(args, "\n".join(lines) + "\n")
    return 0


def _cmd_fig3(args: argparse.Namespace) -> int:
    _require_seed(args)
    sizes = tuple(int(x) for x in args.sizes.split(","))
    csv = cover_mod.experiment_fig3(
        seed=args.seed, sizes=sizes, trials=args.trials,
        budget=args.budget, threads=args.threads,
    )
    _warn_censored(csv, args.budget)
    _write_out(args, csv)
    return 0


def _cmd_sr16(args: argparse.Namespace) -> int:
    _require_seed(args)
    csv = cover_mod.experiment_sr16(
        seed=args.seed, trials=args.trials, threads=args.threads
    )
    # sr16 has no --budget flag; its sampler runs at the default budget
    _warn_censored(csv, cover_mod.DEFAULT_BUDGET)
    _write_out(args, csv)
    return 0


# ---------------------------------------------------------------------------
# parser assembly

_WALK_FLAG_DEFAULTS: dict[str, object] = {
    "conductance": "constant",
    "nb": False,
    "node2vec": "",
    "restart_prob": None,
    "restart_period": None,
}


def _add_graph_flags(sub: argparse.ArgumentParser) -> dict[str, object]:
    sub.add_argument("--graph", help="edge-list file ('n m' header, 'u v' lines)")
    sub.add_argument("--family", help=f"graph family: {', '.join(sorted(_FAMILIES))}")
    sub.add_argument("--n", type=int, help="vertex count (path, cycle, csl)")
    sub.add_argument("--m", type=int, help="clique size (lollipop)")
    sub.add_argument("--s", type=int, help="skip length (csl)")
    sub.add_argument("--k", type=int, help="size parameter (clique, star, barbell)")
    return {"graph": None, "family": None, "n": None, "m": None, "s": None, "k": None}


def _add_walk_flags(sub: argparse.ArgumentParser) -> dict[str, object]:
    sub.add_argument("--conductance", help="constant | mdlr (default constant)")
    sub.add_argument("--nb", action="store_const", const=True,
                     help="non-backtracking steps")
    sub.add_argument("--node2vec", help="P,Q bias (exclusive with --nb)")
    sub.add_argument("--restart-prob", type=float, dest="restart_prob",
                     help="restart probability per step")
    sub.add_argument("--restart-period", type=int, dest="restart_period",
                     help="restart every K steps")
    return dict(_WALK_FLAG_DEFAULTS)


def _add_common(sub: argparse.ArgumentParser, *, seed: bool) -> dict[str, object]:
    sub.add_argument("--config", help="key = value config file; flags override")
    sub.add_argument("--out", help="output file (default stdout)")
    defaults: dict[str, object] = {"config": None, "out": None}
    if seed:
        sub.add_argument("--seed", type=int, help="RNG seed (required)")
        sub.add_argument("--threads", type=int, help="worker threads (default 1)")
        defaults["seed"] = None
        defaults["threads"] = 1
    return defaults


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, dict[str, object]]]:
    parser = argparse.ArgumentParser(
        prog="walklab",
        description="Random-walk recording, reconstruction and cover-time lab.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    all_defaults: dict[str, dict[str, object]] = {}

    sub = subs.add_parser(
        "gen",
        help="emit a family graph as an edge list",
        description="Emit a family graph as an edge list: "
        "an 'n m' header line, then one 'u v' line per edge.",
    )
    d = _add_common(sub, seed=False)
    d.update(_add_graph_flags(sub))
    all_defaults["gen"] = d

    sub = subs.add_parser(
        "walk",
        help="sample walks, one per line",
        description="Sample walks, one per line of space-separated vertices; "
        "a vertex suffixed with 'r' was reached by a restart jump.",
    )
    d = _add_common(sub, seed=True)
    d.update(_add_graph_flags(sub))
    d.update(_add_walk_flags(sub))
    sub.add_argument("--length", type=int, help="steps per walk")
    sub.add_argument("--walks", type=int, help="number of walks (default 1)")
    sub.add_argument("--start", type=int, help="start vertex (default random)")
    d.update({"length": None, "walks": 1, "start": None})
    all_defaults["walk"] = d

    sub = subs.add_parser(
        "record",
        help="turn walk lines into records",
        description="Turn walk lines (the `walk` output format) into records, "
        "one per line: anon/named emit token text (ids joined by '-', ';' for "
        "restarts, '#' for neighbors), attributed emits sentence text.",
    )
    d = _add_common(sub, seed=False)
    d.update(_add_graph_flags(sub))
    sub.add_argument("--scheme", help="anon | named | attributed")
    sub.add_argument("--walks-file", dest="walks_file",
                     help="walk lines from `walk` (default stdin)")
    sub.add_argument("--attrs", help="tab-separated vertex<TAB>text[<TAB>label] file")
    d.update({"scheme": "anon", "walks_file": None, "attrs": None})
    all_defaults["record"] = d

    sub = subs.add_parser(
        "decode",
        help="decode a record into an edge list",
        description="Decode one record (token text) back into the subgraph it "
        "recorded, printed as an edge list ('n m' header, 'u v' lines; record "
        "id k is vertex k-1).",
    )
    d = _add_common(sub, seed=False)
    sub.add_argument("--text", help="record text (default: read stdin)")
    sub.add_argument("--in", dest="infile", help="file holding one record")
    d.update({"text": None, "infile": None})
    all_defaults["decode"] = d

    sub = subs.add_parser(
        "cover",
        help="estimate cover times (CSV)",
        description="Estimate cover times. CSV columns: graph,walk,mode,mean,"
        "std_err,trials,censored; mean/std_err in steps over uncensored "
        "trials, censored counts budget-limited trials.",
    )
    d = _add_common(sub, seed=True)
    d.update(_add_graph_flags(sub))
    d.update(_add_walk_flags(sub))
    sub.add_argument("--mode", help="vertex | edge | edge-strict "
                     "(edge counts either direction; edge-strict wants both)")
    sub.add_argument("--trials", type=int)
    sub.add_argument("--start", type=int, help="fixed start (or ball center)")
    sub.add_argument("--worst-starts", dest="worst_starts", action="store_const",
                     const=True, help="scan all starts, report the worst mean")
    sub.add_argument("--radius", type=int,
                     help="cover the radius-R ball around --start (needs a restart mode)")
    sub.add_argument("--budget", type=int, help="per-trial step budget")
    d.update({"mode": "vertex", "trials": 1000, "start": None,
              "worst_starts": False, "radius": None,
              "budget": cover_mod.DEFAULT_BUDGET})
    all_defaults["cover"] = d

    sub = subs.add_parser(
        "reconstruct-test",
        help="sample walks, decode records, verify reconstruction",
        description="Sample walks, decode their named-neighbor records, and "
        "verify each decoded graph is isomorphic to the walked subgraph "
        "(assertion failure exits 1). CSV columns: graph,walk,length,trials,"
        "covering_fraction.",
    )
    d = _add_common(sub, seed=True)
    d.update(_add_graph_flags(sub))
    d.update(_add_walk_flags(sub))
    sub.add_argument("--length", type=int, help="steps per walk")
    sub.add_argument("--trials", type=int)
    d.update({"length": None, "trials": 1000})
    all_defaults["reconstruct-test"] = d

    sub = subs.add_parser(
        "invariance",
        help="run the relabeling-invariance suite",
        description="Check that relabeling vertices permutes walk "
        "distributions and leaves record distributions untouched, over "
        "enumerated and sampled graphs. Prints a pass report; any violation "
        "exits 1.",
    )
    d = _add_common(sub, seed=True)
    sub.add_argument("--max-n", dest="max_n", type=int, help="largest graph size")
    sub.add_argument("--max-l", dest="max_l", type=int, help="walk length")
    sub.add_argument("--samples", type=int, help="sampled graphs per size above 4")
    sub.add_argument("--perms", type=int, help="permutations per graph")
    d.update({"max_n": 6, "max_l": 4, "samples": 200, "perms": 2})
    all_defaults["invariance"] = d

    sub = subs.add_parser(
        "mixing",
        help="visit frequencies vs averaged matrix powers (CSV)",
        description="Monte Carlo visit frequencies of the uniform walk "
        "against the exact averaged matrix powers. CSV columns: l,u,v,"
        "mc_estimate,exact_value,abs_err.",
    )
    d = _add_common(sub, seed=True)
    d.update(_add_graph_flags(sub))
    sub.add_argument("--trials", type=int)
    sub.add_argument("--lengths", help="comma-separated walk lengths")
    d.update({"trials": 100_000, "lengths": "5,20"})
    all_defaults["mixing"] = d

    sub = subs.add_parser(
        "fig3",
        help="lollipop cover-time table (CSV)",
        description="Cover times over lollipop graphs for the walk-variant "
        "grid, paired vertex/edge per trajectory, uniformly random starts. "
        "CSV columns: graph,walk,mode,mean,std_err,trials,censored.",
    )
    d = _add_common(sub, seed=True)
    sub.add_argument("--sizes", help="comma-separated lollipop m values")
    sub.add_argument("--trials", type=int)
    sub.add_argument("--budget", type=int, help="per-trial step budget")
    d.update({"sizes": "10,20,40", "trials": 2000, "budget": 100_000})
    all_defaults["fig3"] = d

    sub = subs.add_parser(
        "sr16",
        help="strongly regular pair cover times (CSV)",
        description="Cover times of the 4x4 rook's and Shrikhande graphs "
        "under the minimum-degree non-backtracking walk, plus their average "
        "(rows graph=sr16-mean); edge rows use mode edge-strict (both "
        "directions). CSV columns: graph,walk,mode,mean,std_err,trials,"
        "censored.",
    )
    d = _add_common(sub, seed=True)
    sub.add_argument("--trials", type=int)
    d.update({"trials": 10_000})
    all_defaults["sr16"] = d

    return parser, all_defaults


_COMMANDS = {
    "gen": _cmd_gen,
    "walk": _cmd_walk,
    "record": _cmd_record,
    "decode": _cmd_decode,
    "cover": _cmd_cover,
    "reconstruct-test": _cmd_reconstruct_test,
    "invariance": _cmd_invariance,
    "mixing": _cmd_mixing,
    "fig3": _cmd_fig3,
    "sr16": _cmd_sr16,
}


def run(argv: Sequence[str]) -> int:
    parser, all_defaults = _build_parser()
    # argparse exits(2) on usage problems; translate to a return code
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _merge_config(args, all_defaults[args.command])
        if getattr(args, "threads", 1) < 1:
            raise UsageError(f"--threads must be >= 1, got {args.threads}")
        if args.command == "walk" and args.length is None:
            raise UsageError("walk requires --length")
        if args.command == "reconstruct-test" and args.length is None:
            raise UsageError("reconstruct-test requires --length")
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
