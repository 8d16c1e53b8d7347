"""Command-line front end.

One executable, ten subcommands: gen, walk, record, decode, cover,
reconstruct-test, invariance, mixing, fig3, sr16.  Every randomized
subcommand requires --seed, and given the same arguments and seed the
output is byte-identical regardless of --threads.

Options may come from a key=value config file (--config); explicit
flags override file values, file values pass the flags' type and range
checks, and unknown file keys are rejected rather than ignored.

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
# config files and option types


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


def _parse_bool(key: str, raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    flag = "--" + key.replace("_", "-")
    raise UsageError(f"argument {flag}: expected a boolean, got {raw!r}")


def _apply_config(args: argparse.Namespace, sub: argparse.ArgumentParser) -> None:
    """Make the config file's values ``sub``'s defaults.

    The caller then parses argv again.  argparse runs a string default
    through the option's ``type``, so a file value gets the flag's
    conversion and range check, and a flag on the command line still
    wins.  Only booleans are parsed here: store_true takes no type.
    """
    values: dict[str, object] = dict(_load_config_file(args.config))
    for key, raw in values.items():
        if key == "command" or key not in vars(args):
            raise UsageError(f"unknown config key {key!r}")
        if isinstance(getattr(args, key), bool):
            values[key] = _parse_bool(key, raw)
    sub.set_defaults(**values)


def _at_least(low: int) -> Callable[[str], int]:
    """argparse type: an int no smaller than ``low``."""

    def parse(raw: str) -> int:
        value = int(raw)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def _open_unit_interval(raw: str) -> float:
    """argparse type: a float strictly between 0 and 1."""
    value = float(raw)
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {value}")
    return value


_open_unit_interval.__name__ = "float"  # argparse names it in "invalid float value"


def _positive_pair(raw: str) -> tuple[float, float]:
    """argparse type: ``P,Q`` with both floats positive."""
    try:
        p, q = (float(x) for x in raw.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected P,Q, got {raw!r}") from None
    if not (p > 0 and q > 0):
        raise argparse.ArgumentTypeError(f"P and Q must be positive, got {raw!r}")
    return p, q


def _one_of(*names: str) -> dict:
    """``add_argument`` keywords for a string option limited to ``names``.

    ``choices`` checks argv and shows the names in the usage line; the
    ``type`` applies the same check to config-file values, which argparse
    converts with ``type`` but does not check against ``choices``.
    """

    def parse(raw: str) -> str:
        if raw not in names:
            raise argparse.ArgumentTypeError(
                f"invalid choice: {raw!r} (choose from {', '.join(names)})")
        return raw

    parse.__name__ = "choice"
    return {"type": parse, "choices": names}


def _int_list(low: int) -> Callable[[str], tuple[int, ...]]:
    """argparse type: comma-separated ints, each no smaller than ``low``."""
    item = _at_least(low)

    def parse(raw: str) -> tuple[int, ...]:
        return tuple(item(x) for x in raw.split(","))

    parse.__name__ = "int list"
    return parse


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
    cond = MDLR() if args.conductance == "mdlr" else Constant()
    node2vec = Node2Vec(*args.node2vec) if args.node2vec else None
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


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args: argparse.Namespace) -> int:
    g, _ = _graph_from_args(args)
    _write_out(args, format_edge_list(g))
    return 0


def _cmd_walk(args: argparse.Namespace) -> int:
    g, _ = _graph_from_args(args)
    config = _walk_config_from_args(args, length=args.length)
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
        else:
            if attrs is None:
                raise UsageError("--scheme attributed requires --attrs FILE")
            out.append(record_attributed(walk, g, attrs))
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
    g, label = _graph_from_args(args)
    config = _walk_config_from_args(args)
    if args.radius is not None:
        if args.worst_starts:
            raise UsageError("--worst-starts and --radius are exclusive")
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
    g, label = _graph_from_args(args)
    config = _walk_config_from_args(args, length=args.length)
    fraction = check_reconstruction(g, config, args.trials)
    header = "graph,walk,length,trials,covering_fraction"
    row = f"{label},{_walk_label(config)},{args.length},{args.trials},{fraction:.6f}"
    _write_out(args, header + "\n" + row + "\n")
    return 0


def _cmd_invariance(args: argparse.Namespace) -> int:
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
    g, _ = _graph_from_args(args)
    P = transition_matrix(g, Constant())
    if g.m == 0 and any(l > 0 for l in args.lengths):
        raise UsageError("vertex 0 has no neighbor to step to")
    lines = ["l,u,v,mc_estimate,exact_value,abs_err"]
    config = WalkConfig(length=0, conductance=Constant(), seed=args.seed)
    cell = 0
    for l in args.lengths:
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
    csv = cover_mod.experiment_fig3(
        seed=args.seed, sizes=args.sizes, trials=args.trials,
        budget=args.budget, threads=args.threads,
    )
    _warn_censored(csv, args.budget)
    _write_out(args, csv)
    return 0


def _cmd_sr16(args: argparse.Namespace) -> int:
    csv = cover_mod.experiment_sr16(
        seed=args.seed, trials=args.trials, threads=args.threads
    )
    # sr16 has no --budget flag; its sampler runs at the default budget
    _warn_censored(csv, cover_mod.DEFAULT_BUDGET)
    _write_out(args, csv)
    return 0


# ---------------------------------------------------------------------------
# parser assembly

def _add_graph_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--graph", help="edge-list file ('n m' header, 'u v' lines)")
    sub.add_argument("--family", help=f"graph family: {', '.join(sorted(_FAMILIES))}")
    sub.add_argument("--n", type=int, help="vertex count (path, cycle, csl)")
    sub.add_argument("--m", type=int, help="clique size (lollipop)")
    sub.add_argument("--s", type=int, help="skip length (csl)")
    sub.add_argument("--k", type=int, help="size parameter (clique, star, barbell)")


def _add_walk_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--conductance", default="constant",
                     **_one_of("constant", "uniform", "mdlr"),
                     help="edge conductance; uniform is constant (default constant)")
    sub.add_argument("--nb", action="store_true", help="non-backtracking steps")
    sub.add_argument("--node2vec", type=_positive_pair, metavar="P,Q",
                     help="return and in-out bias, both positive (exclusive with --nb)")
    sub.add_argument("--restart-prob", type=_open_unit_interval, dest="restart_prob",
                     help="restart probability per step, in (0, 1)")
    sub.add_argument("--restart-period", type=_at_least(1), dest="restart_period",
                     help="restart every K steps, K >= 1")


def _add_common(sub: argparse.ArgumentParser, *, seed: bool) -> None:
    sub.add_argument("--config", help="key = value config file; flags override")
    sub.add_argument("--out", help="output file (default stdout)")
    if seed:
        sub.add_argument("--seed", type=int, help="RNG seed (required)")
        sub.add_argument("--threads", type=_at_least(1), default=1,
                         help="worker threads (default 1)")


def _build_parser() -> tuple[argparse.ArgumentParser, argparse._SubParsersAction]:
    parser = argparse.ArgumentParser(
        prog="walklab",
        description="Random-walk recording, reconstruction and cover-time lab.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser(
        "gen",
        help="emit a family graph as an edge list",
        description="Emit a family graph as an edge list: "
        "an 'n m' header line, then one 'u v' line per edge.",
    )
    _add_common(sub, seed=False)
    _add_graph_flags(sub)

    sub = subs.add_parser(
        "walk",
        help="sample walks, one per line",
        description="Sample walks, one per line of space-separated vertices; "
        "a vertex suffixed with 'r' was reached by a restart jump.",
    )
    _add_common(sub, seed=True)
    _add_graph_flags(sub)
    _add_walk_flags(sub)
    sub.add_argument("--length", type=_at_least(0), help="steps per walk (required)")
    sub.add_argument("--walks", type=_at_least(1), default=1,
                     help="number of walks (default 1)")
    sub.add_argument("--start", type=int, help="start vertex (default random)")

    sub = subs.add_parser(
        "record",
        help="turn walk lines into records",
        description="Turn walk lines (the `walk` output format) into records, "
        "one per line: anon/named emit token text (ids joined by '-', ';' for "
        "restarts, '#' for neighbors), attributed emits sentence text.",
    )
    _add_common(sub, seed=False)
    _add_graph_flags(sub)
    sub.add_argument("--scheme", default="anon", help="record scheme (default anon)",
                     **_one_of("anon", "named", "attributed"))
    sub.add_argument("--walks-file", dest="walks_file",
                     help="walk lines from `walk` (default stdin)")
    sub.add_argument("--attrs", help="tab-separated vertex<TAB>text[<TAB>label] file")

    sub = subs.add_parser(
        "decode",
        help="decode a record into an edge list",
        description="Decode one record (token text) back into the subgraph it "
        "recorded, printed as an edge list ('n m' header, 'u v' lines; record "
        "id k is vertex k-1).",
    )
    _add_common(sub, seed=False)
    sub.add_argument("--text", help="record text (default: read stdin)")
    sub.add_argument("--in", dest="infile", help="file holding one record")

    sub = subs.add_parser(
        "cover",
        help="estimate cover times (CSV)",
        description="Estimate cover times. CSV columns: graph,walk,mode,mean,"
        "std_err,trials,censored; mean/std_err in steps over uncensored "
        "trials, censored counts budget-limited trials.",
    )
    _add_common(sub, seed=True)
    _add_graph_flags(sub)
    _add_walk_flags(sub)
    sub.add_argument("--mode", default="vertex",
                     **_one_of("vertex", "edge", "edge-strict"),
                     help="edge counts either direction, edge-strict wants both "
                     "(default vertex)")
    sub.add_argument("--trials", type=_at_least(1), default=1000)
    sub.add_argument("--start", type=int, help="fixed start (or ball center)")
    sub.add_argument("--worst-starts", dest="worst_starts", action="store_true",
                     help="scan all starts, report the worst mean")
    sub.add_argument("--radius", type=_at_least(0),
                     help="cover the radius-R ball around --start (needs a restart mode)")
    sub.add_argument("--budget", type=_at_least(1), default=cover_mod.DEFAULT_BUDGET,
                     help="per-trial step budget")

    sub = subs.add_parser(
        "reconstruct-test",
        help="sample walks, decode records, verify reconstruction",
        description="Sample walks, decode their named-neighbor records, and "
        "verify each decoded graph is isomorphic to the walked subgraph "
        "(assertion failure exits 1). CSV columns: graph,walk,length,trials,"
        "covering_fraction.",
    )
    _add_common(sub, seed=True)
    _add_graph_flags(sub)
    _add_walk_flags(sub)
    sub.add_argument("--length", type=_at_least(0), help="steps per walk (required)")
    sub.add_argument("--trials", type=_at_least(1), default=1000)

    sub = subs.add_parser(
        "invariance",
        help="run the relabeling-invariance suite",
        description="Check that relabeling vertices permutes walk "
        "distributions and leaves record distributions untouched, over "
        "enumerated and sampled graphs. Prints a pass report; any violation "
        "exits 1.",
    )
    _add_common(sub, seed=True)
    sub.add_argument("--max-n", dest="max_n", type=_at_least(2), default=6,
                     help="largest graph size")
    sub.add_argument("--max-l", dest="max_l", type=_at_least(0), default=4,
                     help="walk length")
    sub.add_argument("--samples", type=_at_least(0), default=200,
                     help="sampled graphs per size above 4")
    sub.add_argument("--perms", type=_at_least(1), default=2,
                     help="permutations per graph")

    sub = subs.add_parser(
        "mixing",
        help="visit frequencies vs averaged matrix powers (CSV)",
        description="Monte Carlo visit frequencies of the uniform walk "
        "against the exact averaged matrix powers. CSV columns: l,u,v,"
        "mc_estimate,exact_value,abs_err.",
    )
    _add_common(sub, seed=True)
    _add_graph_flags(sub)
    sub.add_argument("--trials", type=_at_least(1), default=100_000)
    sub.add_argument("--lengths", type=_int_list(0), default="5,20",
                     help="comma-separated walk lengths")

    sub = subs.add_parser(
        "fig3",
        help="lollipop cover-time table (CSV)",
        description="Cover times over lollipop graphs for the walk-variant "
        "grid, paired vertex/edge per trajectory, uniformly random starts. "
        "CSV columns: graph,walk,mode,mean,std_err,trials,censored.",
    )
    _add_common(sub, seed=True)
    sub.add_argument("--sizes", type=_int_list(2), default="10,20,40",
                     help="comma-separated lollipop m values")
    sub.add_argument("--trials", type=_at_least(1), default=2000)
    sub.add_argument("--budget", type=_at_least(1), default=100_000,
                     help="per-trial step budget")

    sub = subs.add_parser(
        "sr16",
        help="strongly regular pair cover times (CSV)",
        description="Cover times of the 4x4 rook's and Shrikhande graphs "
        "under the minimum-degree non-backtracking walk, plus their average "
        "(rows graph=sr16-mean); edge rows use mode edge-strict (both "
        "directions). CSV columns: graph,walk,mode,mean,std_err,trials,"
        "censored.",
    )
    _add_common(sub, seed=True)
    sub.add_argument("--trials", type=_at_least(1), default=10_000)

    return parser, subs


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
    parser, subs = _build_parser()
    argv = list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            _apply_config(args, subs.choices[args.command])
            args = parser.parse_args(argv)
        for key in ("seed", "length"):
            if key in vars(args) and getattr(args, key) is None:
                raise UsageError(f"{args.command} requires --{key}")
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # argparse exits 2 on usage problems, 0 on --help
        return int(exc.code or 0)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
