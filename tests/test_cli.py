"""Command-line interface: exit codes, config merging, CSV output."""
import ast
import csv
import io
import os
import pathlib
import resource
import subprocess
import sys

import pytest

import walklab

from walklab import (
    Node2Vec,
    WalkConfig,
    estimate_cover_time,
    experiment_fig3,
    experiment_sr16,
    format_edge_list,
    gen_clique,
    gen_cycle,
    gen_path,
)
from walklab import cli as cli_mod
from walklab import cover as cover_mod
from walklab import invariance as invariance_mod
from walklab import records as records_mod
from walklab.cli import run


def out_of(capsys):
    return capsys.readouterr().out


# -- exit codes ----------------------------------------------------------------


def test_no_subcommand_is_a_usage_error(capsys):
    assert run([]) == 2


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert run(["frobnicate"]) == 2


def test_missing_seed_is_a_usage_error(capsys):
    rc = run(["cover", "--family", "cycle", "--n", "3", "--trials", "4"])
    assert rc == 2
    assert "--seed" in capsys.readouterr().err


def test_bad_record_is_a_usage_error(capsys):
    assert run(["decode", "--text", "1-3"]) == 2
    assert "bad record" in capsys.readouterr().err


@pytest.mark.parametrize("argv,stdin,why", [
    (["decode", "--text", ""], "1-2-3\n", "bad record: malformed record text: ''"),
    (["decode", "--in", ""], "1-2\n", "[Errno 2] No such file or directory: ''"),
    (["record", "--family", "path", "--n", "3", "--walks-file", ""], "0 1 2\n",
     "[Errno 2] No such file or directory: ''"),
    (["gen", "--family", "path", "--n", "3", "--out", ""], "",
     "[Errno 2] No such file or directory: ''"),
    (["gen", "--graph", "", "--family", "path", "--n", "2"], "",
     "[Errno 2] No such file or directory: ''"),
    (["record", "--family", "path", "--n", "3", "--scheme", "attributed", "--attrs", ""],
     "0 1 2\n", "[Errno 2] No such file or directory: ''"),
    (["gen", "--family", "", "--n", "3"], "",
     "unknown family '' (choices: ['barbell', 'clique', 'csl', 'cycle', 'lollipop', "
     "'path', 'rook4x4', 'shrikhande', 'star'])"),
], ids=["decode-text", "decode-in", "record-walks-file", "gen-out", "gen-graph",
        "record-attrs", "gen-family"])
def test_an_empty_string_option_is_not_an_absent_one(argv, stdin, why, capsys, monkeypatch):
    # an empty text, path or family is refused, not read as stdin, stdout,
    # the family or a missing flag
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {why}\n"


def test_an_empty_config_value_is_an_empty_option(tmp_path, capsys):
    cfg = tmp_path / "gen.conf"
    cfg.write_text("family = path\nn = 3\nout =\n")
    assert run(["gen", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: [Errno 2] No such file or directory: ''\n"


def test_missing_graph_spec_is_a_usage_error(capsys):
    assert run(["walk", "--length", "3", "--seed", "1"]) == 2


def test_family_parameter_mismatch(capsys):
    assert run(["gen", "--family", "lollipop", "--n", "4"]) == 2
    assert run(["gen", "--family", "nosuch", "--n", "4"]) == 2


def test_exclusive_restart_flags(capsys):
    rc = run([
        "walk", "--family", "cycle", "--n", "3", "--length", "3",
        "--seed", "1", "--restart-prob", "0.3", "--restart-period", "2",
    ])
    assert rc == 2


def test_threads_below_one_is_a_usage_error(capsys):
    rc = run([
        "cover", "--family", "cycle", "--n", "4", "--trials", "5",
        "--seed", "1", "--threads", "0",
    ])
    assert rc == 2
    assert "--threads" in capsys.readouterr().err


def test_walks_below_one_is_a_usage_error(capsys):
    rc = run([
        "walk", "--family", "cycle", "--n", "4", "--length", "3",
        "--seed", "1", "--walks", "0",
    ])
    assert rc == 2
    assert "--walks" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["cover", "--family", "cycle", "--n", "4", "--trials", "5"],
    ["cover", "--family", "path", "--n", "9", "--start", "4", "--radius", "1",
     "--restart-prob", "0.5", "--trials", "5"],
    ["fig3", "--sizes", "4", "--trials", "8"],
])
def test_budget_below_one_is_a_usage_error(argv, capsys):
    assert run(argv + ["--seed", "1", "--budget", "0"]) == 2
    captured = capsys.readouterr()
    assert "budget" in captured.err
    assert captured.out == ""


def test_invariance_perms_below_one_is_a_usage_error(capsys):
    rc = run(["invariance", "--max-n", "3", "--max-l", "0", "--seed", "1",
              "--perms", "0"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "--perms" in captured.err
    assert captured.out == ""


def test_invariance_max_n_below_two_is_a_usage_error(capsys):
    rc = run(["invariance", "--max-n", "1", "--max-l", "1", "--seed", "1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "--max-n" in captured.err
    assert captured.out == ""


def test_invariance_negative_samples_is_a_usage_error(capsys):
    rc = run(["invariance", "--max-n", "5", "--max-l", "1", "--seed", "1",
              "--samples", "-1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "--samples" in captured.err
    assert captured.out == ""


def test_invariance_refuses_a_deep_tree_before_enumerating(monkeypatch, capsys):
    # the restart class at length 1099 is beyond the guard; the
    # restart-free classes on the one-edge graph are not, but a refused
    # run enumerates nothing at all
    def enumerate_nothing(*args):
        raise AssertionError("a refused run enumerated a walk tree")

    monkeypatch.setattr(invariance_mod, "_Forest", enumerate_nothing)
    # the bound runs to 331 digits at length 1099, and at 19,999 past the
    # 4,300 digits Python converts to text; the one-line refusal stays short
    for max_l in ("1100", "20000"):
        rc = run(["invariance", "--seed", "1", "--max-n", "2", "--samples", "0",
                  "--max-l", max_l])
        assert rc == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert "exceeds guard" in line and len(line) < 100
        assert captured.out == ""


@pytest.mark.parametrize("argv,flag", [
    (["cover", "--family", "cycle", "--n", "4", "--trials", "0"], "--trials"),
    (["reconstruct-test", "--family", "cycle", "--n", "3", "--length", "4",
      "--trials", "0"], "--trials"),
    (["mixing", "--family", "cycle", "--n", "3", "--trials", "0"], "--trials"),
    (["fig3", "--sizes", "4", "--trials", "0"], "--trials"),
    (["sr16", "--trials", "0"], "--trials"),
    (["sr16", "--trials", "x"], "--trials"),
    (["mixing", "--family", "cycle", "--n", "3", "--lengths", "-2"], "--lengths"),
    (["mixing", "--family", "cycle", "--n", "3", "--lengths", "5,x"], "--lengths"),
    (["fig3", "--sizes", "4,1"], "--sizes"),
    (["walk", "--family", "cycle", "--n", "3", "--length", "-1"], "--length"),
    (["cover", "--family", "path", "--n", "9", "--start", "4", "--radius", "-1",
      "--restart-prob", "0.5"], "--radius"),
    (["invariance", "--max-n", "3", "--max-l", "-1"], "--max-l"),
    (["cover", "--family", "cycle", "--n", "4", "--budget", "0"], "--budget"),
])
def test_out_of_range_flag_names_the_flag(argv, flag, capsys):
    assert run(argv + ["--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: " in captured.err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_seed_names_the_flag(source, tmp_path, capsys):
    argv = ["walk", "--family", "cycle", "--n", "3", "--length", "2"]
    if source == "flag":
        argv += ["--seed", "-1"]
    else:
        conf = tmp_path / "walk.conf"
        conf.write_text("seed = -1\n")
        argv += ["--config", str(conf)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --seed: must be >= 0, got -1" in captured.err


BAD_WALK_VALUES = [
    ("walk", "restart-period", "0"),
    ("walk", "restart-period", "x"),
    ("walk", "restart-prob", "1.5"),
    ("walk", "restart-prob", "0"),
    ("walk", "restart-prob", "abc"),
    ("walk", "node2vec", "1,0"),
    ("walk", "node2vec", "-1,2"),
    ("walk", "node2vec", "2"),
    ("walk", "node2vec", "inf,1"),
    ("walk", "node2vec", "1e-320,1"),
    ("walk", "conductance", "fast"),
    ("cover", "mode", "edges"),
    ("record", "scheme", "plain"),
]


def _bad_value_argv(sub, tail):
    graph = ["--family", "cycle", "--n", "4"]
    extra = {"walk": ["--length", "3", "--seed", "1"],
             "cover": ["--trials", "3", "--seed", "1"], "record": []}[sub]
    return [sub, *graph, *extra, *tail]


@pytest.mark.parametrize("sub,key,value", BAD_WALK_VALUES)
def test_bad_flag_value_names_the_flag(sub, key, value, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0 1 2\n"))
    assert run(_bad_value_argv(sub, [f"--{key}", value])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --{key}: " in captured.err


@pytest.mark.parametrize("value", ["1,0", "-1,2", "inf,1", "1e-320,1"])
def test_bad_node2vec_shows_its_own_refusal(value, capsys):
    # the flag passes Node2Vec's wording on rather than stating the rule again
    with pytest.raises(ValueError) as refused:
        Node2Vec(*(float(x) for x in value.split(",")))
    assert run(_bad_value_argv("walk", [f"--node2vec={value}"])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"argument --node2vec: {refused.value}\n")


@pytest.mark.parametrize("flag,why", [
    (["--node2vec", "-1,2"], "expected one argument"),
    (["--node2vec=-1,2"], "p and q must be positive and finite, with finite reciprocals, "
                          "got p=-1.0, q=2.0"),
], ids=["bare", "joined"])
def test_negative_node2vec_value_needs_the_joined_form(flag, why):
    # argparse reads a bare value that starts with '-' as a flag, so only
    # --node2vec=P,Q reaches Node2Vec's refusal; either way one error line
    src = pathlib.Path(walklab.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-m", "walklab", *_bad_value_argv("walk", flag)],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 2 and done.stdout == ""
    assert "Traceback" not in done.stderr
    errors = [line for line in done.stderr.splitlines() if "error:" in line]
    assert errors == [f"walklab walk: error: argument --node2vec: {why}"]


@pytest.mark.parametrize("sub,key,value", BAD_WALK_VALUES)
def test_bad_config_value_names_the_flag(sub, key, value, tmp_path, capsys,
                                         monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0 1 2\n"))
    conf = tmp_path / "bad.conf"
    conf.write_text(f"{key} = {value}\n")
    assert run(_bad_value_argv(sub, ["--config", str(conf)])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --{key}: " in captured.err


@pytest.mark.parametrize("line,label", [
    ("node2vec = 2,0.5", "node2vec(2/0.5)"),
    ("conductance = mdlr", "mdlr"),
    ("conductance = uniform", "uniform"),
    ("restart_period = 3", "uniform+restart(k=3)"),
])
def test_config_walk_values_reach_the_walk(tmp_path, capsys, line, label):
    conf = tmp_path / "rt.conf"
    conf.write_text(f"family = cycle\nn = 4\nlength = 6\ntrials = 3\n{line}\n")
    assert run(["reconstruct-test", "--config", str(conf), "--seed", "1"]) == 0
    assert out_of(capsys).splitlines()[1].split(",")[1] == label


def test_python_dash_m_runs_the_cli(capsys):
    # a checkout without an install: the package on PYTHONPATH is enough
    src = pathlib.Path(walklab.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = ["walk", "--family", "cycle", "--n", "4", "--length", "5", "--walks", "3",
            "--seed", "1"]
    proc = subprocess.run([sys.executable, "-m", "walklab", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert run(argv) == 0
    assert proc.stdout == out_of(capsys)
    bad = subprocess.run(
        [sys.executable, "-m", "walklab", *argv, "--restart-period", "0"],
        env=env, capture_output=True, text=True, timeout=60)
    assert bad.returncode == 2 and bad.stdout == ""
    assert "argument --restart-period: " in bad.stderr


def test_single_vertex_walk_is_a_usage_error(tmp_path, capsys):
    gfile = tmp_path / "one.txt"
    gfile.write_text("1 0\n")
    rc = run(["walk", "--graph", str(gfile), "--length", "3", "--seed", "1"])
    assert rc == 2
    assert "no neighbor" in capsys.readouterr().err


@pytest.mark.parametrize("sub", ["walk", "reconstruct-test"])
def test_single_vertex_walk_refusal_text(tmp_path, capsys, sub):
    gfile = tmp_path / "one.txt"
    gfile.write_text("1 0\n")
    assert run([sub, "--graph", str(gfile), "--length", "2", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: vertex 0 has no neighbor to step to\n")


def test_disconnected_graph_error_stays_short(tmp_path, capsys):
    gfile = tmp_path / "isolated.txt"
    gfile.write_text("100000 0\n")
    assert run(["gen", "--graph", str(gfile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: graph is disconnected: 100000 components ")
    assert len(err.encode()) < 300


@pytest.mark.parametrize("argv,size", [
    (["mixing", "--family", "path", "--n", "30000", "--lengths", "1", "--trials", "1"],
     "6.71 GiB"),
    (["cover", "--family", "star", "--k", "20000", "--trials", "1"], "2.98 GiB"),
], ids=["mixing-dense-P", "cover-padded-rows"])
def test_running_out_of_memory_is_a_usage_error(argv, size):
    # each run needs an array of several GiB; under a 1 GiB address-space
    # cap numpy refuses it, and the refusal is one error line with its size
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = pathlib.Path(walklab.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-m", "walklab", *argv, "--seed", "1"],
                          capture_output=True, text=True, timeout=60, preexec_fn=cap_memory,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 2 and done.stdout == ""
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: out of memory: ")
    assert size in done.stderr and done.stderr.count("\n") == 1


def test_single_vertex_cover_is_zero(tmp_path, capsys):
    gfile = tmp_path / "one.txt"
    gfile.write_text("1 0\n")
    for mode in ("vertex", "edge"):
        rc = run([
            "cover", "--graph", str(gfile), "--mode", mode, "--trials", "4",
            "--seed", "1",
        ])
        assert rc == 0
        row = out_of(capsys).splitlines()[1].split(",")
        assert row[2:] == [mode, "0.000000", "0.000000", "4", "0"]


def test_single_vertex_mixing_at_length_zero(tmp_path, capsys):
    gfile = tmp_path / "one.txt"
    gfile.write_text("1 0\n")
    rc = run(["mixing", "--graph", str(gfile), "--lengths", "0", "--trials", "8",
              "--seed", "1"])
    assert rc == 0
    assert out_of(capsys) == (
        "l,u,v,mc_estimate,exact_value,abs_err\n0,0,0,1.00000000,1.00000000,0.00000000\n"
    )


@pytest.mark.parametrize("lengths", ["1", "0,3", "5,0"])
def test_single_vertex_mixing_cannot_step(tmp_path, capsys, lengths):
    gfile = tmp_path / "one.txt"
    gfile.write_text("1 0\n")
    rc = run(["mixing", "--graph", str(gfile), "--lengths", lengths, "--trials", "8",
              "--seed", "1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: vertex 0 has no neighbor to step to\n")


# -- gen / walk / record / decode pipeline --------------------------------------


def test_gen_writes_edge_list(capsys):
    assert run(["gen", "--family", "path", "--n", "3"]) == 0
    assert out_of(capsys) == format_edge_list(gen_path(3))


def test_gen_to_file(tmp_path):
    target = tmp_path / "g.txt"
    assert run(["gen", "--family", "cycle", "--n", "4", "--out", str(target)]) == 0
    assert target.read_text() == format_edge_list(gen_cycle(4))


def test_graph_file_input_roundtrips(tmp_path, capsys):
    gfile = tmp_path / "g.txt"
    gfile.write_text(format_edge_list(gen_cycle(5)))
    assert run(["gen", "--graph", str(gfile)]) == 0
    assert out_of(capsys) == format_edge_list(gen_cycle(5))


@pytest.mark.parametrize("text,lineno", [("a b\n", 1), ("3 2\n0 1\n1 b\n", 3)],
                         ids=["header", "edge-line"])
def test_graph_file_with_a_non_integer_field_names_the_line(tmp_path, capsys,
                                                            text, lineno):
    gfile = tmp_path / "g.txt"
    gfile.write_text(text)
    assert run(["gen", "--graph", str(gfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    line = text.splitlines()[lineno - 1]
    assert captured.err.startswith(f"error: line {lineno}: {line!r} is not an integer ")


@pytest.mark.parametrize(
    "text,message",
    [("3\n0 1\n1 2\n", "line 1: expected 'n m' header, got ['3']"),
     ("3 2\n0 1 9\n1 2\n", "line 2: expected 'u v' edge line, got ['0', '1', '9']")],
    ids=["header", "edge-line"],
)
def test_graph_file_with_a_wrong_field_count_names_the_line(tmp_path, capsys,
                                                            text, message):
    gfile = tmp_path / "g.txt"
    gfile.write_text(text)
    assert run(["gen", "--graph", str(gfile)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_walk_output_shape(capsys):
    rc = run([
        "walk", "--family", "cycle", "--n", "4", "--length", "5",
        "--walks", "3", "--seed", "9",
    ])
    assert rc == 0
    lines = out_of(capsys).strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        assert len(line.split()) == 6


def test_walk_restart_marker(capsys):
    rc = run([
        "walk", "--family", "cycle", "--n", "3", "--length", "40",
        "--walks", "8", "--seed", "4", "--restart-prob", "0.5",
    ])
    assert rc == 0
    assert "r" in out_of(capsys)


def test_pipeline_walk_record_decode(tmp_path, capsys):
    gfile = tmp_path / "g.txt"
    wfile = tmp_path / "walks.txt"
    rfile = tmp_path / "recs.txt"
    assert run(["gen", "--family", "clique", "--k", "4", "--out", str(gfile)]) == 0
    assert run([
        "walk", "--graph", str(gfile), "--length", "12", "--walks", "5",
        "--seed", "2", "--out", str(wfile),
    ]) == 0
    assert run([
        "record", "--graph", str(gfile), "--walks-file", str(wfile),
        "--scheme", "named", "--out", str(rfile),
    ]) == 0
    records = rfile.read_text().strip().splitlines()
    assert len(records) == 5
    # a 12-step named walk on K4 covers the vertices with overwhelming
    # probability, and then the neighbor announcements pin every edge; the
    # decode relabels by first visit, which on a clique changes nothing
    assert run(["decode", "--text", records[0]]) == 0
    assert out_of(capsys) == format_edge_list(gen_clique(4))


def test_decode_matches_source_after_covering_walk(tmp_path, capsys):
    gfile = tmp_path / "g.txt"
    assert run(["gen", "--family", "clique", "--k", "3", "--out", str(gfile)]) == 0
    assert run([
        "walk", "--graph", str(gfile), "--length", "10", "--walks", "1",
        "--seed", "6", "--out", str(tmp_path / "w.txt"),
    ]) == 0
    assert run([
        "record", "--graph", str(gfile),
        "--walks-file", str(tmp_path / "w.txt"), "--scheme", "anon",
    ]) == 0
    rec = out_of(capsys).strip()
    assert run(["decode", "--text", rec]) == 0
    assert out_of(capsys) == format_edge_list(gen_cycle(3))


def test_record_attributed_via_files(tmp_path, capsys):
    gfile = tmp_path / "g.txt"
    wfile = tmp_path / "w.txt"
    afile = tmp_path / "attrs.tsv"
    gfile.write_text(format_edge_list(gen_path(2)))
    wfile.write_text("0 1\n")
    afile.write_text("0\tAlpha\tcs\n1\tBeta\tstat\n")
    rc = run([
        "record", "--graph", str(gfile), "--walks-file", str(wfile),
        "--scheme", "attributed", "--attrs", str(afile),
    ])
    assert rc == 0
    # the opening sentence never carries a category, only stepped-on
    # first visits do
    assert out_of(capsys) == (
        "Paper 1 - Title: Alpha"
        " Paper 1 is linked to Paper 2 - Title: Beta, Category: stat\n"
    )


def test_record_attrs_with_non_integer_vertex_names_file_and_line(tmp_path, capsys,
                                                                 monkeypatch):
    afile = tmp_path / "attrs.tsv"
    afile.write_text("0\tAlpha\nx\tT\n")
    monkeypatch.setattr("sys.stdin", io.StringIO("0 1\n"))
    rc = run(["record", "--family", "path", "--n", "2", "--scheme", "attributed",
              "--attrs", str(afile)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{afile}:2: vertex 'x' is not an integer" in captured.err


class _Unread(io.StringIO):
    def read(self, *args):
        raise AssertionError("stdin was read")


def test_record_attributed_without_attrs_fails_before_reading_walks(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", _Unread())
    rc = run(["record", "--family", "path", "--n", "2", "--scheme", "attributed"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--scheme attributed requires --attrs FILE" in captured.err


def test_record_rejects_walk_off_graph(tmp_path, capsys):
    gfile = tmp_path / "g.txt"
    wfile = tmp_path / "w.txt"
    gfile.write_text(format_edge_list(gen_path(3)))
    wfile.write_text("0 2\n")
    rc = run([
        "record", "--graph", str(gfile), "--walks-file", str(wfile),
        "--scheme", "named",
    ])
    assert rc == 2


@pytest.mark.parametrize("line,why", [
    ("0 2 0", "walk step (0, 2) is not an edge of the graph"),
    ("0 99", "walk step (0, 99) is not an edge of the graph"),
])
def test_record_anon_rejects_walk_off_graph(line, why, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
    rc = run(["record", "--family", "cycle", "--n", "6", "--scheme", "anon"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert why in captured.err


def record_cycle4(lines, scheme, tmp_path, monkeypatch):
    afile = tmp_path / "attrs.tsv"
    afile.write_text("".join(f"{v}\tT{v}\n" for v in range(4)))
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    return run(["record", "--family", "cycle", "--n", "4", "--scheme", scheme,
                "--attrs", str(afile)])


@pytest.mark.parametrize("scheme", ["anon", "named", "attributed"])
@pytest.mark.parametrize("line,why", [
    ("0 1r", "restart to unvisited vertex"),
    ("0 0", "step onto current position"),
    ("0 1 2r 1", "restart to unvisited vertex 2"),
    ("0r 1", "the start position is not a restart"),
])
def test_record_rejects_walk_breaking_the_discipline(tmp_path, capsys, monkeypatch,
                                                     scheme, line, why):
    assert record_cycle4(line + "\n", scheme, tmp_path, monkeypatch) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert why in captured.err


def test_record_attributed_restart_names_its_target(tmp_path, capsys, monkeypatch):
    assert record_cycle4("0 1 2 1r 0\n", "anon", tmp_path, monkeypatch) == 0
    assert out_of(capsys) == "1-2-3;2-1\n"
    assert record_cycle4("0 1 2 1r 0\n", "attributed", tmp_path, monkeypatch) == 0
    assert out_of(capsys) == (
        "Paper 1 - Title: T0 Paper 1 is linked to Paper 2 - Title: T1"
        " Paper 2 is linked to Paper 3 - Title: T2"
        " Restart at Paper 2. Paper 2 is linked to Paper 1.\n"
    )


@pytest.mark.parametrize("scheme", ["anon", "named"])
def test_record_without_walks_prints_nothing(scheme, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert run(["record", "--family", "cycle", "--n", "4", "--scheme", scheme]) == 0
    assert out_of(capsys) == ""


def test_record_named_ignores_attrs(tmp_path, capsys, monkeypatch):
    afile = tmp_path / "attrs.tsv"
    afile.write_text("x\tT\n")
    argv = ["record", "--family", "cycle", "--n", "4", "--scheme", "named"]
    outputs = []
    for extra in ([], ["--attrs", str(afile)]):
        monkeypatch.setattr("sys.stdin", io.StringIO("0 1 2 1r 0\n"))
        assert run(argv + extra) == 0
        outputs.append(capsys.readouterr())
    assert outputs[1] == outputs[0]
    assert outputs[0].out.count("\n") == 1


@pytest.mark.parametrize("scheme", ["anon", "named", "attributed"])
def test_record_checks_each_walk_line_once(scheme, tmp_path, capsys, monkeypatch):
    calls = []
    check_walk = records_mod.check_walk

    def counted(walk, g):
        calls.append(walk)
        return check_walk(walk, g)

    monkeypatch.setattr(cli_mod, "check_walk", counted)
    monkeypatch.setattr(records_mod, "check_walk", counted)
    lines = "0 1 2 3\n1 0 3 0r 1\n2\n"
    assert record_cycle4(lines, scheme, tmp_path, monkeypatch) == 0
    assert len(out_of(capsys).splitlines()) == 3
    assert [w.vertices for w in calls] == [(0, 1, 2, 3), (1, 0, 3, 0, 1), (2,)]


def private_package_names(source):
    """The private names a module takes from its package: imported
    (``from .records import _x``) or read off an imported module
    (``cover_mod._x``)."""
    tree = ast.parse(source)
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                modules.add(alias.asname or alias.name)
                if alias.name.startswith("_"):
                    found.append(alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_the_cli_reads_one_private_name_of_the_package():
    planted = "from . import cover as cover_mod\nfrom .walks import _fold, rng_stream\n" \
              "x = cover_mod._stats\n"
    assert private_package_names(planted) == ["_fold", "cover_mod._stats"]
    # record --scheme anon checks each walk against the graph, then records
    # it with _record_walk: the public record_anonymized would check it a
    # second time, without the graph
    source = pathlib.Path(cli_mod.__file__).read_text(encoding="utf-8")
    assert private_package_names(source) == ["_record_walk"]


# -- cover, mixing, experiments --------------------------------------------------


def test_cover_csv_schema(capsys):
    rc = run([
        "cover", "--family", "clique", "--k", "2", "--trials", "16",
        "--seed", "3",
    ])
    assert rc == 0
    lines = out_of(capsys).strip().splitlines()
    assert lines[0] == "graph,walk,mode,mean,std_err,trials,censored"
    assert lines[1] == "clique-2,uniform,vertex,1.000000,0.000000,16,0"


def test_cover_local_ball_labels_radius(capsys):
    rc = run([
        "cover", "--family", "path", "--n", "41", "--start", "20",
        "--radius", "1", "--restart-prob", "0.5", "--trials", "64",
        "--seed", "3",
    ])
    assert rc == 0
    row = out_of(capsys).strip().splitlines()[1]
    assert row.startswith("path-41-ball1,uniform+restart(a=0.5),vertex,")


def test_cover_rejects_global_restart(capsys):
    rc = run([
        "cover", "--family", "cycle", "--n", "3", "--trials", "4",
        "--seed", "1", "--restart-prob", "0.4",
    ])
    assert rc == 2


def test_cover_worst_starts_conflicts_with_start(capsys):
    rc = run([
        "cover", "--family", "cycle", "--n", "3", "--trials", "4",
        "--seed", "1", "--worst-starts", "--start", "0",
    ])
    assert rc == 2


def test_cover_worst_starts_conflicts_with_radius(capsys):
    rc = run([
        "cover", "--family", "path", "--n", "9", "--start", "4", "--radius", "1",
        "--restart-prob", "0.5", "--trials", "5", "--seed", "1", "--worst-starts",
    ])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--worst-starts" in captured.err and "--radius" in captured.err


def censored_cells(csv):
    """(graph, walk) of every cell with a censored row, in CSV order."""
    cells = []
    for line in csv.splitlines()[1:]:
        graph, walk, *_, censored = line.split(",")
        if int(censored) and (graph, walk) not in cells and graph != "sr16-mean":
            cells.append((graph, walk))
    return cells


def assert_warnings_name(err, cells, budget):
    lines = err.splitlines()
    assert len(lines) == len(cells)
    for line, (graph, walk) in zip(lines, cells):
        assert line.startswith(f"warning: {graph} {walk}: censored ")
        assert f" at budget {budget};" in line


@pytest.mark.parametrize("budget", [40, 100_000])
def test_fig3_warns_about_censored_cells_on_stderr_only(capsys, budget):
    argv = ["fig3", "--sizes", "3,4", "--trials", "64", "--seed", "3"]
    assert run(argv + ["--budget", str(budget)]) == 0
    captured = capsys.readouterr()
    # the warnings leave stdout byte for byte what the experiment returns
    assert captured.out == cover_mod.cover_csv(
        experiment_fig3(3, sizes=(3, 4), trials=64, budget=budget))
    cells = censored_cells(captured.out)
    assert bool(cells) == (budget == 40)
    assert_warnings_name(captured.err, cells, budget)


@pytest.mark.parametrize("budget", [3, 1000])
def test_cover_warns_when_trials_censor(capsys, budget):
    argv = ["cover", "--family", "cycle", "--n", "6", "--trials", "50", "--seed", "2"]
    assert run(argv + ["--budget", str(budget)]) == 0
    captured = capsys.readouterr()
    stats = estimate_cover_time(gen_cycle(6), WalkConfig(length=0, seed=2), "vertex",
                                50, None, budget=budget)
    assert captured.out == cover_mod.cover_csv([("cycle-6", "uniform", stats)])
    cells = censored_cells(captured.out)
    assert cells == ([("cycle-6", "uniform")] if budget == 3 else [])
    assert_warnings_name(captured.err, cells, budget)


def test_cover_warning_says_an_all_censored_mean_is_undefined(capsys):
    argv = ["cover", "--family", "cycle", "--n", "5", "--trials", "2000",
            "--node2vec", "1,2", "--worst-starts", "--budget", "3", "--seed", "1"]
    assert run(argv) == 0
    captured = capsys.readouterr()
    row = captured.out.splitlines()[1]
    assert row == "cycle-5,node2vec(1/2),vertex,nan,nan,10000,10000"
    assert captured.err == (
        "warning: cycle-5 node2vec(1/2): censored vertex 10000 of 10000 trials "
        "at budget 3; the vertex mean is undefined\n"
    )


def test_fig3_warning_tells_an_undefined_mean_from_a_biased_one(capsys):
    argv = ["fig3", "--sizes", "3", "--trials", "64", "--seed", "3", "--budget", "5"]
    assert run(argv) == 0
    captured = capsys.readouterr()
    rows = {tuple(line.split(",")[1:3]): line for line in captured.out.splitlines()}
    assert rows["uniform", "vertex"].endswith(",64,63")
    assert rows["uniform", "edge"].endswith(",nan,nan,64,64")
    assert rows["node2vec(1/2)", "vertex"].endswith(",nan,nan,64,64")
    lines = captured.err.splitlines()
    assert lines[0].endswith(
        "; the edge mean is undefined, and the vertex mean leaves them out "
        "and is biased low"
    )
    assert lines[4].startswith("warning: lollipop-6 node2vec(1/2): ")
    assert lines[4].endswith("; the vertex and edge means are undefined")


def test_cover_warning_names_a_graph_path_with_a_comma(tmp_path, capsys):
    gfile = tmp_path / "a,b.txt"
    gfile.write_text("3 2\n0 1\n1 2\n")
    argv = ["cover", "--graph", str(gfile), "--trials", "8", "--seed", "2", "--budget", "1"]
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1].endswith(",vertex,nan,nan,8,8")
    assert captured.err.startswith(f"warning: {gfile} uniform: censored vertex 8 of 8 ")


def test_cover_warns_for_a_graph_file_named_like_the_sr16_summary(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sr16-mean").write_text("3 2\n0 1\n1 2\n")
    argv = ["cover", "--graph", "sr16-mean", "--trials", "8", "--seed", "2", "--budget", "1"]
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1] == "sr16-mean,uniform,vertex,nan,nan,8,8"
    assert captured.err == (
        "warning: sr16-mean uniform: censored vertex 8 of 8 trials at budget 1; "
        "the vertex mean is undefined\n"
    )


@pytest.mark.parametrize("argv,header", [
    (["cover", "--trials", "8", "--seed", "2"],
     "graph,walk,mode,mean,std_err,trials,censored"),
    (["reconstruct-test", "--length", "4", "--trials", "8", "--seed", "2"],
     "graph,walk,length,trials,covering_fraction"),
], ids=["cover", "reconstruct-test"])
def test_graph_path_with_a_comma_is_one_csv_field(tmp_path, capsys, argv, header):
    gfile = tmp_path / "a,b.txt"
    gfile.write_text("3 2\n0 1\n1 2\n")
    assert run(argv + ["--graph", str(gfile)]) == 0
    rows = list(csv.reader(io.StringIO(out_of(capsys))))
    assert rows[0] == header.split(",")
    assert len(rows) == 2 and len(rows[1]) == len(rows[0])
    assert rows[1][:2] == [str(gfile), "uniform"]


def test_sr16_warns_per_graph_not_for_the_summary(monkeypatch, capsys):
    argv = ["sr16", "--trials", "40", "--seed", "5"]
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and censored_cells(captured.out) == []
    # sr16 runs at the default budget, which these graphs never reach;
    # a sampler stopped after 60 steps makes both graphs censor
    sample = cover_mod.batch_cover_samples
    monkeypatch.setattr(cover_mod, "batch_cover_samples",
                        lambda *args, **kw: sample(*args, **{**kw, "budget": 60}))
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == cover_mod.cover_csv(experiment_sr16(5, trials=40))
    cells = censored_cells(captured.out)
    assert [graph for graph, _ in cells] == ["rook4x4", "shrikhande"]
    assert_warnings_name(captured.err, cells, cover_mod.DEFAULT_BUDGET)


def test_mixing_csv_schema(capsys):
    rc = run([
        "mixing", "--family", "cycle", "--n", "3", "--trials", "1024",
        "--lengths", "1,2", "--seed", "5",
    ])
    assert rc == 0
    lines = out_of(capsys).strip().splitlines()
    assert lines[0] == "l,u,v,mc_estimate,exact_value,abs_err"
    assert len(lines) == 1 + 2 * 3 * 3
    for line in lines[1:]:
        l, u, v, mc, exact, err = line.split(",")
        assert abs(float(mc) - float(exact)) == pytest.approx(float(err), abs=1e-8)


def test_invariance_smoke(capsys):
    rc = run(["invariance", "--max-n", "3", "--max-l", "2", "--seed", "1"])
    assert rc == 0
    assert "all distribution-equality checks passed" in out_of(capsys)


def test_invariance_honors_out_file(tmp_path, capsys):
    report = tmp_path / "inv.txt"
    rc = run([
        "invariance", "--max-n", "3", "--max-l", "2", "--seed", "1",
        "--out", str(report),
    ])
    assert rc == 0
    assert out_of(capsys) == ""
    assert "all distribution-equality checks passed" in report.read_text()


def test_reconstruct_test_reports_fraction(capsys):
    rc = run([
        "reconstruct-test", "--family", "cycle", "--n", "3", "--length", "8",
        "--trials", "60", "--seed", "2",
    ])
    assert rc == 0
    lines = out_of(capsys).strip().splitlines()
    assert lines[0] == "graph,walk,length,trials,covering_fraction"
    frac = float(lines[1].split(",")[-1])
    assert 0.0 < frac <= 1.0


# every seeded subcommand, with arguments small enough to run in a moment
SEEDED_ARGV = {
    "walk": ["walk", "--family", "cycle", "--n", "6", "--length", "8",
             "--walks", "3"],
    "cover": ["cover", "--family", "lollipop", "--m", "3", "--trials", "40",
              "--worst-starts"],
    "reconstruct-test": ["reconstruct-test", "--family", "cycle", "--n", "4",
                         "--length", "6", "--trials", "20"],
    "invariance": ["invariance", "--max-n", "3", "--max-l", "2"],
    "mixing": ["mixing", "--family", "barbell", "--k", "3", "--trials", "300",
               "--lengths", "3"],
    "fig3": ["fig3", "--sizes", "3", "--trials", "32", "--budget", "5000"],
    "sr16": ["sr16", "--trials", "192"],
}


@pytest.mark.parametrize("command", sorted(SEEDED_ARGV))
def test_threads_do_not_change_bytes(command, capsys):
    # --threads changes nothing, but every seeded subcommand still takes it
    args = SEEDED_ARGV[command] + ["--seed", "7"]
    assert run(args + ["--threads", "1"]) == 0
    first = out_of(capsys)
    assert first
    assert run(args + ["--threads", "2"]) == 0
    assert out_of(capsys) == first


def test_fig3_smoke(capsys):
    rc = run([
        "fig3", "--sizes", "2,3", "--trials", "64", "--budget", "20000",
        "--seed", "1",
    ])
    assert rc == 0
    lines = out_of(capsys).strip().splitlines()
    assert lines[0] == "graph,walk,mode,mean,std_err,trials,censored"
    assert len(lines) == 1 + 2 * 6 * 2


# -- config files ----------------------------------------------------------------


def test_config_file_supplies_values(tmp_path, capsys):
    conf = tmp_path / "cover.conf"
    conf.write_text("family = clique\nk = 2\ntrials = 12\n# comment\n")
    rc = run(["cover", "--config", str(conf), "--seed", "3"])
    assert rc == 0
    assert ",12,0" in out_of(capsys).strip().splitlines()[1]


def test_flags_override_config_file(tmp_path, capsys):
    conf = tmp_path / "cover.conf"
    conf.write_text("family = clique\nk = 2\ntrials = 12\n")
    rc = run(["cover", "--config", str(conf), "--trials", "7", "--seed", "3"])
    assert rc == 0
    assert ",7,0" in out_of(capsys).strip().splitlines()[1]


def test_unknown_config_key_rejected(tmp_path, capsys):
    conf = tmp_path / "cover.conf"
    conf.write_text("family = clique\nk = 2\nbogus = 1\n")
    assert run(["cover", "--config", str(conf), "--seed", "3"]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_config_key_command_rejected(tmp_path, capsys):
    conf = tmp_path / "cover.conf"
    conf.write_text("command = gen\n")
    assert run(["cover", "--config", str(conf), "--family", "path", "--n", "3",
                "--seed", "3"]) == 2
    assert "unknown config key 'command'" in capsys.readouterr().err


@pytest.mark.parametrize("line,flag", [
    ("trials = 0", "--trials"),
    ("trials = abc", "--trials"),
    ("lengths = 5,-2", "--lengths"),
    ("threads = 0", "--threads"),
])
def test_out_of_range_config_value_names_the_flag(tmp_path, capsys, line, flag):
    conf = tmp_path / "mixing.conf"
    conf.write_text(f"family = cycle\nn = 3\n{line}\n")
    assert run(["mixing", "--config", str(conf), "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: " in captured.err


def test_flag_overrides_out_of_range_config_value(tmp_path, capsys):
    conf = tmp_path / "cover.conf"
    conf.write_text("family = clique\nk = 2\ntrials = 0\n")
    assert run(["cover", "--config", str(conf), "--trials", "3", "--seed", "3"]) == 0
    assert out_of(capsys).splitlines()[1].endswith(",3,0")


@pytest.mark.parametrize("value,label", [
    ("false", "uniform"), ("no", "uniform"), ("yes", "uniform+nb"), ("True", "uniform+nb"),
])
def test_config_file_boolean(tmp_path, capsys, value, label):
    conf = tmp_path / "cover.conf"
    conf.write_text(f"family = cycle\nn = 4\ntrials = 5\nnb = {value}\n")
    assert run(["cover", "--config", str(conf), "--seed", "1"]) == 0
    assert out_of(capsys).splitlines()[1].split(",")[1] == label


def test_config_file_bad_boolean(tmp_path, capsys):
    conf = tmp_path / "cover.conf"
    conf.write_text("family = cycle\nn = 4\ntrials = 5\nnb = maybe\n")
    assert run(["cover", "--config", str(conf), "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--nb" in captured.err and "'maybe'" in captured.err


def test_config_dashes_and_underscores_equivalent(tmp_path, capsys):
    conf = tmp_path / "walk.conf"
    conf.write_text("family = cycle\nn = 3\nrestart-prob = 0.4\nlength = 20\n")
    rc = run(["walk", "--config", str(conf), "--walks", "2", "--seed", "8"])
    assert rc == 0
    assert len(out_of(capsys).strip().splitlines()) == 2


def test_malformed_config_line(tmp_path, capsys):
    conf = tmp_path / "walk.conf"
    conf.write_text("just words\n")
    assert run(["gen", "--config", str(conf), "--family", "path", "--n", "3"]) == 2


def test_every_subcommand_documents_its_output(capsys):
    for sub, key in [
        ("cover", "graph,walk,mode,mean,std_err,trials,censored"),
        ("mixing", "l,u,v,mc_estimate,exact_value,abs_err"),
        ("fig3", "graph,walk,mode,mean,std_err,trials,censored"),
        ("sr16", "graph,walk,mode,mean,std_err,trials,censored"),
        ("reconstruct-test", "covering_fraction"),
    ]:
        # run() translates argparse's exit into a return code
        assert run([sub, "--help"]) == 0
        assert key in out_of(capsys)
