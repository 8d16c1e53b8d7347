"""Command-line interface: exit codes, config merging, CSV output."""
import io
import os
import pathlib
import subprocess
import sys

import pytest

import walklab

from walklab import (
    UniformRandom,
    WalkConfig,
    estimate_cover_time,
    experiment_fig3,
    experiment_sr16,
    format_edge_list,
    gen_clique,
    gen_cycle,
    gen_path,
)
from walklab import cover as cover_mod
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


BAD_WALK_VALUES = [
    ("walk", "restart-period", "0"),
    ("walk", "restart-period", "x"),
    ("walk", "restart-prob", "1.5"),
    ("walk", "restart-prob", "0"),
    ("walk", "restart-prob", "abc"),
    ("walk", "node2vec", "1,0"),
    ("walk", "node2vec", "-1,2"),
    ("walk", "node2vec", "2"),
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


@pytest.mark.parametrize("lengths", ["1", "0,3"])
def test_single_vertex_mixing_cannot_step(tmp_path, capsys, lengths):
    gfile = tmp_path / "one.txt"
    gfile.write_text("1 0\n")
    rc = run(["mixing", "--graph", str(gfile), "--lengths", lengths, "--trials", "8",
              "--seed", "1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "vertex 0 has no neighbor to step to" in captured.err
    assert captured.out == ""


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


@pytest.mark.parametrize("scheme", ["anon", "named"])
@pytest.mark.parametrize("line,why", [
    ("0 1r", "restart to unvisited vertex"),
    ("0 0", "step onto current position"),
])
def test_record_rejects_walk_breaking_the_discipline(tmp_path, capsys,
                                                     scheme, line, why):
    gfile = tmp_path / "g.txt"
    wfile = tmp_path / "w.txt"
    gfile.write_text(format_edge_list(gen_path(3)))
    wfile.write_text(line + "\n")
    rc = run([
        "record", "--graph", str(gfile), "--walks-file", str(wfile),
        "--scheme", scheme,
    ])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    if scheme == "anon":  # the named scheme may fail first on the non-edge
        assert why in captured.err


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
    assert captured.out == experiment_fig3(3, sizes=(3, 4), trials=64, budget=budget)
    cells = censored_cells(captured.out)
    assert bool(cells) == (budget == 40)
    assert_warnings_name(captured.err, cells, budget)


@pytest.mark.parametrize("budget", [3, 1000])
def test_cover_warns_when_trials_censor(capsys, budget):
    argv = ["cover", "--family", "cycle", "--n", "6", "--trials", "50", "--seed", "2"]
    assert run(argv + ["--budget", str(budget)]) == 0
    captured = capsys.readouterr()
    stats = estimate_cover_time(gen_cycle(6), WalkConfig(length=0, seed=2), "vertex",
                                50, UniformRandom(), budget=budget)
    assert captured.out == cover_mod.cover_csv([("cycle-6", "uniform", stats)])
    cells = censored_cells(captured.out)
    assert cells == ([("cycle-6", "uniform")] if budget == 3 else [])
    assert_warnings_name(captured.err, cells, budget)


def test_cover_warning_names_a_graph_path_with_a_comma(tmp_path, capsys):
    gfile = tmp_path / "a,b.txt"
    gfile.write_text("3 2\n0 1\n1 2\n")
    argv = ["cover", "--graph", str(gfile), "--trials", "8", "--seed", "2", "--budget", "1"]
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1].endswith(",vertex,nan,nan,8,8")
    assert captured.err.startswith(f"warning: {gfile} uniform: censored vertex 8 of 8 ")


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
    assert captured.out == experiment_sr16(5, trials=40)
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


def test_sr16_threads_do_not_change_bytes(capsys):
    args = ["sr16", "--trials", "192", "--seed", "7"]
    assert run(args + ["--threads", "1"]) == 0
    first = out_of(capsys)
    assert run(args + ["--threads", "4"]) == 0
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
