"""Cover-time sampling, the restart bound, and the CSV experiments."""
import math

import numpy as np
import pytest

from walklab import (
    CHUNK_TRIALS,
    Constant,
    RestartPeriod,
    RestartProb,
    WalkConfig,
    batch_cover_samples,
    cover_csv,
    estimate_cover_time,
    experiment_fig3,
    experiment_sr16,
    gen_clique,
    gen_cycle,
    gen_lollipop,
    gen_path,
    local_cover_time,
    parse_edge_list,
    theorem2_bound,
    worst_start_cover_time,
)
from walklab.walks import PaddedRows

from reference import sample_cover_time


def cfg(seed=1, **kw):
    return WalkConfig(length=0, seed=seed, **kw)


def scalar_estimate(g, config, mode, trials, start):
    """Mean and standard error of reference scalar trials 0..trials-1 from
    ``start``.

    Trial ``i`` draws from stream ``(seed, i)``, which the lockstep path
    never reads, so the two paths' estimates are independent.
    """
    t = np.array([sample_cover_time(g, config, start, mode, walk_index=i)
                  for i in range(trials)], dtype=float)
    return t.mean(), t.std(ddof=1) / math.sqrt(trials)


# -- exact single-sample oracles ---------------------------------------------
# each runs 200 lanes, more than TAIL_LANES, so the kernel's vector steps run


def test_k2_vertex_cover_is_one_step():
    t_v, _ = batch_cover_samples(gen_clique(2), cfg(), 200, 0, track_edges=False)
    assert (t_v == 1).all()


def test_k2_edge_cover_one_direction_vs_strict():
    g = gen_clique(2)
    _, plain = batch_cover_samples(g, cfg(), 200, 0)
    _, strict = batch_cover_samples(g, cfg(), 200, 0, strict_edges=True)
    assert (plain == 1).all()
    assert (strict == 2).all()


def test_triangle_nb_vertex_cover_is_two_steps():
    """Non-backtracking on a triangle must see the third vertex at t=2."""
    c = cfg(non_backtracking=True)
    t_v, _ = batch_cover_samples(gen_cycle(3), c, 200, 1, track_edges=False)
    assert (t_v == 2).all()


def test_sample_cover_time_validation():
    """The reference scalar sampler refuses what the package samplers do."""
    g = gen_clique(2)
    with pytest.raises(ValueError):
        sample_cover_time(g, cfg(), 0, "edges")
    with pytest.raises(ValueError):
        sample_cover_time(g, cfg(), 5, "vertex")
    with pytest.raises(ValueError):
        sample_cover_time(g, cfg(restart=RestartProb(0.3)), 0, "vertex")
    with pytest.raises(ValueError):
        sample_cover_time(g, WalkConfig(length=0), 0, "vertex")


def test_cover_time_lower_bounds():
    g = gen_lollipop(3)
    t_v, t_e = batch_cover_samples(g, cfg(), 200, 0)
    _, t_s = batch_cover_samples(g, cfg(), 200, 0, strict_edges=True)
    assert (t_v >= g.n - 1).all()
    assert (t_e >= g.m).all()
    assert (t_s >= 2 * g.m).all()


# -- estimators ----------------------------------------------------------------


def test_estimate_p2_worst_over_starts_is_deterministic():
    stats = worst_start_cover_time(gen_path(2), cfg(), "vertex", 50)
    assert stats.mean == 1.0
    assert stats.std_err == 0.0
    assert stats.trials == 100  # 50 per start
    assert stats.censored == 0


def test_estimate_scalar_and_batch_agree():
    g = gen_cycle(3)
    mean, std_err = scalar_estimate(g, cfg(), "vertex", 4000, 0)
    b = estimate_cover_time(g, cfg(), "vertex", 4000, 0)
    # independent streams, so agreement is statistical
    gap = abs(mean - b.mean)
    assert gap < 6 * math.hypot(std_err, b.std_err)


def test_single_vertex_cover_is_zero_on_both_paths():
    g = parse_edge_list("1 0\n")
    for mode in ("vertex", "edge", "edge-strict"):
        st = estimate_cover_time(g, cfg(), mode, 8, start=None)
        assert (st.mean, st.std_err, st.censored) == (0.0, 0.0, 0)
        # the scalar path: the ball around the only vertex is the graph
        st = local_cover_time(g, 0, 1, cfg(restart=RestartProb(0.5)), mode, 8)
        assert (st.mean, st.std_err, st.censored) == (0.0, 0.0, 0)


def test_estimate_validation():
    g = gen_cycle(3)
    why = "^mode must be 'vertex', 'edge' or 'edge-strict', got 'edges'$"
    with pytest.raises(ValueError, match=why):
        estimate_cover_time(g, cfg(), "edges", 5, 0)
    with pytest.raises(ValueError):
        estimate_cover_time(g, cfg(), "vertex", 0, 0)
    with pytest.raises(ValueError):
        estimate_cover_time(g, cfg(), "vertex", 5, 9)
    with pytest.raises(ValueError):
        estimate_cover_time(g, cfg(restart=RestartProb(0.2)), "vertex", 5, 0)


def test_censoring_reported_not_averaged():
    stats = estimate_cover_time(gen_path(4), cfg(), "vertex", 64, 0, budget=1)
    assert stats.censored == 64
    assert math.isnan(stats.mean) and math.isnan(stats.std_err)
    # worst-over-starts propagates the unknown
    worst = worst_start_cover_time(gen_path(4), cfg(), "vertex", 8, budget=1)
    assert math.isnan(worst.mean)


def test_worst_over_starts_compiles_the_table_once(monkeypatch):
    calls = []
    compile_rows = PaddedRows.compile

    def counting_compile(g, config):
        calls.append(g)
        return compile_rows(g, config)

    monkeypatch.setattr(PaddedRows, "compile", counting_compile)
    g = gen_lollipop(3)
    stats = worst_start_cover_time(g, cfg(), "edge", 8)
    assert len(calls) == 1
    assert stats.trials == 8 * g.n and stats.censored == 0


@pytest.mark.parametrize("mode", ["vertex", "edge", "edge-strict"])
def test_worst_over_starts_is_the_worst_per_start_batch(mode):
    # two chunks per start, so groups hold chunks of two starts; each
    # start still runs as cell v from vertex v on its own streams
    g, config, trials = gen_lollipop(3), cfg(seed=9), CHUNK_TRIALS + 300
    worst = worst_start_cover_time(g, config, mode, trials, budget=40)
    per_start = []
    for v in range(g.n):
        t_v, t_e = batch_cover_samples(
            g, config, trials, start=v, budget=40, cell=v,
            track_edges=mode != "vertex", strict_edges=mode == "edge-strict",
        )
        samples = t_v if mode == "vertex" else t_e
        ok = samples[samples >= 0]
        per_start.append((ok.mean(), ok.std(ddof=1) / math.sqrt(ok.size)))
    assert (worst.mean, worst.std_err) == max(per_start)
    assert worst.censored > 0 or mode == "vertex"


@pytest.mark.parametrize("budget", [0, -1])
def test_budget_below_one_is_rejected(budget):
    g = gen_cycle(4)
    with pytest.raises(ValueError, match="budget"):
        batch_cover_samples(g, cfg(), 5, start=0, budget=budget)
    with pytest.raises(ValueError, match="budget"):
        estimate_cover_time(g, cfg(), "vertex", 5, 0, budget=budget)
    with pytest.raises(ValueError, match="budget"):
        local_cover_time(g, 0, 1, cfg(restart=RestartProb(0.5)), "vertex", 5,
                         budget=budget)


def _cover_samplers():
    """Each cover sampler as ``(call(config, trials, budget), restart_free)``."""
    g = gen_cycle(4)
    return {
        "batch_cover_samples": (
            lambda c, t, b: batch_cover_samples(g, c, t, 0, budget=b), True),
        "estimate_cover_time": (
            lambda c, t, b: estimate_cover_time(g, c, "vertex", t, 0, budget=b), True),
        "worst_start_cover_time": (
            lambda c, t, b: worst_start_cover_time(g, c, "vertex", t, budget=b), True),
        "local_cover_time": (
            lambda c, t, b: local_cover_time(g, 0, 1, c, "vertex", t, budget=b), False),
    }


@pytest.mark.parametrize("name,fault", [
    (name, fault)
    for name in _cover_samplers()
    for fault in ("trials", "budget", "restart")
])
def test_cover_samplers_refuse_the_same_faults_alike(name, fault):
    call, restart_free = _cover_samplers()[name]
    right, wrong = cfg(), cfg(restart=RestartProb(0.5))
    if not restart_free:
        right, wrong = wrong, right
    call(right, 5, 100)  # the call is accepted without the fault
    args, why = {
        "trials": ((right, 0, 100), "trials must be >= 1, got 0"),
        "budget": ((right, 5, 0), "budget must be >= 1, got 0"),
        "restart": ((wrong, 5, 100), "global cover time expects a restart-free config"
                    if restart_free else "local cover time requires a restart mode"),
    }[fault]
    with pytest.raises(ValueError, match=f"^{why}$"):
        call(*args)


def test_batch_cover_samples_are_paired():
    g = gen_lollipop(3)
    t_v, t_e = batch_cover_samples(g, cfg(), 3000, start=None)
    assert t_v.size == t_e.size == 3000
    ok = (t_v >= 0) & (t_e >= 0)
    assert ok.all()
    assert (t_e[ok] >= t_v[ok]).all()


def test_strict_edges_dominate_plain_per_trajectory():
    # a one-trial call as cell i is one lane on stream (seed, i, 0), so
    # the strict time extends the exact same walk the plain time stopped on
    g = gen_cycle(4)
    for i in range(200):
        _, plain = batch_cover_samples(g, cfg(), 1, 0, cell=i)
        _, strict = batch_cover_samples(g, cfg(), 1, 0, cell=i, strict_edges=True)
        assert strict[0] >= plain[0] >= 0


def test_batch_strict_edges_shift_the_mean():
    g = gen_cycle(4)
    _, plain = batch_cover_samples(g, cfg(), 4000, start=0)
    _, strict = batch_cover_samples(g, cfg(), 4000, start=0, strict_edges=True)
    # separate lockstep runs share no per-trial coupling; compare means
    assert strict.mean() > plain.mean() + 1.0


def test_batch_track_edges_off():
    t_v, t_e = batch_cover_samples(gen_cycle(3), cfg(), 10, start=0, track_edges=False)
    assert (t_v >= 0).all()
    assert (t_e == -1).all()


def test_batch_rejects_restarts_and_bad_trials():
    g = gen_cycle(3)
    with pytest.raises(ValueError):
        batch_cover_samples(g, cfg(restart=RestartPeriod(2)), 5, start=0)
    with pytest.raises(ValueError):
        batch_cover_samples(g, cfg(), 0, start=0)


@pytest.mark.parametrize("start", [-1, 5, 99])
def test_starts_off_the_graph_are_refused(start):
    g = gen_cycle(5)
    why = f"start {start} out of range for n=5"
    with pytest.raises(ValueError, match=why):
        batch_cover_samples(g, cfg(), 5, start=start)
    with pytest.raises(ValueError, match=why):
        estimate_cover_time(g, cfg(), "vertex", 5, start)


def test_batch_second_order_matches_scalar_law():
    """Vectorized NB sampling agrees with the scalar walker's estimate."""
    g = gen_lollipop(3)
    c = cfg(non_backtracking=True)
    batch = estimate_cover_time(g, c, "vertex", 4000, 0)
    mean, std_err = scalar_estimate(g, c, "vertex", 4000, 0)
    assert abs(batch.mean - mean) < 6 * math.hypot(batch.std_err, std_err)


# -- local cover and the closed-form bound -------------------------------------


def test_local_cover_radius_zero_is_free():
    g = gen_path(9)
    stats = local_cover_time(g, 4, 0, cfg(restart=RestartProb(0.5)), "vertex", 32)
    assert stats.mean == 0.0 and stats.std_err == 0.0


def test_local_cover_requires_restart():
    with pytest.raises(ValueError, match="restart"):
        local_cover_time(gen_path(9), 4, 1, cfg(), "vertex", 8)


def test_local_cover_period_must_reach_rim():
    g = gen_path(9)
    with pytest.raises(ValueError, match="too short"):
        local_cover_time(g, 4, 2, cfg(restart=RestartPeriod(2)), "vertex", 8)
    local_cover_time(g, 4, 2, cfg(restart=RestartPeriod(3)), "vertex", 8)


def test_local_cover_mean_respects_bound():
    g = gen_path(41)
    restart = RestartProb(0.5)
    stats = local_cover_time(g, 20, 1, cfg(restart=restart), "vertex", 4000)
    bound = theorem2_bound(g.max_degree(), 1, restart, "vertex")
    assert stats.censored == 0
    assert stats.mean + 3 * stats.std_err <= bound


def test_theorem2_bound_pinned_value():
    b = theorem2_bound(2, 1, RestartProb(0.5), "vertex")
    assert b == 84.0


def test_theorem2_bound_monotone_in_degree_and_radius():
    r = RestartProb(0.5)
    assert theorem2_bound(3, 1, r) > theorem2_bound(2, 1, r)
    assert theorem2_bound(2, 2, r) > theorem2_bound(2, 1, r)
    assert theorem2_bound(2, 1, r, "edge") > theorem2_bound(2, 1, r, "vertex")


def test_theorem2_bound_period_reach():
    # one excursion must reach the rim (vertex) or cross its last edge
    theorem2_bound(2, 1, RestartPeriod(1), "vertex")
    with pytest.raises(ValueError):
        theorem2_bound(2, 1, RestartPeriod(1), "edge")
    theorem2_bound(2, 1, RestartPeriod(2), "edge")


def test_theorem2_bound_validation():
    with pytest.raises(ValueError):
        theorem2_bound(1, 1, RestartProb(0.5))
    with pytest.raises(ValueError):
        theorem2_bound(2, -1, RestartProb(0.5))
    with pytest.raises(ValueError):
        theorem2_bound(2, 1, RestartProb(0.5), "edges")


# -- CSV experiments -----------------------------------------------------------


def test_experiment_sr16_shape_and_determinism():
    a = cover_csv(experiment_sr16(7, trials=CHUNK_TRIALS + 5))
    assert cover_csv(experiment_sr16(7, trials=CHUNK_TRIALS + 5)) == a
    lines = a.strip().splitlines()
    assert lines[0] == "graph,walk,mode,mean,std_err,trials,censored"
    assert len(lines) == 7
    graphs = [ln.split(",")[0] for ln in lines[1:]]
    assert graphs == [
        "rook4x4",
        "rook4x4",
        "shrikhande",
        "shrikhande",
        "sr16-mean",
        "sr16-mean",
    ]
    modes = {ln.split(",")[2] for ln in lines[1:]}
    assert modes == {"vertex", "edge-strict"}


def test_experiment_sr16_seed_changes_output():
    assert (cover_csv(experiment_sr16(7, trials=64))
            != cover_csv(experiment_sr16(8, trials=64)))


def test_experiment_fig3_shape_and_determinism():
    kw = dict(sizes=(2, 3), trials=96, budget=20_000)
    a = cover_csv(experiment_fig3(5, **kw))
    assert cover_csv(experiment_fig3(5, **kw)) == a
    lines = a.strip().splitlines()
    assert lines[0] == "graph,walk,mode,mean,std_err,trials,censored"
    # 2 sizes x 6 walk variants x 2 cover modes
    assert len(lines) == 1 + 2 * 6 * 2
    walks = {ln.split(",")[1] for ln in lines[1:]}
    assert walks == {
        "uniform",
        "uniform+nb",
        "mdlr",
        "mdlr+nb",
        "node2vec(1/2)",
        "node2vec(1/2)+nb",
    }
    for ln in lines[1:]:
        cols = ln.split(",")
        assert len(cols) == 7
        assert cols[2] in ("vertex", "edge")
        assert int(cols[5]) == 96
