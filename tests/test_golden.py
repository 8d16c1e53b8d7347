"""Output bytes pinned across commits.

Each case is a small CLI run or sampler call whose output's sha256 is
pinned here.  Gate 9 of the acceptance suite compares reruns and thread
counts within one tree; these digests hold the absolute bytes, so a
change to a step rule, a Philox stream layout, a draw or a number
format shows up as a moved digest.
"""
import hashlib
import random

import numpy as np
import pytest

import reference
from test_cover_kernel import double_star
from walklab import (
    MDLR,
    AttributeProvider,
    Constant,
    Node2Vec,
    RestartPeriod,
    RestartProb,
    WalkConfig,
    batch_cover_samples,
    enumerate_walk_distribution,
    gen_barbell,
    gen_clique,
    gen_csl,
    gen_cycle,
    gen_lollipop,
    gen_path,
    gen_shrikhande,
    record_attributed,
    rng_stream,
    run_invariance_suite,
    sample_walk,
)
from walklab import cover
from walklab.cli import run
from walklab.walks import LEAF_BUDGET, StepTable, check_enumeration_bound

CLI_CASES = {
    "walk-mdlr": (
        ["walk", "--family", "lollipop", "--m", "4", "--length", "30",
         "--walks", "6", "--seed", "1", "--conductance", "mdlr"],
        "7e191723f0085aa7dd06e8aff75585dae40d497aa8c13e9e8e39ce070bd2f83b",
    ),
    "walk-nb-restart-prob": (
        ["walk", "--family", "csl", "--n", "8", "--s", "3", "--length", "30",
         "--walks", "6", "--seed", "2", "--nb", "--restart-prob", "0.3"],
        "724a4df3fa980904d7c57fb008ef98554ee420e7837fc78dfb4d897801a0f476",
    ),
    "walk-node2vec-restart-period": (
        ["walk", "--family", "barbell", "--k", "4", "--length", "30",
         "--walks", "6", "--seed", "3", "--node2vec", "2,0.5",
         "--restart-period", "4"],
        "a616657fb0ad2b42a8b35f62b090466b77357947d40590b5421a0f830b41998d",
    ),
    "cover-batch": (
        ["cover", "--family", "lollipop", "--m", "4", "--mode", "edge",
         "--trials", "300", "--seed", "4", "--conductance", "mdlr", "--nb"],
        "3b6fd09ff2b9b2bc058431545c66cbfe7977410020626382ba887259d250ea48",
    ),
    "cover-local": (
        ["cover", "--family", "path", "--n", "41", "--start", "20",
         "--radius", "2", "--restart-prob", "0.5", "--mode", "edge",
         "--trials", "200", "--seed", "5"],
        "26fb6df699a54304d4ea8a8d8a016958a785efe78c50ff42be170340a3ebd48d",
    ),
    # one chunk per start, grouped across starts
    "cover-worst-starts": (
        ["cover", "--family", "lollipop", "--m", "6", "--trials", "700",
         "--worst-starts", "--seed", "3"],
        "83dfe08b6bbb9dd4ea00750835f669c1073f3f412587cf48eb3cd742c7249e9b",
    ),
    "fig3": (
        ["fig3", "--sizes", "4", "--trials", "64", "--seed", "2025"],
        "70e19e2107c4aeeea1962a8a8cf0bd2fc22bcd24ca33d294fb8a175ac4b7dd2d",
    ),
    "sr16": (
        ["sr16", "--trials", "300", "--seed", "2025"],
        "64b4bdbea283d9016b7fd7f66a5a75a627650e8b3ce26caa8a5d290176c5f482",
    ),
    # five chunks per graph: one full group of four and a one-chunk group
    "sr16-five-chunks": (
        ["sr16", "--trials", "5000", "--seed", "2025"],
        "e7362c1184abc6e85b066f16b907d6e1abca4a3277ef28b94490fa5c8e677599",
    ),
    "sr16-threads": (
        ["sr16", "--trials", "300", "--seed", "2025", "--threads", "2"],
        "64b4bdbea283d9016b7fd7f66a5a75a627650e8b3ce26caa8a5d290176c5f482",
    ),
    "mixing": (
        ["mixing", "--family", "barbell", "--k", "3", "--trials", "2000",
         "--seed", "7"],
        "0eff2496dde974a7f835e32173b593d17294c62df62ea546e28f30181182466e",
    ),
    # two full chunks and a short last one per cell
    "mixing-barbell-5": (
        ["mixing", "--family", "barbell", "--k", "5", "--trials", "2100",
         "--lengths", "1,7,20", "--seed", "8"],
        "f194455faf60743ce00095b5555e65beaeca88bc4483eb3744bbecf3fff2cbbb",
    ),
    # four full chunks and a short one per cell: a full group and a short one
    "mixing-barbell-5-groups": (
        ["mixing", "--family", "barbell", "--k", "5", "--trials", "4148",
         "--lengths", "1,20", "--seed", "8"],
        "438df103179f201695a03526f25d4918f21ce8a49488128e1a6e2323799a3a68",
    ),
    "invariance": (
        ["invariance", "--max-n", "4", "--max-l", "3", "--seed", "0"],
        "6ec7e1c8a29683b89a4a3b4ab9e0bcb6ec3224dfac307ec86d6e231a2a114ae7",
    ),
    "invariance-sampled": (
        ["invariance", "--max-n", "5", "--samples", "3", "--max-l", "4",
         "--seed", "7"],
        "6ab2e45be229af7c8ed3462e2a6f0c647f35d3f1c6225c78d6c7448bf96d7284",
    ),
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_bytes_are_pinned(name, capsys):
    argv, digest = CLI_CASES[name]
    assert run(argv) == 0
    assert sha256(capsys.readouterr().out) == digest


def stats_text(st):
    return f"{st.mean!r},{st.std_err!r},{st.trials},{st.censored}"


N2V = WalkConfig(length=0, conductance=MDLR(), node2vec=Node2Vec(2.0, 0.5), seed=11)


def scalar_stats(g, config, mode, trials, start):
    """Reference scalar cover estimate: trial ``i`` on stream ``(seed, i)``.

    With ``start`` None a trial draws its start from its stream first;
    with a vertex, trial ``i`` is ``reference.sample_cover_time`` at
    ``walk_index=i``.
    """
    table = StepTable(g, config)
    targets, arc_target = reference.cover_targets(mode, range(g.n), g.edges())
    out = np.full(trials, -1, dtype=np.int64)
    for i in range(trials):
        rng = rng_stream(config.seed, i)
        v = start if start is not None else int(rng.integers(g.n))
        got = reference.cover_time(
            table, v, rng, targets, arc_target, cover.DEFAULT_BUDGET
        )
        if got is not None:
            out[i] = got
    return cover._stats(out, mode)


def test_scalar_cover_bytes_are_pinned():
    g = gen_lollipop(4)
    st = scalar_stats(g, N2V, "edge-strict", 150, None)
    assert sha256(stats_text(st)) == (
        "37c8e274593551db14a8815b6584e584efac5876f922724d79ffeb37bea1e1c1"
    )
    st = scalar_stats(g, N2V, "vertex", 150, 0)
    assert sha256(stats_text(st)) == (
        "a43096436f6a3e736e8f5a9bf4b440c8b9f5996ffde8d05ec62f53899baa7295"
    )


def test_batch_cover_samples_bytes_are_pinned():
    t_v, t_e = batch_cover_samples(gen_lollipop(4), N2V, 1500, None, strict_edges=True)
    assert sha256(t_v.tobytes().hex() + t_e.tobytes().hex()) == (
        "946aff87e484b5078f234057e7ebfcec2fabac8bcc99edd8f32c91f6b4b24907"
    )


def arrays_digest(t_v, t_e):
    return sha256(t_v.tobytes().hex() + t_e.tobytes().hex())


# Raw kernel arrays at its branch points: lanes censoring in the
# near-empty tail, vertex-only tracking from a fixed start, lanes
# censoring while the chunk is still wide, a short last chunk, a full
# group of four chunks and a short group whose lanes censor at the
# budget, full chunks on the 20-wide rows of gen_lollipop(20), and a
# table whose draws sometimes advance two slots past their guide bin.
KERNEL_CASES = {
    "node2vec-tail-censors": (
        lambda: batch_cover_samples(
            gen_lollipop(10),
            WalkConfig(length=0, conductance=Constant(),
                       node2vec=Node2Vec(1.0, 2.0), seed=2025),
            256, None, budget=20_000, cell=4,
        ),
        "7210be4d51cfb6a294b26a199d4adc826631c38f0ecf3e60c276a6813f5df8cd",
    ),
    "vertex-only-fixed-start": (
        lambda: batch_cover_samples(
            gen_lollipop(6),
            WalkConfig(length=0, conductance=MDLR(), non_backtracking=True, seed=17),
            700, 3, track_edges=False,
        ),
        "c38818f73bd172f82339531746bee7daf9dd7fa50c9d4ef1430bc909b691694d",
    ),
    "wide-chunk-censors": (
        lambda: batch_cover_samples(
            gen_lollipop(5), WalkConfig(length=0, seed=23), 1024, None, budget=30
        ),
        "b2b76e3f0d734cb28f0d08fdce08cb1909f27508e9efbd3f7001b090f350b497",
    ),
    "strict-short-last-chunk": (
        lambda: batch_cover_samples(
            gen_shrikhande(),
            WalkConfig(length=0, conductance=MDLR(), non_backtracking=True, seed=2025),
            2100, None, strict_edges=True,
        ),
        "822d1524064210081a38c08214fe986c7d089c4c0e566543a420d52bc580e05a",
    ),
    "strict-two-groups-censor": (
        lambda: batch_cover_samples(
            gen_lollipop(5),
            WalkConfig(length=0, conductance=MDLR(), non_backtracking=True, seed=41),
            5 * 1024 + 7, None, budget=250, strict_edges=True,
        ),
        "5e54864728d98e1939859b1909a9d3cb72c3fd49d42349ce8f817323db899129",
    ),
    "wide-rows-uniform": (
        lambda: batch_cover_samples(
            gen_lollipop(20), WalkConfig(length=0, seed=2026), 1024, None,
            budget=5000, cell=1,
        ),
        "50971e0615f23d2a60bdfb4ba53ebe355c96794b322f3a18be44b566ae962b5f",
    ),
    "wide-rows-node2vec": (
        lambda: batch_cover_samples(
            gen_lollipop(20),
            WalkConfig(length=0, conductance=Constant(),
                       node2vec=Node2Vec(1.0, 2.0), seed=2026),
            1024, None, budget=5000, cell=1,
        ),
        "91f9f3f03145f1da4d1a9c2e4ba62d0c912003fb6b584894512385eed16c3699",
    ),
    "two-slot-advances": (
        lambda: batch_cover_samples(
            double_star(), WalkConfig(length=0, conductance=MDLR(), seed=2026),
            1024, None, budget=5000, cell=1,
        ),
        "9fa8ceae4528eb53ab61dd31914b1dc17fb3e3511ed977d115123aeae49c65eb",
    ),
}


@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_kernel_branch_points_are_pinned(name):
    sample, digest = KERNEL_CASES[name]
    assert arrays_digest(*sample()) == digest


def test_enumeration_bytes_are_pinned():
    texts = []
    for config in (
        WalkConfig(length=3, conductance=MDLR(), non_backtracking=True,
                   restart=RestartProb(0.4)),
        WalkConfig(length=3, node2vec=Node2Vec(0.5, 3.0)),
    ):
        for w, p in enumerate_walk_distribution(gen_csl(6, 2), config):
            texts.append(f"{w.vertices}{w.restart_flags}{p!r}")
    assert sha256("\n".join(texts)) == (
        "cf2e98cac63b2f73385773a41fad0d1ee7065e28d001e4c70f20db29870fe22f"
    )


def test_enumeration_bytes_are_pinned_across_passes():
    # 8 starts of 4 * 4**5 bound leaves each: twice LEAF_BUDGET, so the
    # starts run in two passes, and the walks still come in start order
    g, config = gen_csl(8, 3), WalkConfig(length=6)
    assert check_enumeration_bound(g, config, g.n) == 2 * LEAF_BUDGET
    texts = [f"{w.vertices}{w.restart_flags}{p!r}"
             for w, p in enumerate_walk_distribution(g, config)]
    assert len(texts) == 8 * 4 ** 6
    assert sha256("\n".join(texts)) == (
        "3e2b7396c4851489b2a8d390d058e93c20aab0ba7d181037db81bf45bf70b013"
    )


# repr(InvarianceReport) and the worst gap's float.hex, per parameter set
INVARIANCE_REPORTS = {
    "l1-exact": (
        dict(max_n=4, max_l=1, seed=0, permutations_per_graph=2),
        "InvarianceReport(graphs=43, permutations=86, configs_per_graph=7, "
        "walks_compared=4312, max_probability_gap=0.0)",
        "0x0.0p+0",
    ),
    "l2-exact": (
        dict(max_n=4, max_l=2, seed=3, permutations_per_graph=1),
        "InvarianceReport(graphs=43, permutations=43, configs_per_graph=7, "
        "walks_compared=3740, max_probability_gap=0.0)",
        "0x0.0p+0",
    ),
    "l2-sampled-5": (
        dict(max_n=5, max_l=2, seed=0, samples_per_n=6, permutations_per_graph=1),
        "InvarianceReport(graphs=49, permutations=49, configs_per_graph=7, "
        "walks_compared=4698, max_probability_gap=0.0)",
        "0x0.0p+0",
    ),
    "l3-sampled-5": (
        dict(max_n=5, max_l=3, seed=11, samples_per_n=4, permutations_per_graph=2),
        "InvarianceReport(graphs=47, permutations=94, configs_per_graph=7, "
        "walks_compared=17780, max_probability_gap=5.551115123125783e-17)",
        "0x1.0000000000000p-54",
    ),
    "l4-sampled-5": (
        dict(max_n=5, max_l=4, seed=7, samples_per_n=3, permutations_per_graph=1),
        "InvarianceReport(graphs=46, permutations=46, configs_per_graph=7, "
        "walks_compared=17802, max_probability_gap=0.0)",
        "0x0.0p+0",
    ),
    "l2-sampled-6": (
        dict(max_n=6, max_l=2, seed=5, samples_per_n=3, permutations_per_graph=1),
        "InvarianceReport(graphs=49, permutations=49, configs_per_graph=7, "
        "walks_compared=4876, max_probability_gap=6.938893903907228e-18)",
        "0x1.0000000000000p-57",
    ),
    "l1-sampled-6": (
        dict(max_n=6, max_l=1, seed=2, samples_per_n=5, permutations_per_graph=3),
        "InvarianceReport(graphs=53, permutations=159, configs_per_graph=7, "
        "walks_compared=9492, max_probability_gap=1.3877787807814457e-17)",
        "0x1.0000000000000p-56",
    ),
}


@pytest.mark.parametrize("name", sorted(INVARIANCE_REPORTS))
def test_invariance_reports_are_pinned(name):
    kw, text, gap_hex = INVARIANCE_REPORTS[name]
    report = run_invariance_suite(**kw)
    assert repr(report) == text
    assert float.hex(report.max_probability_gap) == gap_hex


def attributed_corpus(walks=640):
    """Attributed texts of fuzzed sampled walks.

    Walks restart by probability or period, graphs vary in shape, about
    half the vertices carry a label, and every other walk renders its
    edges with directions: each edge's direction is given from one end
    or the other, so the reverse lookup is exercised too.
    """
    graphs = [gen_csl(8, 3), gen_lollipop(4), gen_barbell(3), gen_clique(5),
              gen_cycle(6), gen_path(5), gen_shrikhande()]
    restarts = [None, RestartProb(0.3), RestartPeriod(3), RestartProb(0.6)]
    texts = []
    for i in range(walks):
        rnd = random.Random(i)
        g = graphs[i % len(graphs)]
        config = WalkConfig(
            length=rnd.randrange(13),
            non_backtracking=rnd.random() < 0.3 and g.n > 5,
            restart=restarts[rnd.randrange(len(restarts))],
            seed=rnd.randrange(2**31),
        )
        w = sample_walk(g, config, walk_index=i)
        directions = None
        if i % 2:
            directions = {}
            for u, v in g.edges():
                d = rnd.choice(["cites", "cited-by"])
                directions[(u, v) if rnd.random() < 0.5 else (v, u)] = d
        attrs = AttributeProvider(
            vertex_text={v: f"title {v * 7 % 11}" for v in range(g.n)},
            edge_direction=directions,
            labels={v: "ab"[v % 2] for v in range(g.n) if rnd.random() < 0.5} or None,
            entity="Page" if i % 5 == 0 else "Paper",
        )
        texts.append(record_attributed(w, g, attrs))
    return texts


def test_attributed_records_are_pinned():
    texts = attributed_corpus()
    assert sum("Restart at" in t for t in texts) >= 100
    assert sha256("\n".join(texts)) == (
        "6cf2195bc1ad3c0d43669871c8ece9db747588e86a70e1e870c1110e0ca3f74c"
    )
