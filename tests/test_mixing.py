"""Stationary distributions and the averaged-propagation identity.

``reference_visit_frequencies`` is the plain lockstep estimator: it
draws with the padded count ``(u >= cum).sum()`` and counts visits per
vertex as it goes.  The package estimator draws with the guide table
and folds per-state counts onto vertices at the end; the two must agree
bit for bit on the same Philox streams.
"""
import math

import numpy as np
import pytest

from walklab import (
    CHUNK_TRIALS,
    Constant,
    MDLR,
    WalkConfig,
    averaged_row,
    build_graph,
    expected_output,
    gen_barbell,
    gen_cycle,
    gen_lollipop,
    gen_path,
    jacobian_expectation,
    mc_visit_frequencies,
    mixing_suite,
    parse_edge_list,
    rng_stream,
    stationary,
    transition_matrix,
)
from walklab.walks import PaddedRows


def _degree_share(g):
    return np.array([g.degree(v) for v in range(g.n)], dtype=float) / (2 * g.m)


def test_stationary_uniform_walk_proportional_to_degree():
    for _name, g in mixing_suite() + [("lollipop-20", gen_lollipop(20))]:
        pi = stationary(transition_matrix(g, Constant()))
        assert np.abs(pi - _degree_share(g)).max() <= 1e-12


def test_stationary_conductance_walk_weighted_by_strength():
    # triangle with a pendant: strengths under the min-degree rule are
    # (1, 1, 2, 1), so pi = (1, 1, 2, 1) / 5
    g = build_graph([(0, 1), (1, 2), (2, 0), (2, 3)], 4)
    pi = stationary(transition_matrix(g, MDLR()))
    np.testing.assert_allclose(pi, np.array([1, 1, 2, 1]) / 5, atol=1e-9)


def test_stationary_fixed_point():
    P = transition_matrix(gen_barbell(4), Constant())
    pi = stationary(P)
    np.testing.assert_allclose(pi @ P, pi, atol=1e-9)
    assert math.isclose(pi.sum(), 1.0, abs_tol=1e-12)


@pytest.mark.parametrize("g", [gen_path(2), gen_cycle(4)])
def test_stationary_solves_bipartite(g):
    # periodic: x P^t oscillates from a point mass, yet pi is unique
    pi = stationary(transition_matrix(g, Constant()))
    assert np.abs(pi - _degree_share(g)).max() <= 1e-12


def _two_closed_classes():
    P = np.zeros((5, 5))
    P[:3, :3] = transition_matrix(gen_cycle(3), Constant())
    P[3:, 3:] = transition_matrix(gen_path(2), Constant())
    return P


@pytest.mark.parametrize("P", [np.eye(2), _two_closed_classes()],
                         ids=["identity", "block-diagonal"])
def test_stationary_rejects_several_stationary_distributions(P):
    with pytest.raises(ValueError, match="more than one stationary"):
        stationary(P)


def test_transition_matrix_input_checks():
    with pytest.raises(ValueError, match="square"):
        stationary(np.ones((2, 3)))
    with pytest.raises(ValueError, match="negative"):
        stationary(np.array([[1.5, -0.5], [0.5, 0.5]]))
    with pytest.raises(ValueError, match="sum"):
        stationary(np.array([[0.5, 0.4], [0.5, 0.5]]))


def test_expected_output_identity_at_zero_length():
    P = transition_matrix(gen_cycle(3), Constant())
    x = np.array([1.0, 2.0, 4.0])
    np.testing.assert_allclose(expected_output(P, x, 0), x)


def test_expected_output_one_step_average():
    P = transition_matrix(gen_cycle(3), Constant())
    x = np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(expected_output(P, x, 1), (x + P @ x) / 2)


def test_expected_output_validation():
    P = transition_matrix(gen_cycle(3), Constant())
    with pytest.raises(ValueError):
        expected_output(P, np.zeros(4), 1)
    with pytest.raises(ValueError):
        expected_output(P, np.zeros(3), -1)


def test_jacobian_expectation_oracles():
    P = transition_matrix(build_graph([(0, 1)], 2), Constant())
    assert jacobian_expectation(P, 0, 1, 1) == pytest.approx(0.5)
    assert jacobian_expectation(P, 0, 0, 0) == 1.0
    assert jacobian_expectation(P, 0, 1, 0) == 0.0


def test_jacobian_rows_sum_to_one():
    P = transition_matrix(gen_barbell(3), Constant())
    for u in range(P.shape[0]):
        total = sum(jacobian_expectation(P, u, v, 7) for v in range(P.shape[0]))
        assert math.isclose(total, 1.0, abs_tol=1e-12)


def test_jacobian_barbell_bottleneck():
    """Influence across the bridge is far below influence within a side."""
    g = gen_barbell(5)
    P = transition_matrix(g, Constant())
    near = jacobian_expectation(P, 0, 1, 8)
    far = jacobian_expectation(P, 0, 9, 8)
    assert far < near / 5


def test_jacobian_validation():
    P = transition_matrix(gen_cycle(3), Constant())
    with pytest.raises(ValueError):
        jacobian_expectation(P, 0, 3, 1)
    with pytest.raises(ValueError):
        jacobian_expectation(P, 0, 0, -1)


def test_averaged_row_holds_every_jacobian_entry_and_checks_its_inputs():
    P = transition_matrix(gen_barbell(5), Constant())
    for l in (0, 5, 20):
        for u in range(P.shape[0]):
            row = averaged_row(P, u, l)
            assert [x.hex() for x in row.tolist()] == [
                jacobian_expectation(P, u, v, l).hex() for v in range(P.shape[0])]
    for args, why in [((P[:3], 0, 1), "must be square"), ((P, 10, 1), "^u=10 out of range"),
                      ((P, -1, 1), "^u=-1 out of range"), ((P, 0, -1), "^l must be >= 0"),
                      ((P * 2, 0, 1), "rows must sum to 1")]:
        with pytest.raises(ValueError, match=why):
            averaged_row(*args)
    with pytest.raises(ValueError, match="^v=-1 out of range for n=10$"):
        jacobian_expectation(P, 0, -1, 1)


def test_jacobian_at_length_zero_needs_no_stochastic_rows():
    # a single vertex with no edge: P is the zero 1x1 matrix
    P = transition_matrix(build_graph([], 1), Constant())
    assert jacobian_expectation(P, 0, 0, 0) == 1.0
    with pytest.raises(ValueError, match="rows must sum to 1"):
        jacobian_expectation(P, 0, 0, 1)


def test_mc_visit_frequencies_k2_exact():
    # on an edge the trajectory is forced, so the estimate is exact
    g = build_graph([(0, 1)], 2)
    freqs = mc_visit_frequencies(g, 3, 0, 1, trials=64)
    np.testing.assert_allclose(freqs, [0.5, 0.5])


def test_mc_visit_frequencies_match_exact_identity():
    g = gen_cycle(3)
    P = transition_matrix(g, Constant())
    trials = 40_000
    l = 2
    freqs = mc_visit_frequencies(g, 5, 0, l, trials)
    assert math.isclose(float(freqs.sum()), 1.0, abs_tol=1e-12)
    for v in range(3):
        exact = jacobian_expectation(P, 0, v, l)
        sigma = math.sqrt(exact * (1 - exact) / (trials * (l + 1)))
        assert abs(float(freqs[v]) - exact) < 5 * sigma


def reference_visit_frequencies(g, config, u, l, trials, cell):
    rows = PaddedRows.compile(g, config)
    visits = np.zeros(g.n, dtype=np.int64)
    for j in range(math.ceil(trials / CHUNK_TRIALS)):
        lanes = min(CHUNK_TRIALS, trials - j * CHUNK_TRIALS)
        rng = rng_stream(config.seed, cell, j)
        state = np.full(lanes, u, dtype=np.int64)
        visits[u] += lanes
        for _ in range(l):
            idx = (rng.random(lanes)[:, None] >= rows.cum[state]).sum(axis=1)
            state = rows.next[state, idx]
            np.add.at(visits, rows.position[state], 1)
    return visits / (trials * (l + 1))


@pytest.mark.parametrize("chunks", [1, 3, 5, 10])
@pytest.mark.parametrize("l", [1, 7, 20])
@pytest.mark.parametrize("name", ["barbell-5", "lollipop-10"])
def test_mc_visit_frequencies_match_reference_loop(name, l, chunks):
    # full chunks and a short last one of 52 trials (of 1 for 10 chunks):
    # one group, one group, a full group and a short one, two full groups
    # and a group of a full chunk and a one-trial chunk
    trials = (chunks - 1) * CHUNK_TRIALS + (1 if chunks == 10 else 52)
    g = gen_barbell(5) if name == "barbell-5" else gen_lollipop(10)
    config = WalkConfig(length=0, seed=31)
    for cell, u in enumerate((0, g.n // 2, g.n - 1)):
        want = reference_visit_frequencies(g, config, u, l, trials, cell)
        got = mc_visit_frequencies(g, config.seed, u, l, trials, cell=cell)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_mc_visit_frequencies_needs_a_seed():
    # without a seed, rng_stream would draw its entropy from the OS
    with pytest.raises(ValueError, match="^config.seed is required for sampling$"):
        mc_visit_frequencies(gen_cycle(3), None, u=0, l=2, trials=16)


def test_mc_visit_frequencies_single_vertex():
    g = parse_edge_list("1 0\n")
    assert list(mc_visit_frequencies(g, 1, 0, 0, trials=8)) == [1.0]
    # sample_walk's wording of the same fault
    for l in (1, 3):
        with pytest.raises(ValueError, match="^vertex 0 has no neighbor to step to$"):
            mc_visit_frequencies(build_graph([], 1), 0, 0, l, trials=10)


def test_mixing_suite_membership():
    suite = mixing_suite()
    assert [name for name, _ in suite] == [
        "triangle",
        "star-plus-edge",
        "barbell-5",
        "lollipop-4",
    ]
    # every member must admit a stationary distribution
    for _, g in suite:
        stationary(transition_matrix(g, Constant()))
