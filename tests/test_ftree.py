import ast
import json
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from orthres import _kernels, ftree
from orthres.bsde import dual_value, solve_lipschitz, truncated_driver
from orthres.errors import InvariantViolation, OrthresError
from orthres.ftree import (PSD_TOL, AdaptedProcess, EdgeOffsets,
                           ScenarioTree, TimeGrid, backward_closure, conditional_covariances,
                           is_martingale, predictable_bracket)
from orthres.models import KINDS, ModelConfig, build

from orthres.forward import extract_subtree
from orthres.gkw import gkw_decompose

from conftest import (closed_form_twin, permute_last_level,
                      random_full_tree, random_martingale, small_trees)
from reference import (TreeBuilder, accumulated_trace, clock_from_increments,
                       closed_form_stride, cond_exp, is_martingale_range,
                       is_tree, node_level, path_prob, path_prob_loop,
                       pathwise_bracket, predictable_bracket_range,
                       psd_cholesky,
                       psd_cholesky_stack, tree_from_json, tree_to_json)


def binary_tree(K=2, h=1.0, recombine=False):
    built = build(ModelConfig("binary", K=K,
                              params={"h": h, "recombine": recombine}))
    return built.tree, built.M


# -- TimeGrid ---------------------------------------------------------------

def test_timegrid_uniform():
    g = TimeGrid.uniform(4, 2.0)
    assert g.K == 4
    assert g.T == 2.0
    npt.assert_allclose(np.diff(g.t), 0.5)


def test_timegrid_rejects_bad_grids():
    with pytest.raises(InvariantViolation):
        TimeGrid(np.array([0.0]))
    with pytest.raises(InvariantViolation):
        TimeGrid(np.array([0.1, 0.5, 1.0]))
    with pytest.raises(InvariantViolation):
        TimeGrid(np.array([0.0, 0.5, 0.5]))


# -- tree structure ---------------------------------------------------------

def test_builder_full_binary_counts():
    tree, _ = binary_tree(K=2)
    assert tree.n_nodes == 7
    assert is_tree(tree)
    assert tree.level_slice(0) == (0, 1)
    assert tree.level_slice(2) == (3, 7)
    npt.assert_allclose(path_prob(tree)[3:], 0.25)


def test_builder_recombining_lattice():
    tree, _ = binary_tree(K=2, recombine=True)
    assert tree.n_nodes == 6
    assert not is_tree(tree)
    in_degree = np.bincount(tree.echild, minlength=tree.n_nodes)
    assert in_degree[0] == 0
    # the middle terminal node has two incoming edges
    assert (in_degree == 2).sum() == 1


def test_validate_rejects_leaky_probabilities():
    b = TreeBuilder(TimeGrid.uniform(1))
    b.begin_level()
    b.child(0, 0.5)
    b.child(0, 0.4)
    b.end_level()
    with pytest.raises(InvariantViolation):
        b.build()


@pytest.mark.parametrize("eparent,echild,match", [
    # a child of -1 would wrap to the last leaf
    ([0, 0, 1, 1, 2, 2], [1, 2, 3, 4, 4, -1], "consecutive levels"),
    ([0, 0, 1, 1, 2, 2], [1, 2, 3, 4, 4, 6], "consecutive levels"),
    # in closed form with child stride 2, which runs past the last level
    ([0, 0, 1, 1, 2, 2], [1, 2, 3, 4, 5, 6], "consecutive levels"),
    ([0, 0, 1, 1, 2, 6], [1, 2, 3, 4, 4, 5], r"parents must lie in \[0, 6\)"),
    ([0, 0, 1, 1, 2, -1], [1, 2, 3, 4, 4, 5], r"parents must lie in \[0, 6\)"),
], ids=["child_-1", "child_n", "closed_form_child_n", "parent_n",
        "parent_-1"])
def test_tree_rejects_edge_endpoints_out_of_range(eparent, echild, match):
    with pytest.raises(InvariantViolation, match=match):
        ScenarioTree(TimeGrid.uniform(2), [0, 1, 3, 6], eparent, echild,
                     [0.5] * 6)


def test_tree_rejects_a_non_terminal_node_without_edges():
    # node 2's probabilities would otherwise be read off node 1's segment
    with pytest.raises(InvariantViolation, match="needs an edge"):
        ScenarioTree(TimeGrid.uniform(2), [0, 1, 3, 6], [0, 0, 1],
                     [1, 2, 3], [0.5, 0.5, 1.0])


@pytest.mark.parametrize("eprob", [[np.nan, np.nan], [0.5, np.nan],
                                   [1.5, -0.5]])
def test_tree_rejects_edge_probabilities_outside_unit_interval(eprob):
    with pytest.raises(InvariantViolation, match="must lie in"):
        ScenarioTree(TimeGrid.uniform(1), [0, 1, 3], [0, 0], [1, 2], eprob)


@pytest.mark.parametrize("level_start", [[0, 1, 3], [0, 1, 1, 3],
                                         [1, 2, 3, 6]])
def test_tree_rejects_malformed_level_offsets(level_start):
    with pytest.raises(InvariantViolation, match="level_start"):
        ScenarioTree(TimeGrid.uniform(2), level_start, [0, 0], [1, 2],
                     [0.5, 0.5])


@pytest.mark.parametrize("eparent", [[0, 0, 1, 1], None],
                         ids=["arrays", "closed_form"])
def test_tree_rejects_a_level_0_of_two_roots(eparent):
    """Two roots of mass 1 and 0 would make a tree whose level masses all
    sum to 1."""
    with pytest.raises(InvariantViolation, match="one root node, got 2"):
        ScenarioTree(TimeGrid.uniform(1), [0, 2, 4], eparent,
                     [2, 3, 2, 3] if eparent else None, [0.5] * 4)


def test_level_mass_is_one(rng):
    tree = random_full_tree(rng, K=4)
    for k in range(tree.K + 1):
        lo, hi = tree.level_slice(k)
        npt.assert_allclose(path_prob(tree)[lo:hi].sum(), 1.0, atol=1e-12)


# -- conditional expectation ------------------------------------------------

def test_cond_exp_terminal_mean(rng):
    tree = random_full_tree(rng, K=3)
    lo, hi = tree.level_slice(tree.K)
    vals = np.zeros(tree.n_nodes)
    vals[lo:hi] = rng.normal(size=hi - lo)
    e0 = cond_exp(tree, vals, 0)
    npt.assert_allclose(e0[0, 0], path_prob(tree)[lo:hi] @ vals[lo:hi],
                        atol=1e-12)


def test_cond_exp_tower_property(rng):
    for trial in range(10):
        tree = random_full_tree(rng, K=4)
        vals = np.zeros(tree.n_nodes)
        lo, hi = tree.level_slice(tree.K)
        vals[lo:hi] = rng.normal(size=hi - lo)
        inner = cond_exp(tree, vals, 2)           # E[X | F_2]
        padded = np.zeros(tree.n_nodes)
        a, b = tree.level_slice(2)
        padded[a:b] = inner[:, 0]
        via_tower = cond_exp(tree, padded, 1, of_level=2)
        direct = cond_exp(tree, vals, 1)
        npt.assert_allclose(via_tower, direct, atol=1e-12)


def test_backward_closure_is_martingale(rng):
    tree = random_full_tree(rng, K=4)
    lo, hi = tree.level_slice(tree.K)
    Y = backward_closure(tree, rng.normal(size=hi - lo))
    assert is_martingale(tree, Y, tol=1e-11)


def test_is_martingale_detects_drift():
    tree, M = binary_tree(K=3, h=0.5)
    drift = AdaptedProcess(tree, M.scalar + 0.1 * node_level(tree))
    chk = is_martingale(tree, drift)
    assert not chk
    npt.assert_allclose(chk.max_violation, 0.1, atol=1e-12)


# -- the d-general PSD factor oracle ------------------------------------------

def test_psd_cholesky_reconstructs(rng):
    for _ in range(20):
        d = int(rng.integers(1, 5))
        A = rng.normal(size=(d, d))
        S = A @ A.T
        L = psd_cholesky(S)
        npt.assert_allclose(L @ L.T, S, atol=1e-10 * max(1, np.abs(S).max()))
        assert np.allclose(L, np.tril(L))


def test_psd_cholesky_rank_deficient():
    S = np.array([[1.0, 1.0], [1.0, 1.0]])
    L = psd_cholesky(S)
    npt.assert_allclose(L @ L.T, S, atol=1e-12)
    assert L[1, 1] == 0.0


def test_psd_cholesky_rejects_indefinite():
    with pytest.raises(InvariantViolation):
        psd_cholesky(np.array([[1.0, 0.0], [0.0, -1.0]]))


# -- stacked factor oracle against the per-matrix one -------------------------

def psd_cholesky_loop(A, tol=PSD_TOL):
    """Per-matrix reference: one matrix, one column and one row at a time."""
    A = np.asarray(A, dtype=float)
    d = A.shape[0]
    scale = max(1.0, float(np.max(np.abs(A))))
    L = np.zeros_like(A)
    for j in range(d):
        s = A[j, j] - np.dot(L[j, :j], L[j, :j])
        if s < -tol * scale:
            raise InvariantViolation(
                f"matrix not PSD within tolerance (pivot {s:.3e})")
        if s <= tol * scale:
            continue  # column stays zero
        L[j, j] = np.sqrt(s)
        for i in range(j + 1, d):
            L[i, j] = (A[i, j] - np.dot(L[i, :j], L[j, :j])) / L[j, j]
    return L


def psd_matrix(rng, d, kind, log10_scale):
    """L L* for a random lower-triangular L whose pivots are 0 or in [0.5, 2].

    A "deficient" matrix has some zero pivots, each with its column of L
    zeroed; a "tiny" one lies wholly below the pivot tolerance, and a "small"
    one lies above it only against its own scale, not a larger neighbour's.
    Pivots well away from the tolerance keep the factor well conditioned, so
    two correct summation orders agree to rounding.
    """
    L = np.tril(rng.normal(size=(d, d)), -1)
    piv = rng.uniform(0.5, 2.0, size=d)
    if kind == "deficient":
        piv[rng.random(d) < 0.5] = 0.0
    L[np.arange(d), np.arange(d)] = piv
    L[:, piv == 0.0] = 0.0
    if kind in ("tiny", "small"):
        return L @ L.T * {"tiny": 1e-14, "small": 1e-10}[kind]
    return L @ L.T * 10.0 ** log10_scale


@st.composite
def psd_stacks(draw):
    d = draw(st.integers(1, 4))
    kinds = draw(st.lists(st.sampled_from(["full", "deficient", "tiny",
                                          "small"]),
                          min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return np.stack([psd_matrix(rng, d, kind, draw(st.integers(-3, 3)))
                     for kind in kinds])


@settings(deadline=None)
@given(psd_stacks())
def test_batched_factor_matches_per_matrix_reference(A):
    got = psd_cholesky_stack(A)
    want = np.stack([psd_cholesky_loop(a) for a in A])
    if A.shape[-1] == 1:
        assert np.array_equal(got, want)
    else:
        scale = np.maximum(1.0, np.abs(A).max(axis=(1, 2)))[:, None, None]
        npt.assert_allclose(got / scale, want / scale, rtol=1e-12, atol=1e-14)
    for g, a in zip(got, A):
        assert np.array_equal(g, psd_cholesky(a))


@settings(deadline=None)
@given(psd_stacks(), st.integers(0, 2 ** 32 - 1))
def test_batched_factor_rejects_one_indefinite_member(A, seed):
    rng = np.random.default_rng(seed)
    n, d = A.shape[0], A.shape[-1]
    # eigenvalues at least 0.1 away from 0 and one of them negative
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    lam = rng.uniform(0.1, 2.0, size=d) * np.where(np.arange(d) == 0, -1, 1)
    bad = int(rng.integers(0, n + 1))
    A = np.insert(A, bad, (Q * lam) @ Q.T, axis=0)
    with pytest.raises(InvariantViolation, match=f"in matrix {bad}\\)"):
        psd_cholesky_stack(A)
    with pytest.raises(InvariantViolation):
        psd_cholesky_loop(A[bad])


def test_batched_factor_names_the_worst_pivot():
    # worst against each matrix's own scale: -2/2 beats -1/8 and -0.5/1
    A = np.stack([np.diag([1.0, -0.5]), np.diag([-1.0, 8.0]),
                  np.diag([-2.0, 1.0])])
    with pytest.raises(InvariantViolation,
                       match=r"pivot -2\.000e\+00 in matrix 2\)"):
        psd_cholesky_stack(A)


def factor_reference(sigma, clock):
    """q by the d-general oracle: the PSD factor of each node's 1 x 1
    Sigma/dC, 0 where dC <= 0."""
    dc = clock.dC.values
    a = np.divide(sigma, dc, out=np.zeros_like(sigma), where=dc > 0)
    return psd_cholesky_stack(a.reshape(-1, 1, 1))[:, 0, 0]


@pytest.mark.parametrize("kind,K,params", [
    ("trinomial", 40, {}),
    ("compensated_jump", 24, {"lam": 2.0, "lam_down": 1.5}),
    ("time_changed", 9, {"kappa": 2.0}),
])
def test_clock_factor_matches_per_node_reference(kind, K, params):
    """q over every node, and level by level, is the stacked oracle's and
    the per-node loop's byte for byte."""
    built = build(ModelConfig(kind, K=K, params=params))
    tree = built.tree
    clock = predictable_bracket(tree, built.M)
    sigma = predictable_bracket_range(tree, built.M).sigma.ravel()
    got = clock.factor(0, tree.n_nonterminal)
    assert got.tobytes() == factor_reference(sigma, clock).tobytes()
    loop = [psd_cholesky_loop([[s / dc]])[0, 0] if dc > 0 else 0.0
            for s, dc in zip(sigma, clock.dC.values)]
    assert got.tobytes() == np.array(loop).tobytes()
    levels = [clock.factor(*tree.level_slice(k)) for k in range(tree.K)]
    assert np.concatenate(levels).tobytes() == got.tobytes()


# -- brackets and clock -----------------------------------------------------

def test_binary_clock_closed_form():
    h = 0.5
    tree, M = binary_tree(K=3, h=h)
    clock = predictable_bracket(tree, M)
    ref = predictable_bracket_range(tree, M)
    nt = tree.n_nonterminal
    npt.assert_allclose(ref.sigma.ravel(), h ** 2, atol=1e-14)
    # deterministic clock: C_k = arctan(k h^2)
    for k in range(tree.K + 1):
        lo, hi = tree.level_slice(k)
        npt.assert_allclose(ref.C[lo:hi], np.arctan(k * h ** 2), atol=1e-14)
    dC = clock.dC.values
    assert dC.tobytes() == ref.dC.tobytes()
    q = clock.factor(0, nt)
    npt.assert_allclose(q ** 2 * dC, h ** 2, atol=1e-14)


def test_zero_variance_step_degenerates():
    b = TreeBuilder(TimeGrid.uniform(2))
    b.begin_level()
    b.child(0, 1.0)                    # constant step
    b.end_level()
    b.begin_level()
    b.child(1, 0.5)
    b.child(1, 0.5)
    b.end_level()
    tree = b.build()
    M = AdaptedProcess(tree, np.array([0.0, 0.0, -1.0, 1.0]))
    clock = predictable_bracket(tree, M)
    assert clock.dC.values[0] == 0.0
    assert clock.factor(0, 1)[0] == 0.0
    assert clock.dC.values[1] > 0


@pytest.mark.parametrize("level_start,eparent,echild,eprob,M,worst", [
    # arity 2: the middle leaf's traces are 1 + 1 and 1 + 2.5
    ([0, 1, 3, 6], [0, 0, 1, 1, 2, 2], [1, 2, 3, 4, 4, 5], [0.5] * 6,
     [0, -1, 1, -2, 0, 3], "1.500e+00"),
    # out-degrees 2, 2 and 3: node 4's traces are 1 + 1 and 1 + 2
    ([0, 1, 3, 7], [0, 0, 1, 1, 2, 2, 2], [1, 2, 3, 4, 4, 5, 6],
     [0.5] * 4 + [1 / 3] * 3, [0, -1, 1, -2, 0, 2, 3], "1.000e+00"),
], ids=["fixed_arity", "arity_none"])
def test_clock_rejects_recombined_nodes_with_different_traces(
        level_start, eparent, echild, eprob, M, worst):
    tree = ScenarioTree(TimeGrid.uniform(2), level_start, eparent, echild,
                        eprob)
    assert tree.arity == (2 if len(eparent) == 6 else None)
    M = AdaptedProcess(tree, np.array(M, float))
    # the pass that keeps no increments makes the same check
    for increments in (True, False):
        with pytest.raises(InvariantViolation,
                           match="recombined nodes disagree") as err:
            predictable_bracket(tree, M, increments=increments)
        assert f"(max {worst})" in str(err.value)


def test_pathwise_bracket_binary():
    h = 0.5
    tree, M = binary_tree(K=3, h=h)
    B = pathwise_bracket(tree, M)
    for k in range(tree.K + 1):
        lo, hi = tree.level_slice(k)
        npt.assert_allclose(B.values[lo:hi, 0], k * h ** 2, atol=1e-14)


def test_pathwise_bracket_rejects_lattice():
    tree, M = binary_tree(K=3, recombine=True)
    with pytest.raises(InvariantViolation):
        pathwise_bracket(tree, M)


def test_predictable_equals_mean_pathwise(rng):
    tree = random_full_tree(rng, K=3)
    M = random_martingale(rng, tree)
    sigma = conditional_covariances(tree, M)
    B = pathwise_bracket(tree, M)
    lo, hi = tree.level_slice(tree.K)
    # E[[M]_T] equals the terminal accumulated conditional-variance trace
    w = path_prob(tree)[lo:hi]
    npt.assert_allclose(w @ B.values[lo:hi, 0],
                        w @ accumulated_trace(tree, sigma)[lo:hi],
                        atol=1e-10)


# -- serialization ----------------------------------------------------------

def test_json_roundtrip_tree():
    tree, M = binary_tree(K=2, h=0.25)
    text = tree_to_json(tree, M)
    tree2, M2 = tree_from_json(text)
    assert tree2.n_nodes == tree.n_nodes
    npt.assert_allclose(tree2.eprob, tree.eprob)
    npt.assert_allclose(M2.values, M.values)
    assert json.loads(text)  # valid JSON document


def test_json_roundtrip_lattice():
    tree, M = binary_tree(K=3, recombine=True)
    tree2, M2 = tree_from_json(tree_to_json(tree, M))
    assert not is_tree(tree2)
    assert tree2.n_nodes == tree.n_nodes
    npt.assert_allclose(path_prob(tree2), path_prob(tree))
    npt.assert_allclose(M2.values, M.values)


@pytest.mark.parametrize("kind,arity", [("binary", 2), ("trinomial", 3),
                                        ("time_changed", 2),
                                        ("compensated_jump", 3),
                                        ("product_noise", 4)])
def test_model_trees_have_fixed_arity_and_subtrees_keep_it(kind, arity):
    from orthres.forward import extract_subtree
    tree = build(ModelConfig(kind, K=6)).tree
    assert tree.arity == arity
    sub, _ = extract_subtree(tree, int(tree.level_start[2]) + 1)
    assert sub.arity == arity


def test_arity_is_none_when_out_degrees_differ():
    b = TreeBuilder(TimeGrid.uniform(2))
    b.begin_level()
    left, right = b.child(0, 0.5), b.child(0, 0.5)
    b.end_level()
    b.begin_level()
    for p in (0.25, 0.25, 0.5):
        b.child(left, p)
    for p in (0.5, 0.5):
        b.child(right, p)
    b.end_level()
    assert b.build().arity is None
    # the terminal level's nodes have no edges and do not count
    assert random_full_tree(np.random.default_rng(0), K=1,
                            max_branch=2).arity == 2


# -- closed-form children and path probabilities ------------------------------

@st.composite
def line_trees(draw):
    """Binary and trinomial walks with random K, p and h, recombining (line
    lattices) or full: as built, as the subtree of a random non-terminal
    node, or with their leaves permuted.  Returns (tree, stride), the
    child_stride its kind has, None where it may have none."""
    kind = draw(st.sampled_from(["binary", "trinomial"]))
    recomb = draw(st.booleans())
    params = {"recombine": recomb, "h": draw(st.floats(0.01, 2.0))}
    if kind == "trinomial":
        params["p"] = draw(st.floats(0.01, 0.49))
    tree = build(ModelConfig(kind, K=draw(st.integers(1, 12 if recomb else 6)),
                             params=params)).tree
    variant = draw(st.sampled_from(["built", "subtree", "permuted"]))
    if variant == "subtree":
        tree = extract_subtree(
            tree, draw(st.integers(0, tree.n_nonterminal - 1)))[0]
    if variant == "permuted":
        tree = permute_last_level(
            tree, np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))))[0]
        return tree, None
    # with one node on every non-terminal level any stride fits; it reads 1
    wide = np.diff(tree.level_start[:tree.K + 1]).max() > 1
    return tree, (1 if recomb or not wide else tree.arity)


@settings(deadline=None)
@given(line_trees())
def test_child_stride_is_set_iff_children_are_in_closed_form(tree_stride):
    """Line lattices and their subtrees step by 1 and full trees by their
    arity; a copy with permuted children is not flagged.  The path
    probabilities add each child's mass in edge order, byte for byte, on
    either path."""
    tree, stride = tree_stride
    assert closed_form_stride(tree) == stride
    assert tree.child_stride == stride
    assert path_prob(tree).tobytes() == path_prob_loop(tree).tobytes()


@settings(max_examples=60, deadline=None)
@given(small_trees())
def test_child_stride_and_path_prob_on_every_model_kind(tree_m):
    """A tree given its edges as arrays keeps its children and has no
    stride, and keeps its parents where it was given them: a tree with the
    same number of edges out of every node may be given its children alone
    (the jump lattice and ``time_changed`` are) and derive its parents.  One
    given its edges in closed form keeps none and its children follow its
    stride."""
    tree, _ = tree_m
    if tree._echild is None:
        assert tree._eparent is None
        assert tree.child_stride == closed_form_stride(tree)
    else:
        assert tree.child_stride is None
        assert tree._eparent is not None or tree.arity is not None
    assert path_prob(tree).tobytes() == path_prob_loop(tree).tobytes()


# -- path probabilities kept at checkpoint levels -----------------------------

@st.composite
def path_prob_trees(draw):
    """A tree of every edge form: a random full tree of mixed arity given
    as arrays or of one arity in closed form (per-edge probabilities, a
    stride), or a built model of any kind, recombining or full (move rows,
    strides 1 and r, the two-sided jump and ``time_changed`` given their
    children); as built, given its probabilities per edge, given its edges
    as arrays, or as the subtree of a random non-terminal node."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(("random",) + KINDS))
    if kind == "random":
        r = draw(st.integers(1, 4))
        tree = random_full_tree(rng, K=draw(st.integers(1, 5 - r // 2)),
                                min_branch=draw(st.integers(1, r)),
                                max_branch=r)
        if tree.arity is not None and draw(st.booleans()):
            tree = closed_form_twin(tree)
    else:
        K = draw(st.integers(5 if kind == "compensated_jump" else 1,
                             4 if kind == "product_noise" else 20))
        params = ({"recombine": draw(st.booleans())}
                  if K <= 6 and kind != "time_changed" else {})
        if kind == "trinomial":
            # p = 1/4 adds exactly, in any order
            params["p"] = draw(st.floats(0.01, 0.49))
        tree = build(ModelConfig(kind, K=K, params=params)).tree
    form = draw(st.sampled_from(("as built", "per edge", "arrays",
                                 "subtree")))
    if form == "per edge":
        tree = ScenarioTree(tree.grid, tree.level_start, tree._eparent,
                            tree._echild, tree.eprob)
    if form == "arrays":
        tree = ScenarioTree(tree.grid, tree.level_start, tree.eparent,
                            tree.echild, tree.probs)
    if form == "subtree":
        tree = extract_subtree(
            tree, draw(st.integers(0, tree.n_nonterminal - 1)))[0]
    return tree


@settings(max_examples=150, deadline=None)
@given(path_prob_trees())
def test_level_path_probs_equal_the_edge_loop(tree):
    """Every level's path probabilities, read from the checkpoint at or
    below it or streamed from K - 1 down to 0 one block at a time, are the
    edge-by-edge loop's byte for byte, on every edge form."""
    want, ls = path_prob_loop(tree), tree.level_start
    for k in range(tree.K + 1):
        got = tree.level_path_prob(k)
        assert got.dtype == want.dtype
        assert got.tobytes() == want[ls[k]:ls[k + 1]].tobytes()
    stream = list(tree.descending_path_probs())
    assert [k for k, _ in stream] == list(range(tree.K - 1, -1, -1))
    for k, got in stream:
        assert got.tobytes() == want[ls[k]:ls[k + 1]].tobytes()
    for bad in (-1, tree.K + 1):
        with pytest.raises(IndexError):
            tree.level_path_prob(bad)


@pytest.mark.parametrize("form", ["move row", "arrays"])
def test_drifting_level_mass_names_the_first_bad_level(form):
    """On a line lattice whose two moves sum to 1 - 9e-15, within the
    per-node tolerance, the level mass drifts by 9e-15 a level: the tree
    refuses it, naming the first level whose mass is off by more than
    MASS_TOL and that mass, whether it steps by its stride or by bincount."""
    K, q = 150, 0.5 - 4.5e-15
    ls = np.concatenate([[0], np.cumsum(np.arange(1, K + 2))])
    # the edge loop's masses: node j of level k feeds j and j + 1 below
    pp, first = [1.0], None
    for k in range(1, K + 1):
        nxt = [0.0] * (k + 1)
        for j, m in enumerate(pp):
            nxt[j] += m * q
            nxt[j + 1] += m * q
        pp = nxt
        mass = float(np.add.reduceat(np.array(pp), [0])[0])
        if abs(mass - 1.0) > ftree.MASS_TOL:
            first = k, mass
            break
    assert first is not None and first[0] > 100
    edges = None, None
    if form == "arrays":
        parent = np.repeat(np.arange(ls[K]), 2)
        level = np.repeat(np.arange(K), np.arange(1, K + 1))
        child = parent + np.repeat(level, 2) + 1 + np.tile([0, 1], ls[K])
        edges = parent, child
    with pytest.raises(InvariantViolation,
                       match=rf"^level {first[0]} probability mass "
                             rf"{re.escape(repr(first[1]))} != 1$"):
        ScenarioTree(TimeGrid.uniform(K), ls, *edges, [[q, q]])


def test_closed_sweep_builds_no_full_size_path_array():
    """A _closed sweep on trinomial K = 256 (66,049 nodes) streams its
    levels' path probabilities: its traced peak stays below half a
    full-size float array."""
    from orthres import bsde
    built = build(ModelConfig("trinomial", K=256))
    tree, M = built.tree, built.M
    clock = predictable_bracket(tree, M)
    lo, hi = tree.level_slice(tree.K)
    zeta = np.sin(3.0 * M.scalar[lo:hi])

    def sweep():
        bsde._consume(bsde._closed(tree, M, clock, None, zeta,
                                   bsde.zero_driver()))
    sweep()  # first-call allocations are not the sweep's
    tracemalloc.start()
    try:
        sweep()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * tree.n_nodes


# -- closed-form edges against the index arrays they replace ------------------

@st.composite
def edge_trees(draw):
    """A random full tree of one arity r = 1 .. 4 (whose closed-form twin
    has stride r), or a small_trees tree (mixed arity or any built kind),
    as it is or with its leaves permuted."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        r = draw(st.integers(1, 4))
        tree = random_full_tree(rng, K=draw(st.integers(1, 4)),
                                min_branch=r, max_branch=r)
    else:
        tree, _ = draw(small_trees())
    return permute_last_level(tree, rng)[0] if draw(st.booleans()) else tree


@settings(max_examples=80, deadline=None)
@given(edge_trees(), st.data())
def test_closed_form_edges_equal_the_index_arrays(tree, data):
    """A tree given its edges as arrays keeps them and has no child stride.
    Where its children follow a closed form, its twin given them in closed
    form agrees with it byte for byte and has that stride; no closed form
    reproduces any other tree.  On any node range, runs of levels and
    leaves included, the accessors are slices of the arrays."""
    ep, ec = tree.eparent, tree.echild
    given_arrays = ScenarioTree(tree.grid, tree.level_start, ep, ec,
                                tree.eprob)
    assert given_arrays._eparent is not None
    assert given_arrays._echild is not None
    assert given_arrays.child_stride is None
    trees = [tree, given_arrays]
    stride = closed_form_stride(given_arrays)
    if stride is None:
        try:
            twin = closed_form_twin(tree)
        except InvariantViolation:
            twin = None
        assert twin is None or not np.array_equal(twin.echild, ec)
    else:
        twin = closed_form_twin(tree)
        assert twin._eparent is None and twin._echild is None
        assert twin.child_stride == stride
        trees.append(twin)
    for t in trees[1:]:
        # [:] reads the whole array, stored or computed where indexed
        for got, want in [(getattr(t, name)[:], getattr(tree, name)[:])
                          for name in ("eparent", "echild", "estart")] + [
                (path_prob(t), path_prob(tree)),
                (node_level(t), node_level(tree))]:
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert t.arity == tree.arity
    for _ in range(5):
        lo = data.draw(st.integers(0, tree.n_nodes))
        hi = data.draw(st.integers(lo, tree.n_nodes))
        e = slice(int(tree.estart[lo]), int(tree.estart[hi]))
        for t in trees:
            assert t.edge_parents(lo, hi).tobytes() == ep[e].tobytes()
            assert t.edge_children(lo, hi).tobytes() == ec[e].tobytes()


@settings(deadline=None)
@given(st.integers(0, 40), st.data())
def test_edge_offsets_index_as_their_array(n, data):
    """The offsets a tree with r edges out of each of its nt non-terminal
    nodes computes where they are read equal the array
    min(arange(n + 1), nt) * r under int, negative-int, stepped-slice and
    integer-array indexing, and refuse an index the array refuses."""
    nt, r = data.draw(st.integers(0, n)), data.draw(st.integers(1, 7))
    off, ref = EdgeOffsets(n, nt, r), np.minimum(np.arange(n + 1), nt) * r
    assert len(off) == len(ref) and off.itemsize == ref.itemsize
    i = data.draw(st.integers(-(n + 1), n))
    assert off[i] == ref[i] and off[np.int64(i)] == ref[i]
    ends = st.none() | st.integers(-(n + 3), n + 3)
    sl = slice(data.draw(ends), data.draw(ends),
               data.draw(st.none() | st.integers(-4, 4).filter(bool)))
    idx = np.array(data.draw(st.lists(st.integers(-(n + 1), n),
                                      max_size=8)), dtype=np.int64)
    for at in (sl, idx):
        got = off[at]
        assert got.dtype == ref.dtype and got.tobytes() == ref[at].tobytes()
    for bad in (n + 1, -(n + 2), np.array([n + 1])):
        with pytest.raises(IndexError):
            ref[bad]
        with pytest.raises(IndexError):
            off[bad]


@pytest.mark.parametrize("level_start,eprob,match", [
    ([0, 1, 3, 6], [0.5] * 4, "3 non-terminal nodes, got 4 edges"),
    # sizes 1, 2, 3 step by 1, and 5 does not
    ([0, 1, 3, 6, 11], [0.5] * 12, "level 3 holds 5 nodes"),
    # sizes 1, 2, 2: a stride of 0, both nodes on the same two children
    ([0, 1, 3, 5], [0.5] * 6, "level 2 holds 2 nodes"),
    # sizes 1, 3, 4 at arity 3: a stride of 1/2
    ([0, 1, 4, 8], [0.5, 0.25, 0.25] * 4, "level 2 holds 4 nodes"),
    # sizes 1, 2, 5 at arity 2: a stride of 3 leaves node 5 no parent
    ([0, 1, 3, 8], [0.5] * 6, "level 2 holds 5 nodes"),
], ids=["edges_per_node", "odd_size", "stride_0", "stride_fraction",
        "stride_above_arity"])
def test_closed_form_tree_refuses_level_sizes_off_its_stride(level_start,
                                                              eprob, match):
    K = len(level_start) - 2
    with pytest.raises(InvariantViolation, match=match):
        ScenarioTree(TimeGrid.uniform(K), level_start, None, None, eprob)


def test_no_library_module_reads_the_whole_edge_arrays():
    """The library reads edges through edge_parents and edge_children on a
    node range, probabilities through ``probs`` per range and levels from
    ``level_start``: on a closed-form tree each read of ``.eparent`` or
    ``.echild``, on a tree with a move row each read of ``.eprob``, and on
    every tree each read of ``.node_level`` builds the whole array.
    ScenarioTree's own definitions of those properties are not reads."""
    reads = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(ftree.__file__).parent.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute)
             and node.attr in ("eparent", "echild", "eprob", "node_level",
                               "path_prob")]
    assert reads == []


# -- a move row against its per-edge twin -----------------------------------

@st.composite
def move_row_trees(draw):
    """(tree, M) on a tree given one move row of arity 2 .. 4: a built
    lattice (recombining or full, the two-sided jump given as arrays) or a
    random full tree, as built, given its edges as arrays, or with its
    leaves permuted."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(("random", "binary", "trinomial",
                                 "compensated_jump", "product_noise")))
    if kind == "random":
        r, K = draw(st.integers(2, 4)), draw(st.integers(1, 4))
        row = rng.uniform(0.1, 1.0, r)
        row /= row.sum()
        row[-1] = 1.0 - row[:-1].sum()
        ls = np.concatenate([[0], np.cumsum(r ** np.arange(K + 1))])
        tree = ScenarioTree(TimeGrid.uniform(K), ls, None, None, row[None])
        M = random_martingale(rng, tree)
    else:
        K = draw(st.integers(5 if kind == "compensated_jump" else 1,
                             4 if kind == "product_noise" else 10))
        params = {"recombine": draw(st.booleans())} if K <= 6 else {}
        if kind == "compensated_jump":
            params["lam_down"] = draw(st.sampled_from((0.0, 2.0)))
        built = build(ModelConfig(kind, K=K, params=params))
        tree, M = built.tree, built.M
    form = draw(st.sampled_from(("as built", "arrays", "permuted")))
    if form == "arrays":
        tree = ScenarioTree(tree.grid, tree.level_start, tree.eparent,
                            tree.echild, tree.probs)
    if form == "permuted":
        new_id = permute_last_level(tree, rng)[1]
        tree = ScenarioTree(tree.grid, tree.level_start, tree.eparent,
                            new_id[tree.echild], tree.probs)
        vals = np.empty_like(M.values)
        vals[new_id] = M.values
        M = AdaptedProcess(tree, vals)
    assert tree.probs.shape == (1, tree.arity)
    return tree, M


def _outcome(f, *args):
    """f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except OrthresError as e:
        return type(e), str(e)


@settings(max_examples=60, deadline=None)
@given(move_row_trees(), st.data())
def test_move_row_tree_equals_its_per_edge_twin(case, data):
    """A tree given one move row and its twin given the same probabilities
    per edge agree byte for byte: path probabilities, the probabilities of
    any node range in the kernels' layout, the clock, a Lipschitz solve, the
    GKW dN and the dual value."""
    tree, M = case
    twin = ScenarioTree(tree.grid, tree.level_start, tree._eparent,
                        tree._echild, tree.eprob)
    assert twin.probs.shape == (tree.estart[-1],)
    assert twin.child_stride == tree.child_stride
    assert path_prob(tree).tobytes() == path_prob(twin).tobytes()
    nt = tree.n_nonterminal
    for _ in range(5):
        lo = data.draw(st.integers(0, nt - 1))
        hi = data.draw(st.integers(lo + 1, nt))
        want = _kernels.edge_probs(twin, lo, hi)
        got = np.broadcast_to(_kernels.edge_probs(tree, lo, hi), want.shape)
        assert (np.ascontiguousarray(got).tobytes()
                == np.ascontiguousarray(want).tobytes())
    Mt = AdaptedProcess(twin, M.values)
    clock = _outcome(predictable_bracket, tree, M)
    clock_t = _outcome(predictable_bracket, twin, Mt)
    if isinstance(clock, tuple):
        assert clock == clock_t
        return
    for name, g, w in (("dC", clock.dC.values, clock_t.dC.values),
                       ("sigma", conditional_covariances(tree, M),
                        conditional_covariances(twin, Mt)),
                       ("q", clock.factor(0, nt), clock_t.factor(0, nt))):
        assert g.tobytes() == w.tobytes(), name
    lo, hi = tree.level_slice(tree.K)
    zeta = np.sin(3 * M.scalar[lo:hi])
    driver = truncated_driver(2.0, {"b": 0.2, "gamma": 1.0, "a": 0.1})
    got = _outcome(solve_lipschitz, tree, M, clock, None, zeta, driver)
    want = _outcome(solve_lipschitz, twin, Mt, clock_t, None, zeta, driver)
    if isinstance(got, tuple):
        assert got == want
    else:
        for name in ("Y", "Z"):
            assert (getattr(got, name).values.tobytes()
                    == getattr(want, name).values.tobytes()), name
        assert got.dN2.tobytes() == want.dN2.tobytes()
    got = _outcome(gkw_decompose, tree, M, clock, zeta)
    want = _outcome(gkw_decompose, twin, Mt, clock_t, zeta)
    assert (got == want if isinstance(got, tuple)
            else got.dN.tobytes() == want.dN.tobytes())
    growth = {"b": 0.5, "gamma": 1.0}
    got = _outcome(dual_value, tree, M, clock, zeta, growth, 2.0)
    want = _outcome(dual_value, twin, Mt, clock_t, zeta, growth, 2.0)
    if isinstance(got, tuple):
        assert got == want
    else:
        assert got.value.values.tobytes() == want.value.values.tobytes()
        assert got.floored_fraction == want.floored_fraction


def test_move_row_needs_its_arity_out_of_every_node():
    """A move row given with edge arrays must match each node's out-degree,
    and a probability array must be one row or one per edge."""
    grid = TimeGrid.uniform(1)
    with pytest.raises(InvariantViolation, match="move row of 2"):
        ScenarioTree(grid, [0, 1, 4], [0, 0, 0], [1, 2, 3], [[0.5, 0.5]])
    with pytest.raises(InvariantViolation, match="one per edge"):
        ScenarioTree(grid, [0, 1, 3], None, None, [[0.5, 0.5]] * 2)


# -- level-by-level clock and martingale check against the full-range ones --

# runs of one level each, of a few levels, and of every level of a small tree
RUN_SIZES = (1, 5, ftree.RUN_NODES)


def assert_clock_matches_range(tree, M):
    """dC, Sigma and the factor over every node, with runs of any size, are
    the range oracle's byte for byte, and dC summed along every path is its
    clock C to rounding."""
    want = predictable_bracket_range(tree, M)
    nt = tree.n_nonterminal
    for run_nodes in RUN_SIZES:
        with mock.patch.object(ftree, "RUN_NODES", run_nodes):
            got = predictable_bracket(tree, M)
            sigma = conditional_covariances(tree, M)
            q = got.factor(0, nt)
        for name, g, w in (("dC", got.dC.values, want.dC),
                           ("sigma", sigma, want.sigma.ravel()),
                           ("q", q, want.q[:, 0, 0])):
            assert g.shape == w.shape and g.tobytes() == w.tobytes(), name
        npt.assert_allclose(clock_from_increments(tree, got.dC.values),
                            want.C, rtol=0, atol=1e-13)


def assert_check_matches_range(tree, M, rng):
    """The check of M and of M with noise on every node."""
    noisy = AdaptedProcess(tree, M.values + rng.normal(
        0.0, 1e-3, M.values.shape))
    for X in (M, noisy):
        want = is_martingale_range(tree, X)
        for run_nodes in RUN_SIZES:
            with mock.patch.object(ftree, "RUN_NODES", run_nodes):
                got = is_martingale(tree, X)
            assert (got.ok, got.max_violation) == (want.ok,
                                                   want.max_violation)


@settings(max_examples=60, deadline=None)
@given(small_trees(), st.integers(0, 2 ** 32 - 1))
def test_level_clock_and_check_equal_the_range_ones(tree_m, seed):
    """Random full trees and every model kind at small K, full-tree and
    recombining variants included, and a copy with permuted leaves, whose
    children are gathered: C, dC, Sigma, the factor q and max_violation are
    bit-identical to the full-range code, with levels run one by one or
    merged into runs."""
    tree, M = tree_m
    rng = np.random.default_rng(seed)
    assert_clock_matches_range(tree, M)
    assert_check_matches_range(tree, M, rng)
    if tree.arity is not None:
        perm, new_id = permute_last_level(tree, rng)
        Mp = np.empty(tree.n_nodes)
        Mp[new_id] = M.scalar
        Mp = AdaptedProcess(perm, Mp)
        assert_clock_matches_range(perm, Mp)
        assert_check_matches_range(perm, Mp, rng)


@st.composite
def clock_trees(draw):
    """(tree, M): a random full tree of random branch counts (arrays) or of
    one arity (closed form, or its children alone with the leaves
    permuted), a strided lattice (binary or trinomial, recombining or
    full), the two-sided jump lattice or the one-sided one (lam_down 0), or
    ``time_changed``."""
    kind = draw(st.sampled_from(("random", "random_arity", "binary",
                                 "trinomial", "jump", "jump_one_sided",
                                 "time_changed")))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "random":
        tree = random_full_tree(rng, K=draw(st.integers(1, 4)))
    elif kind == "random_arity":
        r = draw(st.integers(2, 3))
        tree = random_full_tree(rng, K=draw(st.integers(1, 4)),
                                min_branch=r, max_branch=r)
        if draw(st.booleans()):
            tree = closed_form_twin(tree)
        else:
            perm = permute_last_level(tree, rng)[0]
            tree = ScenarioTree(perm.grid, perm.level_start, None,
                                perm.echild, perm.eprob)
    else:
        K = draw(st.integers(5, 12))
        params = {"jump": {}, "jump_one_sided": {"lam_down": 0.0},
                  "time_changed": {"kappa": 2.0}}.get(kind, {})
        if kind in ("binary", "trinomial") and K <= 6:
            params["recombine"] = draw(st.booleans())
        model = "compensated_jump" if kind.startswith("jump") else kind
        built = build(ModelConfig(model, K=K, params=params))
        return built.tree, built.M
    return tree, random_martingale(rng, tree)


@settings(max_examples=80, deadline=None)
@given(clock_trees(), st.data())
def test_streamed_clock_equals_the_range_clock(case, data):
    """The clock streamed level by level keeps dC alone, and it is the range
    oracle's byte for byte; Sigma formed on demand and the factor, on random
    node ranges, are the oracle's slices byte for byte, the factor whether
    it forms Sigma or is given it."""
    tree, M = case
    want = predictable_bracket_range(tree, M)
    clock = predictable_bracket(tree, M)
    assert clock.dC.values.tobytes() == want.dC.tobytes()
    assert clock.sigma_max == want.sigma.max()
    nt = tree.n_nonterminal
    for _ in range(5):
        lo = data.draw(st.integers(0, nt - 1))
        hi = data.draw(st.integers(lo + 1, nt))
        sigma = conditional_covariances(tree, M, lo, hi)
        assert sigma.tobytes() == want.sigma[lo:hi, 0, 0].tobytes()
        q = clock.factor(lo, hi)
        assert q.tobytes() == want.q[lo:hi, 0, 0].tobytes()
        assert clock.factor(lo, hi, sigma).tobytes() == q.tobytes()


@pytest.mark.parametrize("kind,params", [
    ("compensated_jump", {}), ("time_changed", {"kappa": 2.0})])
def test_clock_of_a_fixed_arity_tree_builds_no_edge_parents(kind, params,
                                                            monkeypatch):
    """On a tree that derives its parents (the two-sided jump lattice,
    time_changed) the clock repeats each node's candidate over its r edges:
    no parent array is built, and dC is the range clock's byte for byte."""
    built = build(ModelConfig(kind, K=16, params=params))
    tree, M = built.tree, built.M
    assert tree._eparent is None and tree.child_stride is None
    want = predictable_bracket_range(tree, M).dC

    def refuse(*args):
        raise AssertionError("edge_parents called")
    monkeypatch.setattr(ScenarioTree, "edge_parents", refuse)
    assert predictable_bracket(tree, M).dC.values.tobytes() == want.tobytes()


@st.composite
def implicit_parent_trees(draw):
    """(tree, M) on a tree given its children alone, r out of every node:
    the two-sided jump lattice, ``time_changed`` (one probability per
    edge), or a random full tree of one arity with its leaves permuted."""
    kind = draw(st.sampled_from(("jump", "time_changed", "random")))
    if kind == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        r = draw(st.integers(2, 4))
        perm = permute_last_level(random_full_tree(
            rng, K=draw(st.integers(1, 4)), min_branch=r, max_branch=r),
            rng)[0]
        tree = ScenarioTree(perm.grid, perm.level_start, None, perm.echild,
                            perm.probs)
        return tree, random_martingale(rng, tree)
    K = draw(st.integers(5, 12))
    built = build(ModelConfig(
        "compensated_jump" if kind == "jump" else kind, K=K,
        params={"kappa": 2.0} if kind == "time_changed" else {}))
    return built.tree, built.M


@settings(max_examples=60, deadline=None)
@given(implicit_parent_trees(), st.data())
def test_implicit_parent_tree_equals_its_explicit_twin(case, data):
    """A tree that derives its edges' parents and its twin given them as an
    array agree byte for byte: path probabilities, the parents of random
    node ranges (runs of levels and leaves included), a solve's Y, Z and
    E[dN^2 | node], and the GKW dN."""
    tree, M = case
    assert tree._eparent is None and tree._echild is not None
    twin = ScenarioTree(tree.grid, tree.level_start, tree.eparent,
                        tree.echild, tree.probs)
    assert twin._eparent is not None
    assert (twin.arity, twin.child_stride) == (tree.arity, None)
    assert tree.estart[:].tobytes() == twin.estart[:].tobytes()
    assert path_prob(tree).tobytes() == path_prob(twin).tobytes()
    for _ in range(5):
        lo = data.draw(st.integers(0, tree.n_nodes))
        hi = data.draw(st.integers(lo, tree.n_nodes))
        got, want = tree.edge_parents(lo, hi), twin.edge_parents(lo, hi)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    Mt = AdaptedProcess(twin, M.values)
    clock, clock_t = predictable_bracket(tree, M), predictable_bracket(twin,
                                                                       Mt)
    assert clock.dC.values.tobytes() == clock_t.dC.values.tobytes()
    lo, hi = tree.level_slice(tree.K)
    zeta = np.sin(3 * M.scalar[lo:hi])
    driver = truncated_driver(2.0, {"b": 0.2, "gamma": 1.0, "a": 0.1})
    got = solve_lipschitz(tree, M, clock, None, zeta, driver)
    want = solve_lipschitz(twin, Mt, clock_t, None, zeta, driver)
    for name in ("Y", "Z"):
        assert (getattr(got, name).values.tobytes()
                == getattr(want, name).values.tobytes()), name
    assert got.dN2.tobytes() == want.dN2.tobytes()
    assert (gkw_decompose(tree, M, clock, zeta).dN.tobytes()
            == gkw_decompose(twin, Mt, clock_t, zeta).dN.tobytes())


def test_factor_error_names_the_matrix_in_the_whole_stack():
    A = np.zeros((3, 2, 2))
    A[1] = [[1.0, 0.0], [0.0, -1.0]]
    with pytest.raises(InvariantViolation, match=r"in matrix 1\)"):
        psd_cholesky_stack(A)
    for factor in (lambda: psd_cholesky_stack(A[1:2]),
                   lambda: psd_cholesky_loop(A[1])):
        with pytest.raises(InvariantViolation,
                           match=r"\(pivot -1\.000e\+00\)"):
            factor()


def test_check_and_clock_hold_no_temporary_beyond_a_level():
    """On trinomial K = 256 (66,049 nodes, levels of at most 513 nodes),
    the martingale check and the clock less its dC each peak below 8 bytes
    per node, and its factor taken level by level below 8 bytes per
    non-terminal node, the nodes it is defined on: no temporary is the size
    of the tree's edges or nodes, only of a level or a run of levels.  The
    clock keeps dC alone, 8 bytes per non-terminal node: no C, Sigma or
    factor beside it."""
    built = build(ModelConfig("trinomial", K=256))
    tree, M = built.tree, built.M
    budget = 8 * tree.n_nodes

    def peak(f, *args):
        """f's result and the traced memory it peaked at above the start."""
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        out = f(*args)
        return out, tracemalloc.get_traced_memory()[1] - start

    def held(f, *args):
        """f's result and the traced memory it still holds on return."""
        start = tracemalloc.get_traced_memory()[0]
        out = f(*args)
        return out, tracemalloc.get_traced_memory()[0] - start

    def factor_by_level(clock):
        for k in range(tree.K):
            clock.factor(*tree.level_slice(k))

    tracemalloc.start()
    try:
        check, check_peak = peak(is_martingale, tree, M)
        clock, clock_peak = peak(predictable_bracket, tree, M)
        _, clock_held = held(predictable_bracket, tree, M)
        _, factor_peak = peak(factor_by_level, clock)
    finally:
        tracemalloc.stop()
    assert check
    outputs = clock.dC.values.nbytes
    assert outputs == 8 * tree.n_nonterminal
    assert check_peak < budget
    assert clock_peak - outputs < budget
    # dC and the clock's few Python objects
    assert clock_held < outputs + 4096
    assert factor_peak < 8 * tree.n_nonterminal
