import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings, strategies as st

from orthres import models
from orthres.errors import InvariantViolation, ModelError, NodeCapExceeded
from orthres.forward import extract_subtree
from orthres.ftree import (AdaptedProcess, ScenarioTree, TimeGrid,
                           conditional_covariances, is_martingale)
from orthres.models import ModelConfig, build, estimate_nodes, node_cap

from reference import (TreeBuilder, is_tree, path_prob, path_prob_loop,
                       product_noise_coin)


def terminal_law(built):
    tree = built.tree
    lo, hi = tree.level_slice(tree.K)
    states = built.M.scalar[lo:hi]
    order = np.argsort(states)
    return states[order], path_prob(tree)[lo:hi][order]


def test_config_validation():
    with pytest.raises(ModelError):
        ModelConfig("heptanomial", K=4)
    with pytest.raises(ModelError):
        ModelConfig("binary", K=0)
    with pytest.raises(ModelError):
        ModelConfig("binary", K=4, T=-1.0)


@pytest.mark.parametrize("kind,params", [
    ("binary", {}),
    ("trinomial", {"p": 0.25}),
    ("time_changed", {"kappa": 1.0}),
    ("product_noise", {}),
    ("compensated_jump", {}),
    ("compensated_jump", {"lam_down": 0.0, "lam": 4.0}),
])
def test_builders_produce_martingales(kind, params):
    built = build(ModelConfig(kind, K=6, params=params))
    assert is_martingale(built.tree, built.M, tol=1e-12)


def test_binary_lattice_size_and_step():
    K = 16
    built = build(ModelConfig("binary", K=K))
    assert built.tree.n_nodes == (K + 1) * (K + 2) // 2
    h = np.sqrt(1.0 / K)
    lo, hi = built.tree.level_slice(1)
    npt.assert_allclose(np.sort(built.M.scalar[lo:hi]), [-h, h], atol=1e-14)


def test_binary_full_tree_option():
    built = build(ModelConfig("binary", K=4, params={"recombine": False}))
    assert is_tree(built.tree)
    assert built.tree.n_nodes == 2 ** 5 - 1


def test_binary_lattice_matches_full_tree_law():
    lat = build(ModelConfig("binary", K=5))
    full = build(ModelConfig("binary", K=5, params={"recombine": False}))
    s1, p1 = terminal_law(lat)
    s2, p2 = terminal_law(full)
    # aggregate the full tree's leaves onto the lattice states
    agg = {}
    for s, p in zip(np.round(s2, 12), p2):
        agg[s] = agg.get(s, 0.0) + p
    npt.assert_allclose(sorted(agg), np.round(s1, 12), atol=1e-12)
    npt.assert_allclose([agg[s] for s in sorted(agg)], p1, atol=1e-12)


def test_trinomial_step_variance_calibration():
    for p in (0.1, 0.25, 0.4):
        built = build(ModelConfig("trinomial", K=8, params={"p": p}))
        sigma = conditional_covariances(built.tree, built.M)
        # per-step conditional variance is T/K everywhere
        npt.assert_allclose(sigma, 1.0 / 8, atol=1e-13)


def test_trinomial_rejects_bad_probability():
    with pytest.raises(ModelError):
        build(ModelConfig("trinomial", K=4, params={"p": 0.5}))


def test_compensated_jump_one_sided_bernoulli_variance():
    lam, K = 4.0, 8
    built = build(ModelConfig("compensated_jump", K=K,
                              params={"lam": lam, "lam_down": 0.0}))
    dt = 1.0 / K
    sigma = conditional_covariances(built.tree, built.M)
    npt.assert_allclose(sigma, lam * dt * (1 - lam * dt),
                        atol=1e-13)


def test_compensated_jump_two_sided_branches():
    built = build(ModelConfig("compensated_jump", K=8))
    tree = built.tree
    e0, e1 = int(tree.estart[0]), int(tree.estart[1])
    assert e1 - e0 == 3


def test_compensated_jump_rejects_saturated_intensity():
    with pytest.raises(ModelError):
        build(ModelConfig("compensated_jump", K=2, params={"lam": 1.0,
                                                           "lam_down": 1.0}))


def test_time_changed_state_dependent_bracket():
    built = build(ModelConfig("time_changed", K=6, params={"kappa": 2.0}))
    sig = conditional_covariances(built.tree, built.M)
    assert sig.max() > sig.min() + 1e-6   # genuinely non-deterministic bracket


def test_product_noise_aux_and_conditional_law():
    built = build(ModelConfig("product_noise", K=3))
    tree = built.tree
    assert is_tree(tree)
    assert tree.n_nodes == (4 ** 4 - 1) // 3
    lo, hi = tree.level_slice(tree.K)
    aux = product_noise_coin(tree)[lo:hi]
    npt.assert_allclose(np.sort(np.unique(aux)), [-1.0, 1.0])
    # aux is a fair coin independent of M's sign
    w = path_prob(tree)[lo:hi]
    npt.assert_allclose(w @ aux, 0.0, atol=1e-14)
    m = built.M.scalar[lo:hi]
    npt.assert_allclose(w @ (aux * m), 0.0, atol=1e-14)


def test_node_cap_enforced(monkeypatch):
    monkeypatch.setenv("ORTHRES_NODE_CAP", "100")
    assert node_cap() == 100
    with pytest.raises(NodeCapExceeded):
        build(ModelConfig("product_noise", K=6))
    with pytest.raises(NodeCapExceeded):
        build(ModelConfig("binary", K=30, params={"recombine": False}))


# -- the fixed-move lattice walk ------------------------------------------------

def reference_lattice(config):
    """Dict-driven TreeBuilder loop for the fixed-move lattices: the builders
    as they were before the vectorised walk, kept as the reference.  Returns
    the tree, M and, for ``product_noise``, aux (else None)."""
    K, T, params = config.K, config.T, config.params
    recomb = bool(params.get("recombine", True))
    if config.kind == "product_noise":
        # the full tree of (step, coin) moves; aux is the latest coin
        h = float(params.get("h", np.sqrt(T / K)))
        recomb = False
        moves = [((s, c), 0.25) for s in (-1, 1) for c in (-1, 1)]

        def value(s, k):
            return s[0] * h
    elif config.kind == "compensated_jump":
        lam = float(params.get("lam", 2.0))
        jump = float(params.get("jump", 1.0))
        lam_down = float(params.get("lam_down", lam))
        jump_down = float(params.get("jump_down", jump))
        dt = T / K
        pu, pd = lam * dt, lam_down * dt
        comp = (lam * jump - lam_down * jump_down) * dt
        moves = [((1, 0), pu), ((0, 0), 1 - pu - pd)]
        if pd > 0:
            moves.append(((0, 1), pd))

        def value(s, k):
            return jump * s[0] - jump_down * s[1] - (k + 1) * comp
    else:
        if config.kind == "binary":
            h = float(params.get("h", np.sqrt(T / K)))
            moves = [((-1,), 0.5), ((1,), 0.5)]
        else:
            p = float(params.get("p", 0.25))
            h = float(params.get("h", np.sqrt(T / (2 * p * K))))
            moves = [((-1,), p), ((0,), 1 - 2 * p), ((1,), p)]

        def value(s, k):
            return s[0] * h
    b = TreeBuilder(TimeGrid.uniform(K, T))
    states = {0: (0,) * len(moves[0][0])}
    mvals, avals = [0.0], [0.0]
    for k in range(K):
        b.begin_level()
        nxt = {}
        for nid, state in states.items():
            for dst, pr in moves:
                s = tuple(a + d for a, d in zip(state, dst))
                cid = b.child(nid, pr, key=s if recomb else None)
                if cid == len(mvals):
                    mvals.append(value(s, k))
                    avals.append(float(dst[-1]))
                nxt[cid] = s
        b.end_level()
        states = nxt
    aux = np.array(avals) if config.kind == "product_noise" else None
    return b.build(), np.array(mvals), aux


@st.composite
def lattice_configs(draw):
    kind = draw(st.sampled_from(["binary", "trinomial", "compensated_jump",
                                 "product_noise"]))
    recomb = draw(st.booleans())
    # full trees grow like 3^K, so they stop at K = 7 (K = 5 at 4^K)
    K = draw(st.integers(1, 5 if kind == "product_noise"
                         else 12 if recomb else 7))
    params = {"recombine": recomb}
    if kind == "trinomial":
        params["p"] = draw(st.floats(0.01, 0.49))
    if kind == "compensated_jump":
        # (lam + lam_down) * dt stays below 0.9; lam_down = 0 is one-sided
        params["lam"] = draw(st.floats(0.05, 0.45 * K))
        params["lam_down"] = draw(st.just(0.0) | st.floats(0.05, 0.45 * K))
    return ModelConfig(kind, K=K, params=params)


def assert_matches_reference_lattice(config):
    built = build(config)
    tree, mvals, aux = reference_lattice(config)
    for name in ("level_start", "eparent", "echild", "eprob"):
        got, want = getattr(built.tree, name), getattr(tree, name)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), name
    assert built.M.values.dtype == mvals.dtype
    assert built.M.values.tobytes() == mvals[:, None].tobytes()
    assert path_prob(built.tree).tobytes() == path_prob_loop(tree).tobytes()
    if aux is not None:
        assert product_noise_coin(built.tree).tobytes() == aux.tobytes()


@settings(deadline=None)
@given(lattice_configs())
def test_lattice_walk_matches_reference_builder(config):
    assert_matches_reference_lattice(config)


@pytest.mark.parametrize("kind,K,params", [
    ("binary", 64, {}), ("binary", 200, {}),
    ("trinomial", 64, {}), ("trinomial", 200, {}),
    ("binary", 200, {"h": 0.3}),
    ("trinomial", 64, {"p": 0.1}), ("trinomial", 200, {"p": 0.4, "h": 0.05}),
    ("compensated_jump", 64, {}), ("compensated_jump", 128, {}),
    ("compensated_jump", 64, {"lam_down": 0.0}),
    ("compensated_jump", 128, {"lam_down": 0.0, "lam": 5.0}),
])
def test_line_lattice_closed_form_matches_reference(monkeypatch, kind, K,
                                                    params):
    """Far past the property test's K <= 12, the closed-form lattices are
    the reference's byte for byte: the stride walk at stride 1, with
    descending moves on the one-sided jump, and the two-sided jump's simplex
    walk."""
    two_sided = kind == "compensated_jump" and "lam_down" not in params
    name = "_simplex_walk" if two_sided else "_stride_walk"
    calls = []
    walk = getattr(models, name)
    monkeypatch.setattr(models, name, lambda *a: calls.append(a) or walk(*a))
    assert_matches_reference_lattice(ModelConfig(kind, K=K, params=params))
    assert len(calls) == 1
    if not two_sided:
        assert calls[0][2] == 1


@pytest.mark.parametrize("kind", ["binary", "trinomial", "compensated_jump",
                                  "product_noise"])
def test_full_trees_take_the_full_walk(monkeypatch, kind):
    """With recombination off every kind is a full tree in closed form,
    built by one stride walk at stride r, that keeps no edge index
    arrays."""
    calls = []
    walk = models._stride_walk
    monkeypatch.setattr(models, "_stride_walk",
                        lambda *a: calls.append(a) or walk(*a))
    monkeypatch.setattr(models, "_simplex_walk", None)
    K = 4 if kind == "product_noise" else 6
    config = ModelConfig(kind, K=K, params={"recombine": False, "h": 0.5})
    assert_matches_reference_lattice(config)
    assert len(calls) == 1 and calls[0][2] == len(calls[0][1])
    tree = build(config).tree
    assert tree.child_stride == tree.arity
    assert tree._eparent is None and tree._echild is None


def test_build_keeps_no_edge_index_arrays():
    """Building trinomial K = 256 (66,049 nodes, 196,608 edges) holds and
    peaks below 12 bytes per node: M and the path probabilities of every
    16th level fit (8.7 B/node, 10.2 at the peak), but not with every
    level's path probabilities kept (8 B/node more), a stored estart
    (8 B/node more), an (E,) eprob (24 B/node more), eparent and echild
    (48 B/node more) or a stored node_level (8 B/node more), nor with the
    lattice's states formed for every level at once."""
    tracemalloc.start()
    try:
        built = build(ModelConfig("trinomial", K=256))
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tree = built.tree
    budget = 12 * tree.n_nodes
    assert current < budget
    assert peak < budget


def test_jump_lattice_build_keeps_no_parent_array():
    """Building the two-sided jump lattice at K = 64 (47,905 nodes, 137,280
    edges, three out of every non-terminal node) holds and peaks below 28
    bytes per node, the measured 25.1 at the peak and a margin of 2.9: its
    int32 children (11.5 B/node), M and the path probabilities of every 8th
    level fit (20.8 B/node), but not with int64 children (11.5 B/node
    more) or an int64 copy made on the way, every level's path
    probabilities kept (8 B/node more), a stored estart (8 B/node more) or
    parent array (22.9 B/node more), nor with one built only for the tree
    to drop, nor with the lattice's states formed for every level at
    once."""
    tracemalloc.start()
    try:
        built = build(ModelConfig("compensated_jump", K=64))
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tree = built.tree
    assert tree._eparent is None and tree.arity == 3
    budget = 28 * tree.n_nodes
    assert current < budget
    assert peak < budget


@pytest.mark.parametrize("kind,params", [
    ("compensated_jump", {}), ("time_changed", {"kappa": 2.0})])
def test_built_children_take_4_bytes_and_read_as_int64(kind, params,
                                                      monkeypatch):
    """The two-sided jump lattice and ``time_changed``, the built trees
    given their children, make them as int32, and the tree keeps that
    array, no copy; every read of them (``echild``, ``edge_children`` on
    any range, an extracted subtree's node map) is int64 and the same ids.
    A tree given int64 children whose ids fit keeps them as int32 too."""
    given = []

    def spy(grid, level_start, eparent, echild, eprob):
        given.append(echild)
        return ScenarioTree(grid, level_start, eparent, echild, eprob)
    monkeypatch.setattr(models, "ScenarioTree", spy)
    tree = build(ModelConfig(kind, K=12, params=params)).tree
    assert given[0].dtype == np.int32
    assert np.shares_memory(tree._echild, given[0])
    assert tree._echild.dtype == np.int32
    assert tree._echild.nbytes == 4 * len(tree._echild)
    ec = tree.echild
    assert ec.dtype == np.int64
    assert np.array_equal(ec, tree._echild)
    es = tree.estart
    for lo, hi in ((0, tree.n_nodes), (3, 17), (5, 5),
                   tree.level_slice(tree.K - 1)):
        got = tree.edge_children(lo, hi)
        assert got.dtype == np.int64
        assert np.array_equal(got, ec[es[lo]:es[hi]])
    sub, order = extract_subtree(tree, 1)
    assert order.dtype == np.int64
    assert sub._echild.dtype == np.int32 and sub.echild.dtype == np.int64
    twin = ScenarioTree(tree.grid, tree.level_start, None, ec, tree.probs)
    assert twin._echild.dtype == np.int32
    assert twin._echild.tobytes() == tree._echild.tobytes()


def reference_time_changed(config):
    """The ``time_changed`` builder as it was before vectorisation: a dict of
    states per level, merged through ``TreeBuilder`` on ``round(m, 12)``,
    which is numpy's rounding on a numpy float and Python's on a Python
    float (the states stay Python floats only when h_cap < h caps every
    step).  A node's M is its first candidate, and its children step from
    it: ``nxt[cid]`` keeps the first."""
    K, T = config.K, config.T
    kappa = float(config.params.get("kappa", 1.0))
    h0 = float(config.params.get("h", np.sqrt(T / K)))
    hcap = float(config.params.get("h_cap", 3 * h0))
    b = TreeBuilder(TimeGrid.uniform(K, T))
    states = {0: 0.0}
    mvals = [0.0]
    for k in range(K):
        b.begin_level()
        nxt = {}
        for nid, m in states.items():
            h = min(h0 * np.sqrt(1 + kappa * abs(m)), hcap)
            for sgn in (-1, 1):
                mc = m + sgn * h
                cid = b.child(nid, 0.5, key=round(mc, 12))
                if cid == len(mvals):
                    mvals.append(mc)
                nxt.setdefault(cid, mc)
        b.end_level()
        states = nxt
    return b.build(), np.array(mvals)


@st.composite
def time_changed_configs(draw):
    params = {"kappa": draw(st.floats(0.0, 5.0))}
    if draw(st.booleans()):
        params["h"] = draw(st.floats(0.01, 2.0))
    if draw(st.booleans()):
        params["h_cap"] = draw(st.floats(0.01, 5.0))
    return ModelConfig("time_changed", K=draw(st.integers(1, 14)),
                       params=params)


@settings(deadline=None)
@given(time_changed_configs())
# merges where np.round and Python's round disagree
@example(ModelConfig("time_changed", K=11,
                     params={"kappa": 4.180514059759543, "h": 0.9375}))
# h_cap < h caps every step, so the keys are Python's round, and here
# np.round would merge differently
@example(ModelConfig("time_changed", K=14,
                     params={"h": 3.0, "h_cap": 2.9646684847594167}))
@example(ModelConfig("time_changed", K=12, params={"kappa": 1e-11}))
# kappa = 0 is the binary walk, whose states recombine
@example(ModelConfig("time_changed", K=12, params={"kappa": 0.0}))
def test_time_changed_matches_reference_builder(config):
    tree, mvals = reference_time_changed(config)
    if not is_martingale(tree, AdaptedProcess(tree, mvals), 1e-12):
        # both builders refuse a tree that is not a martingale alike
        with pytest.raises(ModelError, match="not a martingale"):
            build(config)
        return
    built = build(config)
    for name in ("level_start", "eparent", "echild", "eprob"):
        got, want = getattr(built.tree, name), getattr(tree, name)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), name
    assert built.M.values.tobytes() == mvals[:, None].tobytes()


@pytest.mark.parametrize("params", [{}, {"kappa": 2.0}, {"h_cap": 0.1}])
def test_time_changed_shares_one_move_row(params):
    """Every node of ``time_changed`` steps down and up with probability
    1/2, so its tree holds one (1, 2) move row, as the lattices do, and its
    edges' probabilities are that row repeated."""
    tree = build(ModelConfig("time_changed", K=9, params=params)).tree
    assert tree.probs.shape == (1, 2)
    assert tree.probs.tobytes() == np.array([[0.5, 0.5]]).tobytes()
    assert tree.eprob.tobytes() == np.full(2 * tree.n_nonterminal,
                                           0.5).tobytes()


def test_time_changed_merged_nodes_step_from_their_own_M():
    """Candidates merged on their rounded key agree only to 12 decimals, so
    a merged node's children step from its recorded M: stepping from
    another of its candidates misses the martingale property by 1.25e-12
    on this config."""
    built = build(ModelConfig("time_changed", K=12, params={"kappa": 1e-11}))
    assert is_martingale(built.tree, built.M, 1e-12)


def test_time_changed_cap_checked_per_level(monkeypatch):
    config = ModelConfig("time_changed", K=10)
    level_start = reference_time_changed(config)[0].level_start
    monkeypatch.setenv("ORTHRES_NODE_CAP", "100")
    with pytest.raises(NodeCapExceeded) as err:
        build(config)
    # refused at the first level that takes the count past the cap
    assert err.value.requested == level_start[level_start > 100][0]


@pytest.mark.parametrize("kind,params", [
    ("binary", {}),
    ("binary", {"recombine": False}),
    ("trinomial", {"p": 0.1}),
    ("trinomial", {"recombine": False}),
    ("compensated_jump", {}),
    ("compensated_jump", {"lam_down": 0.0}),
    ("compensated_jump", {"recombine": False}),
])
def test_estimate_is_exact_for_lattices(kind, params):
    for K in (5, 8):
        built = build(ModelConfig(kind, K=K, params=params))
        assert estimate_nodes(kind, K, params) == built.tree.n_nodes


@pytest.mark.parametrize("kind", ["time_changed", "product_noise"])
def test_estimate_bounds_other_builders(kind):
    for K in (1, 3, 5):
        built = build(ModelConfig(kind, K=K))
        assert estimate_nodes(kind, K) >= built.tree.n_nodes


def test_cap_checked_against_estimate_before_allocation(monkeypatch):
    monkeypatch.setenv("ORTHRES_NODE_CAP", "100")
    # 2000 levels would allocate ~200 MB; the refusal must allocate ~nothing
    config = ModelConfig("trinomial", K=2000)
    tracemalloc.start()
    try:
        with pytest.raises(NodeCapExceeded) as err:
            build(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert err.value.requested == estimate_nodes("trinomial", 2000) == 2001 ** 2
    assert peak < 64 * 1024


def test_product_noise_refuses_before_allocation(monkeypatch):
    # 4**8 = 65,536 leaves fit under the cap, but the 87,381 nodes do not
    monkeypatch.setenv("ORTHRES_NODE_CAP", "80000")
    config = ModelConfig("product_noise", K=8)
    tracemalloc.start()
    try:
        with pytest.raises(NodeCapExceeded) as err:
            build(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert err.value.requested == estimate_nodes("product_noise", 8) == 87381
    assert peak < 64 * 1024


def test_walk_rejects_estimate_drift(monkeypatch):
    exact = models.estimate_nodes
    monkeypatch.setattr(models, "estimate_nodes",
                        lambda kind, K, params=None: exact(kind, K, params) + 1)
    with pytest.raises(InvariantViolation):
        build(ModelConfig("trinomial", K=4))
