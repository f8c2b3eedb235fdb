import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from orthres import models
from orthres.errors import InvariantViolation, ModelError, NodeCapExceeded
from orthres.ftree import (TimeGrid, TreeBuilder, is_martingale,
                           predictable_bracket)
from orthres.models import ModelConfig, build, estimate_nodes, node_cap


def terminal_law(built):
    tree = built.tree
    lo, hi = tree.level_slice(tree.K)
    states = built.M.scalar[lo:hi]
    order = np.argsort(states)
    return states[order], tree.path_prob[lo:hi][order]


def test_config_validation():
    with pytest.raises(ModelError):
        ModelConfig("heptanomial", K=4)
    with pytest.raises(ModelError):
        ModelConfig("binary", K=0)
    with pytest.raises(ModelError):
        ModelConfig("binary", K=4, d=2)
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
    assert built.meta["kind"] == kind
    assert built.meta["n_nodes"] == built.tree.n_nodes


def test_binary_lattice_size_and_step():
    K = 16
    built = build(ModelConfig("binary", K=K))
    assert built.tree.n_nodes == (K + 1) * (K + 2) // 2
    h = np.sqrt(1.0 / K)
    lo, hi = built.tree.level_slice(1)
    npt.assert_allclose(np.sort(built.M.scalar[lo:hi]), [-h, h], atol=1e-14)


def test_binary_full_tree_option():
    built = build(ModelConfig("binary", K=4, params={"recombine": False}))
    assert built.tree.is_tree
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
        clock = predictable_bracket(built.tree, built.M)
        # per-step conditional variance is T/K everywhere
        npt.assert_allclose(clock.sigma.ravel(), 1.0 / 8, atol=1e-13)


def test_trinomial_rejects_bad_probability():
    with pytest.raises(ModelError):
        build(ModelConfig("trinomial", K=4, params={"p": 0.5}))


def test_compensated_jump_one_sided_bernoulli_variance():
    lam, K = 4.0, 8
    built = build(ModelConfig("compensated_jump", K=K,
                              params={"lam": lam, "lam_down": 0.0}))
    dt = 1.0 / K
    clock = predictable_bracket(built.tree, built.M)
    npt.assert_allclose(clock.sigma.ravel(), lam * dt * (1 - lam * dt),
                        atol=1e-13)


def test_compensated_jump_two_sided_branches():
    built = build(ModelConfig("compensated_jump", K=8))
    tree = built.tree
    e0, e1 = int(tree.estart[0]), int(tree.estart[1])
    assert e1 - e0 == 3
    assert built.meta["continuous_limit"] is False


def test_compensated_jump_rejects_saturated_intensity():
    with pytest.raises(ModelError):
        build(ModelConfig("compensated_jump", K=2, params={"lam": 1.0,
                                                           "lam_down": 1.0}))


def test_time_changed_state_dependent_bracket():
    built = build(ModelConfig("time_changed", K=6, params={"kappa": 2.0}))
    clock = predictable_bracket(built.tree, built.M)
    sig = clock.sigma.ravel()
    assert sig.max() > sig.min() + 1e-6   # genuinely non-deterministic bracket


def test_product_noise_aux_and_conditional_law():
    built = build(ModelConfig("product_noise", K=3))
    tree = built.tree
    assert tree.is_tree
    assert tree.n_nodes == (4 ** 4 - 1) // 3
    lo, hi = tree.level_slice(tree.K)
    aux = built.aux.scalar[lo:hi]
    npt.assert_allclose(np.sort(np.unique(aux)), [-1.0, 1.0])
    # aux is a fair coin independent of M's sign
    w = tree.path_prob[lo:hi]
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


@settings(deadline=None)
@given(lattice_configs())
def test_lattice_walk_matches_reference_builder(config):
    built = build(config)
    tree, mvals, aux = reference_lattice(config)
    for name in ("level_start", "eparent", "echild", "eprob"):
        got, want = getattr(built.tree, name), getattr(tree, name)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), name
    assert built.M.values.tobytes() == mvals[:, None].tobytes()
    if aux is None:
        assert built.aux is None
    else:
        assert built.aux.values.tobytes() == aux[:, None].tobytes()


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
