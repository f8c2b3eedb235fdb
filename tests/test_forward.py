import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from orthres.errors import InvariantViolation
from orthres.forward import (SdeCoeffs, affine, constant_drift, euler_forward,
                             extract_subtree, from_catalog, identity,
                             linear_sigma, shift_start)
from orthres.ftree import (ScenarioTree, TimeGrid, is_martingale,
                           predictable_bracket)
from orthres.models import ModelConfig, build

from conftest import small_trees


def model(kind="binary", K=6, **params):
    built = build(ModelConfig(kind, K=K, params=params))
    clock = predictable_bracket(built.tree, built.M)
    return built.tree, built.M, clock


def test_identity_tracks_martingale():
    tree, M, clock = model()
    X = euler_forward(tree, M, clock, identity(), [0.7])
    npt.assert_allclose(X.values[:, 0], 0.7 + M.scalar, atol=1e-14)


def test_constant_drift_tracks_clock():
    tree, M, clock = model()
    X = euler_forward(tree, M, clock, constant_drift(c=2.0), [0.0])
    npt.assert_allclose(X.values[:, 0], 2.0 * clock.C.values[:, 0],
                        atol=1e-14)


def test_linear_sigma_stochastic_exponential():
    tree, M, clock = model(K=5)
    a, x0 = 0.8, 1.0
    X = euler_forward(tree, M, clock, linear_sigma(a=a), [x0])
    h = np.sqrt(1.0 / 5)
    # X_k = x0 (1+a h)^{ups} (1-a h)^{downs}; on the lattice state m = (u-d)h
    for i in range(tree.n_nodes):
        k = int(tree.node_level[i])
        m = M.scalar[i]
        ups = (k + m / h) / 2
        downs = k - ups
        npt.assert_allclose(X.values[i, 0],
                            x0 * (1 + a * h) ** ups * (1 - a * h) ** downs,
                            atol=1e-12)


def test_affine_reduces_to_linear_when_c_zero():
    tree, M, clock = model(K=4)
    X1 = euler_forward(tree, M, clock, linear_sigma(a=0.5), [2.0])
    X2 = euler_forward(tree, M, clock, affine(a=0.5, c=0.0), [2.0])
    npt.assert_allclose(X1.values, X2.values, atol=1e-14)


def test_driftless_linear_sigma_stays_martingale():
    tree, M, clock = model(K=6)
    X = euler_forward(tree, M, clock, linear_sigma(a=0.5), [1.0])
    assert is_martingale(tree, X, tol=1e-10)


def test_x0_shape_validation():
    tree, M, clock = model(K=2)
    with pytest.raises(ValueError):
        euler_forward(tree, M, clock, identity(), [1.0, 2.0])


def test_path_dependent_update_rejected_on_lattice():
    tree, M, clock = model(K=4)
    # a one-sided drift makes the Euler update order-dependent, which cannot
    # live on a recombining lattice
    bad = SdeCoeffs(
        id="relu_drift", n=1,
        sigma=lambda t, x, m: np.ones((x.shape[0], 1, 1)),
        b=lambda t, x, m: np.maximum(x[:, 0], 0.0)[:, None] * 5.0)
    with pytest.raises(InvariantViolation):
        euler_forward(tree, M, clock, bad, [0.0])


def test_nonfinite_coefficients_rejected():
    tree, M, clock = model(K=2)
    bad = SdeCoeffs(
        id="nan", n=1,
        sigma=lambda t, x, m: np.full((x.shape[0], 1, 1), np.nan),
        b=lambda t, x, m: np.zeros((x.shape[0], 1)))
    with pytest.raises(InvariantViolation):
        euler_forward(tree, M, clock, bad, [0.0])


def test_extract_subtree_mass_and_levels():
    built = build(ModelConfig("binary", K=4, params={"recombine": False}))
    tree = built.tree
    lo, hi = tree.level_slice(2)
    sub, order = extract_subtree(tree, lo)
    assert sub.K == 2
    assert order[0] == lo
    for k in range(sub.K + 1):
        a, b = sub.level_slice(k)
        npt.assert_allclose(sub.path_prob[a:b].sum(), 1.0, atol=1e-12)


def _extract_subtree_reference(tree, node):
    """Breadth-first extraction over dicts and sets, as it was before the
    level mask; kept as the reference."""
    level0 = int(tree.node_level[node])
    keep = {node}
    frontier = [node]
    for k in range(level0, tree.K):
        nxt = []
        for i in frontier:
            for e in range(int(tree.estart[i]), int(tree.estart[i + 1])):
                c = int(tree.echild[e])
                if c not in keep:
                    keep.add(c)
                    nxt.append(c)
        frontier = nxt
    order = sorted(keep, key=lambda i: (int(tree.node_level[i]), i))
    remap = {old: new for new, old in enumerate(order)}
    counts = np.zeros(tree.K - level0 + 1, dtype=np.int64)
    for i in order:
        counts[int(tree.node_level[i]) - level0] += 1
    level_start = np.concatenate([[0], np.cumsum(counts)])
    ep, ec, pr = [], [], []
    for i in order:
        if int(tree.node_level[i]) == tree.K:
            continue
        for e in range(int(tree.estart[i]), int(tree.estart[i + 1])):
            ep.append(remap[i])
            ec.append(remap[int(tree.echild[e])])
            pr.append(float(tree.eprob[e]))
    grid = TimeGrid(tree.grid.t[level0:] - tree.grid.t[level0])
    sub = ScenarioTree(grid, tree.d, level_start, ep, ec, pr)
    return sub, np.array(order)


@st.composite
def subtree_cases(draw):
    tree, _ = draw(small_trees())
    # any node with children: a leaf has no subtree with two time points
    return tree, draw(st.integers(0, tree.n_nonterminal - 1))


@settings(deadline=None, max_examples=80)
@given(subtree_cases())
def test_extract_subtree_matches_breadth_first_reference(case):
    tree, node = case
    sub, order = extract_subtree(tree, node)
    ref, ref_order = _extract_subtree_reference(tree, node)
    assert order.dtype == ref_order.dtype
    assert order.tobytes() == ref_order.tobytes()
    for name in ("level_start", "eparent", "echild", "eprob", "estart"):
        got, want = getattr(sub, name), getattr(ref, name)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), name
    assert sub.grid.t.tobytes() == ref.grid.t.tobytes()


def test_shift_start_recenters_martingale():
    built = build(ModelConfig("binary", K=4, params={"recombine": False}))
    tree, M = built.tree, built.M
    lo, _ = tree.level_slice(2)
    sub, Msub = shift_start(tree, M, 2, lo, 0.4)
    assert Msub.values[0, 0] == 0.4
    assert is_martingale(sub, Msub, tol=1e-12)


def test_shift_start_with_forward_state():
    built = build(ModelConfig("binary", K=4, params={"recombine": False}))
    tree, M = built.tree, built.M
    lo, _ = tree.level_slice(1)
    sub, Msub, Xsub = shift_start(tree, M, 1, lo, 0.0,
                                  coeffs=identity(), x=[1.0])
    npt.assert_allclose(Xsub.values[:, 0], 1.0 + Msub.scalar, atol=1e-14)


def test_shift_start_uses_the_clock_it_is_given(monkeypatch):
    built = build(ModelConfig("trinomial", K=5))
    tree, M = built.tree, built.M
    lo, _ = tree.level_slice(2)
    sub, Msub, X = shift_start(tree, M, 2, lo, 0.3, coeffs=constant_drift(),
                               x=[0.0])
    clock = predictable_bracket(sub, Msub)

    def refuse(*args):
        raise AssertionError("clock recomputed")
    monkeypatch.setattr("orthres.ftree.predictable_bracket", refuse)
    _, _, X2 = shift_start(tree, M, 2, lo, 0.3, coeffs=constant_drift(),
                           clock=clock, x=[0.0])
    assert np.array_equal(X2.values, X.values)


def test_shift_start_level_mismatch():
    built = build(ModelConfig("binary", K=3, params={"recombine": False}))
    with pytest.raises(ValueError):
        shift_start(built.tree, built.M, 2, 0, 0.0)


def test_catalog():
    assert from_catalog("identity").id == "identity"
    with pytest.raises(KeyError):
        from_catalog("nope")
