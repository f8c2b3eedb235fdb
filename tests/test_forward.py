import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from orthres.errors import InvariantViolation
from orthres.forward import (SdeCoeffs, affine, constant_drift, euler_forward,
                             extract_subtree, from_catalog, identity,
                             linear_sigma, shift_start)
from orthres.ftree import (AdaptedProcess, ScenarioTree, TimeGrid,
                           is_martingale, predictable_bracket)
from orthres.models import ModelConfig, build

from conftest import permute_last_level, small_trees
from reference import (euler_forward_edges, node_level, path_prob,
                       predictable_bracket_range)


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
    npt.assert_allclose(X.values[:, 0],
                        2.0 * predictable_bracket_range(tree, M).C,
                        atol=1e-14)


def test_linear_sigma_stochastic_exponential():
    tree, M, clock = model(K=5)
    a, x0 = 0.8, 1.0
    X = euler_forward(tree, M, clock, linear_sigma(a=a), [x0])
    h = np.sqrt(1.0 / 5)
    # X_k = x0 (1+a h)^{ups} (1-a h)^{downs}; on the lattice state m = (u-d)h
    for i in range(tree.n_nodes):
        k = tree.level_of(i)
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
        sigma=lambda t, x: np.ones((x.shape[0], 1)),
        b=lambda t, x: np.maximum(x, 0.0) * 5.0)
    with pytest.raises(InvariantViolation):
        euler_forward(tree, M, clock, bad, [0.0])


def test_nonfinite_coefficients_rejected():
    tree, M, clock = model(K=2)
    bad = SdeCoeffs(
        id="nan", n=1,
        sigma=lambda t, x: np.full((x.shape[0], 1), np.nan),
        b=lambda t, x: np.zeros((x.shape[0], 1)))
    with pytest.raises(InvariantViolation):
        euler_forward(tree, M, clock, bad, [0.0])


COEFF_SETS = (identity(), identity(n=2), constant_drift(c=0.7),
              constant_drift(c=-0.3, n=2), linear_sigma(a=0.6),
              affine(a=0.4, c=0.9))


def _outcome(run, *args, **kwargs):
    """X's values, or the message of the InvariantViolation raised."""
    try:
        return run(*args, **kwargs).values
    except InvariantViolation as e:
        return str(e)


def _assert_same_outcome(got, want):
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
    else:
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@st.composite
def oracle_runs(draw):
    """A tree (every kind, with its leaves permuted or not), coefficients
    and a start x0 whose entries may be -0.0."""
    tree, M = draw(small_trees())
    if draw(st.booleans()):
        tree, new_id = permute_last_level(
            tree, np.random.default_rng(draw(st.integers(0, 2 ** 16))))
        m = np.empty_like(M.values)
        m[new_id] = M.values
        M = AdaptedProcess(tree, m)
    # a -0.0 drift keeps a -0.0 state's sign unless sigma dM was summed from
    # +0.0
    coeffs = draw(st.sampled_from(COEFF_SETS + (affine(a=-1.3, c=-0.6),
                                                constant_drift(c=-0.0))))
    x0 = np.array(draw(st.lists(st.sampled_from((-0.0, 0.0, 0.5, -1.25)),
                                min_size=coeffs.n, max_size=coeffs.n)))
    return tree, M, coeffs, x0


@settings(deadline=None, max_examples=100)
@given(oracle_runs())
def test_euler_equals_the_per_edge_pass(case):
    """X equals the per-edge pass with its einsum byte for byte (signs of
    zero included), for n_x = 1 or 2, on strided trees, which step through
    per-move views, and on the rest, which gather; where the per-edge pass
    refuses, the same message is raised."""
    tree, M, coeffs, x0 = case
    clock = predictable_bracket(tree, M)
    _assert_same_outcome(
        _outcome(euler_forward, tree, M, clock, coeffs, x0),
        _outcome(euler_forward_edges, tree, M, clock, coeffs, x0))


def test_euler_keeps_the_einsums_sign_of_zero():
    """From x0 = -0.0 with sigma = a x and b = c x, sigma dM and b dC are
    -0.0 on some edges: the per-edge einsum summed sigma dM from +0.0, so
    the state there is +0.0, and so it is here."""
    tree, M, clock = model("binary", K=3)
    co = affine(a=1.0, c=1.0)
    X = euler_forward(tree, M, clock, co, [-0.0])
    want = euler_forward_edges(tree, M, clock, co, [-0.0])
    assert X.values.tobytes() == want.values.tobytes()
    assert not np.signbit(X.values[1:]).any()


@pytest.mark.parametrize("permuted", [False, True])
def test_euler_refusals_keep_their_messages(permuted):
    """A non-finite state and a path-dependent update are refused with the
    per-edge pass's messages, whether the children are per-move views or
    gathered."""
    tree, M, clock = model("trinomial", K=4)
    if permuted:
        tree, new_id = permute_last_level(tree, np.random.default_rng(5))
        m = np.empty_like(M.values)
        m[new_id] = M.values
        M = AdaptedProcess(tree, m)
        clock = predictable_bracket(tree, M)
    # with sigma = 1 and b = 0 below 0.5, X tracks M from 0 until it
    # passes 0.5
    nan = SdeCoeffs(
        id="nan", n=1,
        sigma=lambda t, x: np.where(x > 0.5, np.nan, 1.0),
        b=lambda t, x: np.zeros((x.shape[0], 1)))
    relu_x = SdeCoeffs(
        id="relu_x_drift", n=1,
        sigma=lambda t, x: np.ones((x.shape[0], 1)),
        b=lambda t, x: np.maximum(x, 0.0) * 5.0)
    for co, match in ((nan, "non-finite forward state"),
                      (relu_x, "path-dependent")):
        want = _outcome(euler_forward_edges, tree, M, clock, co, [0.0])
        assert match in want
        assert _outcome(euler_forward, tree, M, clock, co, [0.0]) == want


def test_extract_subtree_mass_and_levels():
    built = build(ModelConfig("binary", K=4, params={"recombine": False}))
    tree = built.tree
    lo, hi = tree.level_slice(2)
    sub, order = extract_subtree(tree, lo)
    assert sub.K == 2
    assert order[0] == lo
    for k in range(sub.K + 1):
        a, b = sub.level_slice(k)
        npt.assert_allclose(path_prob(sub)[a:b].sum(), 1.0, atol=1e-12)


def _extract_subtree_reference(tree, node):
    """Breadth-first extraction over dicts and sets, as it was before the
    level mask; kept as the reference."""
    level, echild, eprob = node_level(tree), tree.echild, tree.eprob
    level0 = int(level[node])
    keep = {node}
    frontier = [node]
    for k in range(level0, tree.K):
        nxt = []
        for i in frontier:
            for e in range(int(tree.estart[i]), int(tree.estart[i + 1])):
                c = int(echild[e])
                if c not in keep:
                    keep.add(c)
                    nxt.append(c)
        frontier = nxt
    order = sorted(keep, key=lambda i: (int(level[i]), i))
    remap = {old: new for new, old in enumerate(order)}
    counts = np.zeros(tree.K - level0 + 1, dtype=np.int64)
    for i in order:
        counts[int(level[i]) - level0] += 1
    level_start = np.concatenate([[0], np.cumsum(counts)])
    ep, ec, pr = [], [], []
    for i in order:
        if int(level[i]) == tree.K:
            continue
        for e in range(int(tree.estart[i]), int(tree.estart[i + 1])):
            ep.append(remap[i])
            ec.append(remap[int(echild[e])])
            pr.append(float(eprob[e]))
    grid = TimeGrid(tree.grid.t[level0:] - tree.grid.t[level0])
    sub = ScenarioTree(grid, level_start, ep, ec, pr)
    return sub, np.array(order)


@st.composite
def subtree_cases(draw):
    tree, _ = draw(small_trees())
    # any node with children: a leaf has no subtree with two time points
    return tree, draw(st.integers(0, tree.n_nonterminal - 1))


@settings(deadline=None, max_examples=80)
@given(subtree_cases())
def test_extract_subtree_matches_breadth_first_reference(case):
    """The subtree equals the reference's byte for byte and keeps the
    parent's edge form: closed form with a stride, or arrays without."""
    tree, node = case
    sub, order = extract_subtree(tree, node)
    assert (sub._echild is None) == (tree._echild is None)
    assert (sub.child_stride is None) == (tree.child_stride is None)
    # a fixed arity's subtree derives its parents
    assert (sub._eparent is None) == (tree.arity is not None)
    ref, ref_order = _extract_subtree_reference(tree, node)
    assert order.dtype == ref_order.dtype
    assert order.tobytes() == ref_order.tobytes()
    # [:] reads the whole array, stored or computed where indexed
    for name in ("level_start", "eparent", "echild", "eprob", "estart"):
        got, want = getattr(sub, name)[:], getattr(ref, name)[:]
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), name
    assert sub.grid.t.tobytes() == ref.grid.t.tobytes()


@pytest.mark.parametrize("K,node", [(12, 5), (12, 40), (64, 5)])
def test_jump_subtree_keeps_no_parent_array(K, node):
    """The two-sided jump lattice derives its parents, and so does its
    subtree: no parent array is stored (at K = 64, node 5 one would hold
    43,680 nodes' edges, 1.0 MB), and the subtree equals its twin given the
    same edges as arrays in every structure array, its clock and a solve."""
    from orthres.bsde import linear_y, solve_lipschitz
    built = build(ModelConfig("compensated_jump", K=K))
    tree, M = built.tree, built.M
    sub, order = extract_subtree(tree, node)
    assert sub._eparent is None and sub.child_stride is None
    twin = ScenarioTree(sub.grid, sub.level_start, sub.eparent, sub.echild,
                        sub.probs)
    assert twin._eparent is not None
    for name in ("estart", "eparent", "echild"):
        assert (getattr(sub, name)[:].tobytes()
                == getattr(twin, name)[:].tobytes())
    assert path_prob(sub).tobytes() == path_prob(twin).tobytes()
    if K > 12:
        return
    Ms = AdaptedProcess(sub, M.values[order] - M.values[node])
    Mt = AdaptedProcess(twin, Ms.values)
    cs, ct = predictable_bracket(sub, Ms), predictable_bracket(twin, Mt)
    assert cs.dC.values.tobytes() == ct.dC.values.tobytes()
    lo, hi = sub.level_slice(sub.K)
    zeta = np.sin(3.0 * Ms.scalar[lo:hi])
    a = solve_lipschitz(sub, Ms, cs, None, zeta, linear_y(0.5))
    b = solve_lipschitz(twin, Mt, ct, None, zeta, linear_y(0.5))
    for x, y in ((a.Y.values, b.Y.values), (a.Z.values, b.Z.values),
                 (a.dN2, b.dN2)):
        assert x.tobytes() == y.tobytes()


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
