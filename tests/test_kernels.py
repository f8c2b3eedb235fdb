"""The numpy kernels against per-node loop references kept here."""

import itertools
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthres import _kernels
from orthres.models import ModelConfig, build

from conftest import permute_last_level, random_full_tree
from reference import edge_layout


# ---------------------------------------------------------------------------
# per-node loop references
# ---------------------------------------------------------------------------

def _backward_expect_loop(estart, echild, eprob, vals, lo, hi, out):
    for i in range(lo, hi):
        s = 0.0
        for e in range(estart[i], estart[i + 1]):
            s += eprob[e] * vals[echild[e]]
        out[i - lo] = s


def _edge_sum_loop(estart, w, lo, hi, out):
    for i in range(lo, hi):
        s = 0.0
        for e in range(estart[i], estart[i + 1]):
            s += w[e]
        out[i - lo] = s


def _level_moments_d1_loop(estart, echild, eprob, m, y, lo, hi, ey, m1):
    for i in range(lo, hi):
        e0, e1 = estart[i], estart[i + 1]
        acc = 0.0
        for e in range(e0, e1):
            acc += eprob[e] * y[echild[e]]
        ey[i - lo] = acc
        a1 = 0.0
        mi = m[i]
        for e in range(e0, e1):
            dm = m[echild[e]] - mi
            dy = y[echild[e]] - acc
            a1 += eprob[e] * dm * dy
        m1[i - lo] = a1


def _edge_residuals_d1_loop(estart, echild, eprob, m, y, ey, z, lo, hi, dn, res):
    for i in range(lo, hi):
        mi = m[i]
        acc = 0.0
        for e in range(estart[i], estart[i + 1]):
            d = y[echild[e]] - ey[i - lo] - z[i - lo] * (m[echild[e]] - mi)
            dn[e] = d
            acc += eprob[e] * d * d
        res[i - lo] = acc


def _weighted_child_sum_loop(estart, echild, eprob, w, vals, lo, hi, out):
    # out[i] = sum_e prob[e] * w[e] * vals[child[e]]  (reweighted expectation)
    # with w indexed from the range's first edge; a row of an (E, C) w
    # gives one sum per column
    base = estart[lo]
    for i in range(lo, hi):
        s = 0.0
        for e in range(estart[i], estart[i + 1]):
            s += eprob[e] * w[e - base] * vals[echild[e]]
        out[i - lo] = s


KERNELS = ("edge_sum", "backward_expect", "level_moments_d1",
           "edge_residuals_d1", "weighted_child_sum")


def cases(rng):
    """Line lattices, whose level's children are a view (child_stride 1), a
    full tree (child_stride 4), the jump lattice and a line lattice with
    permuted leaves (fixed arity, children gathered), then mixed-arity
    trees (reduceat, parent gathers)."""
    yield build(ModelConfig("binary", K=9)).tree
    yield build(ModelConfig("trinomial", K=12)).tree
    yield build(ModelConfig("compensated_jump", K=10)).tree
    yield build(ModelConfig("product_noise", K=4)).tree
    yield permute_last_level(build(ModelConfig("trinomial", K=7)).tree,
                             rng)[0]
    for _ in range(4):
        yield random_full_tree(rng, K=4)


def test_cases_cover_fixed_and_mixed_arity(rng):
    paths = [(tree.arity, tree.child_stride) for tree in cases(rng)]
    assert paths[:5] == [(2, 1), (3, 1), (3, None), (4, 4), (3, None)]
    assert (None, None) in paths[5:]


def node_range(tree, rng):
    """A level, part of a level or a run of levels: the children of the
    first two are a view on a tree with a child_stride, of the last a
    gather."""
    k = int(rng.integers(0, tree.K))
    lo, hi = tree.level_slice(k)
    pick = rng.integers(3)
    if pick == 1 and hi - lo > 1:
        lo = int(rng.integers(lo, hi))
        hi = int(rng.integers(lo + 1, hi + 1))
    if pick == 2:
        hi = tree.level_slice(int(rng.integers(k, tree.K)))[1]
    return lo, hi


def in_layout(tree, w, lo, hi):
    """The per-edge w of [lo, hi), (E,) or (E, C) in edge order, in the
    kernels' layout: (r, n) or (C, r, n) on a strided tree, else (E,) or
    (C, E)."""
    w = w.T
    if _kernels._strided(tree):
        w = w.reshape(w.shape[:-1] + (hi - lo, tree.arity)).swapaxes(-1, -2)
    return np.ascontiguousarray(w)


def edge_order(tree, x):
    """``in_layout`` undone: (E,) or (E, B) in edge order."""
    if _kernels._strided(tree):
        x = x.swapaxes(-1, -2).reshape(x.shape[:-2] + (-1,))
    return x.T


def run_loop(name, tree, rng):
    lo, hi = node_range(tree, rng)
    args = (tree.estart, tree.echild, tree.eprob)
    y = rng.normal(size=tree.n_nodes)
    m = rng.normal(size=tree.n_nodes)
    if name == "edge_sum":
        w = rng.normal(size=len(tree.eprob))
        out = np.empty(hi - lo)
        _edge_sum_loop(tree.estart, w, lo, hi, out)
        return (out,)
    if name == "backward_expect":
        out = np.empty(hi - lo)
        _backward_expect_loop(*args, y, lo, hi, out)
        return (out,)
    if name == "level_moments_d1":
        ey, m1 = np.empty(hi - lo), np.empty(hi - lo)
        _level_moments_d1_loop(*args, m, y, lo, hi, ey, m1)
        return ey, m1
    if name == "edge_residuals_d1":
        # feed both sides the same ey/z, from the numpy kernel
        ey, z = _numpy_ey_z(tree, m, y, lo, hi)
        dn = np.zeros(len(tree.eprob))
        res = np.empty(hi - lo)
        _edge_residuals_d1_loop(*args, m, y, ey, z, lo, hi, dn, res)
        return dn, res
    if name == "weighted_child_sum":
        outs = []
        for w in _range_weights(tree, lo, hi, rng):
            out = np.empty((hi - lo,) + w.shape[1:])
            _weighted_child_sum_loop(*args, w, y, lo, hi, out)
            outs.append(out.T)
        return tuple(outs)
    raise KeyError(name)


def _range_weights(tree, lo, hi, rng):
    """(E,) and (E, 3) weights on the edges of the nodes in [lo, hi)."""
    E = int(tree.estart[hi] - tree.estart[lo])
    return rng.uniform(0.5, 1.5, size=E), rng.uniform(0.5, 1.5, size=(E, 3))


def _pdm(tree, m, lo, hi):
    return (edge_layout(tree, tree.eprob, lo, hi)
            * _kernels.edge_increments(tree, m, lo, hi))


def _numpy_ey_z(tree, m, y, lo, hi):
    dm = _kernels.edge_increments(tree, m, lo, hi)
    pdm = edge_layout(tree, tree.eprob, lo, hi) * dm
    ey, m1, _ = _kernels.level_moments_d1(tree, pdm, y, lo, hi)
    s2 = _kernels.edge_sum(tree, pdm * dm, lo, hi)
    return ey, m1 / np.maximum(s2, 1e-300)


def run_numpy(name, tree, rng):
    lo, hi = node_range(tree, rng)
    y = rng.normal(size=tree.n_nodes)
    m = rng.normal(size=tree.n_nodes)
    if name == "edge_sum":
        w = rng.normal(size=len(tree.eprob))
        return (_kernels.edge_sum(tree, edge_layout(tree, w, lo, hi),
                                  lo, hi),)
    if name == "backward_expect":
        return (_kernels.backward_expect(tree, y, lo, hi),)
    if name == "level_moments_d1":
        return _kernels.level_moments_d1(tree, _pdm(tree, m, lo, hi), y, lo,
                                         hi)
    if name == "edge_residuals_d1":
        ey, z = _numpy_ey_z(tree, m, y, lo, hi)
        dn = np.zeros(len(tree.eprob))
        res = _kernels.edge_residuals_d1(
            tree, _kernels.edge_increments(tree, m, lo, hi), y, ey, z, lo, hi,
            dn)
        return dn, res
    if name == "weighted_child_sum":
        return tuple(_kernels.weighted_child_sum(
            tree, in_layout(tree, w, lo, hi), y, lo, hi)
            for w in _range_weights(tree, lo, hi, rng))
    raise KeyError(name)


@pytest.mark.parametrize("name", KERNELS)
def test_loop_matches_numpy(name, rng):
    for tree in cases(rng):
        for _ in range(3):
            seed = int(rng.integers(1 << 31))
            a = run_loop(name, tree, np.random.default_rng(seed))
            b = run_numpy(name, tree, np.random.default_rng(seed))
            for x, y in zip(a, b):
                assert x.shape == y.shape
                npt.assert_allclose(x, y, atol=1e-13)


def test_wrappers_agree_with_direct_expectation(rng):
    tree = build(ModelConfig("binary", K=6)).tree
    vals = rng.normal(size=tree.n_nodes)
    lo, hi = tree.level_slice(3)
    out = _kernels.backward_expect(tree, vals, lo, hi)
    ec, pr = tree.echild, tree.eprob
    for i in range(lo, hi):
        e0, e1 = int(tree.estart[i]), int(tree.estart[i + 1])
        ref = float(pr[e0:e1] @ vals[ec[e0:e1]])
        npt.assert_allclose(out[i - lo], ref, atol=1e-14)


def test_edge_increments_per_edge(rng):
    """dm and the probabilities on every edge of a range, in its layout; a
    move row is laid out as a view of itself, not a copy."""
    for tree in cases(rng):
        m = rng.normal(size=tree.n_nodes)
        lo, hi = node_range(tree, rng)
        dm = _kernels.edge_increments(tree, m, lo, hi)
        p = _kernels.edge_probs(tree, lo, hi)
        if tree.probs.ndim == 2 and _kernels._strided(tree):
            assert p.shape == (tree.arity, 1)
            assert np.shares_memory(p, tree.probs)
        p = edge_order(tree, np.broadcast_to(p, dm.shape))
        dm = edge_order(tree, dm)
        ep, ec, pr = tree.eparent, tree.echild, tree.eprob
        for e in range(tree.estart[lo], tree.estart[hi]):
            assert dm[e - tree.estart[lo]] == m[ec[e]] - m[ep[e]]
            assert p[e - tree.estart[lo]] == pr[e]


def test_children_view_refuses_values_that_stop_short():
    """The strided view of a level's children is checked against the
    values it reads: a y that does not reach the last child is refused, as
    a gather would refuse it."""
    tree = build(ModelConfig("trinomial", K=4)).tree
    lo, hi = tree.level_slice(2)
    y = np.zeros(tree.level_start[4] - tree.level_start[3] - 1)
    with pytest.raises((ValueError, TypeError)):
        _kernels.level_moments_d1(tree, np.zeros((3, hi - lo)), y, lo, hi,
                                  tree.level_start[3])


def test_level_moments_dy_and_residual_moments_match_loops(rng):
    for tree in cases(rng):
        lo, hi = node_range(tree, rng)
        y = rng.normal(size=tree.n_nodes)
        m = rng.normal(size=tree.n_nodes)
        dm = _kernels.edge_increments(tree, m, lo, hi)
        ey, m1, dy = _kernels.level_moments_d1(tree, _pdm(tree, m, lo, hi),
                                               y, lo, hi)
        sl = slice(tree.estart[lo], tree.estart[hi])
        dy_e = edge_order(tree, dy)
        ep, ec = tree.eparent, tree.echild
        for e in range(sl.start, sl.stop):
            assert dy_e[e - sl.start] == y[ec[e]] - ey[ep[e] - lo]
        z = rng.normal(size=hi - lo)
        dn_ref = np.zeros(len(tree.eprob))
        res_ref = np.empty(hi - lo)
        _edge_residuals_d1_loop(tree.estart, ec, tree.eprob, m, y,
                                ey, z, lo, hi, dn_ref, res_ref)
        dn, res = _kernels.residual_moments_d1(tree, dm, dy, z, lo, hi)
        npt.assert_allclose(edge_order(tree, dn), dn_ref[sl], atol=1e-13)
        npt.assert_allclose(res, res_ref, atol=1e-13)


@pytest.mark.parametrize("B", [1, 2, 5])
def test_batched_columns_are_the_1d_calls(B, rng):
    """Every column of an (n, B) call, of either memory order, is bit for
    bit the 1-D call on it, and a 1-D input stays 1-D."""
    for tree, order in itertools.product(cases(rng), "CF"):
        lo, hi = node_range(tree, rng)
        nt = tree.n_nonterminal
        y = np.asarray(rng.normal(size=(tree.n_nodes, B)), order=order)
        ey = np.asarray(rng.normal(size=(nt, B)), order=order)
        z = np.asarray(rng.normal(size=(nt, B)), order=order)
        m = rng.normal(size=tree.n_nodes)
        pdm = _pdm(tree, m, lo, hi)
        dm_all = _kernels.edge_increments(tree, m, 0, nt)
        dn = np.empty((len(tree.eprob), B))
        ey_b, m1_b, dy = _kernels.level_moments_d1(tree, pdm, y, lo, hi)
        batched = (
            (_kernels.backward_expect(tree, y, lo, hi),),
            (ey_b, m1_b),
            (_kernels.edge_residuals_d1(tree, dm_all, y, ey, z, 0, nt, dn),
             dn))
        for j in range(B):
            yj = y[:, j].copy()
            dnj = np.empty(len(tree.eprob))
            ey_1, m1_1, dy_1 = _kernels.level_moments_d1(tree, pdm, yj, lo, hi)
            assert dy_1.ndim == dy.ndim - 1
            assert np.array_equal(dy[j], dy_1)
            single = (
                (_kernels.backward_expect(tree, yj, lo, hi),),
                (ey_1, m1_1),
                (_kernels.edge_residuals_d1(tree, dm_all, yj, ey[:, j].copy(),
                                            z[:, j].copy(), 0, nt, dnj),
                 dnj))
            for outs_b, outs_1 in zip(batched, single):
                for ob, o1 in zip(outs_b, outs_1):
                    assert o1.ndim == 1
                    assert np.array_equal(ob[:, j], o1)
        E = tree.estart[hi] - tree.estart[lo]
        w = in_layout(tree, rng.uniform(0.5, 1.5, size=(E, B)), lo, hi)
        vals = rng.normal(size=tree.n_nodes)
        wcs = _kernels.weighted_child_sum(tree, w, vals, lo, hi)
        for j in range(B):
            assert np.array_equal(wcs[j], _kernels.weighted_child_sum(
                tree, w[j].copy(), vals, lo, hi))
        # residual_moments_d1 overwrites dy with dn: columns are copied first
        columns = [dy[j].copy() for j in range(B)]
        z_level = z[lo:hi]
        dm = _kernels.edge_increments(tree, m, lo, hi)
        dn_b, res_b = _kernels.residual_moments_d1(tree, dm, dy, z_level,
                                                  lo, hi)
        for j in range(B):
            dn_1, res_1 = _kernels.residual_moments_d1(
                tree, dm, columns[j], z_level[:, j].copy(), lo, hi)
            assert np.array_equal(dn_b[j], dn_1)
            assert np.array_equal(res_b[:, j], res_1)


def test_a_view_and_a_gather_give_the_same_bits(rng):
    """On a line lattice and its copy with permuted leaves, every kernel
    gives each node the same bits: the copy reads its children through a
    gather, the lattice through a view."""
    built = build(ModelConfig("trinomial", K=9))
    tree, m = built.tree, built.M.scalar
    perm, new_id = permute_last_level(tree, rng)
    assert tree.child_stride == 1 and perm.child_stride is None
    y = rng.normal(size=(tree.n_nodes, 3))
    y_perm = np.empty_like(y)
    y_perm[new_id] = y
    m_perm = np.empty_like(m)
    m_perm[new_id] = m
    for k in range(tree.K):
        lo, hi = tree.level_slice(k)
        pdm = _pdm(tree, m, lo, hi)
        assert np.array_equal(pdm, _pdm(perm, m_perm, lo, hi))
        for a, b in zip(_kernels.level_moments_d1(tree, pdm, y, lo, hi),
                        _kernels.level_moments_d1(perm, pdm, y_perm, lo, hi)):
            assert np.array_equal(a, b)
        assert np.array_equal(_kernels.backward_expect(tree, y, lo, hi),
                              _kernels.backward_expect(perm, y_perm, lo, hi))


# ---------------------------------------------------------------------------
# fixed-arity segment sums
# ---------------------------------------------------------------------------

# every magnitude up to where nine terms could overflow, and both zeros
_signed = st.one_of(st.sampled_from([0.0, -0.0]),
                    st.floats(-1e300, 1e300))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9), st.integers(1, 6), st.sampled_from([None, 1, 3]),
       st.sampled_from(["C", "F"]), st.data())
def test_segment_sum_is_reduceat(r, n, B, order, data):
    """The strided sum is reduceat bit for bit, signs of zero included, for
    1-D and (E, B) inputs of either layout; arities outside 2..7 take
    reduceat itself."""
    shape = (n * r,) if B is None else (n * r, B)
    x = np.array(data.draw(st.lists(_signed, min_size=int(np.prod(shape)),
                                    max_size=int(np.prod(shape)))),
                 dtype=float).reshape(shape, order=order)
    idx = np.arange(0, n * r, r)
    got = _kernels._segment_sum(SimpleNamespace(arity=r), x, idx)
    want = np.add.reduceat(x, idx)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_segment_sum_takes_reduceat_on_mixed_arity(rng):
    tree = random_full_tree(rng, K=3)
    assert tree.arity is None
    w = rng.normal(size=len(tree.eprob))
    nt = tree.n_nonterminal
    assert np.array_equal(_kernels.edge_sum(tree, w, 0, nt),
                          np.add.reduceat(w, tree.estart[:nt]))
