"""The numpy kernels against per-node loop references kept here."""

import numpy as np
import numpy.testing as npt
import pytest

from orthres import _kernels
from orthres.models import ModelConfig, build

from conftest import random_full_tree


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
    yield build(ModelConfig("trinomial", K=12)).tree
    yield build(ModelConfig("compensated_jump", K=10)).tree
    for _ in range(4):
        yield random_full_tree(rng, K=4)


def run_loop(name, tree, rng):
    lo, hi = tree.level_slice(rng.integers(0, tree.K))
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
            outs.append(out)
        return tuple(outs)
    raise KeyError(name)


def _range_weights(tree, lo, hi, rng):
    """(E,) and (E, 3) weights on the edges of the nodes in [lo, hi)."""
    E = int(tree.estart[hi] - tree.estart[lo])
    return rng.uniform(0.5, 1.5, size=E), rng.uniform(0.5, 1.5, size=(E, 3))


def _numpy_ey_z(tree, m, y, lo, hi):
    dm = _kernels.edge_increments(tree, m)
    ey, m1, _ = _kernels.level_moments_d1(tree, tree.eprob * dm, y, lo, hi)
    s2 = _kernels.edge_sum(tree, tree.eprob * dm * dm, lo, hi)
    return ey, m1 / np.maximum(s2, 1e-300)


def run_numpy(name, tree, rng):
    lo, hi = tree.level_slice(rng.integers(0, tree.K))
    y = rng.normal(size=tree.n_nodes)
    m = rng.normal(size=tree.n_nodes)
    dm = _kernels.edge_increments(tree, m)
    if name == "edge_sum":
        w = rng.normal(size=len(tree.eprob))
        return (_kernels.edge_sum(tree, w, lo, hi),)
    if name == "backward_expect":
        return (_kernels.backward_expect(tree, y, lo, hi),)
    if name == "level_moments_d1":
        return _kernels.level_moments_d1(tree, tree.eprob * dm, y, lo, hi)
    if name == "edge_residuals_d1":
        ey, z = _numpy_ey_z(tree, m, y, lo, hi)
        dn = np.zeros(len(tree.eprob))
        res = _kernels.edge_residuals_d1(tree, dm, y, ey, z, lo, hi, dn)
        return dn, res
    if name == "weighted_child_sum":
        return tuple(_kernels.weighted_child_sum(tree, w, y, lo, hi)
                     for w in _range_weights(tree, lo, hi, rng))
    raise KeyError(name)


@pytest.mark.parametrize("name", KERNELS)
def test_loop_matches_numpy(name, rng):
    for tree in cases(rng):
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
    for i in range(lo, hi):
        e0, e1 = int(tree.estart[i]), int(tree.estart[i + 1])
        ref = float(tree.eprob[e0:e1] @ vals[tree.echild[e0:e1]])
        npt.assert_allclose(out[i - lo], ref, atol=1e-14)


def test_edge_increments_per_edge(rng):
    tree = random_full_tree(rng, K=4)
    m = rng.normal(size=tree.n_nodes)
    dm = _kernels.edge_increments(tree, m)
    for e in range(len(tree.echild)):
        assert dm[e] == m[tree.echild[e]] - m[tree.eparent[e]]


def test_level_moments_dy_and_residual_moments_match_loops(rng):
    for tree in cases(rng):
        lo, hi = tree.level_slice(int(rng.integers(0, tree.K)))
        y = rng.normal(size=tree.n_nodes)
        m = rng.normal(size=tree.n_nodes)
        dm = _kernels.edge_increments(tree, m)
        ey, m1, dy = _kernels.level_moments_d1(tree, tree.eprob * dm, y,
                                               lo, hi)
        sl = slice(tree.estart[lo], tree.estart[hi])
        for e in range(sl.start, sl.stop):
            assert dy[e - sl.start] == (y[tree.echild[e]]
                                        - ey[tree.eparent[e] - lo])
        z = rng.normal(size=hi - lo)
        dn_ref = np.zeros(len(tree.eprob))
        res_ref = np.empty(hi - lo)
        _edge_residuals_d1_loop(tree.estart, tree.echild, tree.eprob, m, y,
                                ey, z, lo, hi, dn_ref, res_ref)
        dn, res = _kernels.residual_moments_d1(tree, dm, dy, z, lo, hi)
        npt.assert_allclose(dn, dn_ref[sl], atol=1e-13)
        npt.assert_allclose(res, res_ref, atol=1e-13)


@pytest.mark.parametrize("B", [1, 2, 5])
def test_batched_columns_are_the_1d_calls(B, rng):
    """Every column of an (n, B) call is bit for bit the 1-D call on it, and
    a 1-D input stays 1-D."""
    for tree in cases(rng):
        lo, hi = tree.level_slice(int(rng.integers(0, tree.K)))
        nt = tree.n_nonterminal
        y = rng.normal(size=(tree.n_nodes, B))
        ey = rng.normal(size=(nt, B))
        z = rng.normal(size=(nt, B))
        dm = _kernels.edge_increments(tree, rng.normal(size=tree.n_nodes))
        pdm = tree.eprob * dm
        dn = np.empty((len(tree.eprob), B))
        batched = (
            (_kernels.backward_expect(tree, y, lo, hi),),
            _kernels.level_moments_d1(tree, pdm, y, lo, hi),
            (_kernels.edge_residuals_d1(tree, dm, y, ey, z, 0, nt, dn), dn))
        for j in range(B):
            yj = y[:, j].copy()
            dnj = np.empty(len(tree.eprob))
            single = (
                (_kernels.backward_expect(tree, yj, lo, hi),),
                _kernels.level_moments_d1(tree, pdm, yj, lo, hi),
                (_kernels.edge_residuals_d1(tree, dm, yj, ey[:, j].copy(),
                                            z[:, j].copy(), 0, nt, dnj),
                 dnj))
            for outs_b, outs_1 in zip(batched, single):
                for ob, o1 in zip(outs_b, outs_1):
                    assert o1.ndim == 1
                    assert np.array_equal(ob[:, j], o1)
        w = rng.uniform(0.5, 1.5, size=(tree.estart[hi] - tree.estart[lo], B))
        vals = rng.normal(size=tree.n_nodes)
        wcs = _kernels.weighted_child_sum(tree, w, vals, lo, hi)
        for j in range(B):
            assert np.array_equal(wcs[:, j], _kernels.weighted_child_sum(
                tree, w[:, j].copy(), vals, lo, hi))
        # residual_moments_d1 overwrites dy with dn: columns are copied first
        dy = batched[1][2]
        columns = [dy[:, j].copy() for j in range(B)]
        z_level = z[lo:hi]
        dn_b, res_b = _kernels.residual_moments_d1(tree, dm, dy, z_level,
                                                  lo, hi)
        for j in range(B):
            dn_1, res_1 = _kernels.residual_moments_d1(
                tree, dm, columns[j], z_level[:, j].copy(), lo, hi)
            assert np.array_equal(dn_b[:, j], dn_1)
            assert np.array_equal(res_b[:, j], res_1)
