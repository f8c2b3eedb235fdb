"""Hot per-level kernels over the flat edge arrays of a tree.

Each kernel is one pass of ``np.add.reduceat`` over the edge segments of the
nodes in ``[lo, hi)``.  All kernels assume nodes are level-ordered and that
every node in the requested range is non-terminal, so edge segments are
contiguous and non-empty.  Per-edge inputs (``w``, ``pdm``, ``dm``, ``dn``)
are indexed by global edge id; ``edge_increments`` builds ``dm`` once, so a
solve need not redo it per level.  ``tests/test_kernels.py`` keeps per-node
loop versions as the reference.

Node values (``y``, ``vals``, ``ey``, ``z``) are ``(n,)`` for one solve or
``(n, B)`` for B solves on the same tree; the per-edge inputs stay ``(E,)``
and broadcast over the columns.  ``reduceat`` sums each column's segments in
the same order as a 1-D input, so every column is bit-identical to the 1-D
call.  A 1-D input stays 1-D: an ``(n, 1)`` array costs more per call.

Only the scalar-martingale (d = 1) projections are kernelized; general-d
paths stay in numpy at the call sites since they only run on small trees.
"""

import numpy as np

# There is no compiled path; perfbench/worker.py records this flag with
# each measurement.
NUMBA_ENABLED = False


def _segments(tree, lo, hi):
    base = tree.estart[lo]
    return slice(base, tree.estart[hi]), tree.estart[lo:hi] - base


def _per_edge(w, vals):
    """Per-edge weights w shaped to broadcast against the columns of vals."""
    return w if vals.ndim == 1 else w[:, None]


def edge_increments(tree, m):
    """dm = m[child] - m[parent] on every edge."""
    return m[tree.echild] - m[tree.eparent]


def edge_sum(tree, w, lo, hi):
    """sum_e w_e over the edges of each node in [lo, hi)."""
    sl, idx = _segments(tree, lo, hi)
    return np.add.reduceat(w[sl], idx)


def backward_expect(tree, vals, lo, hi):
    """E[vals at children | node] for each node id in [lo, hi)."""
    sl, idx = _segments(tree, lo, hi)
    return np.add.reduceat(
        _per_edge(tree.eprob[sl], vals) * vals[tree.echild[sl]], idx)


def level_moments_d1(tree, pdm, y, lo, hi):
    """One-step conditional moments (E[y'], E[dy dm]) per node, from the
    per-edge ``pdm = p * dm``, plus the per-edge dy = y' - E[y'] of the
    range's edges that they are formed from."""
    sl, idx = _segments(tree, lo, hi)
    yc = y[tree.echild[sl]]
    ey = np.add.reduceat(_per_edge(tree.eprob[sl], yc) * yc, idx)
    dy = yc - ey[tree.eparent[sl] - lo]
    return ey, np.add.reduceat(_per_edge(pdm[sl], dy) * dy, idx), dy


def _residuals(tree, sl, idx, parent, dm, dy, z):
    dy -= z[parent] * _per_edge(dm[sl], dy)  # now dn
    return dy, np.add.reduceat(_per_edge(tree.eprob[sl], dy) * dy * dy, idx)


def residual_moments_d1(tree, dm, dy, z, lo, hi):
    """Per-edge dn = dy - z*dm and E[dn^2 | node] per node of [lo, hi), from
    the per-edge dy of the range (as ``level_moments_d1`` returns it), which
    is overwritten by dn."""
    sl, idx = _segments(tree, lo, hi)
    return _residuals(tree, sl, idx, tree.eparent[sl] - lo, dm, dy, z)


def edge_residuals_d1(tree, dm, y, ey, z, lo, hi, dn):
    """Fill per-edge dn = dy - z*dm and return E[dn^2 | node] per node."""
    sl, idx = _segments(tree, lo, hi)
    parent = tree.eparent[sl] - lo
    dn[sl], res = _residuals(tree, sl, idx, parent, dm,
                             y[tree.echild[sl]] - ey[parent], z)
    return res


def weighted_child_sum(tree, w, vals, lo, hi):
    """Reweighted one-step expectation sum_e p_e w_e vals[child_e] per node."""
    sl, idx = _segments(tree, lo, hi)
    return np.add.reduceat(tree.eprob[sl] * w[sl] * vals[tree.echild[sl]], idx)
