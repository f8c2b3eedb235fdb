"""Hot per-level kernels over the flat edge arrays of a tree.

Each kernel is one pass of ``np.add.reduceat`` over the edge segments of the
nodes in ``[lo, hi)``.  All kernels assume nodes are level-ordered and that
every node in the requested range is non-terminal, so edge segments are
contiguous and non-empty.  Per-edge inputs (``w``, ``pdm``, ``dm``, ``dn``)
are indexed by global edge id; ``edge_increments`` builds ``dm`` once, so a
solve need not redo it per level.  ``tests/test_kernels.py`` keeps per-node
loop versions as the reference.

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
    return np.add.reduceat(tree.eprob[sl] * vals[tree.echild[sl]], idx)


def level_moments_d1(tree, pdm, y, lo, hi):
    """One-step conditional moments (E[y'], E[dy dm]) per node, from the
    per-edge ``pdm = p * dm``."""
    sl, idx = _segments(tree, lo, hi)
    yc = y[tree.echild[sl]]
    ey = np.add.reduceat(tree.eprob[sl] * yc, idx)
    dy = yc - ey[tree.eparent[sl] - lo]
    return ey, np.add.reduceat(pdm[sl] * dy, idx)


def edge_residuals_d1(tree, dm, y, ey, z, lo, hi, dn):
    """Fill per-edge dn = dy - z*dm and return E[dn^2 | node] per node."""
    sl, idx = _segments(tree, lo, hi)
    parent = tree.eparent[sl] - lo
    d = y[tree.echild[sl]] - ey[parent] - z[parent] * dm[sl]
    dn[sl] = d
    return np.add.reduceat(tree.eprob[sl] * d * d, idx)


def weighted_child_sum(tree, w, vals, lo, hi):
    """Reweighted one-step expectation sum_e p_e w_e vals[child_e] per node."""
    sl, idx = _segments(tree, lo, hi)
    return np.add.reduceat(tree.eprob[sl] * w[sl] * vals[tree.echild[sl]], idx)
