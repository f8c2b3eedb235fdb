"""Hot per-level kernels over the flat edge arrays of a tree.

Each kernel is one segment sum over the edges of the nodes in ``[lo, hi)``
(``_segment_sum``).  All kernels assume nodes are level-ordered and that
every node in the requested range is non-terminal, so edge segments are
contiguous and non-empty.  Per-edge inputs (``w`` of ``edge_sum``, ``pdm``,
``dm``, ``dn``) are indexed by global edge id; ``edge_increments`` builds
``dm`` once, so a solve need not redo it per level.  ``tests/test_kernels.py``
keeps per-node loop versions as the reference.

On a tree of fixed arity r (``ScenarioTree.arity``) the edges of a range are
an (n, r) grid: a segment sum adds the r strided slices in ``reduceat``'s
order, and a node's value reaches its edges by broadcasting over that grid,
not by an ``eparent`` gather.  Other trees take ``np.add.reduceat`` and the
gather.

Node values (``y``, ``vals``, ``ey``, ``z``) are ``(n,)`` for one solve or
``(n, B)`` for B solves on the same tree; the per-edge inputs stay ``(E,)``
and broadcast over the columns.  Both sums add each column's segments in the
order of a 1-D input, so every column is bit-identical to the 1-D call.  A
1-D input stays 1-D: an ``(n, 1)`` array costs more per call.
``weighted_child_sum`` is the exception: it takes one ``vals`` of shape (n,)
and the weights of the range's own edges, (E,) or (E, C) for C reweightings
at once with one result column each, since the dual DP forms its weights
level by level.

The projections are scalar-martingale (d = 1) only, as are the solvers and
the decomposition that call them; a d-general per-node ``pinv`` loop is kept
with the tests as a reference.
"""

import numpy as np

# There is no compiled path; perfbench/worker.py records this flag with
# each measurement.
NUMBA_ENABLED = False
# dY is projected on dM only where E[dm^2 | node] > PROJ_EPS, and Z is 0
# elsewhere; the dual DP holds q and dC to the same threshold
PROJ_EPS = 1e-14


def _segments(tree, lo, hi):
    base = tree.estart[lo]
    return slice(base, tree.estart[hi]), tree.estart[lo:hi] - base


def _per_edge(w, vals):
    """Per-edge weights w shaped to broadcast against the columns of vals."""
    return w if vals.ndim == 1 else w[:, None]


def _by_node(tree, e):
    """Per-edge e of a range as (nodes, arity, ...) on a fixed-arity tree;
    unchanged otherwise."""
    r = tree.arity
    return e if r is None else e.reshape((-1, r) + e.shape[1:])


def _at_parent(tree, v, sl, lo):
    """Per-node v of [lo, hi) at each edge of the range ``sl``: a gather, or
    on a fixed-arity tree a view that broadcasts against ``_by_node``."""
    return v[tree.eparent[sl] - lo] if tree.arity is None else v[:, None]


def _minus_parent(tree, e, v, sl, lo):
    """e - v[parent] on every edge of the range, shaped as e."""
    return (_by_node(tree, e) - _at_parent(tree, v, sl, lo)).reshape(e.shape)


def _segment_sum(tree, x, idx):
    """Per-segment sums of the per-edge x (rows), segments starting at idx.

    ``reduceat`` adds a segment [x0, ..., x_{r-1}] as
    x0 + ((x1 + x2) + ...) up to seven terms, so on a tree of arity 2 to 7
    the strided sum in that order is bit-identical to it, signs of zero
    included; beyond seven numpy's pairwise tail changes the order."""
    r = tree.arity
    if r is None or not 2 <= r <= 7:
        return np.add.reduceat(x, idx)
    x = _by_node(tree, x)
    tail = x[:, 1]
    for j in range(2, r):
        tail = tail + x[:, j]
    return x[:, 0] + tail


def edge_increments(tree, m):
    """dm = m[child] - m[parent] on every edge."""
    return m[tree.echild] - m[tree.eparent]


def edge_sum(tree, w, lo, hi):
    """sum_e w_e over the edges of each node in [lo, hi)."""
    sl, idx = _segments(tree, lo, hi)
    return _segment_sum(tree, w[sl], idx)


def backward_expect(tree, vals, lo, hi):
    """E[vals at children | node] for each node id in [lo, hi)."""
    sl, idx = _segments(tree, lo, hi)
    return _segment_sum(
        tree, _per_edge(tree.eprob[sl], vals) * vals[tree.echild[sl]], idx)


def level_moments_d1(tree, pdm, y, lo, hi, base=0):
    """One-step conditional moments (E[y'], E[dy dm]) per node, from the
    per-edge ``pdm = p * dm``, plus the per-edge dy = y' - E[y'] of the
    range's edges that they are formed from.  ``y[i - base]`` is node i's
    value, so y may hold only the level below the range."""
    sl, idx = _segments(tree, lo, hi)
    yc = y[tree.echild[sl] - base]
    ey = _segment_sum(tree, _per_edge(tree.eprob[sl], yc) * yc, idx)
    dy = _minus_parent(tree, yc, ey, sl, lo)
    return ey, _segment_sum(tree, _per_edge(pdm[sl], dy) * dy, idx), dy


def _residuals(tree, sl, idx, lo, dm, dy, z):
    zdm = _at_parent(tree, z, sl, lo) * _by_node(tree, _per_edge(dm[sl], dy))
    dy -= zdm.reshape(dy.shape)  # now dn
    return dy, _segment_sum(tree, _per_edge(tree.eprob[sl], dy) * dy * dy,
                            idx)


def residual_moments_d1(tree, dm, dy, z, lo, hi):
    """Per-edge dn = dy - z*dm and E[dn^2 | node] per node of [lo, hi), from
    the per-edge dy of the range (as ``level_moments_d1`` returns it), which
    is overwritten by dn."""
    sl, idx = _segments(tree, lo, hi)
    return _residuals(tree, sl, idx, lo, dm, dy, z)


def edge_residuals_d1(tree, dm, y, ey, z, lo, hi, dn):
    """Fill per-edge dn = dy - z*dm and return E[dn^2 | node] per node."""
    sl, idx = _segments(tree, lo, hi)
    dn[sl], res = _residuals(tree, sl, idx, lo, dm,
                             _minus_parent(tree, y[tree.echild[sl]], ey, sl,
                                           lo), z)
    return res


def weighted_child_sum(tree, w, vals, lo, hi):
    """Reweighted one-step expectation sum_e p_e w_e vals[child_e] per node;
    ``w`` holds the range's own edges, (E,) or (E, C) for C reweightings."""
    sl, idx = _segments(tree, lo, hi)
    return _segment_sum(tree, _per_edge(tree.eprob[sl], w) * w
                        * _per_edge(vals[tree.echild[sl]], w), idx)
