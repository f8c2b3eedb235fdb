"""Hot per-level kernels over the edges of a range of nodes.

A kernel works on the nodes [lo, hi) of a tree and the edges out of them.
Nodes are level-ordered and every node of a range is non-terminal, so the
range's edges are one contiguous, non-empty block per node.

**Layout.**  Per-edge arrays of a range (``pdm``, ``dm``, ``dy``, ``w``)
hold that range's edges only, with the node axis last: on a tree of fixed
arity r (``ScenarioTree.arity``) with 2 <= r <= 7, as ``(r, n)``, entry
[i, j] being move i of node lo + j; on any other tree as ``(E,)`` in edge
order.  ``edge_probs`` lays out the range's probabilities that way, a
tree's move row (``ScenarioTree.probs`` of shape (1, r)) as an (r, 1) view
that broadcasts over the nodes and a per-edge array as its slice, and
``edge_increments`` forms dm in it from M on the range and on its
children's window (``child_window``), so no sweep holds a full-size
per-edge or per-node array of M; ``store_edges`` writes one back in edge
order.
``level_moments_d1`` and ``residual_moments_d1`` take the range's
``edge_probs`` as ``p``, so a caller lays them out once per level; the
martingale check and the clock (``ftree``) call the kernels one level, or
one run of narrow levels, at a time, so no temporary of theirs outgrows a
level or a run.

**Columns.**  Node values (``y``, ``vals``, ``ey``, ``z``) are ``(n,)`` for
one solve or ``(n, B)`` for B solves on one tree.  A kernel works on their
transpose, columns leading, so every pass runs inner loops along the nodes:
``(n, B)`` inputs should be Fortran-ordered, per-edge arrays with columns
are ``(B, r, n)`` or ``(B, E)``, and per-node results come back ``(n, B)``
as the transpose of a C-ordered ``(B, n)`` array.  A 1-D input stays 1-D.

**Child paths.**  On a fixed-arity tree the moves are summed
x0 + ((x1 + x2) + ...), which is ``np.add.reduceat``'s order for two to seven
terms, signs of zero included, and a node's value reaches its edges by
broadcasting.  When the range lies within one level of a tree with a
``child_stride`` s (line lattices and their subtrees, full trees), move i of
node j lands on s*j + i of the next level, so the children's values are a
strided view of that level, no gather, and the range's per-edge arrays are
contiguous (r, n): every pass runs along the nodes.  Any other fixed-arity
range (the jump lattice, a run of levels) gathers its children in edge
order, at the ids ``ScenarioTree.edge_children`` gives, and reads them, and
its per-edge weights, through a transpose, whose passes run in edge order as
a gather's do.  Other trees take
``np.add.reduceat`` and gathers along the edge axis.  On every path each
column sums in the order of a 1-D input, so every column is bit-identical to
the 1-D call.  ``tests/test_kernels.py`` keeps per-node loop versions as the
reference.

``weighted_child_sum`` takes one ``vals`` of shape (n,) and the range's
weights with C reweightings leading, ``(C, r, n)`` or ``(C, E)``, and returns
one row per reweighting, ``(C, n)``, since the dual DP forms its weights level
by level.

The martingale is scalar (d = 1) throughout, so the projections divide by
E[dm^2 | node] and the clock's factor is a square root; the d-general
per-node ``pinv`` projection, covariances and PSD factor are kept with the
tests as references.  ``edge_residuals_d1`` forms dn again from
stored y, ey and z, for the tests' oracles of the sweep's dn.
"""

import numpy as np

# There is no compiled path; perfbench/worker.py records this flag with
# each measurement.
NUMBA_ENABLED = False
# dY is projected on dM only where E[dm^2 | node] exceeds PROJ_EPS times
# its largest value over the tree, and Z is 0 elsewhere; the dual DP tilts
# on the same nodes
PROJ_EPS = 1e-14


def _strided(tree):
    """Whether the edges of a range are laid out (r, n): fixed arity r with
    2 <= r <= 7, where the strided sum is reduceat's order."""
    r = tree.arity
    return r is not None and 2 <= r <= 7


def _edges(tree, lo, hi):
    return slice(int(tree.estart[lo]), int(tree.estart[hi]))


def _add_moves(x, axis):
    """Sum over the move axis of x in reduceat's order, x0 + ((x1 + x2) +
    ...): numpy adds up to seven terms that way, and beyond seven its
    pairwise tail changes the order."""
    at = (slice(None),) * (axis % x.ndim)
    tail = x[at + (1,)]
    for j in range(2, x.shape[axis]):
        tail = tail + x[at + (j,)]
    return x[at + (0,)] + tail


def _segment_sum(tree, x, idx):
    """Per-segment sums of the per-edge x in edge order (rows), segments
    starting at idx: the strided sum on a tree ``_strided`` lays out,
    bit-identical to ``np.add.reduceat``, which other trees take."""
    if not _strided(tree):
        return np.add.reduceat(x, idx)
    return _add_moves(x.reshape((-1, tree.arity) + x.shape[1:]), 1)


def _first_child(tree, lo, hi):
    """The first child's node id when [lo, hi) lies within one level of a
    tree with a ``child_stride``, so that its children are a view of the
    level below; None otherwise."""
    s, ls = tree.child_stride, tree.level_start
    if s is None:
        return None
    k = tree.level_of(lo)
    return None if hi > ls[k + 1] else int(ls[k + 1] + s * (lo - ls[k]))


def child_window(tree, lo, hi):
    """[c0, c1), a node range that holds every child of the nodes [lo, hi):
    exactly the strided view's where the range lies within one level of a
    tree with a ``child_stride``, else the levels below the range's first
    and last levels."""
    first = _first_child(tree, lo, hi)
    if first is not None:
        return first, first + tree.child_stride * (hi - lo - 1) + tree.arity
    ls = tree.level_start
    return (int(ls[tree.level_of(lo) + 1]),
            int(ls[tree.level_of(hi - 1) + 2]))


def _gather(v, idx):
    """v[..., idx]: numpy's 1-D fancy index, or np.take along the last
    axis, which is the faster of the two for rows."""
    return v[idx] if v.ndim == 1 else np.take(v, idx, axis=-1)


def _children(tree, v, lo, hi, base):
    """v (..., nodes) at the child of every edge of [lo, hi), in the range's
    layout; ``v[..., i - base]`` is node i's value."""
    strided = _strided(tree)
    first = _first_child(tree, lo, hi) if strided else None
    if first is None:
        vc = _gather(v, tree.edge_children(lo, hi, base))
        # on a strided tree, gathered in edge order and read as (..., r, n)
        # through a transpose
        return vc.reshape(v.shape[:-1] + (hi - lo, tree.arity)).swapaxes(
            -1, -2) if strided else vc
    # move i of node j is v[..., first - base + s*j + i]: a view of the
    # children's window of v, which np.ndarray refuses if v stops short.  The
    # window is copied first where its rows are not contiguous (a part of a
    # level of an (n, B) input); the solvers pass one level's values, whose
    # window is all of them, so they never copy
    s, r, n = tree.child_stride, tree.arity, hi - lo
    first -= base
    if first < 0:
        raise IndexError(f"values from node {base} miss the children of "
                         f"[{lo}, {hi})")
    v = np.ascontiguousarray(v[..., first:first + s * (n - 1) + r])
    w = v.itemsize
    return np.ndarray(v.shape[:-1] + (r, n), v.dtype, v, 0,
                      v.strides[:-1] + (w, s * w))


def parent_values(tree, v, lo, hi):
    """Per-node v (..., n) of [lo, hi) at each edge of the range, in its
    layout: a view that broadcasts, or a gather."""
    if _strided(tree):
        return v[..., None, :]
    return _gather(v, tree.edge_parents(lo, hi) - lo)


def edge_probs(tree, lo, hi):
    """The probabilities of the edges of [lo, hi), in the range's layout.
    A tree's move row is its (r, 1) transpose, which broadcasts over the
    nodes with no copy, whether the children are a view or gathered (or
    tiled over the range's (E,) edge order).  A per-edge array's slice is
    made contiguous where the children are a view, so that every operand
    runs along the nodes, and is a transposed view where they are gathered,
    in the gather's edge order."""
    p = tree.probs
    if p.ndim == 2:
        return p.T if _strided(tree) else np.tile(p[0], hi - lo)
    p = p[_edges(tree, lo, hi)]
    if not _strided(tree):
        return p
    p = p.reshape(hi - lo, -1).T
    return p if _first_child(tree, lo, hi) is None else np.ascontiguousarray(p)


def edge_increments(tree, m, mc, lo, hi, base=0):
    """dm = m[child] - m[parent] on the edges of [lo, hi), in their layout,
    from m (hi - lo,) on the range and mc on its children, ``mc[i - base]``
    being node i's value."""
    return (_children(tree, mc, lo, hi, base)
            - parent_values(tree, m, lo, hi))


def edge_sum(tree, w, lo, hi):
    """sum_e w_e over the edges of each node in [lo, hi), from w (..., r, n)
    or (..., E) in the range's layout: (..., n)."""
    if _strided(tree):
        return _add_moves(w, -2)
    return np.add.reduceat(w, tree.estart[lo:hi] - tree.estart[lo], axis=-1)


def backward_expect(tree, vals, lo, hi, base=0):
    """E[vals at children | node] for each node id in [lo, hi);
    ``vals[i - base]`` is node i's value."""
    vc = _children(tree, vals.T, lo, hi, base)
    return edge_sum(tree, edge_probs(tree, lo, hi) * vc, lo, hi).T


def level_moments_d1(tree, pdm, y, lo, hi, base=0, p=None):
    """One-step conditional moments (E[y'], E[dy dm]) per node, from the
    range's ``pdm = p * dm``, plus the per-edge dy = y' - E[y'] of the
    range's edges that they are formed from, in their layout.
    ``y[i - base]`` is node i's value, so y may hold only the level below
    the range.  ``p`` is the range's ``edge_probs``, laid out here when not
    given."""
    if p is None:
        p = edge_probs(tree, lo, hi)
    yc = _children(tree, y.T, lo, hi, base)
    ey = edge_sum(tree, p * yc, lo, hi)
    dy = yc - parent_values(tree, ey, lo, hi)
    return ey.T, edge_sum(tree, pdm * dy, lo, hi).T, dy


def residual_moments_d1(tree, dm, dy, z, lo, hi, p=None):
    """Per-edge dn = dy - z*dm and E[dn^2 | node] per node of [lo, hi), from
    the range's dm and dy (as ``level_moments_d1`` returns it), which is
    overwritten by dn; ``p`` as in ``level_moments_d1``."""
    dy -= parent_values(tree, z.T, lo, hi) * dm  # now dn
    if p is None:
        p = edge_probs(tree, lo, hi)
    return dy, edge_sum(tree, p * dy * dy, lo, hi).T


def edge_residuals_d1(tree, dm, y, ey, z, lo, hi, dn):
    """Fill per-edge dn = dy - z*dm, in edge order into the range's rows of
    the full-size ``dn``, and return E[dn^2 | node] per node; dm is the
    range's, in its layout."""
    dy = _children(tree, y.T, lo, hi, 0) - parent_values(tree, ey.T, lo, hi)
    dy, res = residual_moments_d1(tree, dm, dy, z, lo, hi)
    store_edges(tree, dy, lo, hi, dn)
    return res


def store_edges(tree, x, lo, hi, out):
    """Write the range's per-edge x, in its layout, in edge order into the
    range's rows of the full-size (E,) or (E, B) out."""
    out = out[_edges(tree, lo, hi)]
    if _strided(tree):
        for i in range(tree.arity):
            out[i::tree.arity] = x[..., i, :].T
    else:
        out[...] = x.T


def weighted_child_sum(tree, w, vals, lo, hi):
    """Reweighted one-step expectation sum_e p_e w_e vals[child_e] per node;
    ``w`` holds the range's own edges in their layout, with C reweightings
    leading, (C, r, n) or (C, E), for a (C, n) result."""
    vc = _children(tree, vals, lo, hi, 0)
    return edge_sum(tree, edge_probs(tree, lo, hi) * w * vc, lo, hi)
