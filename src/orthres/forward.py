"""Forward state X driven by M and the clock on a tree.

Explicit Euler along edges: X_{k+1} = X_k + sigma(t_k, X_k) dM
+ b(t_k, X_k) dC_k, with the coefficients evaluated once per node and M
scalar (d = 1), so sigma dM is a product.  The coefficients read (t, x)
alone, so a shift of M by a constant leaves X unchanged.  On recombining
lattices the update must be consistent across incoming edges (it is
whenever X is a function of the lattice state, e.g. constant
coefficients); otherwise a full tree is needed.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation
from .ftree import AdaptedProcess, ScenarioTree, TimeGrid, level_windows

# largest gap between the states two edges give one recombined node
CONSISTENCY_TOL = 1e-9


@dataclass(frozen=True)
class SdeCoeffs:
    """sigma(t, x) -> (n,) diffusion, b(t, x) -> (n,) drift.

    Both evaluators are vectorized: x (N, n) -> (N, n).
    """

    id: str
    n: int
    sigma: callable
    b: callable


def euler_forward(tree, M, clock, coeffs, x0):
    """Run the explicit Euler scheme; returns X as an AdaptedProcess.

    The coefficients are evaluated once per level on the level's rows, and
    each edge takes its parent's values.  On a tree with a
    ``child_stride`` each move i of the level reads and writes the next
    level through a strided view, the highest move first, so that the last
    edge in edge order sets a recombined node; any other tree gathers its
    parents and scatters into its children.  The finiteness and
    consistency checks cover every edge.
    """
    n = coeffs.n
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (n,):
        raise ValueError(f"x0 must have shape ({n},)")
    X = np.zeros((tree.n_nodes, n))
    X[0] = x0
    dC = clock.increments()
    t, ls = tree.grid.t, tree.level_start.tolist()
    s, r = tree.child_stride, tree.arity
    for k, lo, hi, mk, mc, base in level_windows(tree, M, descending=False):
        end = ls[k + 2]
        # sigma dm is added to x + 0.0, which turns a -0.0 state to +0.0:
        # the per-edge reference sums sigma dm from +0.0 (an einsum), and
        # (x + 0.0) + sigma dm is x + (0.0 + sigma dm) bit for bit
        xk = X[lo:hi] + 0.0
        sig = np.asarray(coeffs.sigma(t[k], X[lo:hi]), dtype=float)
        sig = sig.reshape(xk.shape)
        drift = np.asarray(coeffs.b(t[k], X[lo:hi]), dtype=float)
        drift = drift.reshape(xk.shape) * dC[lo:hi, None]
        # the level's and the next level's M and X, indexed from their
        # first nodes
        mk, mc, xc = mk[:, None], mc[:, None], X[hi:end]
        if s is None:
            moves = [(tree.edge_parents(lo, hi) - lo,
                      tree.edge_children(lo, hi, base))]
        else:
            moves = [(slice(None), slice(i, i + s * (hi - lo - 1) + 1, s))
                     for i in range(r - 1, -1, -1)]
        upd = []
        for par, chi in moves:
            u = (mc[chi] - mk[par]) * sig[par]
            u += xk[par]
            u += drift[par]
            xc[chi] = u
            upd.append(u)
        # every edge into one child must give it the state stored there
        # (the last edge's); a move's children are distinct, so the move a
        # strided tree wrote last gave each its own state
        gap = [np.abs(xc[chi] - u) for (_, chi), u in
               zip(moves[:-1] if s is not None else moves, upd)]
        err = float(np.max([d.max() for d in gap], initial=0.0))
        # a non-finite state is stored, or gives a non-finite gap
        if not (err <= CONSISTENCY_TOL and np.isfinite(xc).all()):
            if not all(np.isfinite(u).all() for u in upd):
                raise InvariantViolation("coefficient evaluation produced "
                                         "non-finite forward state")
            raise InvariantViolation(
                "forward state is path-dependent on a recombining "
                f"lattice (mismatch {err:.3e}); rebuild as a full tree")
    return AdaptedProcess(tree, X)


def extract_subtree(tree, node):
    """Sub-DAG reachable from a node, as a fresh tree plus the node map.

    The subtree of a tree with a ``child_stride`` s is given in closed form:
    the kept local range [a, b) of one level keeps [s*a, s*(b - 1) + r) of
    the next, so its level sizes and node map follow level by level, with
    no walk over the edges, and the new tree finds its stride from its
    level sizes.  Any other tree's subtree is found by a walk over the
    edges out of [node, nt) and given its kept edges as arrays, as its
    children alone where the tree has a fixed arity.  A subtree shares its
    tree's move row."""
    level0 = tree.level_of(node)
    grid = TimeGrid(tree.grid.t[level0:] - tree.grid.t[level0])
    nt, ls, p = tree.n_nonterminal, tree.level_start, tree.probs
    s = tree.child_stride
    if s is not None:
        # the kept range [first, first + size) of each level
        first, size = [], []
        a, b = node - int(ls[level0]), node - int(ls[level0]) + 1
        for k in range(level0, tree.K + 1):
            first.append(int(ls[k]) + a)
            size.append(b - a)
            a, b = s * a, s * (b - 1) + tree.arity
        sub_ls = np.zeros(len(size) + 1, dtype=np.int64)
        np.cumsum(size, out=sub_ls[1:])
        # new id i on level k is old node i + first[k] - sub_ls[k]
        order = np.arange(sub_ls[-1])
        order += np.repeat(np.array(first) - sub_ls[:-1], size)
        if p.ndim == 1:
            es = tree.estart
            p = np.concatenate([p[es[f]:es[f + n]]
                                for f, n in zip(first[:-1], size[:-1])])
        return ScenarioTree(grid, sub_ls, None, None, p), order
    # every kept parent lies in [node, nt): the edges out of those nodes,
    # level by level from node on
    par, chi = tree.edge_parents(node, nt), tree.edge_children(node, nt)
    ends = tree.estart[np.maximum(ls[level0:], node)]
    ends -= ends[0]
    keep = np.zeros(tree.n_nodes, dtype=bool)
    keep[node] = True
    for a, b in zip(ends[:-1].tolist(), ends[1:].tolist()):
        keep[chi[a:b][keep[par[a:b]]]] = True
    # new id of old node i: the number of kept nodes before it
    new_id = np.concatenate([[0], np.cumsum(keep)])
    ekeep = keep[par]
    if p.ndim == 1:
        p = p[tree.estart[node]:tree.estart[nt]][ekeep]
    # a kept node keeps all its edges, so a fixed arity stays fixed and the
    # subtree derives its parents
    sub = ScenarioTree(grid, new_id[ls[level0:]],
                       None if tree.arity else new_id[par[ekeep]],
                       new_id[chi[ekeep]], p)
    return sub, np.flatnonzero(keep)


def shift_start(tree, M, t_idx, node, m, coeffs=None, clock=None, x=None):
    """Restart (M, X) from a node at level t_idx with M shifted to start at m.

    Returns (subtree, M_shifted) or (subtree, M_shifted, X_restarted) when
    coefficients are supplied.  ``clock`` is the clock of the restarted
    subtree; it is computed from M_shifted when omitted.
    """
    if tree.level_of(node) != t_idx:
        raise ValueError(f"node {node} is not at level {t_idx}")
    sub, order = extract_subtree(tree, node)
    m = np.atleast_1d(np.asarray(m, dtype=float))
    Msub = AdaptedProcess(sub, M.take(order) - M.range(node, node + 1) + m)
    if coeffs is None:
        return sub, Msub
    if clock is None:
        from .ftree import predictable_bracket
        clock = predictable_bracket(sub, Msub)
    X = euler_forward(sub, Msub, clock, coeffs, x)
    return sub, Msub, X


# ---------------------------------------------------------------------------
# coefficient catalog
# ---------------------------------------------------------------------------

def _param(value, name):
    """A catalog parameter as a float, which must be a number, not a bool,
    and finite."""
    if isinstance(value, bool):
        raise ValueError(f"coefficient parameter {name} must be a number, "
                         f"got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"coefficient parameter {name} must be finite, "
                         f"got {v!r}")
    return v


def _dim(value):
    """A catalog dimension as an int: an integer, or a float of integral
    value, so that 1.0 reads as 1; a string, a bool or a fractional value
    is refused."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not float(value).is_integer()):
        raise ValueError(f"coefficient dimension n must be an integer, "
                         f"got {value!r}")
    return int(value)


def identity(n=1):
    """sigma = e_1, b = 0: X_1 - x0_1 tracks M, the rest stays at x0."""
    n = _dim(n)
    return SdeCoeffs(
        id="identity", n=n,
        sigma=lambda t, x: np.broadcast_to(np.eye(n, 1)[:, 0],
                                           (x.shape[0], n)),
        b=lambda t, x: np.zeros((x.shape[0], n)))


def constant_drift(c=1.0, n=1):
    c, n = _param(c, "c"), _dim(n)
    return SdeCoeffs(
        id="constant_drift", n=n,
        sigma=lambda t, x: np.zeros((x.shape[0], n)),
        b=lambda t, x: np.full((x.shape[0], n), c))


def linear_sigma(a=1.0):
    """sigma(x) = a*x (n = 1): discrete stochastic exponential."""
    a = _param(a, "a")
    return SdeCoeffs(
        id="linear_sigma", n=1,
        sigma=lambda t, x: a * x,
        b=lambda t, x: np.zeros((x.shape[0], 1)))


def affine(a=1.0, c=0.0):
    """sigma(x) = a*x, b(x) = c*x (n = 1)."""
    a, c = _param(a, "a"), _param(c, "c")
    return SdeCoeffs(
        id="affine", n=1,
        sigma=lambda t, x: a * x,
        b=lambda t, x: c * x)


CATALOG = {
    "identity": identity,
    "constant_drift": constant_drift,
    "linear_sigma": linear_sigma,
    "affine": affine,
}


def from_catalog(cid, **params):
    if cid not in CATALOG:
        raise KeyError(f"unknown coefficient id {cid!r}")
    return CATALOG[cid](**params)
