"""Forward state X driven by M and the clock on a tree.

Explicit Euler along edges: X_{k+1} = X_k + sigma(t_k, X_k, M_k) dM
+ b(t_k, X_k, M_k) dC_k.  On recombining lattices the update must be
consistent across incoming edges (it is whenever X is a function of the
lattice state, e.g. constant coefficients); otherwise a full tree is needed.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation
from .ftree import AdaptedProcess, ScenarioTree, TimeGrid

# largest gap between the states two edges give one recombined node
CONSISTENCY_TOL = 1e-9


@dataclass(frozen=True)
class SdeCoeffs:
    """sigma(t, x, m) -> (n, d) matrix, b(t, x, m) -> (n,) drift.

    Both evaluators are vectorized: x (N, n), m (N, d) -> (N, n, d) / (N, n).
    """

    id: str
    n: int
    sigma: callable
    b: callable


def euler_forward(tree, M, clock, coeffs, x0, shifts=None):
    """Run the explicit Euler scheme; returns X as an AdaptedProcess.

    With ``shifts`` a (B,) array, column j runs on M + shifts[j] and X is
    (n_nodes, n, B), each column bit-identical to the run on that shifted
    martingale: the coefficients are evaluated once per level on the stacked
    (edges * B) rows, and the finiteness and consistency checks cover every
    column.
    """
    n = coeffs.n
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (n,):
        raise ValueError(f"x0 must have shape ({n},)")
    g = None if shifts is None else np.asarray(shifts, dtype=float).ravel()
    B = 1 if g is None else len(g)
    d = M.dim
    # column-minor rows: edge e of column j is row e * B + j
    X = np.zeros((tree.n_nodes, B, n))
    X[0] = x0
    dC = clock.dC.values
    t = tree.grid.t
    for k in range(tree.K):
        lo, hi = tree.level_slice(k)
        par, chi = tree.edge_parents(lo, hi), tree.edge_children(lo, hi)
        xp, mp, mc = X[par].reshape(-1, n), M.values[par], M.values[chi]
        if g is not None:
            mp = (mp[:, None, :] + g[:, None]).reshape(-1, d)
            mc = (mc[:, None, :] + g[:, None]).reshape(-1, d)
        sig = np.asarray(coeffs.sigma(t[k], xp, mp), dtype=float)
        drift = np.asarray(coeffs.b(t[k], xp, mp), dtype=float)
        upd = (xp + np.einsum("eij,ej->ei", sig, mc - mp)).reshape(-1, B, n)
        upd += drift.reshape(upd.shape) * dC[par][:, None, None]
        if not np.all(np.isfinite(upd)):
            raise InvariantViolation("coefficient evaluation produced "
                                     "non-finite forward state")
        # every edge into one child must give it the state stored there
        # (the last edge's), per column
        X[chi] = upd
        gap = np.abs(X[chi] - upd)
        err = gap.max()
        if err > CONSISTENCY_TOL:
            where = (f" in column {np.argwhere(gap == err)[0, 1]}"
                     if g is not None else "")
            raise InvariantViolation(
                "forward state is path-dependent on a recombining "
                f"lattice (mismatch {err:.3e}{where}); rebuild as a "
                "full tree")
    return AdaptedProcess(tree, X[:, 0] if g is None
                          else X.transpose(0, 2, 1))


def extract_subtree(tree, node):
    """Sub-DAG reachable from a node, as a fresh tree plus the node map.

    The subtree of a tree with a ``child_stride`` s is given in closed form:
    the kept local range [a, b) of one level keeps [s*a, s*(b - 1) + r) of
    the next, so its level sizes and node map follow level by level, with
    no walk over the edges, and the new tree finds its stride from its
    level sizes.  Any other tree's subtree is found by a walk over the
    edges out of [node, nt) and given its kept edges as arrays.  A subtree
    shares its tree's move row."""
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
    sub = ScenarioTree(grid, new_id[ls[level0:]], new_id[par[ekeep]],
                       new_id[chi[ekeep]], p)
    return sub, np.flatnonzero(keep)


def shift_martingale(sub, order, M, node, m):
    """M on a subtree extracted from ``node``, shifted to start at m."""
    m = np.atleast_1d(np.asarray(m, dtype=float))
    return AdaptedProcess(sub, M.values[order] - M.values[node] + m)


def shift_start(tree, M, t_idx, node, m, coeffs=None, clock=None, x=None):
    """Restart (M, X) from a node at level t_idx with M shifted to start at m.

    Returns (subtree, M_shifted) or (subtree, M_shifted, X_restarted) when
    coefficients are supplied.  ``clock`` is the clock of the restarted
    subtree; it is computed from M_shifted when omitted.
    """
    if tree.level_of(node) != t_idx:
        raise ValueError(f"node {node} is not at level {t_idx}")
    sub, order = extract_subtree(tree, node)
    Msub = shift_martingale(sub, order, M, node, m)
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
    """A catalog parameter as a float, which must be finite."""
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
    """sigma = I, b = 0: X - x0 tracks M."""
    n = _dim(n)
    return SdeCoeffs(
        id="identity", n=n,
        sigma=lambda t, x, m: np.broadcast_to(
            np.eye(n, m.shape[1]), (x.shape[0], n, m.shape[1])),
        b=lambda t, x, m: np.zeros((x.shape[0], n)))


def constant_drift(c=1.0, n=1):
    c, n = _param(c, "c"), _dim(n)
    return SdeCoeffs(
        id="constant_drift", n=n,
        sigma=lambda t, x, m: np.zeros((x.shape[0], n, m.shape[1])),
        b=lambda t, x, m: np.full((x.shape[0], n), c))


def linear_sigma(a=1.0):
    """sigma(x) = a*x (n = d = 1): discrete stochastic exponential."""
    a = _param(a, "a")
    return SdeCoeffs(
        id="linear_sigma", n=1,
        sigma=lambda t, x, m: (a * x)[:, :, None],
        b=lambda t, x, m: np.zeros((x.shape[0], 1)))


def affine(a=1.0, c=0.0):
    """sigma(x) = a*x, b(x) = c*x (n = d = 1)."""
    a, c = _param(a, "a"), _param(c, "c")
    return SdeCoeffs(
        id="affine", n=1,
        sigma=lambda t, x, m: (a * x)[:, :, None],
        b=lambda t, x, m: c * x)


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
