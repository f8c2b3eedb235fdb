"""Exact orthogonal decomposition of tree martingales against M.

At every non-terminal node the increment of Y is split into its least-squares
projection on the increment of M plus a residual dN that is conditionally
uncorrelated with M.  The terminal expectation of the summed squared
residuals is the discrete analogue of E[[N]_T].
"""

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import InvariantViolation
from .ftree import PredictableField, backward_closure, is_martingale
from . import models

# largest |E[Y' | node] - Y| that still counts as a martingale
MARTINGALE_TOL = 1e-9


@dataclass
class GkwResult:
    Z: PredictableField
    dN: np.ndarray                     # per edge
    bracketNN_T: float                 # realized E[[N]_T]
    Y0: float


def martingale_from_terminal(tree, zeta):
    """Close a terminal variable into the martingale E[zeta | F_k]."""
    return backward_closure(tree, zeta)


def gkw_decompose(tree, M, Y):
    """Least-squares projection of dY on dM node by node, for a scalar M,
    level by level from each level's own increments.

    Y must already be a martingale (take ``martingale_from_terminal`` of the
    terminal variable first).
    """
    if M.dim != 1:
        raise NotImplementedError("the decomposition is scalar-martingale "
                                  "only")
    chk = is_martingale(tree, Y, MARTINGALE_TOL)
    if not chk:
        raise InvariantViolation(
            f"Y is not a martingale (violation {chk.max_violation:.3e}); "
            "close the terminal variable with martingale_from_terminal first")
    nt = tree.n_nonterminal
    dn = np.zeros(len(tree.echild))
    z, res = np.empty(nt), np.empty(nt)
    y, m = Y.scalar, M.scalar
    for k in range(tree.K):
        a, b = tree.level_slice(k)
        dm = _kernels.edge_increments(tree, m, a, b)
        pdm = _kernels.edge_layout(tree, tree.eprob, a, b) * dm
        ey, m1 = _kernels.level_moments_d1(tree, pdm, y, a, b)[:2]
        s2 = _kernels.edge_sum(tree, pdm * dm, a, b)
        z[a:b] = np.where(s2 > _kernels.PROJ_EPS,
                          m1 / np.where(s2 > 0, s2, 1.0), 0.0)
        res[a:b] = _kernels.edge_residuals_d1(tree, dm, y, ey, z[a:b], a, b,
                                              dn)
    return GkwResult(
        Z=PredictableField(tree, z[:, None]),
        dN=dn,
        bracketNN_T=float(np.sum(tree.path_prob[:nt] * res)),
        Y0=float(Y.values[0, 0]),
    )


@dataclass
class SweepRow:
    K: int
    bracketNN_T: float
    normalized: float
    n_nodes: int


@dataclass
class SweepResult:
    rows: list = field(default_factory=list)

    @property
    def residuals(self):
        return np.array([r.bracketNN_T for r in self.rows])

    def strictly_decreasing(self):
        r = self.residuals
        return bool(np.all(np.diff(r) < 0))

    def trend_statistic(self):
        """Mean per-doubling log decrease of the residual (>0 means
        shrinking); 0.0 for fewer than two rows."""
        if len(self.rows) < 2:
            return 0.0
        r = np.maximum(self.residuals, 1e-300)
        return float(np.mean(-np.diff(np.log(r))))


def residual_sweep(config_for, F, K_list):
    """GKW residual of E[F(M_K)|F] across mesh refinements.

    ``config_for(K)`` returns a ModelConfig; F maps terminal martingale
    states (array of shape (leaves, d)) to terminal values.
    """
    out = SweepResult()
    for K in K_list:
        built = models.build(config_for(K))
        tree, M = built.tree, built.M
        lo, hi = tree.level_slice(tree.K)
        zeta = np.asarray(F(M.values[lo:hi]), dtype=float)
        Y = martingale_from_terminal(tree, zeta)
        res = gkw_decompose(tree, M, Y)
        var = float(tree.path_prob[lo:hi] @ (zeta - zeta @ tree.path_prob[lo:hi]) ** 2)
        out.rows.append(SweepRow(
            K=K, bracketNN_T=res.bracketNN_T,
            normalized=res.bracketNN_T / var if var > 0 else 0.0,
            n_nodes=tree.n_nodes))
    return out
