"""Exact orthogonal decomposition of tree martingales against M.

The decomposition Y = Y0 + int Z dM + N of a martingale Y is the zero-driver
case of the backward solver: ``bsde._levels`` with the zero driver takes the
step y = E[y' | node], projects each level's dy on dm (reading
E[dm^2 | node] from the clock's Sigma) and closes E[dN^2 | node] on that
level, so its E[[N]_T] is the discrete analogue of the orthogonal part's
bracket.  This module runs that sweep; it has no level loop of its own.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _kernels, bsde
from .errors import InvariantViolation
from .ftree import (PredictableField, backward_closure, is_martingale,
                    predictable_bracket)

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
    """Least-squares projection of dY on dM node by node, for a scalar M:
    the zero-driver solve of Y's leaf values, plus its per-edge dN.

    Y must already be a martingale (take ``martingale_from_terminal`` of the
    terminal variable first).  The solve needs the clock of M, so recombined
    nodes must agree on the accumulated bracket trace, as every solver
    experiment requires; every shipped model does, and a tree that does not
    raises InvariantViolation from ``predictable_bracket``.
    """
    chk = is_martingale(tree, Y, MARTINGALE_TOL)
    if not chk:
        raise InvariantViolation(
            f"Y is not a martingale (violation {chk.max_violation:.3e}); "
            "close the terminal variable with martingale_from_terminal first")
    nt = tree.n_nonterminal
    lo = tree.level_start[tree.K]
    sol = bsde.solve_lipschitz(tree, M, predictable_bracket(tree, M), None,
                               Y.scalar[lo:], bsde.zero_driver())
    # the zero driver's y is E[y'], so the solved y is its own ey
    y, z = sol.Y.scalar, sol.Z.values[:, 0]
    dn = np.empty(len(tree.echild))
    _kernels.edge_residuals_d1(
        tree, _kernels.edge_increments(tree, M.scalar, 0, nt), y, y[:nt], z,
        0, nt, dn)
    return GkwResult(Z=sol.Z, dN=dn, bracketNN_T=sol.bracketNN_T,
                     Y0=sol.Y0)


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
    """GKW residual of E[F(M_K)|F] across mesh refinements: per K, one
    streamed zero-driver sweep of the solver's levels.

    ``config_for(K)`` returns a ModelConfig; F maps terminal martingale
    states (array of shape (leaves, d)) to terminal values.
    """
    out = SweepResult()
    for K in K_list:
        tree, M, clock, _ = bsde.setup_problem(config_for(K))
        lo, hi = tree.level_slice(tree.K)
        zeta = np.asarray(F(M.values[lo:hi]), dtype=float)
        bracket, _ = bsde._consume(bsde._levels(tree, M, clock, None, zeta,
                                                bsde.zero_driver()))
        var = float(tree.path_prob[lo:hi] @ (zeta - zeta @ tree.path_prob[lo:hi]) ** 2)
        out.rows.append(SweepRow(
            K=K, bracketNN_T=bracket,
            normalized=bracket / var if var > 0 else 0.0,
            n_nodes=tree.n_nodes))
    return out
