"""Gaussian regularization of Borelian terminal maps.

A terminal map is a pure vectorized function on state vectors.  Mollification
convolves it with the Gaussian kernel of variance eps, evaluated by tensorized
Gauss-Hermite quadrature (closed form for half-space indicators).
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr

MAX_QUAD_ARITY = 3


@dataclass(frozen=True)
class TerminalMap:
    """Deterministic terminal payoff on R^arity.

    evaluator: vectorized, (N, arity) array -> (N,) array.
    halfspace: optional (w, c) marking F(x) = 1{w.x >= c}, which unlocks the
    closed-form mollification path.
    """

    id: str
    arity: int
    evaluator: callable
    declared_class: str = "bounded_borelian"
    bound: float = None
    halfspace: tuple = None

    def __call__(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.asarray(self.evaluator(x), dtype=float)


@dataclass(frozen=True)
class MollifiedMap:
    base: TerminalMap
    epsilon: float
    quad_nodes: int
    _gh: tuple = None

    def __call__(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.base.halfspace is not None:
            w, c = self.base.halfspace
            w = np.asarray(w, dtype=float)
            # 1{w.x >= c} * N(0, eps I) -> Phi((w.x - c) / (sqrt(eps)|w|))
            return ndtr((x @ w - c) / (np.sqrt(self.epsilon) * np.linalg.norm(w)))
        g, wts = self._gh
        d = self.base.arity
        out = np.zeros(x.shape[0])
        shift = np.sqrt(2.0 * self.epsilon)
        for idx in np.ndindex(*(len(g),) * d):
            offs = shift * np.array([g[i] for i in idx])
            wprod = np.prod([wts[i] for i in idx]) / np.pi ** (d / 2.0)
            out += wprod * self.base(x - offs)
        return out

    @property
    def id(self):
        return f"{self.base.id}~eps{self.epsilon:g}"


def mollify(F, eps, quad_nodes=64):
    """Gaussian convolution F * phi_eps as a new evaluable map."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    if quad_nodes < 8:
        raise ValueError("need at least 8 quadrature nodes per axis")
    if F.halfspace is None and F.arity > MAX_QUAD_ARITY:
        raise ValueError(
            f"tensor quadrature limited to arity <= {MAX_QUAD_ARITY}")
    gh = None
    if F.halfspace is None:
        g, w = np.polynomial.hermite.hermgauss(quad_nodes)
        gh = (g, w)
    return MollifiedMap(base=F, epsilon=eps, quad_nodes=quad_nodes, _gh=gh)


def clamp(F, n):
    """Pointwise clamp of F to [-n, n]."""
    if n < 1:
        raise ValueError("clamp level must be >= 1")
    base = F

    def ev(x):
        return np.clip(base(x), -n, n)

    return replace(F, id=f"{F.id}~clamp{n}", evaluator=ev, bound=float(n),
                   halfspace=None)


def lipschitz_scan(F, lo, hi, spacing):
    """Max finite-difference slope of F over a regular grid on [lo, hi]^arity."""
    d = F.arity if isinstance(F, TerminalMap) else F.base.arity
    axes = [np.arange(lo, hi + spacing / 2, spacing) for _ in range(d)]
    if axes[0].size < 2:
        raise ValueError("grid is empty or degenerate")
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    vals = F(pts).reshape(mesh[0].shape)
    worst = 0.0
    for ax in range(d):
        diffs = np.abs(np.diff(vals, axis=ax)) / spacing
        if diffs.size:
            worst = max(worst, float(diffs.max()))
    return worst


def l2_gap(tree, M, F, Feps):
    """E[(F - Feps)^2 (M_K)] under the leaf distribution."""
    lo, hi = tree.level_slice(tree.K)
    states = M.values[lo:hi]
    gap = F(states) - Feps(states)
    return float(tree.path_prob[lo:hi] @ gap ** 2)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def indicator_halfspace(threshold=0.0, strict=True):
    """1{x > c} (or >= c) in the first coordinate."""
    op = np.greater if strict else np.greater_equal
    threshold = float(threshold)

    def ev(x):
        return op(x[:, 0], threshold).astype(float)

    return TerminalMap(id="indicator_halfspace", arity=1, evaluator=ev,
                       declared_class="bounded_borelian", bound=1.0,
                       halfspace=(np.array([1.0]), threshold))


def square():
    return TerminalMap(id="square", arity=1, evaluator=lambda x: x[:, 0] ** 2,
                       declared_class="smooth")


def sine(omega=np.pi, amp=1.0):
    omega, amp = float(omega), float(amp)
    return TerminalMap(
        id="sine", arity=1,
        evaluator=lambda x: amp * np.sin(omega * x[:, 0]),
        declared_class="smooth", bound=abs(amp))


def digital_box(a=-0.5, b=0.5):
    a, b = float(a), float(b)

    def ev(x):
        return ((x[:, 0] >= a) & (x[:, 0] <= b)).astype(float)

    return TerminalMap(id="digital_box", arity=1, evaluator=ev,
                       declared_class="bounded_borelian", bound=1.0)


def custom_polynomial(coeffs):
    c = np.asarray(coeffs, dtype=float)

    def ev(x):
        return np.polyval(c, x[:, 0])

    return TerminalMap(id="custom_polynomial", arity=1, evaluator=ev,
                       declared_class="smooth")


def clipped_linear(scale=1.0, cap=1.0):
    """scale * x clipped to [-cap, cap]; Lipschitz with constant |scale|."""
    scale, cap = float(scale), float(cap)

    def ev(x):
        return np.clip(scale * x[:, 0], -cap, cap)

    return TerminalMap(id="clipped_linear", arity=1, evaluator=ev,
                       declared_class="lipschitz", bound=float(cap))


CATALOG = {
    "indicator_halfspace": indicator_halfspace,
    "square": square,
    "sine": sine,
    "digital_box": digital_box,
    "custom_polynomial": custom_polynomial,
    "clipped_linear": clipped_linear,
}


def from_catalog(fid, **params):
    if fid not in CATALOG:
        raise KeyError(f"unknown terminal map id {fid!r}")
    return CATALOG[fid](**params)
