"""Backward solvers on trees: one exact closed-form solver for every driver
(zero, Lipschitz and quadratic-growth alike), the truncation /
inf-convolution cascade kept as its own experiment, the dual control
representation, comparison checks, and the vanishing-N experiment.

Scalar martingales only (d = 1): every shipped model is one-dimensional and
the multi-dimensional decomposition lives in the gkw module.
"""

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels
from .errors import ContractionError, InvariantViolation, SolverError
from .ftree import AdaptedProcess, PredictableField, predictable_bracket
from . import models as _models
from .forward import euler_forward, extract_subtree, shift_martingale

FP_TOL = 1e-12
PROJ_EPS = 1e-14
# a solve closes E[dN^2 | node] from the projection's per-edge dy once the
# levels it has not closed yet hold this many edges, whatever the batch
# width, so that a column sums in the order of its 1-D solve
RESIDUAL_CHUNK = 4096
# cascade: a decrease in n larger than MONOTONE_GUARD is a solver failure
MONOTONE_GUARD = 1e-6
# dual DP: the tilt nu is searched on DUAL_NU_POINTS points of [-p, p] next
# to the analytic maximizer; a reweighting below DUAL_FLOOR is floored, and
# more than DUAL_FLOOR_BUDGET of floored edges is a solver failure
DUAL_NU_POINTS = 9
DUAL_FLOOR = 1e-9
DUAL_FLOOR_BUDGET = 0.01
# grid inf-convolution: z offsets in [-SEARCH_RADIUS, SEARCH_RADIUS] at
# GRID_STEP; the box is doubled, at most MAX_ENLARGE times, whenever the inf
# sits on its boundary
SEARCH_RADIUS = 3.0
GRID_STEP = 0.1
MAX_ENLARGE = 2


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DriverSpec:
    """Driver f(t, x, m, y, z) with declared growth (a, b, gamma).

    ``f`` is vectorized over nodes: x is (N, n) or None, m, y, z are (N,).
    For a batched solve of B columns y and z are (N, B) and m is (N, 1), and
    the parameters of f may be (B,) arrays, one per column.
    ``y_part = (k_y, b)`` declares how f depends on y:
    f(t, x, m, y, z) = f(t, x, m, 0, z) + k_y*y + b*|y|; its entries may be
    (B,) arrays too.  The Lipschitz solver takes its implicit step in closed
    form from it and checks the declaration at every level; ``lip_y`` =
    |k_y| + |b| (the largest over columns) follows from it.  ``huber`` =
    (gamma, eta) marks f = (gamma/2)z^2 + b|y| + eta, with y-part (0, b),
    which unlocks closed-form inf-convolutions.  ``eta`` is a constant or a
    callable of time.
    """

    id: str
    f: callable
    growth: dict = field(default_factory=lambda: {"a": 0.0, "b": 0.0,
                                                  "gamma": 0.0})
    eta: object = 0.0
    klass: str = "lipschitz"
    y_part: tuple = (0.0, 0.0)
    huber: tuple = None            # (gamma, eta) when f has that exact form
    nonnegative: bool = False

    @property
    def lip_y(self):
        return float(np.max(np.abs(self.y_part[0]) + np.abs(self.y_part[1])))

    def __call__(self, t, x, m, y, z):
        return np.asarray(self.f(t, x, m, y, z), dtype=float)


def eta_at(eta, t):
    return float(eta(t)) if callable(eta) else float(eta)


def huber_envelope(z, thresh, gamma):
    """Moreau/Huber envelope of (gamma/2)z^2 at slope gamma*thresh."""
    az = np.abs(z)
    return np.where(az <= thresh, 0.5 * gamma * z * z,
                    gamma * thresh * az - 0.5 * gamma * thresh * thresh)


def truncated_driver(p, growth, eta=None):
    """q_p: quadratic in z up to |z| = p, linear beyond, plus b|y| and eta."""
    if p < 1:
        raise ValueError("truncation index p must be >= 1")
    b = float(growth["b"])
    gamma = float(growth["gamma"])
    if eta is None:
        eta = float(growth.get("a", 0.0))

    def f(t, x, m, y, z):
        return huber_envelope(z, p, gamma) + b * np.abs(y) + eta_at(eta, t)

    return DriverSpec(id=f"q_p[{p}]", f=f, growth=dict(growth), eta=eta,
                      klass="lipschitz", y_part=(0.0, b), nonnegative=True)


def inf_convolve(driver, n):
    """n-Lipschitz lower envelope inf_{u,w} f(u,w) + n|y-u| + n|z-w|.

    The declared y-part k_y*y + b*|y| is n-Lipschitz when n >= lip_y, so the
    inf over u sits at u = y and only z is convolved; a smaller n raises
    ValueError.  Closed form when the driver carries the huber structure;
    otherwise a grid search over z offsets of f(t, x, m, 0, z + w) + n|w|,
    enlarging the box when the inf is attained on its boundary.
    """
    if n < 1:
        raise ValueError("inf-convolution index n must be >= 1")
    if n < driver.lip_y:
        raise ValueError(f"inf-convolution index n = {n} is below the "
                         f"driver's lip_y = {driver.lip_y}")
    ky, by = driver.y_part
    if driver.huber is not None:
        gamma, eta = driver.huber
        thresh = n / gamma if gamma > 0 else math.inf

        def f(t, x, m, y, z):
            quad = huber_envelope(z, thresh, gamma) if gamma > 0 else 0.0
            return quad + by * np.abs(y) + eta_at(eta, t)
    else:
        def f(t, x, m, y, z):
            z = np.asarray(z, dtype=float)
            zero = np.zeros(z.shape)
            R = SEARCH_RADIUS
            for _ in range(MAX_ENLARGE + 1):
                best = np.full(z.shape, np.inf)
                arg_w = np.zeros(z.shape)
                for dw in np.arange(-R, R + GRID_STEP / 2, GRID_STEP):
                    cand = driver(t, x, m, zero, z + dw) + n * abs(dw)
                    take = cand < best
                    best = np.where(take, cand, best)
                    arg_w = np.where(take, dw, arg_w)
                if not np.any(np.abs(arg_w) >= R - GRID_STEP / 2):
                    return best + ky * y + by * np.abs(y)
                R *= 2.0
            raise SolverError(
                "inf-convolution minimum pinned to the search-box boundary "
                f"even at radius {R / 2}")

    return DriverSpec(id=f"{driver.id}~inf{n}", f=f,
                      growth=dict(driver.growth), eta=driver.eta,
                      klass="lipschitz", y_part=driver.y_part,
                      nonnegative=driver.nonnegative)


# -- catalog ----------------------------------------------------------------

def _param(value, name, nonnegative=False):
    """A catalog parameter as a float; it must be finite, and >= 0 where the
    driver's sign or growth depends on it."""
    v = float(value)
    if not math.isfinite(v) or (nonnegative and v < 0):
        raise ValueError(f"driver parameter {name} must be finite"
                         f"{' and >= 0' if nonnegative else ''}, got {v!r}")
    return v


def zero_driver():
    return DriverSpec(id="zero", f=lambda t, x, m, y, z: np.zeros_like(y))


def constant(c):
    c = _param(c, "c")
    return DriverSpec(id="constant", eta=abs(c),
                      growth={"a": abs(c), "b": 0.0, "gamma": 0.0},
                      f=lambda t, x, m, y, z: np.full_like(y, c))


def linear_y(coef):
    c = _param(coef, "coef")
    return DriverSpec(id="linear_y", y_part=(c, 0.0),
                      growth={"a": 0.0, "b": abs(c), "gamma": 0.0},
                      f=lambda t, x, m, y, z: c * y)


def pure_quadratic(gamma):
    g = _param(gamma, "gamma", nonnegative=True)
    return DriverSpec(id="pure_quadratic", klass="quadratic",
                      growth={"a": 0.0, "b": 0.0, "gamma": g},
                      f=lambda t, x, m, y, z: 0.5 * g * z * z,
                      huber=(g, 0.0), nonnegative=True)


def quadratic_mixed(gamma, b, eta=0.0):
    g = _param(gamma, "gamma", nonnegative=True)
    bb = _param(b, "b", nonnegative=True)
    e = _param(eta, "eta", nonnegative=True)
    return DriverSpec(
        id="quadratic_mixed", klass="quadratic", eta=e,
        growth={"a": e, "b": bb, "gamma": g},
        f=lambda t, x, m, y, z: 0.5 * g * z * z + bb * np.abs(y) + e,
        y_part=(0.0, bb), huber=(g, e), nonnegative=True)


DRIVER_CATALOG = {
    "zero": zero_driver,
    "constant": constant,
    "linear_y": linear_y,
    "pure_quadratic": pure_quadratic,
    "quadratic_mixed": quadratic_mixed,
}


def driver_from_catalog(did, **params):
    if did not in DRIVER_CATALOG:
        raise KeyError(f"unknown driver id {did!r}")
    return DRIVER_CATALOG[did](**params)


def check_growth(driver, y_grid, z_grid, t=0.0):
    """Spot-check |f| <= eta(1+b|y|) + (gamma/2)|z|^2 on a grid; returns the
    worst exceedance (<= 0 means the declared growth holds there)."""
    g = driver.growth
    worst = -math.inf
    eta = eta_at(driver.eta, t)
    for y in y_grid:
        yv = np.full(len(z_grid), float(y))
        zv = np.asarray(z_grid, dtype=float)
        lhs = np.abs(driver(t, None, np.zeros_like(zv), yv, zv))
        rhs = eta * (1 + g["b"] * np.abs(yv)) + 0.5 * g["gamma"] * zv ** 2
        worst = max(worst, float(np.max(lhs - rhs)))
    return worst


# ---------------------------------------------------------------------------
# solutions
# ---------------------------------------------------------------------------

# A Lipschitz solve keeps Y and Z at full size: n_nodes + n_nonterminal
# float64 values per column.  A batch of solves on one tree is cut into sweeps
# whose Y and Z take at most this many bytes.
SWEEP_BYTES = 9_000_000


def columns_per_sweep(tree):
    """How many columns one batched sweep on ``tree`` may carry."""
    return max(1, SWEEP_BYTES // (8 * (tree.n_nodes + tree.n_nonterminal)))


@dataclass
class BsdeSolution:
    """One solve, or a batch of B independent solves on one tree: then zeta
    is (leaves, B), Y and Z have B columns and bracketNN_T is (B,).  dN is
    closed on first read."""

    tree: object
    M: AdaptedProcess
    clock: object
    X: AdaptedProcess
    zeta: np.ndarray
    driver: DriverSpec
    Y: AdaptedProcess
    Z: PredictableField
    bracketNN_T: object
    diagnostics: dict = field(default_factory=dict)

    def _cols(self, proc):
        """proc's values as (rows,) for one solve, (rows, B) for a batch."""
        return proc.values if self.zeta.ndim == 2 else proc.values[:, 0]

    @property
    def Y0(self):
        y0 = self._cols(self.Y)[0]
        return float(y0) if y0.ndim == 0 else y0

    @property
    def y_sup(self):
        return float(np.max(np.abs(self.Y.values)))

    @functools.cached_property
    def dN(self):
        """Per-edge residual dN = dY - Z dM, (edges,) or (edges, B)."""
        tree = self.tree
        nt = tree.n_nonterminal
        y = self._cols(self.Y)
        dn = np.empty((len(tree.echild),) + y.shape[1:])
        _kernels.edge_residuals_d1(
            tree, _kernels.edge_increments(tree, self.M.scalar), y,
            _kernels.backward_expect(tree, y, 0, nt), self._cols(self.Z),
            0, nt, dn)
        return dn

    def columns(self, cols, driver):
        """The solves in columns ``cols`` of a batch, as a batch of their own
        driven by ``driver``: the batch driver restricted to those columns,
        which an opaque callable cannot be sliced into."""
        return replace(self, zeta=self.zeta[:, cols], driver=driver,
                       Y=AdaptedProcess(self.tree, self.Y.values[:, cols]),
                       Z=PredictableField(self.tree, self.Z.values[:, cols]),
                       bracketNN_T=self.bracketNN_T[cols])

    def cond_var_profile(self):
        """Backward max of E[sum_{j>=k} (|Zq*|^2 dC + dN^2) | node] per level
        k = 0..K of a single solve, from the stored Z, dN and the clock's
        Sigma (d = 1)."""
        tree = self.tree
        nt = tree.n_nonterminal
        z = self.Z.values[:, 0]
        zsq_term = z * z * self.clock.sigma.reshape(nt)  # |Z q*|^2 dC
        res_node = _kernels.edge_sum(tree, tree.eprob * self.dN * self.dN,
                                     0, nt)
        R = np.zeros(tree.n_nodes)
        prof = np.zeros(tree.K + 1)
        for k in range(tree.K - 1, -1, -1):
            lo, hi = tree.level_slice(k)
            R[lo:hi] = (_kernels.backward_expect(tree, R, lo, hi)
                        + zsq_term[lo:hi] + res_node[lo:hi])
            prof[k] = float(np.max(R[lo:hi]))
        return prof

    def bmo_norm(self):
        """Discrete BMO norm: the largest entry of ``cond_var_profile``."""
        return float(self.cond_var_profile().max())


def _column_sums(w):
    """Sum over axis 0, each column bit for bit as the 1-D sum of it: the
    rows of the contiguous transpose take numpy's pairwise 1-D path."""
    return np.ascontiguousarray(w.T).sum(axis=-1)


def _step_miss(k, miss, y, ok, y_part):
    """InvariantViolation for the last node of level k (and its column, in a
    batch) whose implicit step misses its equation by |miss|."""
    i = int(np.flatnonzero(~ok)[-1])
    where = f"level {k}"
    if miss.ndim == 2:
        i, j = divmod(i, miss.shape[1])
        where += f", column {j}"
        miss, y = miss[:, j], y[:, j]
        y_part = tuple(float(np.broadcast_to(v, ok.shape[1:])[j])
                       for v in y_part)
    return InvariantViolation(
        f"implicit step at {where} misses its equation by "
        f"{miss[i]:.3e} at y = {y[i]:.6g}: the driver is not finite "
        f"there or its y-part is not {y_part}")


def solve_lipschitz(tree, M, clock, X, zeta, driver):
    """Implicit-in-y, explicit-in-z backward Euler with exact projections.

    ``zeta`` is (leaves,) for one solve or (leaves, B) for B solves on the
    same tree and clock in one sweep; the driver's parameters and y-part may
    then be (B,) arrays, and each column is bit-identical to its own 1-D
    solve.  Each level projects the just-solved y onto dM (reading
    E[dm^2 | node] from ``clock.sigma``) and takes the implicit step in
    closed form from the driver's declared y-part (k_y, b): with
    r = E[y'] + f(t, x, m, 0, z) dC, y = r / (1 - (k_y + b sign(r)) dC).
    This is exact because y -> y - (k_y y + b|y|) dC is increasing,
    piecewise linear and zero at 0 when lip_y dC < 1.  A second driver
    evaluation checks the step's residual |y - E[y'] - f(t, x, m, y, z) dC|
    against FP_TOL (relative to |y| above 1), so a wrongly declared or
    non-finite driver raises InvariantViolation at the deepest level where a
    step misses.  E[[N]_T] is closed from the per-edge dy of the projection,
    every RESIDUAL_CHUNK edges, and a non-finite one raises
    InvariantViolation (naming the first such column of a batch); only Y and
    Z are kept at full size, and dN is computed when first read.

    Every experiment but ``cascade`` solves with it: the zero driver's step
    is the closure y = E[y'] and its E[[N]_T] the GKW residual, and a
    quadratic driver is solved directly (see solve_quadratic).
    """
    if M.dim != 1:
        raise NotImplementedError("backward solvers are scalar-martingale only")
    zeta = np.asarray(zeta, dtype=float)
    lo, hi = tree.level_slice(tree.K)
    if zeta.ndim not in (1, 2) or zeta.shape[0] != hi - lo:
        raise InvariantViolation("zeta needs one value per leaf")
    dC = clock.dC.values
    dc_max = float(dC.max()) if dC.size else 0.0
    if driver.lip_y * dc_max >= 1.0:
        raise ContractionError(
            f"lip_y * dC_max = {driver.lip_y * dc_max:.3f} >= 1; refine the "
            "time grid")
    # y -> y - (k_y y + b|y|) dC has slope 1 - k_pos dC above 0 and
    # 1 - k_neg dC below
    ky, by = driver.y_part
    k_pos, k_neg = ky + by, ky - by
    nt = tree.n_nonterminal
    # per-node arrays broadcast over the columns of a batch
    col = (slice(None),) + (None,) * (zeta.ndim - 1)
    m = M.scalar
    dm = _kernels.edge_increments(tree, m)
    pdm = tree.eprob * dm
    m = m[col]
    dC = dC[col]
    qdiag = clock.q.values.reshape(nt, -1)[:, 0][col]  # q[0,0] for d = 1
    s2 = clock.sigma.reshape(nt)[col]                  # E[dm^2 | node]
    projects = s2 > PROJ_EPS
    s2_safe = np.where(s2 > 0, s2, 1.0)
    path_prob = tree.path_prob[col]
    t = tree.grid.t
    yvals = np.empty((tree.n_nodes,) + zeta.shape[1:])
    yvals[lo:hi] = zeta
    zall = np.empty((nt,) + zeta.shape[1:])
    zero = np.zeros((int(np.diff(tree.level_start).max()),) + zeta.shape[1:],
                    order="F")
    bracket = 0.0
    open_dy, top = [], nt  # dy of the levels in [a, top) not closed yet
    for k in range(tree.K - 1, -1, -1):
        a, b = tree.level_slice(k)
        ey, m1, dy = _kernels.level_moments_d1(tree, pdm, yvals, a, b)
        # column-major, the level's (n, B) arithmetic with per-node and
        # per-column operands runs B inner loops of n, not n loops of B
        ey, m1 = np.asfortranarray(ey), np.asfortranarray(m1)
        z = np.where(projects[a:b], m1 / s2_safe[a:b], 0.0)
        z_arg = qdiag[a:b] * z
        xk = X.values[a:b] if X is not None else None
        mk = m[a:b]
        dck = dC[a:b]
        r = ey + driver(t[k], xk, mk, zero[:b - a], z_arg) * dck
        y = r / (1.0 - np.where(r < 0, k_neg, k_pos) * dck)
        miss = np.abs(y - ey - driver(t[k], xk, mk, y, z_arg) * dck)
        # FP_TOL bounds every miss in the common case; NaN fails it
        if not miss.max() <= FP_TOL:
            ok = miss <= FP_TOL * np.maximum(1.0, np.abs(y))
            if not ok.all():
                raise _step_miss(k, miss, y, ok, driver.y_part)
        yvals[a:b] = y
        zall[a:b] = z
        open_dy.append(dy)
        if k == 0 or tree.estart[top] - tree.estart[a] >= RESIDUAL_CHUNK:
            _, res = _kernels.residual_moments_d1(
                tree, dm, np.concatenate(open_dy[::-1]), zall[a:top], a, top)
            bracket = bracket + _column_sums(path_prob[a:top] * res)
            open_dy, top = [], a
    bad = np.flatnonzero(~np.isfinite(bracket))
    if bad.size:
        where = f" in column {bad[0]}" if zeta.ndim == 2 else ""
        raise InvariantViolation(
            f"E[[N]_T] is not finite{where}: the solution's increments "
            "overflow")
    return BsdeSolution(
        tree=tree, M=M, clock=clock, X=X, zeta=zeta, driver=driver,
        Y=AdaptedProcess(tree, yvals),
        Z=PredictableField(tree, zall.reshape(nt, -1)),
        bracketNN_T=float(bracket) if zeta.ndim == 1 else bracket,
        diagnostics={
            # max |y| without a full-size |y| temporary
            "y_sup": float(max(yvals.max(), -yvals.min())),
            # the step is closed-form: no fixed-point iterations at any level
            "fixed_point_iters": [0] * tree.K,
        })


@dataclass
class CascadeTrace:
    stages: list = field(default_factory=list)     # dicts per (p, n) stage
    monotone_violation_n: float = 0.0
    # the last stage met max|q Z| <= n/gamma, so it is the direct solve
    certified: bool = False


def solve_quadratic(tree, M, clock, X, zeta, driver, p_list=(1, 2, 4, 8),
                    n_list=(4, 8, 16, 32)):
    """Approximation cascade for a nonnegative quadratic-growth driver.

    The cascade is the existence device of the quadratic theory; only the
    ``cascade`` experiment runs it, and every other experiment solves a
    quadratic driver directly with solve_lipschitz.  A nonnegative driver
    needs no regularised negative part, so the truncation index only sets
    where the n-sweep starts: the driver is inf-convolved along ``n_list``
    from n = max(p_list[0], lip_y), giving monotone increasing solutions.
    The sweep stops at the first stage whose own projection stays where the
    closed-form envelope is the quadratic, max|q Z| <= n/gamma: that stage
    is the direct solve bit for bit (with gamma = 0, the first stage is),
    and the trace records it as certified.  A sweep that ends without the
    certificate, or a driver without the closed form, which has none, runs
    every n and stays uncertified.  Signed drivers raise ValueError.
    """
    if driver.klass != "quadratic":
        raise ValueError("solve_quadratic expects a quadratic-class driver")
    if not driver.nonnegative:
        raise ValueError("solve_quadratic expects a driver declared "
                         "nonnegative; signed drivers are not supported")
    zeta = np.asarray(zeta, dtype=float)
    if not np.all(np.isfinite(zeta)):
        raise InvariantViolation("terminal condition must be bounded")
    trace = CascadeTrace()
    p = p_list[0]
    n_min = max(p, driver.lip_y)
    q = clock.q.values.reshape(tree.n_nonterminal, -1)[:, 0]  # d = 1
    prev_y = None
    for n in [n for n in n_list if n >= n_min] or [n_min]:
        sol = solve_lipschitz(tree, M, clock, X, zeta, inf_convolve(driver, n))
        y = sol.Y.values[:, 0]
        inc = None
        if prev_y is not None:
            trace.monotone_violation_n = max(trace.monotone_violation_n,
                                            float(np.max(prev_y - y)))
            inc = float(np.max(np.abs(y - prev_y)))
        trace.stages.append({
            "p": p, "n": n, "y_sup": sol.diagnostics["y_sup"],
            "bracketNN_T": sol.bracketNN_T,
            "sup_increment": inc,
        })
        if driver.huber is not None:
            # the envelope's own comparison, at the z the stage stepped with
            gamma = driver.huber[0]
            thresh = n / gamma if gamma > 0 else math.inf
            if np.abs(q * sol.Z.values[:, 0]).max() <= thresh:
                trace.certified = True
                break
        prev_y = y
    if trace.monotone_violation_n > MONOTONE_GUARD:
        raise SolverError("cascade lost monotonicity in n beyond tolerance "
                          f"({trace.monotone_violation_n:.3e})")
    sol.diagnostics["cascade_trace"] = trace
    return sol


# ---------------------------------------------------------------------------
# dual representation
# ---------------------------------------------------------------------------

@dataclass
class DualResult:
    value: AdaptedProcess
    floored_fraction: float


def dual_value(tree, M, clock, zeta, growth, p, eta=None):
    """Backward dynamic program for the control representation of the
    truncated driver q_p.

    At every node the one-step Hamiltonian is maximized over a discount rate
    beta in [-b, b] and a tilt nu with |nu| <= p; the measure change is the
    per-edge reweighting 1 + gamma*(nu/q)*dM, floored at DUAL_FLOOR and
    flagged when below it.  The candidate tilts, the analytic maximizer nu
    and DUAL_NU_POINTS grid points on [-p, p], are the columns of one
    reweighting per level; for each the better of beta = +-b is taken in
    closed form, and the first candidate with the largest value wins.
    """
    if M.dim != 1:
        raise NotImplementedError("dual DP is scalar-martingale only")
    b = float(growth["b"])
    gamma = float(growth["gamma"])
    if eta is None:
        eta = float(growth.get("a", 0.0))
    zeta = np.asarray(zeta, dtype=float)
    nt = tree.n_nonterminal
    m = M.scalar
    dC = clock.dC.values
    qdiag = clock.q.values.reshape(nt, -1)[:, 0]
    W = np.empty(tree.n_nodes)
    lo, hi = tree.level_slice(tree.K)
    W[lo:hi] = zeta
    floored = 0
    nu_grid = np.linspace(-float(p), float(p), DUAL_NU_POINTS)
    dm_all = _kernels.edge_increments(tree, m)
    pdm = tree.eprob * dm_all
    for k in range(tree.K - 1, -1, -1):
        a, bb = tree.level_slice(k)
        m1 = _kernels.level_moments_d1(tree, pdm, W, a, bb)[1]
        dck = dC[a:bb]
        qk = qdiag[a:bb]
        ok = (qk > PROJ_EPS) & (dck > PROJ_EPS)
        z_hat = np.where(ok, m1 / np.where(ok, qk * dck, 1.0), 0.0)
        etak = eta_at(eta, tree.grid.t[k])
        # one column per candidate nu: the analytic maximizer, then the grid
        nu = np.empty((bb - a, 1 + DUAL_NU_POINTS))
        nu[:, 0] = np.clip(z_hat, -p, p)
        nu[:, 1:] = nu_grid
        tilt = np.where(ok[:, None],
                        gamma * nu / np.where(ok, qk, 1.0)[:, None], 0.0)
        sl = tree._edge_slice(k)
        par = tree.eparent[sl] - a
        w = 1.0 + tilt[par] * dm_all[sl, None]
        val = _kernels.weighted_child_sum(tree, np.maximum(w, DUAL_FLOOR), W,
                                          a, bb)
        # the better of beta = -b and beta = +b, the non-NaN one if one is
        disc = np.fmax(np.exp(b * dck)[:, None] * val,
                       np.exp(-b * dck)[:, None] * val)
        cand = disc + (etak - 0.5 * gamma * nu ** 2) * dck[:, None]
        cand[np.isnan(cand)] = -np.inf      # a NaN candidate never wins
        pick = np.argmax(cand, axis=1)      # the first of the largest
        W[a:bb] = cand[np.arange(bb - a), pick]
        floored += int(np.count_nonzero(
            w[np.arange(len(par)), pick[par]] < DUAL_FLOOR))
    frac = floored / max(len(tree.eprob), 1)
    if frac > DUAL_FLOOR_BUDGET:
        raise SolverError(
            f"measure-change floor triggered on {frac:.1%} of edges; the "
            "mesh is too coarse for this control radius")
    return DualResult(value=AdaptedProcess(tree, W), floored_fraction=frac)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

@dataclass
class CompareVerdict:
    applicable: bool
    ok: bool
    worst_violation: float
    worst_node: int
    reason: str = ""


def compare(sol1, sol2, tol_cmp=1e-11, pre_tol=1e-12):
    """Comparison check: zeta1 >= zeta2 and f1 >= f2 along the second
    solution imply Y1 >= Y2.  Preconditions are verified, not assumed.

    For two batches of B columns, column j of sol1 is compared with column j
    of sol2: each driver is evaluated once per level for all columns, and the
    result is a list of B verdicts."""
    batch = sol2.zeta.ndim == 2
    width = sol2.zeta.shape[1] if batch else 1
    tree = sol1.tree
    if tree is not sol2.tree:
        out = [CompareVerdict(False, False, math.inf, -1,
                              "solutions live on different trees")] * width
        return out if batch else out[0]
    nt = tree.n_nonterminal
    col = (slice(None),) + (None,) * batch
    m = sol2.M.scalar[:nt][col]
    qdiag = sol2.clock.q.values.reshape(nt, -1)[:, 0][col]
    y2, z2 = sol2._cols(sol2.Y), sol2._cols(sol2.Z)
    x2 = sol2.X.values if sol2.X is not None else None
    worst_pre = np.zeros(sol2.zeta.shape[1:])
    for k in range(tree.K):
        a, b = tree.level_slice(k)
        t = tree.grid.t[k]
        xk = x2[a:b] if x2 is not None else None
        # column-major, as in solve_lipschitz
        yk = np.asfortranarray(y2[a:b])
        zk = np.asfortranarray(z2[a:b]) * qdiag[a:b]
        gap = (sol1.driver(t, xk, m[a:b], yk, zk)
               - sol2.driver(t, xk, m[a:b], yk, zk))
        worst_pre = np.minimum(worst_pre, np.min(gap, axis=0))
    zeta_gap = np.atleast_1d(np.min(sol1.zeta - sol2.zeta, axis=0))
    worst_pre = np.atleast_1d(worst_pre)
    out = []
    for j in range(width):
        if zeta_gap[j] < -pre_tol:
            out.append(CompareVerdict(False, False, math.inf, -1,
                                      "terminal conditions are not ordered"))
        elif worst_pre[j] < -pre_tol:
            out.append(CompareVerdict(
                False, False, math.inf, -1,
                f"drivers are not ordered along (Y2, Z2q*): "
                f"min gap {worst_pre[j]:.3e}"))
        else:
            # one column at a time: no full-size (n, B) difference
            diff = sol1.Y.values[:, j] - sol2.Y.values[:, j]
            node = int(np.argmin(diff))
            worst = float(diff[node])
            out.append(CompareVerdict(True, worst >= -tol_cmp,
                                      max(0.0, -worst), node))
    return out if batch else out[0]


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _terminal_values(tree, M, X, F):
    lo, hi = tree.level_slice(tree.K)
    if X is not None and F.arity == X.dim + M.dim:
        states = np.concatenate([X.values[lo:hi], M.values[lo:hi]], axis=1)
    else:
        states = M.values[lo:hi]
    return F(states)


@dataclass
class VanishingNRow:
    K: int
    eps: float          # nan for the raw-F run
    bracketNN_T: float
    y0: float


@dataclass
class VanishingNReport:
    rows: list = field(default_factory=list)

    def residuals(self, eps=None):
        sel = [r for r in self.rows
               if (np.isnan(r.eps) if eps is None else r.eps == eps)]
        sel.sort(key=lambda r: r.K)
        return np.array([r.bracketNN_T for r in sel])

    def decreasing_in_K(self, eps=None):
        r = self.residuals(eps)
        return bool(np.all(np.diff(r) < 0))

    def eps_gap_at_max_K(self):
        """|res(F_eps) - res(F)| at the finest mesh, per eps (sorted desc)."""
        kmax = max(r.K for r in self.rows)
        raw = next(r.bracketNN_T for r in self.rows
                   if r.K == kmax and np.isnan(r.eps))
        out = {}
        for r in self.rows:
            if r.K == kmax and not np.isnan(r.eps):
                out[r.eps] = abs(r.bracketNN_T - raw)
        return raw, out


def vanishing_N_experiment(config_for, coeffs, F, driver, eps_list, K_list,
                           x0=0.0, moll_nodes=64):
    """Residual of the BSDE solution for raw and mollified terminal data
    across mesh refinements: one solve_lipschitz per (K, eps)."""
    from .mollify import mollify

    report = VanishingNReport()
    for K in K_list:
        built = _models.build(config_for(K))
        tree, M = built.tree, built.M
        clock = predictable_bracket(tree, M)
        X = None
        if coeffs is not None:
            X = euler_forward(tree, M, clock, coeffs, np.atleast_1d(x0))
        for eps in [None] + list(eps_list):
            Fe = F if eps is None else mollify(F, eps, moll_nodes)
            zeta = _terminal_values(tree, M, X, Fe)
            sol = solve_lipschitz(tree, M, clock, X, zeta, driver)
            report.rows.append(VanishingNRow(
                K=K, eps=math.nan if eps is None else eps,
                bracketNN_T=sol.bracketNN_T, y0=sol.Y0))
    return report


def markov_grouping_check(tree, X, M, sol, decimals=9):
    """Max spread of Y within groups of equal (level, X-value, M-value)."""
    groups = {}
    y = sol.Y.values[:, 0]
    for i in range(tree.n_nodes):
        key = (int(tree.node_level[i]),
               tuple(np.round(X.values[i], decimals)) if X is not None else (),
               tuple(np.round(M.values[i], decimals)))
        groups.setdefault(key, []).append(y[i])
    spread = 0.0
    for vals in groups.values():
        if len(vals) > 1:
            spread = max(spread, max(vals) - min(vals))
    return spread


@dataclass
class RegularityScan:
    grid: np.ndarray
    u: np.ndarray
    sup_u: float
    inf_u: float
    max_first_diff: float
    max_second_diff: float


def regularity_scan(tree, M, t_idx, m_grid, F, driver, coeffs=None,
                    x_value=None):
    """Finite-difference profile of u(t, x, m) = Y_t of restarted solves, one
    solve_lipschitz per grid point."""
    lo, _ = tree.level_slice(t_idx)
    # shifting M by a constant leaves the subtree and its node order alone
    sub, order = extract_subtree(tree, lo)
    u = np.empty(len(m_grid))
    for i, mval in enumerate(m_grid):
        Msub = shift_martingale(sub, order, M, lo, mval)
        clock = predictable_bracket(sub, Msub)
        Xsub = None if coeffs is None else euler_forward(
            sub, Msub, clock, coeffs, x_value)
        zeta = _terminal_values(sub, Msub, Xsub, F)
        sol = solve_lipschitz(sub, Msub, clock, Xsub, zeta, driver)
        u[i] = sol.Y0
    h = float(m_grid[1] - m_grid[0])
    d1 = np.abs(np.diff(u)) / h
    d2 = np.abs(np.diff(u, 2)) / h ** 2 if len(u) > 2 else np.array([0.0])
    return RegularityScan(grid=np.asarray(m_grid), u=u,
                          sup_u=float(u.max()), inf_u=float(u.min()),
                          max_first_diff=float(d1.max()),
                          max_second_diff=float(d2.max()))
