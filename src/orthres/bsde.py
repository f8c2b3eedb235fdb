"""Backward solvers on trees: Lipschitz drivers with exact projections, the
truncation / inf-convolution cascade for quadratic-growth drivers, the dual
control representation, comparison checks, and the vanishing-N experiment.

Scalar martingales only (d = 1): every shipped model is one-dimensional and
the multi-dimensional decomposition lives in the gkw module.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels
from .errors import ContractionError, InvariantViolation, SolverError
from .ftree import AdaptedProcess, PredictableField, predictable_bracket
from .gkw import gkw_decompose, martingale_from_terminal
from . import models as _models
from .forward import euler_forward, extract_subtree, shift_martingale

FP_TOL = 1e-12
FP_MAX_ITER = 200
PROJ_EPS = 1e-14


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DriverSpec:
    """Driver f(t, x, m, y, z) with declared growth (a, b, gamma).

    ``f`` is vectorized over nodes: x is (N, n) or None, m, y, z are (N,).
    ``huber`` marks the separable structure (gamma/2)z^2 + b|y| + eta, which
    unlocks closed-form inf-convolutions.  ``eta`` is a constant or a
    callable of time.
    """

    id: str
    f: callable
    growth: dict = field(default_factory=lambda: {"a": 0.0, "b": 0.0,
                                                  "gamma": 0.0})
    eta: object = 0.0
    klass: str = "lipschitz"
    lip_y: float = 0.0
    lip_z: float = 0.0
    huber: tuple = None            # (gamma, b, eta) when f has that exact form
    nonnegative: bool = False
    deriv: dict = None

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
                      klass="lipschitz", lip_y=b, lip_z=gamma * p,
                      nonnegative=True)


def inf_convolve(driver, n, search_radius=3.0, grid_step=0.1,
                 max_enlarge=2):
    """n-Lipschitz lower envelope inf_{u,w} f(u,w) + n|y-u| + n|z-w|.

    Closed form when the driver carries the separable huber structure;
    otherwise a grid search over offsets, enlarging the box when the inf is
    attained on its boundary.
    """
    if n < 1:
        raise ValueError("inf-convolution index n must be >= 1")
    if driver.huber is not None:
        gamma, b, eta = driver.huber
        by = min(b, float(n))
        thresh = n / gamma if gamma > 0 else math.inf

        def f(t, x, m, y, z):
            quad = huber_envelope(z, thresh, gamma) if gamma > 0 else 0.0
            return quad + by * np.abs(y) + eta_at(eta, t)

        return DriverSpec(id=f"{driver.id}~inf{n}", f=f,
                          growth=dict(driver.growth), eta=eta,
                          klass="lipschitz", lip_y=by,
                          lip_z=min(float(n), driver.lip_z or math.inf),
                          nonnegative=driver.nonnegative)

    base = driver
    lip_y = min(float(n), base.lip_y) if base.lip_y else float(n)
    lip_z = min(float(n), base.lip_z) if base.lip_z else float(n)

    def f(t, x, m, y, z):
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        R = search_radius
        for attempt in range(max_enlarge + 1):
            offs = np.arange(-R, R + grid_step / 2, grid_step)
            best = np.full(y.shape, np.inf)
            arg_u = np.zeros(y.shape)
            arg_w = np.zeros(y.shape)
            for du in offs:
                pen_u = n * abs(du)
                for dw in offs:
                    cand = (base(t, x, m, y + du, z + dw)
                            + pen_u + n * abs(dw))
                    take = cand < best
                    best = np.where(take, cand, best)
                    arg_u = np.where(take, du, arg_u)
                    arg_w = np.where(take, dw, arg_w)
            edge = R - grid_step / 2
            on_edge = (np.abs(arg_u) >= edge) | (np.abs(arg_w) >= edge)
            if not np.any(on_edge):
                return best
            R *= 2.0
        raise SolverError(
            "inf-convolution minimum pinned to the search-box boundary "
            f"even at radius {R / 2}")

    return DriverSpec(id=f"{base.id}~inf{n}", f=f, growth=dict(base.growth),
                      eta=base.eta, klass="lipschitz",
                      lip_y=lip_y, lip_z=lip_z,
                      nonnegative=base.nonnegative)


# -- catalog ----------------------------------------------------------------

def zero_driver():
    return DriverSpec(id="zero", f=lambda t, x, m, y, z: np.zeros_like(y))


def constant(c):
    return DriverSpec(id="constant", eta=abs(float(c)),
                      growth={"a": abs(float(c)), "b": 0.0, "gamma": 0.0},
                      f=lambda t, x, m, y, z: np.full_like(y, float(c)))


def linear_y(coef):
    c = float(coef)
    return DriverSpec(id="linear_y", lip_y=abs(c),
                      growth={"a": 0.0, "b": abs(c), "gamma": 0.0},
                      f=lambda t, x, m, y, z: c * y)


def pure_quadratic(gamma):
    g = float(gamma)
    return DriverSpec(id="pure_quadratic", klass="quadratic",
                      growth={"a": 0.0, "b": 0.0, "gamma": g},
                      f=lambda t, x, m, y, z: 0.5 * g * z * z,
                      huber=(g, 0.0, 0.0), nonnegative=True, lip_y=0.0)


def quadratic_mixed(gamma, b, eta=0.0):
    g, bb = float(gamma), float(b)
    return DriverSpec(
        id="quadratic_mixed", klass="quadratic", eta=eta,
        growth={"a": eta_at(eta, 0.0), "b": bb, "gamma": g},
        f=lambda t, x, m, y, z: 0.5 * g * z * z + bb * np.abs(y)
        + eta_at(eta, t),
        huber=(g, bb, eta), nonnegative=True, lip_y=bb)


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

@dataclass
class BsdeSolution:
    tree: object
    M: AdaptedProcess
    clock: object
    X: AdaptedProcess
    zeta: np.ndarray
    driver: DriverSpec
    Y: AdaptedProcess
    Z: PredictableField
    dN: np.ndarray
    bracketNN_T: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def Y0(self):
        return float(self.Y.values[0, 0])

    @property
    def y_sup(self):
        return float(np.max(np.abs(self.Y.values)))

    def cond_var_profile(self):
        """Backward max of E[sum_{j>=k} (|Zq*|^2 dC + dN^2) | node] per level
        k = 0..K, from the stored Z, dN and the clock's Sigma (d = 1)."""
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


def solve_lipschitz(tree, M, clock, X, zeta, driver, tol_fp=FP_TOL,
                    max_iter=FP_MAX_ITER):
    """Implicit-in-y, explicit-in-z backward Euler with exact projections.

    Each level projects the just-solved y onto dM (reading E[dm^2 | node]
    from ``clock.sigma``) and runs the fixed point in y; dN and E[[N]_T] are
    closed in one pass over all non-terminal nodes after the sweep.
    """
    if M.dim != 1:
        raise NotImplementedError("backward solvers are scalar-martingale only")
    zeta = np.asarray(zeta, dtype=float)
    dC = clock.dC.values
    dc_max = float(dC.max()) if dC.size else 0.0
    if driver.lip_y * dc_max >= 1.0:
        raise ContractionError(
            f"lip_y * dC_max = {driver.lip_y * dc_max:.3f} >= 1; refine the "
            "time grid")
    nt = tree.n_nonterminal
    m = M.scalar
    qdiag = clock.q.values.reshape(nt, -1)[:, 0]  # q[0,0] for d = 1
    s2 = clock.sigma.reshape(nt)                  # E[dm^2 | node]
    projects = s2 > PROJ_EPS
    s2_safe = np.where(s2 > 0, s2, 1.0)
    dm = _kernels.edge_increments(tree, m)
    pdm = tree.eprob * dm
    t = tree.grid.t
    yvals = np.empty(tree.n_nodes)
    lo, hi = tree.level_slice(tree.K)
    if zeta.shape[0] != hi - lo:
        raise InvariantViolation("zeta needs one value per leaf")
    yvals[lo:hi] = zeta
    eyall = np.empty(nt)
    zall = np.empty(nt)
    iters_hist = []
    for k in range(tree.K - 1, -1, -1):
        a, b = tree.level_slice(k)
        ey, m1 = _kernels.level_moments_d1(tree, pdm, yvals, a, b)
        z = np.where(projects[a:b], m1 / s2_safe[a:b], 0.0)
        z_arg = qdiag[a:b] * z
        xk = X.values[a:b] if X is not None else None
        mk = m[a:b]
        dck = dC[a:b]
        y = ey
        it = 0
        while True:
            y_new = ey + driver(t[k], xk, mk, y, z_arg) * dck
            it += 1
            delta = float(np.abs(y_new - y).max())
            y = y_new
            if delta < tol_fp:
                break
            if it >= max_iter:
                raise SolverError(
                    f"fixed point at level {k} did not converge in "
                    f"{max_iter} iterations (last delta {delta:.3e})")
        iters_hist.append(it)
        yvals[a:b] = y
        eyall[a:b] = ey
        zall[a:b] = z
    dn = np.empty(len(tree.echild))
    res_node = _kernels.edge_residuals_d1(tree, dm, yvals, eyall, zall,
                                          0, nt, dn)
    bracket = float(np.sum(tree.path_prob[:nt] * res_node))
    return BsdeSolution(
        tree=tree, M=M, clock=clock, X=X, zeta=zeta, driver=driver,
        Y=AdaptedProcess(tree, yvals), Z=PredictableField(tree, zall[:, None]),
        dN=dn, bracketNN_T=bracket,
        diagnostics={
            "y_sup": float(np.max(np.abs(yvals))),
            "fixed_point_iters": iters_hist[::-1],
        })


def _split_driver(driver):
    """f = f_plus - f_minus with both parts nonnegative."""
    base = driver

    def fp(t, x, m, y, z):
        return np.maximum(base(t, x, m, y, z), 0.0)

    def fm(t, x, m, y, z):
        return np.maximum(-base(t, x, m, y, z), 0.0)

    mk = lambda name, fn: replace(base, id=f"{base.id}~{name}", f=fn,
                                  huber=None)
    return mk("pos", fp), mk("neg", fm)


def _combine(pos, neg_env):
    def f(t, x, m, y, z):
        return pos(t, x, m, y, z) - neg_env(t, x, m, y, z)

    return replace(pos, id=f"{pos.id}-{neg_env.id}", f=f,
                   lip_y=pos.lip_y + neg_env.lip_y,
                   lip_z=pos.lip_z + neg_env.lip_z)


@dataclass
class CascadeTrace:
    stages: list = field(default_factory=list)     # dicts per (p, n) stage
    p_values: list = field(default_factory=list)   # y_sup per closed p stage
    monotone_violation_n: float = 0.0
    monotone_violation_p: float = 0.0


def solve_quadratic(tree, M, clock, X, zeta, driver, p_list=(1, 2, 4, 8),
                    n_list=(4, 8, 16, 32), tol_cascade=1e-8,
                    monotone_guard=1e-6, inf_conv_kwargs=None):
    """Full approximation cascade for a quadratic-growth driver.

    For each truncation index p the negative part of the driver is Lipschitz-
    regularized at level p, then the resulting driver is inf-convolved along
    ``n_list`` (monotone increasing solutions); the p-sequence of limits is
    monotone decreasing.  Stops each sweep once the sup-norm increment drops
    below ``tol_cascade``.
    """
    if driver.klass != "quadratic":
        raise ValueError("solve_quadratic expects a quadratic-class driver")
    zeta = np.asarray(zeta, dtype=float)
    if not np.all(np.isfinite(zeta)):
        raise InvariantViolation("terminal condition must be bounded")
    kw = inf_conv_kwargs or {}
    trace = CascadeTrace()
    f_plus, f_minus = (None, None)
    if not driver.nonnegative:
        f_plus, f_minus = _split_driver(driver)
    prev_p_y = None
    sol = None
    # a nonnegative driver needs no regularised negative part, so g_p is the
    # driver itself and every further p would rerun the same n-sweep
    for p in p_list[:1] if driver.nonnegative else p_list:
        if driver.nonnegative:
            g_p = driver
        else:
            g_p = _combine(f_plus, inf_convolve(f_minus, p, **kw))
        prev_y = None
        n_min = max(p, driver.growth.get("b", 0.0))
        ns = [n for n in n_list if n >= n_min] or [n_min]
        for n in ns:
            f_n = inf_convolve(g_p, n, **kw)
            sol = solve_lipschitz(tree, M, clock, X, zeta, f_n)
            y = sol.Y.values[:, 0]
            inc = None
            if prev_y is not None:
                viol = float(np.max(prev_y - y))
                trace.monotone_violation_n = max(trace.monotone_violation_n,
                                                viol)
                inc = float(np.max(np.abs(y - prev_y)))
            trace.stages.append({
                "p": p, "n": n, "y_sup": sol.diagnostics["y_sup"],
                "bracketNN_T": sol.bracketNN_T,
                "sup_increment": inc,
                "iters": int(max(sol.diagnostics["fixed_point_iters"],
                                 default=0)),
            })
            done = prev_y is not None and inc < tol_cascade
            prev_y = y
            if done:
                break
        if prev_p_y is not None:
            viol = float(np.max(prev_y - prev_p_y))
            trace.monotone_violation_p = max(trace.monotone_violation_p, viol)
            if float(np.max(np.abs(prev_y - prev_p_y))) < tol_cascade:
                trace.p_values.append(sol.diagnostics["y_sup"])
                break
        trace.p_values.append(sol.diagnostics["y_sup"])
        prev_p_y = prev_y
    if max(trace.monotone_violation_n, trace.monotone_violation_p) \
            > monotone_guard:
        raise SolverError(
            "cascade lost monotonicity beyond tolerance "
            f"(n: {trace.monotone_violation_n:.3e}, "
            f"p: {trace.monotone_violation_p:.3e})")
    sol.diagnostics["cascade_trace"] = trace
    return sol


# ---------------------------------------------------------------------------
# dual representation
# ---------------------------------------------------------------------------

@dataclass
class DualControls:
    beta_bound: float
    nu_radius: float
    nu_grid: np.ndarray = None

    def __post_init__(self):
        if self.nu_grid is None:
            self.nu_grid = np.linspace(-self.nu_radius, self.nu_radius, 9)
        if np.any(np.abs(self.nu_grid) > self.nu_radius + 1e-12):
            raise ValueError("nu grid exceeds its radius")


@dataclass
class DualResult:
    value: AdaptedProcess
    floored_fraction: float


def dual_value(tree, M, clock, zeta, growth, p, controls=None, eta=None,
               floor=1e-9, floor_budget=0.01):
    """Backward dynamic program for the control representation of the
    truncated driver q_p.

    At every node the one-step Hamiltonian is maximized over a discount rate
    beta in [-b, b] and a tilt nu with |nu| <= p; the measure change is the
    per-edge reweighting 1 + gamma*(nu/q)*dM, floored and flagged when
    negative.  Candidates are the analytic maximizer plus a grid.
    """
    if M.dim != 1:
        raise NotImplementedError("dual DP is scalar-martingale only")
    b = float(growth["b"])
    gamma = float(growth["gamma"])
    if eta is None:
        eta = float(growth.get("a", 0.0))
    if controls is None:
        controls = DualControls(beta_bound=b, nu_radius=float(p))
    zeta = np.asarray(zeta, dtype=float)
    nt = tree.n_nonterminal
    m = M.scalar
    dC = clock.dC.values
    qdiag = clock.q.values.reshape(nt, -1)[:, 0]
    W = np.empty(tree.n_nodes)
    lo, hi = tree.level_slice(tree.K)
    W[lo:hi] = zeta
    floored = 0
    total_edges = 0
    betas = (-controls.beta_bound, controls.beta_bound) \
        if controls.beta_bound > 0 else (0.0,)
    # the kernels read only the current level's edge slice of these
    ones = np.ones(tree.n_nodes)
    wfull = np.ones(len(tree.eprob))
    flfull = np.zeros(len(tree.eprob))
    dm_all = _kernels.edge_increments(tree, m)
    pdm = tree.eprob * dm_all
    for k in range(tree.K - 1, -1, -1):
        a, bb = tree.level_slice(k)
        ey, m1 = _kernels.level_moments_d1(tree, pdm, W, a, bb)
        dck = dC[a:bb]
        qk = qdiag[a:bb]
        ok = (qk > PROJ_EPS) & (dck > PROJ_EPS)
        z_hat = np.where(ok, m1 / np.where(ok, qk * dck, 1.0), 0.0)
        nu_star = np.clip(z_hat, -p, p)
        etak = eta_at(eta, tree.grid.t[k])
        best = np.full(bb - a, -np.inf)
        best_floor = np.zeros(bb - a, dtype=np.int64)
        sl = tree._edge_slice(k)
        par = tree.eparent[sl]
        dm = dm_all[sl]
        candidates = [nu_star] + [np.full(bb - a, g)
                                  for g in controls.nu_grid]
        for nu in candidates:
            tilt = np.where(ok, gamma * nu / np.where(ok, qk, 1.0), 0.0)
            w = 1.0 + tilt[par - a] * dm
            wfull[sl] = np.maximum(w, floor)
            flfull[sl] = (w < floor) / tree.eprob[sl]
            val = _kernels.weighted_child_sum(tree, wfull, W, a, bb)
            node_fl = np.rint(
                _kernels.weighted_child_sum(tree, flfull, ones, a, bb)
            ).astype(np.int64)
            for beta in betas:
                cand = (np.exp(-beta * dck) * val
                        + (etak - 0.5 * gamma * nu ** 2) * dck)
                take = cand > best
                best_floor = np.where(take, node_fl, best_floor)
                best = np.where(take, cand, best)
        W[a:bb] = best
        floored += int(best_floor.sum())
        total_edges += len(dm)
    frac = floored / max(total_edges, 1)
    if frac > floor_budget:
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
    solution imply Y1 >= Y2.  Preconditions are verified, not assumed."""
    tree = sol1.tree
    if tree is not sol2.tree:
        return CompareVerdict(False, False, math.inf, -1,
                              "solutions live on different trees")
    if np.min(sol1.zeta - sol2.zeta) < -pre_tol:
        return CompareVerdict(False, False, math.inf, -1,
                              "terminal conditions are not ordered")
    nt = tree.n_nonterminal
    m = sol2.M.scalar[:nt]
    qdiag = sol2.clock.q.values.reshape(nt, -1)[:, 0]
    y2 = sol2.Y.values[:nt, 0]
    z2 = sol2.Z.values[:nt, 0] * qdiag
    x2 = sol2.X.values[:nt] if sol2.X is not None else None
    worst_pre = 0.0
    for k in range(tree.K):
        a, b = tree.level_slice(k)
        t = tree.grid.t[k]
        xk = x2[a:b] if x2 is not None else None
        gap = (sol1.driver(t, xk, m[a:b], y2[a:b], z2[a:b])
               - sol2.driver(t, xk, m[a:b], y2[a:b], z2[a:b]))
        worst_pre = min(worst_pre, float(np.min(gap)))
    if worst_pre < -pre_tol:
        return CompareVerdict(False, False, math.inf, -1,
                              f"drivers are not ordered along (Y2, Z2q*): "
                              f"min gap {worst_pre:.3e}")
    diff = sol1.Y.values[:, 0] - sol2.Y.values[:, 0]
    worst_node = int(np.argmin(diff))
    worst = float(diff[worst_node])
    return CompareVerdict(True, worst >= -tol_cmp, max(0.0, -worst),
                          worst_node)


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


def _solve_any(tree, M, clock, X, zeta, driver, **cascade_kw):
    if driver is None or driver.id == "zero":
        Y = martingale_from_terminal(tree, zeta)
        res = gkw_decompose(tree, M, Y)
        return BsdeSolution(tree=tree, M=M, clock=clock, X=X, zeta=zeta,
                            driver=driver or zero_driver(), Y=Y, Z=res.Z,
                            dN=res.dN, bracketNN_T=res.bracketNN_T,
                            diagnostics={"y_sup": float(np.max(np.abs(
                                Y.values)))})
    if driver.klass == "quadratic":
        return solve_quadratic(tree, M, clock, X, zeta, driver, **cascade_kw)
    return solve_lipschitz(tree, M, clock, X, zeta, driver)


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
                           x0=0.0, moll_nodes=64, **cascade_kw):
    """Residual of the BSDE solution for raw and mollified terminal data
    across mesh refinements."""
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
            sol = _solve_any(tree, M, clock, X, zeta, driver, **cascade_kw)
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
                    x_value=None, **cascade_kw):
    """Finite-difference profile of u(t, x, m) = Y_t of restarted solves."""
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
        sol = _solve_any(sub, Msub, clock, Xsub, zeta, driver, **cascade_kw)
        u[i] = sol.Y0
    h = float(m_grid[1] - m_grid[0])
    d1 = np.abs(np.diff(u)) / h
    d2 = np.abs(np.diff(u, 2)) / h ** 2 if len(u) > 2 else np.array([0.0])
    return RegularityScan(grid=np.asarray(m_grid), u=u,
                          sup_u=float(u.max()), inf_u=float(u.min()),
                          max_first_diff=float(d1.max()),
                          max_second_diff=float(d2.max()))
