"""Backward solvers on trees: one exact closed-form solver for every driver
(zero, Lipschitz and quadratic-growth alike), the truncation /
inf-convolution cascade kept as its own experiment, the dual control
representation, comparison checks, and the vanishing-N experiment.

The martingale is scalar (d = 1), as in the gkw module and the clock: a
process of another dimension is refused where its values are read.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels
from .errors import ContractionError, InvariantViolation, SolverError
from .ftree import (AdaptedProcess, PredictableField,
                    conditional_covariances, level_variances,
                    level_windows, predictable_bracket)
from . import models as _models
from .forward import euler_forward, extract_subtree

FP_TOL = 1e-12
# compare: a terminal or driver gap below -PRE_TOL breaks a precondition
PRE_TOL = 1e-12
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
    which unlocks closed-form inf-convolutions.
    """

    id: str
    f: callable
    growth: dict = field(default_factory=lambda: {"a": 0.0, "b": 0.0,
                                                  "gamma": 0.0})
    klass: str = "lipschitz"
    y_part: tuple = (0.0, 0.0)
    huber: tuple = None            # (gamma, eta) when f has that exact form
    nonnegative: bool = False

    @property
    def lip_y(self):
        return float(np.max(np.abs(self.y_part[0]) + np.abs(self.y_part[1])))

    def __call__(self, t, x, m, y, z):
        if self.f is None:
            return np.zeros_like(y, dtype=float)
        return np.asarray(self.f(t, x, m, y, z), dtype=float)


def huber_envelope(z, thresh, gamma):
    """Moreau/Huber envelope of (gamma/2)z^2 at slope gamma*thresh."""
    az = np.abs(z)
    return np.where(az <= thresh, 0.5 * gamma * z * z,
                    gamma * thresh * az - 0.5 * gamma * thresh * thresh)


def truncated_driver(p, growth):
    """q_p: quadratic in z up to |z| = p, linear beyond, plus b|y| + a."""
    if p < 1:
        raise ValueError("truncation index p must be >= 1")
    b = float(growth["b"])
    gamma = float(growth["gamma"])
    eta = float(growth.get("a", 0.0))

    def f(t, x, m, y, z):
        return huber_envelope(z, p, gamma) + b * np.abs(y) + eta

    return DriverSpec(id=f"q_p[{p}]", f=f, growth=dict(growth),
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
        gamma, eta = driver.huber[0], float(driver.huber[1])
        thresh = n / gamma if gamma > 0 else math.inf

        def f(t, x, m, y, z):
            quad = huber_envelope(z, thresh, gamma) if gamma > 0 else 0.0
            return quad + by * np.abs(y) + eta
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
                      growth=dict(driver.growth),
                      klass="lipschitz", y_part=driver.y_part,
                      nonnegative=driver.nonnegative)


# -- catalog ----------------------------------------------------------------

def _param(value, name, nonnegative=False):
    """A catalog parameter as a float; it must be a number, not a bool,
    finite, and >= 0 where the driver's sign or growth depends on it."""
    if isinstance(value, bool):
        raise ValueError(f"driver parameter {name} must be a number, got "
                         f"{value!r}")
    v = float(value)
    if not math.isfinite(v) or (nonnegative and v < 0):
        raise ValueError(f"driver parameter {name} must be finite"
                         f"{' and >= 0' if nonnegative else ''}, got {v!r}")
    return v


def zero_driver():
    """f = 0, marked by ``f`` None, which no other driver has: its step is
    the closure y = E[y'], which needs no clock increments."""
    return DriverSpec(id="zero", f=None)


def constant(c):
    c = _param(c, "c")
    return DriverSpec(id="constant",
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
        id="quadratic_mixed", klass="quadratic",
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


# ---------------------------------------------------------------------------
# solutions
# ---------------------------------------------------------------------------

# A streamed sweep keeps no full-size array: per column it holds at most
# nine arrays of the widest level's edges (per-edge and per-node together),
# 8 * 9 * widest bytes (tracemalloc puts the growth per column of a
# trinomial comparison sweep at 7.6 to 8.3 arrays for K = 16 to 512, and
# that of the benchmark's restart scan, whose columns share one X, at 70%
# of the bound).  A batch of solves on one tree is cut into sweeps that
# hold at most SWEEP_BYTES: 50 columns at trinomial K = 256, and the whole
# 41-point restart scan at K = 128, t_idx = 48.  Wider sweeps were no
# faster for the comparison campaign (it took about the same time at 36 to
# 150 columns), while every column adds to the run's peak memory.
SWEEP_BYTES = 5_600_000


def _widest(tree):
    """Edges of the widest level of ``tree``."""
    return int(np.diff(tree.estart[tree.level_start[:-1]]).max())


def _stream_bytes(tree):
    """Bytes one streamed column holds on ``tree`` (see SWEEP_BYTES)."""
    return 8 * 9 * _widest(tree)


def columns_per_sweep(tree):
    """How many streamed columns one sweep on ``tree`` may carry within
    SWEEP_BYTES."""
    return max(1, SWEEP_BYTES // _stream_bytes(tree))


@dataclass
class BsdeSolution:
    """One solve, or a batch of B independent solves on one tree: then zeta
    is (leaves, B), Y, Z and dN2 have B columns and bracketNN_T is (B,).
    dN2 is E[dN^2 | node] per non-terminal node, as the solve formed it."""

    tree: object
    M: AdaptedProcess
    clock: object
    zeta: np.ndarray
    driver: DriverSpec
    Y: AdaptedProcess
    Z: PredictableField
    dN2: np.ndarray
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
        """max |Y|, without a full-size |Y| temporary."""
        y = self.Y.values
        return float(max(y.max(), -y.min()))

    def cond_var_profile(self):
        """Backward max of E[sum_{j>=k} (|Zq*|^2 dC + dN^2) | node] per level
        k = 0..K of a single solve, from the stored Z and dN2 and Sigma,
        formed level by level."""
        tree = self.tree
        z = self.Z.values[:, 0]
        R = np.zeros(tree.n_nodes)
        prof = np.zeros(tree.K + 1)
        for k in range(tree.K - 1, -1, -1):
            lo, hi = tree.level_slice(k)
            s2 = conditional_covariances(tree, self.M, lo, hi)
            zk = z[lo:hi]
            R[lo:hi] = (_kernels.backward_expect(tree, R, lo, hi)
                        + zk * zk * s2 + self.dN2[lo:hi])  # |Z q*|^2 dC
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


def _leaf_values(tree, zeta):
    """zeta as floats, (leaves,) or (leaves, B), every value finite."""
    zeta = np.asarray(zeta, dtype=float)
    lo, hi = tree.level_slice(tree.K)
    if zeta.ndim not in (1, 2) or zeta.shape[0] != hi - lo:
        raise InvariantViolation("zeta needs one value per leaf")
    bad = np.argwhere(~np.isfinite(zeta))
    if bad.size:
        at = ", column ".join(map(str, bad[0]))
        raise InvariantViolation(f"zeta is {zeta[tuple(bad[0])]} at leaf {at}")
    return zeta


def _levels(tree, M, clock, X, zeta, driver):
    """The backward step of solve_lipschitz, one level at a time.

    Yields ``(k, a, b, y, z, z_arg, edges)`` for k = K-1 .. 0: level k's
    nodes [a, b), their y and Z, and the z the driver was evaluated at,
    q Z, column-major, then ``edges = (dm, dy, p, m)``: the level's
    per-edge dm, dy and p in its layout (see _kernels), which ``_closed``
    turns into the level's residuals, and its M; the consumer must not
    write to y, z, z_arg or m.  Only the level below's y and M and the
    level's own M, per-edge p, p dm, dm and dy are held, p laid out once
    for both kernels, and E[dm^2 | node] is formed from p dm and dm; each
    level's M is formed once, and is the children's M of the level above.
    Every check of solve_lipschitz but the finiteness of E[[N]_T] is made
    here: the leaf values, the contraction, a Sigma that is not finite,
    the projection test and the implicit step's miss.  A sweep that reads
    only y and Z consumes these levels as they are and forms no
    residual.

    On a clock without increments (dC None) only the zero driver is
    taken, and its step is the closure y = E[y'] + 0.0, bit for bit the
    general step's E[y'] + 0 dC: it forms no factor, and z_arg is None.
    A non-finite E[y'] still raises the step's miss."""
    zeta = _leaf_values(tree, zeta)
    closure = clock.dC is None
    if closure and driver.f is not None:
        raise InvariantViolation(
            f"driver {driver.id!r} needs the clock's increments dC; a clock "
            "without them takes only the zero driver")
    # per-node arrays broadcast over the columns of a batch
    col = (slice(None),) + (None,) * (zeta.ndim - 1)
    if not closure:
        dC = clock.dC.values
        dc_max = float(dC.max()) if dC.size else 0.0
        if driver.lip_y * dc_max >= 1.0:
            raise ContractionError(
                f"lip_y * dC_max = {driver.lip_y * dc_max:.3f} >= 1; refine "
                "the time grid")
        dC = dC[col]
        zero = np.zeros((int(np.diff(tree.level_start).max()),)
                        + zeta.shape[1:], order="F")
    # y -> y - (k_y y + b|y|) dC has slope 1 - k_pos dC above 0 and
    # 1 - k_neg dC below
    ky, by = driver.y_part
    k_pos, k_neg = ky + by, ky - by
    t = tree.grid.t
    # column-major from zeta on: the kernels read the level below as (B, n)
    # rows, and the level's (n, B) arithmetic with per-node and per-column
    # operands runs B inner loops of n, not n loops of B
    y = np.asfortranarray(zeta)
    # y[i - base] is node i's y, as mc[i - base] is its M
    for k, a, b, m, mc, base in level_windows(tree, M):
        # the level's own increments: no full-size dm is kept
        dm = _kernels.edge_increments(tree, m, mc, a, b, base)
        p = _kernels.edge_probs(tree, a, b)
        pdm = p * dm
        s2 = level_variances(tree, pdm, dm, a, b)  # E[dm^2 | node]
        ey, m1, dy = _kernels.level_moments_d1(tree, pdm, y, a, b, base, p=p)
        live = clock.projects(s2)[col]
        z = np.where(live, m1 / np.where(live, s2[col], 1.0), 0.0)
        if closure:
            # + 0.0 turns -0.0 to +0.0, as adding 0 dC does
            y, z_arg = ey + 0.0, None
            # min and max propagate NaN: this fails on inf and NaN alone
            if not -np.inf < y.min() <= y.max() < np.inf:
                miss = np.abs(y - ey)
                raise _step_miss(k, miss, y, miss <= FP_TOL, driver.y_part)
        else:
            z_arg = clock.factor(a, b, s2)[col] * z
            xk = X.values[a:b] if X is not None else None
            mk = m[col]
            dck = dC[a:b]
            r = ey + driver(t[k], xk, mk, zero[:b - a], z_arg) * dck
            y = r / (1.0 - np.where(r < 0, k_neg, k_pos) * dck)
            miss = np.abs(y - ey - driver(t[k], xk, mk, y, z_arg) * dck)
            # FP_TOL bounds every miss in the common case; NaN fails it
            if not miss.max() <= FP_TOL:
                ok = miss <= FP_TOL * np.maximum(1.0, np.abs(y))
                if not ok.all():
                    raise _step_miss(k, miss, y, ok, driver.y_part)
        yield k, a, b, y, z, z_arg, (dm, dy, p, m)
        # the consumed level's per-edge arrays are not held while the next
        # level's are formed
        del dm, p, pdm, dy


def _closed(tree, M, clock, X, zeta, driver):
    """The ``_levels`` sweep with each level's residuals closed.

    Yields ``(k, a, b, y, z, z_arg, res, dn)``: a level of ``_levels``
    with its E[dN^2 | node], column-major, and its per-edge dN in its
    layout, formed over the level's dy, which is overwritten.
    The level's path probabilities, streamed from the tree's checkpoints,
    times E[dN^2 | node] are summed into E[[N]_T], which (a float, or (B,)
    for a batch) is returned once level 0 has been consumed, so each column
    sums per level, then in level order, as its 1-D solve does; a
    non-finite E[[N]_T] raises InvariantViolation, naming the first such
    column of a batch."""
    bracket, path_probs = 0.0, tree.descending_path_probs()
    for k, a, b, y, z, z_arg, (dm, dy, p, _) in _levels(tree, M, clock, X,
                                                        zeta, driver):
        pp = next(path_probs)[1]
        dn, res = _kernels.residual_moments_d1(tree, dm, dy, z, a, b, p=p)
        w = pp if y.ndim == 1 else pp[:, None]
        bracket = bracket + _column_sums(w * res)
        yield k, a, b, y, z, z_arg, res, dn
        # nor are they held here while the next level is formed
        del dm, dy, p, dn
    bad = np.flatnonzero(~np.isfinite(bracket))
    if bad.size:
        where = f" in column {bad[0]}" if y.ndim == 2 else ""
        raise InvariantViolation(
            f"E[[N]_T] is not finite{where}: the solution's increments "
            "overflow")
    return float(bracket) if y.ndim == 1 else bracket


def _consume(steps, take=None):
    """Run a ``_levels`` or ``_closed`` sweep, calling take(*level) on each
    level's tuple; the value the sweep returns (E[[N]_T] for ``_closed``,
    None for ``_levels``) and the root level's tuple, less its last entry
    (the per-edge arrays)."""
    while True:
        try:
            level = next(steps)
        except StopIteration as done:
            return done.value, level
        if take is not None:
            take(*level)
        # with the sweep's own references dropped, this frees the level's
        # per-edge arrays before the next level is formed
        level = level[:-1]


def solve_lipschitz(tree, M, clock, X, zeta, driver):
    """Implicit-in-y, explicit-in-z backward Euler with exact projections.

    ``zeta`` is (leaves,) for one solve or (leaves, B) for B solves on the
    same tree and clock in one sweep; the driver's parameters and y-part may
    then be (B,) arrays, X is shared by the columns, and each column is
    bit-identical to its own 1-D solve.  Each level projects the just-solved
    y onto dM (forming E[dm^2 | node] from the level's increments;
    ``clock.projects`` says where) and takes the implicit step in closed
    form from the driver's declared y-part (k_y, b): with
    r = E[y'] + f(t, x, m, 0, z) dC, y = r / (1 - (k_y + b sign(r)) dC).
    This is exact because y -> y - (k_y y + b|y|) dC is increasing,
    piecewise linear and zero at 0 when lip_y dC < 1.  A second driver
    evaluation checks the step's residual |y - E[y'] - f(t, x, m, y, z) dC|
    against FP_TOL (relative to |y| above 1), so a wrongly declared or
    non-finite driver raises InvariantViolation at the deepest level where a
    step misses.  E[dN^2 | node] is closed per level from the projection's
    per-edge dy and summed into E[[N]_T] on that level, and a non-finite
    E[[N]_T] raises InvariantViolation (naming the first such column of a
    batch).  The levels come from ``_closed``; this stores their Y, Z and
    E[dN^2 | node] at full size.

    Every experiment but ``cascade`` solves with it or streams its levels:
    the zero driver's step is the closure y = E[y'] and its E[[N]_T] the GKW
    residual, and a quadratic driver is solved directly (see
    solve_quadratic).
    """
    zeta = _leaf_values(tree, zeta)
    nt = tree.n_nonterminal
    # column-major, as _levels yields its levels
    yvals = np.empty((tree.n_nodes,) + zeta.shape[1:], order="F")
    yvals[tree.level_start[tree.K]:] = zeta
    zall = np.empty((nt,) + zeta.shape[1:], order="F")
    dn2 = np.empty((nt,) + zeta.shape[1:], order="F")

    def store(k, a, b, y, z, z_arg, res, dn):
        yvals[a:b] = y
        zall[a:b] = z
        dn2[a:b] = res
    bracket, _ = _consume(_closed(tree, M, clock, X, zeta, driver), store)
    return BsdeSolution(
        tree=tree, M=M, clock=clock, zeta=zeta, driver=driver,
        Y=AdaptedProcess(tree, yvals),
        Z=PredictableField(tree, zall.reshape(nt, -1)),
        dN2=dn2, bracketNN_T=bracket,
        # the step is closed-form: no fixed-point iterations at any level
        diagnostics={"fixed_point_iters": [0] * tree.K})


@dataclass
class CascadeTrace:
    stages: list = field(default_factory=list)     # dicts per (p, n) stage
    monotone_violation_n: float = 0.0
    # the last stage met max|q Z| <= n/gamma, so it is the direct solve
    certified: bool = False


def solve_quadratic(tree, M, clock, X, zeta, driver, p=1,
                    n_list=(4, 8, 16, 32)):
    """Approximation cascade for a nonnegative quadratic-growth driver.

    The cascade is the existence device of the quadratic theory; only the
    ``cascade`` experiment runs it, and every other experiment solves a
    quadratic driver directly with solve_lipschitz.  A nonnegative driver
    needs no regularised negative part, so the truncation index p only sets
    where the n-sweep starts: the driver is inf-convolved along ``n_list``
    from n = max(p, lip_y), giving monotone increasing solutions.
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
    trace = CascadeTrace()
    n_min = max(p, driver.lip_y)
    q = clock.factor(0, tree.n_nonterminal)
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
            "p": p, "n": n, "y_sup": sol.y_sup,
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


def dual_value(tree, M, clock, zeta, growth, p):
    """Backward dynamic program for the control representation of the
    truncated driver q_p of ``growth``.

    At every node the one-step Hamiltonian is maximized over a discount rate
    beta in [-b, b] and a tilt nu with |nu| <= p; the measure change is the
    per-edge reweighting 1 + gamma*(nu/q)*dM, floored at DUAL_FLOOR and
    flagged when below it.  The candidate tilts, the analytic maximizer nu
    and DUAL_NU_POINTS grid points on [-p, p], are the columns of one
    reweighting per level; for each the better of beta = +-b is taken in
    closed form, and the first candidate with the largest value wins.
    """
    zeta = _leaf_values(tree, zeta)
    if zeta.ndim != 1:
        raise InvariantViolation("dual_value takes one column of leaf values")
    b = float(growth["b"])
    gamma = float(growth["gamma"])
    eta = float(growth.get("a", 0.0))
    dC = clock.increments()
    W = np.empty(tree.n_nodes)
    lo, hi = tree.level_slice(tree.K)
    W[lo:hi] = zeta
    floored = 0
    nu_grid = np.linspace(-float(p), float(p), DUAL_NU_POINTS)
    for k, a, bb, m, mc, base in level_windows(tree, M):
        dm = _kernels.edge_increments(tree, m, mc, a, bb, base)
        p_e = _kernels.edge_probs(tree, a, bb)
        pdm = p_e * dm
        s2 = level_variances(tree, pdm, dm, a, bb)
        m1 = _kernels.level_moments_d1(tree, pdm, W, a, bb, p=p_e)[1]
        dck = dC[a:bb]
        qk = clock.factor(a, bb, s2)
        # q > 0 only where dC > 0
        ok = clock.projects(s2) & (qk > 0)
        z_hat = np.where(ok, m1 / np.where(ok, qk * dck, 1.0), 0.0)
        # one row per candidate nu: the analytic maximizer, then the grid
        nu = np.empty((1 + DUAL_NU_POINTS, bb - a))
        nu[0] = np.clip(z_hat, -p, p)
        nu[1:] = nu_grid[:, None]
        tilt = np.where(ok, gamma * nu / np.where(ok, qk, 1.0), 0.0)
        w = 1.0 + _kernels.parent_values(tree, tilt, a, bb) * dm
        val = _kernels.weighted_child_sum(tree, np.maximum(w, DUAL_FLOOR), W,
                                          a, bb)
        # the better of beta = -b and beta = +b, the non-NaN one if one is
        disc = np.fmax(np.exp(b * dck) * val, np.exp(-b * dck) * val)
        cand = disc + (eta - 0.5 * gamma * nu ** 2) * dck
        cand[np.isnan(cand)] = -np.inf      # a NaN candidate never wins
        pick = np.argmax(cand, axis=0)      # the first of the largest
        W[a:bb] = cand[pick, np.arange(bb - a)]
        # each edge's weight under its parent's pick
        floored += int(np.count_nonzero(np.take_along_axis(
            w, _kernels.parent_values(tree, pick, a, bb)[None], axis=0)
            < DUAL_FLOOR))
    frac = floored / max(int(tree.estart[-1]), 1)
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


def compare(tree, M, clock, X, zeta, driver, tol_cmp=1e-11):
    """Comparison check on ordered pairs solved in one streamed sweep.

    ``zeta`` is (leaves, B) for an even B, solved with the batch ``driver``;
    column j is compared with column j + B/2: zeta_j >= zeta_{j+B/2} and
    f_j >= f_{j+B/2} along (Y_{j+B/2}, Z_{j+B/2} q*) imply
    Y_j >= Y_{j+B/2}.  Preconditions are verified, not assumed.  Per level
    the driver is evaluated once, at the M the sweep formed for the level,
    on the lower half's (y, q z) twice over, and the running min of
    Y_j - Y_{j+B/2} keeps the lowest node of a tie, as argmin does; no
    full-size array is kept.  The sweep is the step alone (``_levels``):
    it makes every check of solve_lipschitz but forms no residual, so a
    solution whose E[[N]_T] would overflow still gets its verdicts.  X, if
    given, is shared by the columns.  Returns B/2 verdicts."""
    zeta = _leaf_values(tree, zeta)
    if zeta.ndim != 2 or zeta.shape[1] % 2:
        raise ValueError("compare needs (leaves, B) terminal data with B "
                         "even: column j against column j + B/2")
    # the driver ordering is checked at q Z: a clock without increments
    # is refused here
    clock.increments()
    h = zeta.shape[1] // 2
    pairs = np.arange(h)
    lower = slice(h, None)
    t = tree.grid.t
    # the leaves first, then each level: a later (lower) node wins a tie
    diff = zeta[:, :h] - zeta[:, h:]
    zeta_gap = diff.min(axis=0)
    node = np.argmin(diff, axis=0)
    worst = diff[node, pairs]
    node = node + tree.level_start[tree.K]
    worst_pre = np.zeros(h)

    def check(k, a, b, y, z, z_arg, edges):
        nonlocal worst_pre, worst, node
        xk = X.values[a:b] if X is not None else None
        f = driver(t[k], xk, edges[3][:, None],
                   np.concatenate([y[:, lower]] * 2, axis=1),
                   np.concatenate([z_arg[:, lower]] * 2, axis=1))
        worst_pre = np.minimum(worst_pre, np.min(f[:, :h] - f[:, h:], axis=0))
        diff = y[:, :h] - y[:, lower]
        i = np.argmin(diff, axis=0)
        low = diff[i, pairs]
        take = low <= worst
        worst = np.where(take, low, worst)
        node = np.where(take, a + i, node)
    _consume(_levels(tree, M, clock, X, zeta, driver), check)
    out = []
    for j in range(h):
        if zeta_gap[j] < -PRE_TOL:
            out.append(CompareVerdict(False, False, math.inf, -1,
                                      "terminal conditions are not ordered"))
        elif worst_pre[j] < -PRE_TOL:
            out.append(CompareVerdict(
                False, False, math.inf, -1,
                f"drivers are not ordered along (Y2, Z2q*): "
                f"min gap {worst_pre[j]:.3e}"))
        else:
            w = float(worst[j])
            out.append(CompareVerdict(True, w >= -tol_cmp, max(0.0, -w),
                                      int(node[j])))
    return out


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def setup_problem(model, coeffs=None, x0=0.0, driver=None):
    """Build ``model`` and clock it, with the forward X of ``coeffs`` from
    x0 if given: (tree, M, clock, X), X None without coefficients.  The
    clock keeps its increments dC unless nothing will read them: the
    problem is to be solved with the zero driver (``driver``; None keeps
    them) and has no coefficients, whose Euler pass reads dC."""
    built = _models.build(model)
    tree, M = built.tree, built.M
    closure = coeffs is None and driver is not None and driver.f is None
    clock = predictable_bracket(tree, M, increments=not closure)
    X = None if coeffs is None else euler_forward(tree, M, clock, coeffs, x0)
    return tree, M, clock, X


def _terminal_values(tree, M, X, F, shifts=None):
    """F at the leaves, of (X, M) when its arity is theirs and of M otherwise:
    (leaves,), or (leaves, B) when column j runs on M + shifts[j], X being
    the same in every column.  A batch evaluates F once on the stacked leaf
    rows, each the row of its own column's evaluation."""
    lo, hi = tree.level_slice(tree.K)
    m = M.range(lo, hi)[:, None]
    if shifts is not None:
        # column-minor rows: leaf i of column j is row i * B + j
        m = (m[:, None, :] + shifts[:, None]).reshape(-1, M.dim)
    if X is not None and F.arity == X.dim + M.dim:
        x = X.values[lo:hi]
        if shifts is not None:
            x = np.repeat(x, len(shifts), axis=0)
        states = np.concatenate([x, m], axis=1)
    else:
        states = m
    zeta = F(states)
    return zeta if shifts is None else zeta.reshape(hi - lo, len(shifts))


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


def _vanishing_sweep(model, coeffs, x0, maps, driver):
    """E[[N]_T] and Y_0 per terminal map on ``model``, from one streamed
    sweep; its tree, M, clock and X are freed on return, before the next
    model is built."""
    tree, M, clock, X = setup_problem(model, coeffs, x0, driver)
    zeta = np.column_stack([_terminal_values(tree, M, X, Fe) for Fe in maps])
    bracket, root = _consume(_closed(tree, M, clock, X, zeta, driver))
    return bracket, root[3][0]


def vanishing_N_experiment(models, coeffs, F, driver, eps_list, x0=0.0):
    """Residual of the BSDE solution for raw and mollified terminal data
    across mesh refinements: per ModelConfig of ``models``, one streamed
    sweep of solve_lipschitz's levels, the raw column and one per eps."""
    from .mollify import mollify

    report = VanishingNReport()
    maps = [F] + [mollify(F, eps) for eps in eps_list]
    for model in models:
        bracket, y0s = _vanishing_sweep(model, coeffs, x0, maps, driver)
        for eps, y0, res in zip([math.nan] + list(eps_list), y0s, bracket):
            report.rows.append(VanishingNRow(K=model.K, eps=eps,
                                             bracketNN_T=float(res),
                                             y0=float(y0)))
    return report


@dataclass
class RegularityScan:
    grid: np.ndarray
    u: np.ndarray
    z: np.ndarray       # Z at the subtree root, per grid point
    sup_u: float
    inf_u: float
    max_first_diff: float
    max_second_diff: float
    # max_i |(u_{i+1} - u_i)/h - (z_i + z_{i+1})/2|: Z as the gradient of u
    max_grad_gap: float


def _scan_sweep(sub, M0, clock, X, g, F, driver):
    """Y and Z at the root of ``sub`` for the columns M0 + g[j], from one
    streamed sweep of the step alone, every column on the same X."""
    zeta = _terminal_values(sub, M0, X, F, shifts=g)
    # the solve runs on M0, and column j's driver sees its own m + g[j];
    # the zero driver reads no m
    shifted = driver if driver.f is None else replace(
        driver, f=lambda t, x, m, y, z: driver.f(t, x, m + g, y, z))
    _, root = _consume(_levels(sub, M0, clock, X, zeta, shifted))
    return root[3][0], root[4][0]


def regularity_scan(tree, M, t_idx, m_grid, F, driver, coeffs=None, x0=0.0):
    """Finite-difference profile of u(t, x, m) = Y_t of restarted solves.

    The subtree of the first node of level t_idx is extracted once and
    clocked once, from M0 = M_sub - M[node]; shifting M by a constant leaves
    the subtree and its node order alone.  The grid is solved in column
    sweeps of at most SWEEP_BYTES: column j runs on M0 + m_j, with one
    stacked evaluation of F and one streamed B-column sweep of _levels each,
    the driver seeing each column's own m.  The coefficients read (t, x)
    alone, so a shift of M leaves X unchanged: one Euler pass on M0 from x0
    gives the X that every sweep shares.  Only the root's Y and Z are read:
    the root Z of each column, the gradient of u along M, is kept next to u.
    The sweeps take the step alone and form no residual, so a solution
    whose E[[N]_T] would overflow is still scanned; every check of the step
    is made.
    """
    lo, _ = tree.level_slice(t_idx)
    sub, order = extract_subtree(tree, lo)
    M0 = AdaptedProcess(sub, M.take(order) - M.range(lo, lo + 1))
    clock = predictable_bracket(sub, M0)
    m_grid = np.asarray(m_grid, dtype=float)
    X = None if coeffs is None else euler_forward(sub, M0, clock, coeffs, x0)
    width = columns_per_sweep(sub)
    u = np.empty(len(m_grid))
    z = np.empty(len(m_grid))
    for a in range(0, len(m_grid), width):
        u[a:a + width], z[a:a + width] = _scan_sweep(
            sub, M0, clock, X, m_grid[a:a + width], F, driver)
    h = float(m_grid[1] - m_grid[0])
    d1 = np.diff(u) / h
    d2 = np.abs(np.diff(u, 2)) / h ** 2 if len(u) > 2 else np.array([0.0])
    return RegularityScan(grid=m_grid, u=u, z=z,
                          sup_u=float(u.max()), inf_u=float(u.min()),
                          max_first_diff=float(np.abs(d1).max()),
                          max_second_diff=float(d2.max()),
                          max_grad_gap=float(np.abs(
                              d1 - 0.5 * (z[1:] + z[:-1])).max()))
