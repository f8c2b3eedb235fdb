"""The benchmark tracer (perfbench/tracer.py) against the library.

The tracer wraps named functions of every layer and reads a few fields of
their results. Installing it fails if a name is gone, a traced solve fails if
a field it reads is gone, and uninstalling must put every name back.
"""

import inspect
import os
import sys

import orthres
# cli too, which install() would import: every wrapped module is loaded first
from orthres import _kernels, bsde, cli, forward, ftree, gkw, models  # noqa: F401
from orthres.mollify import MollifiedMap, TerminalMap, indicator_halfspace

from reference import gkw_levels

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
WRAPPED_CLASSES = (ftree.ScenarioTree, TerminalMap, MollifiedMap)


def bindings():
    """Every attribute of every loaded orthres module and of the classes
    whose methods the tracer wraps."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "orthres" or name.startswith("orthres."):
            out.update(((name, a), v) for a, v in vars(mod).items())
    for cls in WRAPPED_CLASSES:
        out.update(((cls.__qualname__, a), v) for a, v in vars(cls).items())
    return out


def import_tracer(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracer as tracing
    return tracing


def record_kernel_calls(monkeypatch, tracing):
    """A list that each traced kernel's call appends its (name, tree, lo,
    hi) to, from the arguments bound by name."""
    calls = []
    for name in tracing.KERNELS:
        kernel = getattr(_kernels, name)

        def recording(*args, _kernel=kernel, _name=name, **kwargs):
            bound = inspect.signature(_kernel).bind(*args, **kwargs).arguments
            calls.append((_name, bound["tree"], bound["lo"], bound["hi"]))
            return _kernel(*args, **kwargs)
        monkeypatch.setattr(_kernels, name, recording)
    return calls


def test_tracer_wraps_a_solve_and_uninstall_restores_every_name(monkeypatch):
    tracing = import_tracer(monkeypatch)
    before = bindings()
    tr = tracing.Tracer()
    tracing.install(tr)
    try:
        # called through the module attributes, which the tracer patched
        built = models.build(models.ModelConfig("trinomial", K=4))
        tree, M = built.tree, built.M
        clock = ftree.predictable_bracket(tree, M)
        lo, hi = tree.level_slice(tree.K)
        bsde.solve_lipschitz(tree, M, clock, None, M.scalar[lo:hi] ** 2,
                             bsde.driver_from_catalog("zero"))
        forward.shift_start(tree, M, 2, int(tree.level_start[2]), 0.0,
                            coeffs=forward.identity(), x=0.0)
        metrics = tracing.layer_metrics(tr, 1.0)
        patched = {k for k, v in bindings().items() if v is not before.get(k)}
    finally:
        tr.uninstall()
    assert metrics["models.builds"] == 1
    assert metrics["models.nodes"] == 25
    assert metrics["bsde.lipschitz_solves"] == 1
    assert metrics["forward.extract_calls"] == 1
    assert metrics["kernels.backward_expect_calls"] > 0
    # the package re-export is patched along with the module attribute
    assert {("orthres.models", "build"), ("orthres", "build"),
            ("orthres.cli", "build"), ("ScenarioTree", "__init__")} <= patched
    after = bindings()
    assert after.keys() == before.keys()
    assert [k for k, v in after.items() if v is not before[k]] == []
    # the worker records whether the numba kernels are on
    assert isinstance(_kernels.NUMBA_ENABLED, bool)
    assert orthres.build is models.build


def test_tracer_counts_the_kernel_calls_and_edges_of_a_sweep(monkeypatch):
    """The tracer reads each kernel's tree, lo and hi by position. Against
    the arguments bound by name, it counts K level_moments_d1 calls, one per
    level, for one B = 2 vanishing-N sweep and K more for a GKW
    decomposition, which calls no other kernel and neither clocks M nor
    checks a martingale; the tests' level-by-level oracle then adds one
    level_moments_d1 and one edge_residuals_d1 call per level, and the
    edges counted are those the calls' [lo, hi) ranges span."""
    tracing = import_tracer(monkeypatch)
    calls = record_kernel_calls(monkeypatch, tracing)
    K = 8
    tr = tracing.Tracer()
    tracing.install(tr)
    try:
        report = bsde.vanishing_N_experiment(
            lambda K: models.ModelConfig("trinomial", K=K), None,
            indicator_halfspace(), bsde.zero_driver(), [0.01], [K])
        sweep = [c for c in calls if c[0] == "level_moments_d1"]
        built = models.build(models.ModelConfig("trinomial", K=K))
        tree, M = built.tree, built.M
        clock = ftree.predictable_bracket(tree, M)
        lo, hi = tree.level_slice(K)
        before = len(calls)
        res = gkw.gkw_decompose(tree, M, clock,
                                (M.scalar[lo:hi] > 0).astype(float))
        decompose = calls[before:]
        # edge_residuals_d1's only callers are the tests' oracles
        gkw_levels(tree, M, res.Y)
        metrics = tracing.layer_metrics(tr, 1.0)
    finally:
        tr.uninstall()
    assert len(report.rows) == 2
    assert len(sweep) == K
    levels = [c for c in calls if c[0] == "level_moments_d1"]
    assert {c[1].level_slice(c[1].level_of(c[2])) == c[2:]
            for c in levels} == {True}
    assert metrics["kernels.level_moments_d1_calls"] == len(levels) == 3 * K
    assert [c[0] for c in decompose] == ["level_moments_d1"] * K
    assert [c[2:] for c in decompose] == [
        tree.level_slice(k) for k in range(K - 1, -1, -1)]
    residual_calls = [c for c in calls if c[0] == "edge_residuals_d1"]
    assert [c[2:] for c in residual_calls] == [
        tree.level_slice(k) for k in range(K)]
    assert metrics["kernels.edge_residuals_d1_calls"] == K
    assert metrics["gkw.decompose_calls"] == 1
    # the spans opened inside the decomposition, a parent before its child
    inside = set()
    for i, (name, _, _, parent) in enumerate(tr.spans):
        if name == "gkw.decompose" or parent in inside:
            inside.add(i)
    names = {tr.spans[i][0] for i in inside}
    assert {n for n in names if n.startswith("kernels.")} == {
        "kernels.level_moments_d1"}
    assert not names & {"ftree.clock", "ftree.mart_check"}
    for name in tracing.KERNELS:
        assert metrics[f"kernels.{name}_calls"] == sum(
            c[0] == name for c in calls)
    assert metrics["kernels.edges"] == sum(
        int(t.estart[hi]) - int(t.estart[lo]) for _, t, lo, hi in calls)


def test_residual_sweep_runs_one_solver_sweep_and_no_decomposition(
        monkeypatch):
    """A residual sweep streams one zero-driver level sweep per K: K
    level_moments_d1 calls, and no gkw_decompose or edge_residuals_d1
    call."""
    tracing = import_tracer(monkeypatch)
    calls = record_kernel_calls(monkeypatch, tracing)
    K = 8
    tr = tracing.Tracer()
    tracing.install(tr)
    try:
        sweep = gkw.residual_sweep(
            lambda K: models.ModelConfig("compensated_jump", K=K),
            indicator_halfspace(), [K])
        metrics = tracing.layer_metrics(tr, 1.0)
    finally:
        tr.uninstall()
    assert len(sweep.rows) == 1
    assert metrics["gkw.decompose_calls"] == 0
    assert metrics["kernels.edge_residuals_d1_calls"] == 0
    assert sum(c[0] == "level_moments_d1" for c in calls) == K
    assert "edge_residuals_d1" not in {c[0] for c in calls}
    assert metrics["ftree.clock_calls"] == 1
