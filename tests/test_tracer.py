"""The benchmark tracer (perfbench/tracer.py) against the library.

The tracer wraps named functions of every layer and reads a few fields of
their results. Installing it fails if a name is gone, a traced solve fails if
a field it reads is gone, and uninstalling must put every name back.
"""

import os
import sys

import orthres
# cli too, which install() would import: every wrapped module is loaded first
from orthres import _kernels, bsde, cli, forward, ftree, models  # noqa: F401
from orthres.mollify import MollifiedMap, TerminalMap

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


def test_tracer_wraps_a_solve_and_uninstall_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracer as tracing

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
