import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from orthres.cli import (MAX_SCAN_POINTS, estimate_nodes, load_config, main,
                         parse_config)
from orthres.errors import ConfigError


def write_cfg(tmp_path, name="cfg.json", **overrides):
    raw = {
        "experiment": "residual_sweep",
        "model": {"kind": "trinomial", "K": 4},
        "output": str(tmp_path / "out"),
        "F": {"id": "indicator_halfspace"},
        "K_list": [4, 8],
    }
    raw.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path, raw


# -- config parsing ---------------------------------------------------------

def test_parse_rejects_unknown_experiment(tmp_path):
    with pytest.raises(ConfigError):
        parse_config({"experiment": "nope", "model": {"kind": "binary"},
                      "output": "x"})


def test_parse_rejects_missing_required_block(tmp_path):
    with pytest.raises(ConfigError):
        parse_config({"experiment": "residual_sweep",
                      "model": {"kind": "binary"}, "output": "x",
                      "K_list": [4]})  # F block missing


def test_parse_rejects_bad_lists():
    base = {"experiment": "residual_sweep", "model": {"kind": "binary"},
            "output": "x", "F": {"id": "square"}}
    with pytest.raises(ConfigError):
        parse_config({**base, "K_list": [4, -8]})
    with pytest.raises(ConfigError):
        parse_config({**base, "K_list": "8"})


def test_parse_rejects_bad_catalog_params(tmp_path):
    path, _ = write_cfg(tmp_path, F={"id": "square",
                                     "params": {"bogus": 1}})
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_load_reports_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="malformed JSON"):
        load_config(str(path))


def test_config_hash_stable_under_key_order(tmp_path):
    p1, raw = write_cfg(tmp_path, "a.json")
    p2 = tmp_path / "b.json"
    p2.write_text(json.dumps(dict(reversed(list(raw.items())))))
    assert load_config(str(p1)).config_hash == load_config(str(p2)).config_hash


# -- node estimates ---------------------------------------------------------

def test_estimate_nodes_formulas():
    assert estimate_nodes("binary", 8) == 45
    assert estimate_nodes("binary", 3, {"recombine": False}) == 15
    assert estimate_nodes("trinomial", 8) == 81
    assert estimate_nodes("compensated_jump", 8) == 165
    assert estimate_nodes("compensated_jump", 8, {"lam_down": 0.0}) == 45
    assert estimate_nodes("product_noise", 3) == 85


# -- exit codes -------------------------------------------------------------

SCAN = {"experiment": "regularity_scan", "model": {"kind": "trinomial",
                                                  "K": 4},
        "driver": {"id": "pure_quadratic", "params": {"gamma": 1.0}}}


@pytest.mark.parametrize("overrides", [
    pytest.param(None, id="malformed_json"),
    pytest.param({"model": {"kind": "trinomial", "K": "x"}}, id="K_not_int"),
    pytest.param({"model": {"kind": "trinomial", "params": {"p": "abc"}}},
                 id="param_not_number"),
    pytest.param({"F": "sine"}, id="F_not_object"),
    pytest.param({**SCAN, "tolerances": {"m_count": 1}}, id="scan_one_point"),
    pytest.param({**SCAN, "tolerances": {"t_idx": 4}}, id="t_idx_at_K"),
    pytest.param({**SCAN, "tolerances": {"t_idx": -1}}, id="t_idx_negative"),
    pytest.param({"experiment": "mollify_sweep", "eps_list": [0.1],
                  "tolerances": {"scan_spacing": "x"}},
                 id="spacing_not_number"),
    pytest.param({"model": {"kind": "trinomial", "K": 1.7}},
                 id="K_fractional"),
    pytest.param({"model": {"kind": "trinomial", "d": 1.5}},
                 id="d_fractional"),
    pytest.param({"K_list": [4, 2.5]}, id="K_list_fractional"),
    pytest.param({"seed": 0.5}, id="seed_fractional"),
    pytest.param({"experiment": "comparison_campaign", "seeds": 2.5},
                 id="seeds_fractional"),
    pytest.param({**SCAN, "tolerances": {"t_idx": 1.5}},
                 id="t_idx_fractional"),
    pytest.param({**SCAN, "tolerances": {"m_count": 3.5}},
                 id="m_count_fractional"),
    pytest.param({**SCAN, "driver": {"id": "pure_quadratic",
                                     "params": {"gamma": -1.0}}},
                 id="gamma_negative"),
    pytest.param({**SCAN, "driver": {"id": "quadratic_mixed",
                                     "params": {"gamma": 1.0, "b": -0.5}}},
                 id="b_negative"),
    pytest.param({"model": {"kind": "trinomial", "params": {"p": 0.7}}},
                 id="trinomial_p_above_half"),
    pytest.param({"model": {"kind": "binary", "params": {"h": -1}}},
                 id="binary_h_negative"),
    pytest.param({"model": {"kind": "compensated_jump", "K": 4,
                            "params": {"lam": 40}}},
                 id="jump_intensity_saturated"),
    pytest.param({"model": {"kind": "compensated_jump", "K": 128,
                            "params": {"lam": 40}}, "K_list": [128, 4]},
                 id="jump_intensity_saturated_in_K_list"),
    pytest.param({"model": {"kind": "time_changed", "params": {"kappa": -1}}},
                 id="kappa_negative"),
])
def test_exit_3_on_malformed_config(tmp_path, capsys, overrides):
    if overrides is None:
        path = tmp_path / "bad.json"
        path.write_text("{oops")
    else:
        path, _ = write_cfg(tmp_path, **overrides)
    assert main(["run", str(path)]) == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error:") and "\n" not in err


def test_integral_floats_are_valid_integer_fields():
    cfg = parse_config({
        "experiment": "regularity_scan", "output": "x",
        "model": {"kind": "trinomial", "K": 8.0, "d": 1.0},
        "F": {"id": "sine"}, "K_list": [4.0],
        "driver": {"id": "pure_quadratic", "params": {"gamma": 1.0}},
        "seed": 3.0, "seeds": 2.0,
        "tolerances": {"t_idx": 2.0, "m_count": 5.0}})
    assert (cfg.model.K, cfg.model.d, cfg.seed, cfg.seeds) == (8, 1, 3, 2)


def test_sweep_checks_the_models_it_builds():
    """A sweep builds each K of its K_list, not the model block's K (8 when
    omitted): lam = 5 is valid at K = 16 and 32, though not at K = 8."""
    raw = {"experiment": "residual_sweep", "output": "x",
           "model": {"kind": "compensated_jump", "params": {"lam": 5}},
           "F": {"id": "indicator_halfspace"}, "K_list": [16, 32]}
    assert parse_config(raw).model.K == 16
    with pytest.raises(ConfigError, match=r"at K = 8"):
        parse_config({**raw, "K_list": [16, 8]})


def test_exit_2_when_over_node_cap(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ORTHRES_NODE_CAP", "10")
    path, _ = write_cfg(tmp_path)
    assert main(["run", str(path)]) == 2
    assert "invariant violation" in capsys.readouterr().err


def test_verify_warns_but_exits_zero_over_cap(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ORTHRES_NODE_CAP", "10")
    path, _ = write_cfg(tmp_path)
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "OVER CAP" in out and "warning" in out


def test_verify_prints_plan(tmp_path, capsys):
    path, _ = write_cfg(tmp_path)
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "experiment: residual_sweep" in out
    assert "model: trinomial" in out
    for K, est in ((4, 25), (8, 81)):
        assert f"{K:>6} {est:>14}  ok" in out


def test_catalog_lists_ids(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    for token in ("models:", "trinomial", "terminal maps:",
                  "indicator_halfspace", "drivers:", "pure_quadratic",
                  "forward coefficients:", "linear_sigma"):
        assert token in out


# -- run + artifacts --------------------------------------------------------

def test_run_residual_sweep_artifacts(tmp_path, capsys):
    path, raw = write_cfg(tmp_path)
    assert main(["run", str(path)]) == 0
    assert "[PASS]" in capsys.readouterr().out
    csv = (tmp_path / "out.csv").read_text().splitlines()
    assert csv[0] == "K,n_nodes,bracketNN_T,normalized,config_hash"
    assert len(csv) == 3
    rep = json.loads((tmp_path / "out.json").read_text())
    assert rep["config"] == raw
    assert rep["summary"]["strictly_decreasing"] is True
    assert len(rep["config_sha256"]) == 16
    tsv = (tmp_path / "out.curves.tsv").read_text()
    assert tsv.startswith("# bracketNN_T_vs_K")
    timing = json.loads((tmp_path / "out.timing.json").read_text())
    assert timing["wallclock_s"] > 0


def test_run_is_deterministic(tmp_path):
    path, _ = write_cfg(tmp_path, output=str(tmp_path / "r"),
                        experiment="comparison_campaign",
                        model={"kind": "binary", "K": 4}, seeds=5)
    assert main(["run", str(path)]) == 0
    first = {ext: (tmp_path / f"r{ext}").read_bytes()
             for ext in (".csv", ".json", ".curves.tsv")}
    assert main(["run", str(path)]) == 0
    for ext, blob in first.items():
        assert (tmp_path / f"r{ext}").read_bytes() == blob


def test_run_comparison_campaign_all_ok(tmp_path):
    path, _ = write_cfg(tmp_path, experiment="comparison_campaign",
                        model={"kind": "binary", "K": 5}, seeds=10)
    assert main(["run", str(path)]) == 0
    rep = json.loads((tmp_path / "out.json").read_text())
    assert rep["summary"]["all_ok"] is True
    assert rep["summary"]["n_seeds"] == 10


def test_run_mollify_sweep(tmp_path):
    path, _ = write_cfg(tmp_path, experiment="mollify_sweep",
                        model={"kind": "binary", "K": 6},
                        eps_list=[0.1, 0.01], K_list=[])
    assert main(["run", str(path)]) == 0
    rep = json.loads((tmp_path / "out.json").read_text())
    assert rep["summary"]["gap_nonincreasing"] is True
    assert abs(rep["summary"]["loglog_slope"] + 0.5) < 0.05


@pytest.mark.parametrize("n_list,certified", [([4, 8], False),
                                              ([4, 8, 16, 32], True)])
def test_cascade_passes_only_a_certified_stage(tmp_path, n_list, certified):
    """With gamma = 5 on trinomial K = 64, max|q Z| stays above n/gamma up
    to n = 8, so the last stage of [4, 8] is an envelope solve, not the
    quadratic's: it must not pass.  n = 16 certifies, and that stage is the
    direct solve bit for bit."""
    from orthres import bsde
    from orthres.ftree import predictable_bracket
    from orthres.models import ModelConfig, build
    from orthres.mollify import from_catalog
    path, _ = write_cfg(
        tmp_path, experiment="cascade", model={"kind": "trinomial", "K": 64},
        driver={"id": "pure_quadratic", "params": {"gamma": 5}},
        n_list=n_list, K_list=[])
    assert main(["run", str(path)]) == 0
    summary = json.loads((tmp_path / "out.json").read_text())["summary"]
    assert summary["certified"] is certified
    assert summary["verdict"] == ("PASS" if certified else "FAIL")
    built = build(ModelConfig("trinomial", K=64))
    tree, M = built.tree, built.M
    lo, hi = tree.level_slice(64)
    zeta = from_catalog("indicator_halfspace")(M.values[lo:hi])
    direct = bsde.solve_lipschitz(tree, M, predictable_bracket(tree, M),
                                  None, zeta, bsde.pure_quadratic(5.0))
    assert (summary["Y0"] == direct.Y0) is certified


def test_run_dual_check(tmp_path):
    path, _ = write_cfg(
        tmp_path, experiment="dual_check",
        model={"kind": "binary", "K": 4},
        F={"id": "clipped_linear", "params": {"scale": 0.5, "cap": 1.0}},
        driver={"id": "pure_quadratic", "params": {"gamma": 1.0}},
        K_list=[4, 8], p_list=[2])
    assert main(["run", str(path)]) == 0
    rep = json.loads((tmp_path / "out.json").read_text())
    assert all(r["gap"] <= 1e-12 for r in rep["rows"])


# -- config fuzzing -----------------------------------------------------------

FUZZ_BASES = {
    "residual_sweep": {"F": {"id": "indicator_halfspace"}, "K_list": [2, 4]},
    "vanishing_N": {"F": {"id": "sine"},
                    "driver": {"id": "pure_quadratic",
                               "params": {"gamma": 1.0}},
                    "K_list": [2, 4], "eps_list": [0.1]},
    "dual_check": {"F": {"id": "clipped_linear"},
                   "driver": {"id": "quadratic_mixed",
                              "params": {"gamma": 1.0, "b": 0.5}},
                   "K_list": [4], "p_list": [2]},
    "cascade": {"F": {"id": "sine"},
                "driver": {"id": "pure_quadratic", "params": {"gamma": 1.0}},
                "p_list": [1, 2], "n_list": [2, 4]},
    "comparison_campaign": {"seeds": 2},
    "mollify_sweep": {"F": {"id": "square"}, "eps_list": [0.1],
                      "tolerances": {"scan_spacing": 0.01}},
    "regularity_scan": {"F": {"id": "sine"},
                        "driver": {"id": "pure_quadratic",
                                   "params": {"gamma": 1.0}},
                        "coeffs": {"id": "identity", "x0": 0.0},
                        "tolerances": {"t_idx": 1, "m_count": 3}},
}

FUZZ_PATHS = [
    ("experiment",), ("model",), ("model", "kind"), ("model", "K"),
    ("model", "T"), ("model", "d"), ("model", "params"),
    ("model", "params", "p"), ("model", "params", "h"),
    ("model", "params", "lam"), ("model", "params", "jump"),
    ("model", "params", "lam_down"), ("model", "params", "recombine"),
    ("F",), ("F", "id"), ("F", "params"), ("F", "params", "threshold"),
    ("F", "params", "coeffs"), ("driver",), ("driver", "id"),
    ("driver", "params"), ("driver", "params", "gamma"),
    ("driver", "params", "b"), ("driver", "params", "eta"),
    ("driver", "params", "c"), ("driver", "params", "coef"), ("coeffs",),
    ("coeffs", "id"), ("coeffs", "x0"), ("coeffs", "params"), ("K_list",),
    ("eps_list",), ("p_list",), ("n_list",), ("seed",), ("seeds",),
    ("tolerances",), ("tolerances", "t_idx"), ("tolerances", "m_lo"),
    ("tolerances", "m_hi"), ("tolerances", "m_count"),
    ("tolerances", "tol_cmp"), ("tolerances", "scan_lo"),
    ("tolerances", "scan_hi"), ("tolerances", "scan_spacing"),
    ("bogus",), ("model", "bogus"),
]

_scalars = (st.none() | st.booleans() | st.integers(-3, 40)
            | st.sampled_from([2 ** 31, -2 ** 63, 10 ** 30])
            | st.floats(allow_nan=True, allow_infinity=True)
            | st.text(max_size=4)
            | st.sampled_from(["trinomial", "binary", "compensated_jump",
                               "time_changed", "product_noise", "sine",
                               "square", "custom_polynomial", "zero",
                               "constant", "linear_y", "pure_quadratic",
                               "quadratic_mixed", "identity", "affine",
                               "cascade", "dual_check"]))
_values = _scalars | st.lists(_scalars, max_size=3) | st.dictionaries(
    st.text(max_size=3), _scalars, max_size=2)
# the output prefix is never fuzzed into a string, so reports stay in the
# test's temporary directory
_mutation = st.tuples(st.sampled_from(FUZZ_PATHS),
                      st.just(None) | st.tuples(_values))


def _mutate(raw, path, value):
    node = raw
    for key in path[:-1]:
        node = node.get(key) if isinstance(node, dict) else None
        if node is None:
            return
    if not isinstance(node, dict):
        return
    if value is None:
        node.pop(path[-1], None)
    else:
        node[path[-1]] = value[0]


def _long_running(raw):
    """A valid but large campaign or scan: legitimate work, not an input
    error, so it is left out of the fuzz."""
    def big(v, hi=math.inf):
        return (isinstance(v, (int, float)) and not isinstance(v, bool)
                and 40 < v <= hi)
    tol = raw.get("tolerances")
    return big(raw.get("seeds")) or (isinstance(tol, dict) and big(
        tol.get("m_count"), MAX_SCAN_POINTS))


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(FUZZ_BASES)), st.lists(_mutation, max_size=4))
# inputs that once escaped with a traceback
@example("mollify_sweep", [(("tolerances", "scan_lo"), (2,))])
@example("mollify_sweep", [(("tolerances", "scan_spacing"), (-1.0,))])
@example("comparison_campaign", [(("seed",), (-1,))])
@example("cascade", [(("F", "id"), ([],))])
@example("cascade", [(("driver", "id"), ({},))])
@example("cascade", [(("F", "params"), ({"omega": "x"},))])
@example("dual_check", [(("p_list",), ([0.5],))])
@example("cascade", [(("n_list",), ([0.7],)), (("p_list",), ([0.5],))])
@example("vanishing_N", [(("eps_list",), ([2],))])
@example("residual_sweep", [(("K_list",), ([float("nan")],))])
@example("regularity_scan", [(("coeffs", "params"), ({"n": 2},))])
@example("regularity_scan", [(("tolerances", "m_count"), (10 ** 30,))])
# non-finite driver parameters that once ended in exit 2 or a numpy warning
@example("vanishing_N", [(("driver",), ({"id": "linear_y",
                                         "params": {"coef": math.nan}},))])
@example("cascade", [(("driver", "params", "gamma"), (math.inf,))])
@example("vanishing_N", [(("driver",), ({"id": "constant",
                                         "params": {"c": math.inf}},))])
def test_fuzzed_config_ends_in_a_documented_exit_code(exp, mutations):
    raw = {"experiment": exp, "model": {"kind": "trinomial", "K": 4},
           **copy.deepcopy(FUZZ_BASES[exp])}
    for path, value in mutations:
        _mutate(raw, path, value)
    assume(not _long_running(raw))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"ORTHRES_NODE_CAP": "400"}):
        if "output" not in raw or isinstance(raw.get("output"), str):
            raw["output"] = os.path.join(tmp, "out")
        try:
            parse_config(raw)
        except ConfigError:
            pass
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", path])
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code:
        assert len(err.getvalue().strip().splitlines()) == 1


def test_dual_check_builds_and_clocks_once_per_K(tmp_path, monkeypatch):
    from orthres import bsde, cli
    from orthres.ftree import predictable_bracket
    from orthres.models import ModelConfig, build
    from orthres.mollify import from_catalog
    path, _ = write_cfg(
        tmp_path, experiment="dual_check", model={"kind": "binary"},
        F={"id": "clipped_linear", "params": {"scale": 0.5}},
        driver={"id": "quadratic_mixed",
                "params": {"gamma": 1.0, "b": 0.5, "eta": 0.1}},
        K_list=[4, 8], p_list=[2, 4])
    # the point the runner used to compute: build, clock and solve per (p, K)
    F = from_catalog("clipped_linear", scale=0.5)
    drv = bsde.quadratic_mixed(1.0, 0.5, 0.1)
    want = []
    for p in (2, 4):
        for K in (4, 8):
            built = build(ModelConfig("binary", K=K))
            tree, M = built.tree, built.M
            clock = predictable_bracket(tree, M)
            lo, hi = tree.level_slice(K)
            zeta = F(M.values[lo:hi])
            sol = bsde.solve_lipschitz(
                tree, M, clock, None, zeta,
                bsde.truncated_driver(float(p), drv.growth, drv.eta))
            dv = bsde.dual_value(tree, M, clock, zeta, drv.growth, float(p),
                                 eta=drv.eta)
            dual = float(np.ravel(dv.value.values)[0])
            want.append({"p": p, "K": K, "primal_Y0": sol.Y0,
                         "dual_Y0": dual, "gap": abs(sol.Y0 - dual),
                         "floored_fraction": dv.floored_fraction})
    calls = {"build": 0, "clock": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped
    monkeypatch.setattr(cli, "build", counting("build", build))
    monkeypatch.setattr(cli, "predictable_bracket",
                        counting("clock", predictable_bracket))
    assert main(["run", str(path)]) == 0
    assert calls == {"build": 2, "clock": 2}
    rep = json.loads((tmp_path / "out.json").read_text())
    assert rep["rows"] == want


# -- floating-point overflow --------------------------------------------------

@pytest.mark.parametrize("exp,K,driver,code", [
    ("cascade", 16, {"id": "quadratic_mixed",
                     "params": {"gamma": 1.0, "b": 0.5, "eta": 1e308}}, 2),
    ("cascade", 4, {"id": "quadratic_mixed",
                    "params": {"gamma": 1.0, "b": 0.5, "eta": 1e308}}, 2),
    ("cascade", 8, {"id": "pure_quadratic", "params": {"gamma": 1e308}}, 0),
    ("vanishing_N", 4, {"id": "constant", "params": {"c": 1e308}}, 2),
    ("dual_check", 4, {"id": "pure_quadratic", "params": {"gamma": 1e308}},
     2)],
    ids=["quadratic_mixed_eta", "quadratic_mixed_eta_K4",
         "pure_quadratic_gamma", "constant_c",
         "dual_pure_quadratic_gamma"])
def test_huge_driver_parameters_print_no_numpy_warnings(tmp_path, exp, K,
                                                        driver, code):
    """Overflow in a huge but finite parameter prints no RuntimeWarning: a
    run exits 0 with nothing on stderr, or 2 with its one-line message."""
    import orthres
    raw = {"experiment": exp, "model": {"kind": "trinomial", "K": K},
           **copy.deepcopy(FUZZ_BASES[exp]), "driver": driver,
           "output": str(tmp_path / "out")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    src = os.path.dirname(os.path.dirname(orthres.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "orthres.cli", "run", str(path)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "default"})
    assert proc.returncode == code, proc.stderr
    assert len(proc.stderr.splitlines()) == (1 if code else 0), proc.stderr


# -- rate oracle ----------------------------------------------------------------

# Slopes of log E[[N]_T] against log K over K = 8..64, as measured: the
# indicator -0.449, the box -0.441, sine -1.031, square -1.000, the clipped
# line -1.076 and the two-sided jump control +0.132.
RATE_BY_CLASS = {"bounded_borelian": -0.5, "smooth": -1.0, "lipschitz": -1.0}


@pytest.mark.parametrize("kind,fid", [
    ("trinomial", "indicator_halfspace"), ("trinomial", "digital_box"),
    ("trinomial", "sine"), ("trinomial", "square"),
    ("trinomial", "clipped_linear"),
    ("compensated_jump", "indicator_halfspace")])
def test_residual_sweep_slope_follows_the_declared_class(kind, fid):
    from orthres.cli import RUNNERS
    from orthres.mollify import from_catalog
    cfg = parse_config({"experiment": "residual_sweep",
                        "model": {"kind": kind}, "output": "unused",
                        "F": {"id": fid}, "K_list": [8, 16, 32, 64]})
    rows, _, summary = RUNNERS["residual_sweep"](cfg)
    slope = summary["loglog_slope"]
    K = [r["K"] for r in rows]
    res = [r["bracketNN_T"] for r in rows]
    assert slope == pytest.approx(np.polyfit(np.log(K), np.log(res), 1)[0],
                                  rel=1e-12)
    if kind == "compensated_jump":
        # the negative control does not vanish
        assert abs(slope) <= 0.2
    else:
        rate = RATE_BY_CLASS[from_catalog(fid).declared_class]
        assert abs(slope - rate) <= 0.1


def test_vanishing_N_reports_the_raw_slope():
    from orthres.cli import RUNNERS
    cfg = parse_config({"experiment": "vanishing_N",
                        "model": {"kind": "trinomial"}, "output": "unused",
                        "F": {"id": "indicator_halfspace"},
                        "driver": {"id": "pure_quadratic",
                                   "params": {"gamma": 1.0}},
                        "K_list": [8, 16, 32, 64], "eps_list": [0.05]})
    rows, _, summary = RUNNERS["vanishing_N"](cfg)
    raw = [(r["K"], r["bracketNN_T"]) for r in rows if r["eps"] == "raw"]
    K, res = zip(*raw)
    assert summary["loglog_slope_raw"] == pytest.approx(
        np.polyfit(np.log(K), np.log(res), 1)[0], rel=1e-12)
    assert abs(summary["loglog_slope_raw"] + 0.5) <= 0.1
    assert summary["verdict"] == "PASS"


def test_slope_is_null_where_the_points_fix_none():
    from orthres.cli import _loglog_slope
    assert _loglog_slope([8], [0.1]) is None
    assert _loglog_slope([8, 8], [0.1, 0.2]) is None
    assert _loglog_slope([8, 16], [0.1, 0.0]) is None
    assert _loglog_slope([8, 16], [0.1, math.inf]) is None
    assert _loglog_slope([8, 16], [0.2, 0.1]) == pytest.approx(-1.0)
