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

from orthres.cli import (MAX_SCAN_POINTS, MAX_SEEDS, estimate_nodes,
                         load_config, main, parse_config)
from orthres.errors import ConfigError


def write_cfg(tmp_path, name="cfg.json", **overrides):
    """The config file of the default residual sweep with ``overrides``.
    The string "1e400" is written as that number, which JSON reads as
    inf."""
    raw = {
        "experiment": "residual_sweep",
        "model": {"kind": "trinomial", "K": 4},
        "output": str(tmp_path / "out"),
        "F": {"id": "indicator_halfspace"},
        "K_list": [4, 8],
    }
    raw.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(raw).replace('"1e400"', "1e400"))
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


@pytest.mark.parametrize("blob", [b"", b"a", b"x" * 63, b"x" * 64,
                                  bytes(range(256)) * 5])
def test_config_digest_equals_hashlib_sha256(blob):
    """The CLI's SHA-256 is hashlib's byte for byte, so every report's
    config hash is unchanged."""
    import hashlib

    from orthres.cli import sha256
    assert sha256(blob).hexdigest() == hashlib.sha256(blob).hexdigest()


def test_cli_run_does_not_load_openssl(tmp_path):
    """Importing the CLI and running a vanishing_N config loads no OpenSSL
    binding beyond what numpy's own import loaded. numpy 1.x imports
    numpy.random, and through it hashlib, on import; there the test has
    nothing to check and skips."""
    import orthres
    path, _ = write_cfg(tmp_path, experiment="vanishing_N",
                        driver={"id": "zero"}, K_list=[4, 8],
                        eps_list=[0.1])
    src = os.path.dirname(os.path.dirname(orthres.__file__))
    code = ("import sys, numpy; pre = '_hashlib' in sys.modules; "
            "from orthres.cli import main; "
            f"rc = main(['run', {str(path)!r}]); "
            "print(rc, pre, '_hashlib' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    rc, pre, post = proc.stdout.splitlines()[-1].split()
    if pre == "True":
        pytest.skip("importing numpy already loaded _hashlib")
    assert (rc, post) == ("0", "False")


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
CAMPAIGN = {"experiment": "comparison_campaign",
            "model": {"kind": "binary", "K": 4}, "seeds": 2}

# tolerances that verify once passed, and that run then refused or ran with a
# default or a meaningless value
TOLERANCE_ERRORS = [
    pytest.param({**CAMPAIGN, "tolerances": {"tol_cmp": "x"}},
                 id="tol_cmp_not_number"),
    pytest.param({**CAMPAIGN, "tolerances": {"tol_cmp": -1}},
                 id="tol_cmp_negative"),
    pytest.param({**CAMPAIGN, "tolerances": {"tol_cmp": math.nan}},
                 id="tol_cmp_nan"),
    pytest.param({**CAMPAIGN, "tolerances": {"tol_cmp": math.inf}},
                 id="tol_cmp_infinite"),
    pytest.param({**SCAN, "tolerances": {"m_cout": 5}},
                 id="tolerances_key_misspelt"),
    pytest.param({**CAMPAIGN, "tolerances": {"t_idx": 1}},
                 id="tolerances_key_of_another_experiment"),
    pytest.param({"tolerances": {"tol_cmp": 1e-9}},
                 id="tolerances_key_unread"),
]


@pytest.mark.parametrize("overrides", TOLERANCE_ERRORS + [
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
    pytest.param({"model": {"kind": "trinomial", "d": 2}}, id="d_two"),
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
    pytest.param({"model": {"kind": "product_noise", "params": {"h": 0}},
                  "K_list": [2, 4]}, id="product_noise_h_zero"),
    pytest.param({"model": {"kind": "trinomial", "T": math.nan}},
                 id="T_nan"),
    pytest.param({"model": {"kind": "trinomial", "params": {"h": -1}}},
                 id="trinomial_h_negative"),
    pytest.param({"model": {"kind": "time_changed", "params": {"h_cap": 0}}},
                 id="time_changed_h_cap_zero"),
    # non-finite forward coefficients, which once built and clocked the
    # model and then exited 2
    *(pytest.param({**SCAN, "coeffs": {"id": "identity", "x0": x0}},
                   id=f"x0_{name}")
      for name, x0 in (("nan", math.nan), ("nan_string", "nan"),
                       ("1e400", "1e400"))),
    *(pytest.param({**SCAN, "coeffs": {"id": cid, "params": {p: v}}},
                   id=f"{cid}_{p}_{name}")
      for cid, p in (("affine", "a"), ("affine", "c"), ("linear_sigma", "a"),
                     ("constant_drift", "c"))
      for name, v in (("nan", math.nan), ("inf", math.inf),
                      ("1e400", "1e400"))),
    # a polynomial's coefficients must be a non-empty list of finite
    # numbers; each of these once failed in np.polyval and exited 1
    *(pytest.param({"F": {"id": "custom_polynomial",
                          "params": {"coeffs": v}}}, id=f"coeffs_{name}")
      for name, v in (("false", False), ("one", 1), ("null", None),
                      ("nested", [[1]]), ("empty", []), ("nan", [math.nan]))),
    # a coefficient dimension reads as an integer, 1.0 as 1
    *(pytest.param({**SCAN, "coeffs": {"id": cid, "params": {"n": v}}},
                   id=f"{cid}_n_{name}")
      for cid in ("identity", "constant_drift")
      for name, v in (("fractional", 1.5), ("string", "1"), ("bool", True),
                      ("two", 2))),
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


@pytest.mark.parametrize("overrides", TOLERANCE_ERRORS)
def test_verify_exits_3_on_bad_tolerances(tmp_path, capsys, overrides):
    path, _ = write_cfg(tmp_path, **overrides)
    assert main(["verify", str(path)]) == 3
    assert capsys.readouterr().err.startswith("config error:")


def test_unknown_tolerances_key_is_named(tmp_path, capsys):
    path, _ = write_cfg(tmp_path, **SCAN, tolerances={"m_cout": 5})
    assert main(["run", str(path)]) == 3
    assert "'m_cout'" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_tol_cmp_reaches_the_comparison(tmp_path, monkeypatch):
    from orthres import bsde
    real, seen = bsde.compare, []

    def compare(*args, **kwargs):
        seen.append(kwargs["tol_cmp"])
        return real(*args, **kwargs)
    monkeypatch.setattr(bsde, "compare", compare)
    path, _ = write_cfg(tmp_path, **CAMPAIGN, tolerances={"tol_cmp": 0.25})
    assert main(["run", str(path)]) == 0
    assert seen == [0.25]


def test_parse_builds_each_catalog_input_once(tmp_path, monkeypatch):
    """The run reads the objects parse_config built: one F and one driver
    construction per run."""
    from orthres import bsde
    from orthres.mollify import CATALOG
    calls = []

    def counting(name, fn):
        def wrapped(**params):
            calls.append(name)
            return fn(**params)
        return wrapped
    monkeypatch.setitem(CATALOG, "sine", counting("F", CATALOG["sine"]))
    monkeypatch.setitem(bsde.DRIVER_CATALOG, "pure_quadratic",
                        counting("driver",
                                 bsde.DRIVER_CATALOG["pure_quadratic"]))
    path, _ = write_cfg(tmp_path, **SCAN, F={"id": "sine"},
                        tolerances={"t_idx": 1, "m_count": 3})
    assert main(["run", str(path)]) == 0
    assert sorted(calls) == ["F", "driver"]


def test_integral_floats_are_valid_integer_fields():
    cfg = parse_config({
        "experiment": "regularity_scan", "output": "x",
        "model": {"kind": "trinomial", "K": 8.0, "d": 1.0},
        "F": {"id": "sine"}, "K_list": [4.0],
        "driver": {"id": "pure_quadratic", "params": {"gamma": 1.0}},
        "seed": 3.0, "seeds": 2.0,
        "tolerances": {"t_idx": 2.0, "m_count": 5.0}})
    assert (cfg.model.K, cfg.seed, cfg.seeds) == (8, 3, 2)


def test_integral_float_coefficient_dimension_runs_as_an_integer(tmp_path):
    """``n: 1.0`` gives the report of ``n: 1``, apart from the config it
    echoes and its hash."""
    reports = []
    for n in (1, 1.0):
        out = tmp_path / f"n{n!r}"
        path, _ = write_cfg(
            tmp_path, output=str(out), experiment="regularity_scan",
            model={"kind": "trinomial", "K": 8}, F={"id": "sine"},
            driver={"id": "pure_quadratic", "params": {"gamma": 1.0}},
            coeffs={"id": "identity", "params": {"n": n}}, K_list=[],
            tolerances={"t_idx": 3, "m_count": 5})
        assert main(["run", str(path)]) == 0
        rep = json.loads((tmp_path / f"n{n!r}.json").read_text())
        csv = (tmp_path / f"n{n!r}.csv").read_text().splitlines()
        reports.append((rep["rows"], rep["summary"],
                        [line.rsplit(",", 1)[0] for line in csv],
                        (tmp_path / f"n{n!r}.curves.tsv").read_bytes()))
    assert reports[0] == reports[1]


def test_sweep_checks_the_models_it_builds():
    """A sweep builds each K of its K_list, not the model block's K (8 when
    omitted): lam = 5 is valid at K = 16 and 32, though not at K = 8."""
    raw = {"experiment": "residual_sweep", "output": "x",
           "model": {"kind": "compensated_jump", "params": {"lam": 5}},
           "F": {"id": "indicator_halfspace"}, "K_list": [16, 32]}
    assert parse_config(raw).model.K == 16
    with pytest.raises(ConfigError, match=r"at K = 8"):
        parse_config({**raw, "K_list": [16, 8]})


@pytest.mark.parametrize("param", ["lam", "lam_down"])
def test_jump_intensity_whose_step_probability_underflows_exits_3(
        tmp_path, capsys, param):
    """A positive intensity of 5e-324 has a step probability of 0 at
    dt = 1/8: it is refused as a config error naming the parameter, not
    built into a lattice smaller than its node estimate."""
    path, _ = write_cfg(tmp_path, model={"kind": "compensated_jump", "K": 8,
                                         "params": {param: 5e-324}},
                        K_list=[8])
    assert main(["run", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {param} = 5e-324 is positive")


def test_exit_2_when_over_node_cap(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ORTHRES_NODE_CAP", "10")
    path, _ = write_cfg(tmp_path)
    assert main(["run", str(path)]) == 2
    assert "invariant violation" in capsys.readouterr().err


def test_exit_2_when_the_conditional_variance_overflows(tmp_path, capsys):
    """A step h = 1e160 squares to inf: the run is refused where Sigma is
    formed, not reported as the unprojected Var(F)."""
    path, _ = write_cfg(tmp_path, model={"kind": "binary",
                                         "params": {"h": 1e160}},
                        K_list=[4, 6])
    assert main(["run", str(path)]) == 2
    assert "E[dM^2 | node] is inf at node 0" in capsys.readouterr().err


def test_verify_warns_but_exits_zero_over_cap(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ORTHRES_NODE_CAP", "10")
    path, _ = write_cfg(tmp_path)
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "OVER CAP" in out and "warning" in out


def test_preflight_sizes_the_model_a_cascade_builds(tmp_path, monkeypatch,
                                                    capsys):
    """A cascade builds the model block's K, not its K_list: K = 64 is over
    a cap of 100 nodes though K = 4 is not, and run stops before building."""
    from orthres import cli, models
    monkeypatch.setenv("ORTHRES_NODE_CAP", "100")
    path, _ = write_cfg(
        tmp_path, experiment="cascade", model={"kind": "trinomial", "K": 64},
        K_list=[4], driver={"id": "pure_quadratic", "params": {"gamma": 1.0}})
    assert main(["verify", str(path)]) == 0
    assert f"{64:>6} {65 ** 2:>14}  OVER CAP" in capsys.readouterr().out
    # the runners build through cli.build or, via bsde.setup_problem,
    # models.build
    for owner in (cli, models):
        monkeypatch.setattr(owner, "build",
                            lambda config: pytest.fail("built past the cap"))
    assert main(["run", str(path)]) == 2
    assert "tree would need 4225 nodes" in capsys.readouterr().err


@pytest.mark.parametrize("model", [
    {"kind": "binary", "params": {"recombine": False}, "K": 14300},
    {"kind": "product_noise", "K": 65536}], ids=["binary_full", "product"])
def test_huge_node_counts_exit_2_under_run_and_0_under_verify(
        tmp_path, monkeypatch, capsys, model):
    """A node count past 4,300 digits, which Python refuses to print, is
    printed as "more than" the cap: run exits 2 before it builds, verify
    exits 0 with the row flagged."""
    monkeypatch.setenv("ORTHRES_NODE_CAP", "5000000")
    path, _ = write_cfg(tmp_path, model=model, K_list=[model["K"]])
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "tree would need more than 5000000 nodes, cap is 5000000" in err
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert f"{model['K']:>6} more than 5000000  OVER CAP" in out


def test_huge_counts_are_decided_before_they_are_formed(monkeypatch):
    """Over the cap and 2**63 a count is math.inf, without forming the
    power; at or below 2**63 it stays exact, over the cap too."""
    assert estimate_nodes("binary", 62, {"recombine": False}) == 2 ** 63 - 1
    assert estimate_nodes("binary", 63, {"recombine": False}) == 2 ** 64 - 1
    assert estimate_nodes("binary", 64, {"recombine": False}) == math.inf
    for kind in ("binary", "trinomial", "compensated_jump", "time_changed",
                 "product_noise"):
        assert estimate_nodes(kind, 10 ** 4000) == math.inf
    monkeypatch.setenv("ORTHRES_NODE_CAP", "100")
    assert estimate_nodes("trinomial", 2000) == 2001 ** 2
    monkeypatch.setenv("ORTHRES_NODE_CAP", str(10 ** 4000))
    assert estimate_nodes("binary", 10 ** 1000) == (
        (10 ** 1000 + 1) * (10 ** 1000 + 2) // 2)


@pytest.mark.parametrize("kind,params", [
    ("binary", {}), ("binary", {"recombine": False}), ("trinomial", {}),
    ("compensated_jump", {}), ("time_changed", {}), ("product_noise", {})])
def test_K_1e160_exits_promptly(tmp_path, kind, params):
    """K = 1e160 once formed 2**(K + 1) and never returned: run exits 2
    and verify 0, each in a fresh process within the timeout."""
    import orthres
    path, _ = write_cfg(tmp_path, model={"kind": kind, "K": 1e160,
                                         "params": params}, K_list=[1e160])
    src = os.path.dirname(os.path.dirname(orthres.__file__))
    for cmd, code in (("run", 2), ("verify", 0)):
        proc = subprocess.run(
            [sys.executable, "-m", "orthres.cli", cmd, str(path)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == code, proc.stderr
        assert "more than" in proc.stderr + proc.stdout


@pytest.mark.parametrize("seeds", [MAX_SEEDS + 1, 1e160])
def test_unbounded_seeds_exit_3(tmp_path, capsys, seeds):
    """A campaign of more than MAX_SEEDS seeds is refused before it starts,
    where 1e160 seeds once ran an unbounded loop."""
    path, _ = write_cfg(tmp_path, **{**CAMPAIGN, "seeds": seeds})
    for cmd in ("verify", "run"):
        assert main([cmd, str(path)]) == 3
        assert "seeds <= 1000000" in capsys.readouterr().err
    path, _ = write_cfg(tmp_path, **{**CAMPAIGN, "seeds": MAX_SEEDS})
    assert main(["verify", str(path)]) == 0


@pytest.mark.parametrize("kind", ["binary", "compensated_jump"])
@pytest.mark.parametrize("experiment", ["comparison_campaign",
                                        "residual_sweep"])
def test_K_past_the_largest_float_exits_3(tmp_path, capsys, kind,
                                          experiment):
    """A K of 401 digits, in the model block of a campaign or in a sweep's
    K_list, once overflowed converting to a float (exit 1): it is refused
    as a config error."""
    raw = {"experiment": experiment, "model": {"kind": kind, "K": "big"},
           "output": str(tmp_path / "out"), "F": {"id": "sine"},
           "K_list": ["big"]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw).replace('"big"', "1" + "0" * 400))
    for cmd in ("run", "verify"):
        assert main([cmd, str(path)]) == 3
        assert capsys.readouterr().err.startswith("config error:")


def test_integer_past_the_digit_limit_exits_3(tmp_path, capsys):
    """An integer literal of more than 4,300 digits is refused by the JSON
    reader with a plain ValueError: it is a malformed config."""
    path = tmp_path / "cfg.json"
    path.write_text('{"experiment": "residual_sweep", "model": {"kind": '
                    '"binary", "K": ' + "9" * 5000 + "}}")
    assert main(["verify", str(path)]) == 3
    assert capsys.readouterr().err.startswith("config error: malformed JSON")


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
    # the summary's BMO norm is the final stage's, the direct solve's there
    assert (summary["bmo_norm"] == direct.bmo_norm()) is certified


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


@pytest.mark.parametrize("exp", ["dual_check", "cascade"])
def test_verify_and_run_refuse_a_non_quadratic_driver_alike(tmp_path, capsys,
                                                            exp):
    path, _ = write_cfg(tmp_path, experiment=exp,
                        model={"kind": "binary", "K": 4},
                        driver={"id": "zero"}, K_list=[4], p_list=[2])
    errs = []
    for cmd in ("verify", "run"):
        assert main([cmd, str(path)]) == 3
        errs.append(capsys.readouterr().err)
    msg = f"config error: {exp} needs a quadratic-class driver\n"
    assert errs == [msg, msg]
    assert not (tmp_path / "out.csv").exists()


def test_run_regularity_scan_reports_the_gradient_gap(tmp_path):
    from orthres import bsde, forward
    from orthres.models import ModelConfig, build
    from orthres.mollify import sine
    path, _ = write_cfg(
        tmp_path, experiment="regularity_scan",
        model={"kind": "trinomial", "K": 16}, F={"id": "sine"},
        driver={"id": "pure_quadratic", "params": {"gamma": 1.0}},
        coeffs={"id": "identity", "x0": 0.0}, K_list=[],
        tolerances={"t_idx": 6, "m_count": 9})
    assert main(["run", str(path)]) == 0
    rep = json.loads((tmp_path / "out.json").read_text())
    built = build(ModelConfig("trinomial", K=16))
    scan = bsde.regularity_scan(built.tree, built.M, 6, np.linspace(-1, 1, 9),
                                sine(), bsde.pure_quadratic(1.0),
                                coeffs=forward.identity(), x_value=[0.0])
    assert [r["u"] for r in rep["rows"]] == scan.u.tolist()
    assert rep["summary"]["max_grad_gap"] == scan.max_grad_gap
    assert 0 < scan.max_grad_gap < 0.05


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

# a valid block for every model kind (and both lattice shapes), terminal
# map, driver and coefficient set, which a mutation may swap in
FUZZ_BLOCKS = {
    ("model",): [
        {"kind": "binary", "K": 4},
        {"kind": "binary", "K": 3, "params": {"recombine": False}},
        {"kind": "trinomial", "K": 4, "params": {"p": 0.2}},
        {"kind": "trinomial", "K": 3, "params": {"recombine": False}},
        {"kind": "compensated_jump", "K": 6, "params": {"lam": 0.5}},
        {"kind": "compensated_jump", "K": 6,
         "params": {"lam": 1.0, "lam_down": 0.0}},
        {"kind": "time_changed", "K": 4, "params": {"kappa": 2.0}},
        {"kind": "product_noise", "K": 3}],
    ("F",): [
        {"id": "indicator_halfspace", "params": {"threshold": 0.1}},
        {"id": "square"}, {"id": "sine", "params": {"omega": 2.0}},
        {"id": "digital_box"},
        {"id": "custom_polynomial", "params": {"coeffs": [0.5, -1.0, 0.0]}},
        {"id": "clipped_linear", "params": {"scale": 0.5}}],
    ("driver",): [
        {"id": "zero"}, {"id": "constant", "params": {"c": 0.3}},
        {"id": "linear_y", "params": {"coef": 0.5}},
        {"id": "pure_quadratic", "params": {"gamma": 1.0}},
        {"id": "quadratic_mixed",
         "params": {"gamma": 1.0, "b": 0.5, "eta": 0.1}}],
    ("coeffs",): [
        {"id": "identity", "x0": 0.0},
        {"id": "constant_drift", "params": {"c": 0.5}},
        {"id": "linear_sigma", "params": {"a": 0.5}, "x0": 1.0},
        {"id": "affine", "params": {"a": 0.5, "c": 0.1}, "x0": 1.0}],
}

FUZZ_PATHS = [
    ("experiment",), ("model",), ("model", "kind"), ("model", "K"),
    ("model", "T"), ("model", "d"), ("model", "params"),
    ("model", "params", "p"), ("model", "params", "h"),
    ("model", "params", "lam"), ("model", "params", "jump"),
    ("model", "params", "lam_down"), ("model", "params", "jump_down"),
    ("model", "params", "kappa"), ("model", "params", "h_cap"),
    ("model", "params", "recombine"),
    ("F",), ("F", "id"), ("F", "params"), ("F", "params", "threshold"),
    ("F", "params", "strict"), ("F", "params", "omega"),
    ("F", "params", "amp"), ("F", "params", "a"), ("F", "params", "b"),
    ("F", "params", "coeffs"), ("F", "params", "scale"),
    ("F", "params", "cap"), ("driver",), ("driver", "id"),
    ("driver", "params"), ("driver", "params", "gamma"),
    ("driver", "params", "b"), ("driver", "params", "eta"),
    ("driver", "params", "c"), ("driver", "params", "coef"), ("coeffs",),
    ("coeffs", "id"), ("coeffs", "x0"), ("coeffs", "params"),
    ("coeffs", "params", "n"), ("coeffs", "params", "a"),
    ("coeffs", "params", "c"), ("K_list",),
    ("eps_list",), ("p_list",), ("n_list",), ("seed",), ("seeds",),
    ("tolerances",), ("tolerances", "t_idx"), ("tolerances", "m_lo"),
    ("tolerances", "m_hi"), ("tolerances", "m_count"),
    ("tolerances", "tol_cmp"), ("tolerances", "scan_lo"),
    ("tolerances", "scan_hi"), ("tolerances", "scan_spacing"),
    ("bogus",), ("model", "bogus"),
]

_scalars = (st.none() | st.booleans() | st.integers(-3, 40)
            | st.sampled_from([2 ** 31, -2 ** 63, 10 ** 30])
            # the odd floats behind earlier exit-code fixes: non-finite,
            # subnormal, huge and past any node count
            | st.sampled_from([math.nan, math.inf, -math.inf, 5e-324,
                               1e308, 1e160, -1e160])
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
# a key deleted, set to an odd value, or to a valid block; the output
# prefix is never fuzzed into a string, so reports stay in the test's
# temporary directory
_mutation = st.sampled_from(FUZZ_PATHS).flatmap(lambda path: st.tuples(
    st.just(path), st.just(None) | st.tuples(
        st.sampled_from(FUZZ_BLOCKS[path]) | _values
        if path in FUZZ_BLOCKS else _values)))


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
        node[path[-1]] = copy.deepcopy(value[0])


def _long_running(raw):
    """A valid but large campaign or scan: legitimate work, not an input
    error, so it is left out of the fuzz.  Counts past the caps stay in, as
    they must exit 3."""
    def big(v, cap):
        return (isinstance(v, (int, float)) and not isinstance(v, bool)
                and 40 < v <= cap)
    tol = raw.get("tolerances")
    return big(raw.get("seeds"), MAX_SEEDS) or (isinstance(tol, dict) and big(
        tol.get("m_count"), MAX_SCAN_POINTS))


def test_fuzz_blocks_cover_every_catalog_entry():
    """The fuzzer can swap in every model kind, both lattice shapes of the
    fixed-move kinds, and every terminal map, driver and coefficient set."""
    from orthres.bsde import DRIVER_CATALOG
    from orthres.forward import CATALOG as COEFF_CATALOG
    from orthres.models import KINDS
    from orthres.mollify import CATALOG as TERMINAL_CATALOG
    models = FUZZ_BLOCKS[("model",)]
    assert {b["kind"] for b in models} == set(KINDS)
    assert {b["kind"] for b in models
            if b.get("params", {}).get("recombine") is False} == {
        "binary", "trinomial"}
    for path, catalog in ((("F",), TERMINAL_CATALOG),
                          (("driver",), DRIVER_CATALOG),
                          (("coeffs",), COEFF_CATALOG)):
        assert {b["id"] for b in FUZZ_BLOCKS[path]} == set(catalog)


# tier-1 draws 150 examples; a profile asking for more (CI's "fuzz") gets
# them
@settings(max_examples=max(150, settings.default.max_examples),
          deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(FUZZ_BASES)), st.lists(_mutation, max_size=5))
# inputs that once escaped with a traceback
@example("mollify_sweep", [(("tolerances", "scan_lo"), (2,))])
@example("mollify_sweep", [(("tolerances", "scan_spacing"), (-1.0,))])
@example("comparison_campaign", [(("seed",), (-1,))])
@example("cascade", [(("experiment",), ([],))])
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
    """A small valid config of each experiment, with keys deleted or set to
    odd values or to other valid blocks, runs in-process under a small node
    cap to exit 0, 2 or 3, with one line on stderr and no traceback."""
    raw = {"experiment": exp, "model": {"kind": "trinomial", "K": 4},
           **copy.deepcopy(FUZZ_BASES[exp])}
    for path, value in mutations:
        _mutate(raw, path, value)
    assume(not _long_running(raw))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"ORTHRES_NODE_CAP": "30000"}):
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
    from orthres import bsde, models
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
    # dual_check sets each K up with bsde.setup_problem
    monkeypatch.setattr(models, "build", counting("build", build))
    monkeypatch.setattr(bsde, "predictable_bracket",
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


def test_vanishing_N_with_coefficients_and_mollified_columns(tmp_path):
    """A vanishing_N run with a forward X evaluates the mollified maps on
    (X, M) or M like the raw one: exit 0 and a row per (K, eps)."""
    path, _ = write_cfg(tmp_path, experiment="vanishing_N",
                        model={"kind": "binary"},
                        driver={"id": "zero"},
                        coeffs={"id": "identity", "x0": 0.0},
                        K_list=[4, 8], eps_list=[0.1])
    assert main(["run", str(path)]) == 0
    rows = json.loads((tmp_path / "out.json").read_text())["rows"]
    assert [(r["K"], r["eps"]) for r in rows] == [
        (4, "raw"), (4, 0.1), (8, "raw"), (8, 0.1)]
