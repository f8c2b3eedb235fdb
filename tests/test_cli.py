import json

import pytest

from orthres.cli import estimate_nodes, load_config, main, parse_config
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
