import json
import re
import subprocess
import sys

import numpy as np
import pytest

from arbsurf import bridge, chainstats, cpwl, projection
from arbsurf.cli import main as cli_main
from arbsurf.pipeline import (DEFAULT_CONFIG, STAGE_DEPS, STAGES,
                              PipelineContext, RunConfig, run_pipeline,
                              strip_meta, summary_to_json)


def _leaves(tree):
    return sum(_leaves(v) if isinstance(v, dict) else 1 for v in tree.values())


def test_default_config_holds_only_run_inputs():
    # gate thresholds and method constants live in the library, not here
    assert _leaves(DEFAULT_CONFIG) == 20
    assert not ({"thresholds", "risk", "fd", "weight", "mesh", "bridge"}
                & set(DEFAULT_CONFIG))


# module constants that no run varies: the mesh gate's slack, the bridge's
# kernel, tolerance and triad, the Dupire path's steps and the descent's
# step size, noise and chain weight
REMOVED_KEYS = {
    "mesh.c1": 2000.0, "mesh.c2": 50.0,
    "bridge.feature_kind": "nystrom", "bridge.rank": 8, "bridge.tol": 0.005,
    "bridge.triad_center": 5,
    "projection.path_steps": 8,
    "descent.eta0": 0.1, "descent.noise_sigma": 0.005,
    "descent.lambda_chain": 0.5,
}


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_config_rejects_the_removed_keys(key):
    # even at the value the run uses, so that no file can set one
    section, name = key.split(".")
    with pytest.raises(ValueError, match="unknown config keys"):
        RunConfig({section: {name: REMOVED_KEYS[key]}})


BAD_CONFIGS = [
    {"grids": {}},
    {"thresholds": {"kkt_limit": 1.0}},
    # a section that is not an object, or a value that is one
    {"grid": 5},
    {"grid": [1, 2]},
    {"seed": {"a": 1}},
    # a value whose type is not its default's
    {"grid": {"n_strikes": "31"}},
    {"seed": [1]},
    # numpy's SeedSequence takes no negative seed
    {"seed": -1},
    {"chain": {"sizes": 5}},
    {"market": {"noise_sigma": True}},
    # options of the projection that no longer exist
    {"projection": {"tv2_lambda": 0.0}},
    {"projection": {"dykstra_rounds": 0}},
    # list elements must have the type of the default's elements
    {"chain": {"sizes": ["a", "b"]}},
    {"smolyak": {"frontier_levels": ["x"]}},
    {"chain": {"sizes": [60.5, 90]}},
    # the chain needs two maturities to have an edge, and uses the grid's
    {"chain": {"n_maturities_used": 1}},
    {"chain": {"n_maturities_used": 50}},
    {"grid": {"n_maturities": 7}, "chain": {"n_maturities_used": 8}},
    # keys that restated a library default, or that no run set, and no
    # longer exist
    {"thresholds": {"kkt": 0.24}},
    {"risk": {"c_appr": 1.0}},
    {"fd": {"window_K": 5}},
    {"weight": {"floor": 0.05}},
    {"chain": {"band_C": 1.0}},
    {"bridge": {"ridge": 1e-8}},
    {"bridge": {"triad_center": 0}},
    {"bridge": {"triad_center": 10}},
    {"bridge": {"rank": 0}},
    {"bridge": {"rank": 40}},
    # a file could flip a gate with these: one Dupire path step passes
    # C3_dup where eight fail it, and c1 0.5 fails the mesh gate
    {"projection": {"path_steps": 1}},
    {"mesh": {"c1": 0.5}},
    # the bridge's Nystrom kernel has rank 8, so the grid needs 8 strikes
    {"grid": {"n_strikes": 7}},
    # a null is no default: only a key left out takes one
    {"seed": None},
    {"grid": None},
    {"chain": {"sizes": None}},
]


def test_config_rejects_unknown_keys():
    for bad in BAD_CONFIGS:
        with pytest.raises(ValueError):
            RunConfig(bad)


def test_config_rejects_chain_sizes_the_gate_cannot_use():
    # each of these loaded and failed only in stage gate, after generate,
    # fit and project: too short a series for the tail, sizes not strictly
    # increasing, and clouds of one sample
    for sizes in ([60, 90, 130], [90, 60, 130, 190, 280], [1, 2, 3, 4, 5]):
        with pytest.raises(ValueError, match="/chain/sizes"):
            RunConfig({"chain": {"sizes": sizes}})
    # the benchmark's chains load, and the shortest chain the rule accepts
    # runs through the gate
    for sizes in ([20, 30, 40, 60, 90],
                  [20, 30, 40, 60, 90, 130, 190, 280, 410, 600]):
        RunConfig({"chain": {"sizes": sizes}})
    ctx = PipelineContext({"projection": {"lip_trials": 2},
                           "chain": {"sizes": [2, 3, 4, 5]}})
    for stage in ("generate", "fit", "project", "gate"):
        getattr(ctx, f"stage_{stage}")()
    assert len(ctx.summary["R2"]["values"]) == 4


def test_config_partial_override():
    cfg = RunConfig({"seed": 3, "chain": {"n_maturities_used": 4}})
    assert cfg["seed"] == 3
    assert cfg["chain"]["n_maturities_used"] == 4
    assert cfg["chain"]["sizes"] == DEFAULT_CONFIG["chain"]["sizes"]


def test_config_names_the_key_that_leaves_too_few_strikes():
    # the rank of the bridge's kernel is fixed, so the message names the
    # strike count the user set, and 8 strikes load
    with pytest.raises(ValueError, match="'/grid/n_strikes' must be at least 8"):
        RunConfig({"grid": {"n_strikes": 7}})
    RunConfig({"grid": {"n_strikes": 8}})


@pytest.fixture(scope="module")
def reference_run():
    return run_pipeline()


def test_reference_run_all_gates_pass(reference_run):
    summary, status = reference_run
    assert status == 0
    assert summary["all_pass"]
    for name, gate in summary["gates"].items():
        assert gate["pass"], f"gate {name} failed: {gate}"


def test_summary_sections_populated(reference_run):
    summary, _ = reference_run
    for section in ("mesh", "C1", "C2", "C3", "R2", "C4", "Risk", "gates"):
        assert section in summary
    for gate in summary["gates"].values():
        assert {"value", "threshold", "pass"} <= set(gate)


def test_determinism_byte_identical(reference_run):
    s1, _ = reference_run
    s2, _ = run_pipeline()
    assert (summary_to_json(strip_meta(s1)).encode()
            == summary_to_json(strip_meta(s2)).encode())


def test_gate_thresholds_are_the_module_constants(reference_run):
    summary, _ = reference_run
    want = {
        "C1_relu": cpwl.RELU_MAXABS_PASS,
        "C2_kkt": bridge.KKT_PASS,
        "C2_rgeo": bridge.RGEO_PASS,
        "C2_muhat": list(bridge.MUHAT_BAND),
        "C3_lip": projection.LIP_PASS,
        "R2_gate": [chainstats.SLOPE_PASS, chainstats.AREA_PASS],
    }
    for name, threshold in want.items():
        assert summary["gates"][name]["threshold"] == threshold, name


def test_unreachable_kkt_threshold_fails_gate(monkeypatch):
    monkeypatch.setattr(bridge, "KKT_PASS", 0.0)
    summary, status = run_pipeline()
    assert status == 1
    assert summary["gates"]["C2_kkt"] == {
        "value": summary["C2"]["KKT"], "threshold": 0.0, "pass": False}
    assert not summary["all_pass"]
    # the gate and the bridge's own certificate read the same threshold
    ctx = PipelineContext()
    for stage in ("generate", "fit", "bridge"):
        getattr(ctx, f"stage_{stage}")()
    assert ctx.art["bridge_certs"].pass_kkt is False
    assert ctx.gates["C2_kkt"]["pass"] is False


def test_artifacts_written(tmp_path):
    run_pipeline(out_dir=tmp_path)
    for fname in ("summary.json", "surfaces.json", "frontier.csv",
                  "residual_trace.csv", "chain_series.csv",
                  "descent_trajectory.csv"):
        assert (tmp_path / fname).exists(), fname
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert doc["all_pass"] is True
    surf = json.loads((tmp_path / "surfaces.json").read_text())
    assert {"strikes", "maturities", "w", "values"} <= set(surf)


def test_cli_single_stage(tmp_path, capsys):
    rc = cli_main(["generate", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "surfaces.json").exists()
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert "mesh" in doc


def test_cli_bad_config_returns_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    # a file whose top level is not an object is no config either
    for doc in [{"no_such_section": 1}, None, [1, 2]] + BAD_CONFIGS:
        bad.write_text(json.dumps(doc))
        rc = cli_main(["generate", "--config", str(bad)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
    # the seed override passes the same check as the file's seed
    assert cli_main(["generate", "--seed", "-1"]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_options_go_before_or_after_the_stage(tmp_path, capsys):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert cli_main(["--seed", "3", "--out", str(a), "generate"]) == 0
    assert cli_main(["generate", "--seed", "3", "--out", str(b)]) == 0
    assert cli_main(["generate", "--out", str(c)]) == 0
    assert ((a / "surfaces.json").read_text()
            == (b / "surfaces.json").read_text()
            != (c / "surfaces.json").read_text())
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"no_such_section": 1}))
    assert cli_main(["--config", str(bad), "gate"]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_unusable_out_returns_2(tmp_path, capsys):
    # --out names a file, or its summary.json is a directory: one line on
    # stderr and exit 2, which no gate verdict uses
    a_file = tmp_path / "taken"
    a_file.write_text("")
    (tmp_path / "d" / "summary.json").mkdir(parents=True)
    for out in (a_file, tmp_path / "d"):
        assert cli_main(["generate", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("output error: ")
        assert captured.err.count("\n") == 1


def test_cli_single_stage_names_the_stage_that_raised(tmp_path, capsys):
    # a negative smile volatility makes generate raise; risk depends on it
    bad = tmp_path / "neg_vol.json"
    bad.write_text(json.dumps({"market": {"vol_kind": "smile",
                                          "smile_curvature": -10.0}}))
    for stage in ("risk", "all"):
        rc = cli_main([stage, "--config", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "pipeline stage 'generate' failed: vol descriptor" in err, stage


def test_cli_seed_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 1}))
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert cli_main(["generate", "--config", str(cfg_path), "--seed", "7",
                     "--out", str(out1)]) == 0
    assert cli_main(["generate", "--seed", "7", "--out", str(out2)]) == 0
    assert ((out1 / "surfaces.json").read_text()
            == (out2 / "surfaces.json").read_text())


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "arbsurf.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "arbsurf" in proc.stdout


def test_cli_deep_stage_resolves_dependencies(tmp_path, capsys):
    # the risk stage needs every upstream stage; the CLI must chain them
    rc = cli_main(["risk", "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert "Risk" in doc
    assert doc["Risk"]["bound_holds"] is True


def test_cli_single_stage_is_timed(tmp_path, capsys):
    # a single-stage run times the requested stage and each dependency, and
    # finishes like a full run: its gates, all_pass, a timestamp and
    # summary.json
    rc = cli_main(["gate", "--out", str(tmp_path)])
    assert rc == 0
    printed = json.loads(capsys.readouterr().out)
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert doc == printed
    assert set(doc["gates"]) == {"mesh", "C1_relu", "C3_lip", "C3_dup",
                                 "R2_gate"}
    assert doc["all_pass"] is (rc == 0)
    meta = doc["meta"]
    counters = ("calls", "newton_steps", "factor_reuses", "safeguard_steps",
                "error_max")
    assert set(meta) == {"wall_generate", "wall_fit", "wall_project",
                         "wall_gate", "timestamp"} | {
                             f"proj_{sequence}_{name}"
                             for sequence in ("certificates", "project")
                             for name in counters}
    assert all(t >= 0 for t in meta.values())


def test_stage_graph_lists_each_stage_after_its_dependencies():
    for stage, deps in STAGE_DEPS.items():
        assert all(STAGES.index(d) < STAGES.index(stage) for d in deps), stage
        for d in deps:
            assert set(STAGE_DEPS[d]) <= set(deps), (stage, d)
    # the default run_pipeline is the full run
    assert STAGE_DEPS[STAGES[-1]] + (STAGES[-1],) == STAGES


def test_run_pipeline_rejects_an_unknown_stage(tmp_path):
    with pytest.raises(ValueError, match=re.escape(str(STAGES))):
        run_pipeline(out_dir=tmp_path / "out", stage="chain")
    assert not (tmp_path / "out").exists()


def test_cli_all_is_the_last_stage(capsys):
    outputs = []
    for stage in ("risk", "all"):
        assert cli_main([stage]) == 0
        outputs.append(strip_meta(json.loads(capsys.readouterr().out)))
    assert outputs[0] == outputs[1]
