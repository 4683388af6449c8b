import glob
import json
import os

import pytest

from richop import cli

CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "square_smoke.json")
SWEEP = os.path.join(os.path.dirname(__file__), "..", "configs", "eps_sweep.json")
CONFIGS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "configs", "*.json")))


def _body(path):
    """CSV contents without the timestamp header line."""
    with open(path) as fh:
        return [ln for ln in fh if not ln.startswith("# generated=")]


def test_run_smoke(tmp_path):
    out = str(tmp_path / "run")
    assert cli.main(["run", "--config", CONFIG, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "contraction.csv"))
    assert os.path.exists(os.path.join(out, "convergence.csv"))
    assert os.path.isdir(os.path.join(out, "bundle"))


def test_run_deterministic(tmp_path):
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    assert cli.main(["run", "--config", CONFIG, "--out", out1]) == 0
    assert cli.main(["run", "--config", CONFIG, "--out", out2]) == 0
    for name in ("contraction.csv", "convergence.csv"):
        assert _body(os.path.join(out1, name)) == _body(os.path.join(out2, name))


def test_invalid_beta_exits_one(tmp_path):
    cfg = json.load(open(CONFIG))
    cfg["problem"]["beta"] = 2.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1


def test_missing_config_exits_one(tmp_path):
    assert cli.main(["run", "--config", "/nonexistent.json", "--out", str(tmp_path)]) == 1


def test_build_failure_exits_two(tmp_path):
    cfg = json.load(open(CONFIG))
    cfg["reduction"]["n_basis"] = cfg["reduction"]["training_count"] + 5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert cli.main(["build", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_sweep_rows(tmp_path):
    out = str(tmp_path / "sweep")
    assert cli.main(["sweep", "--config", SWEEP, "--out", out]) == 0
    body = _body(os.path.join(out, "sweep.csv"))
    values = json.load(open(SWEEP))["sweep"]["values"]
    assert len(body) == 1 + len(values)  # header + one row per epsilon
    header = body[0].strip().split(",")
    assert header[:4] == ["epsilon", "depth", "size", "k_steps"]


def test_sweep_measured_mode_sizes_the_built_net(tmp_path):
    cfg = json.load(open(CONFIG))
    cfg["network"]["beta_mode"] = "measured"
    eps = cfg["network"]["epsilon"]
    cfg["sweep"] = {"axis": "epsilon", "values": [1e-1, eps]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = str(tmp_path / "o")
    assert cli.main(["build", "--config", str(path), "--out", out]) == 0
    assert cli.main(["sweep", "--config", str(path), "--out", out]) == 0
    build = _body(os.path.join(out, "build.csv"))[1].split(",")
    sweep = [ln.split(",") for ln in _body(os.path.join(out, "sweep.csv"))[1:]]
    row = next(r for r in sweep if float(r[0]) == eps)
    assert row[1:3] == build[0:2]


def test_mesh_command(tmp_path):
    out = str(tmp_path / "mesh")
    assert cli.main(["mesh", "--config", CONFIG, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "mesh.txt"))
    assert os.path.exists(os.path.join(out, "mesh_stats.csv"))


def test_greedy_command(tmp_path):
    out = str(tmp_path / "greedy")
    assert cli.main(["greedy", "--config", CONFIG, "--out", out]) == 0
    trace = _body(os.path.join(out, "greedy_trace.csv"))
    curve = _body(os.path.join(out, "delta_curve.csv"))
    assert trace[0].strip().split(",")[:4] == ["N", "delta", "selected_index", "seconds"]
    deltas = [float(ln.split(",")[1]) for ln in curve[1:]]
    assert all(deltas[i + 1] <= deltas[i] + 1e-14 for i in range(len(deltas) - 1))


def test_snapshots_command(tmp_path):
    out = str(tmp_path / "snaps")
    assert cli.main(["snapshots", "--config", CONFIG, "--out", out]) == 0
    assert len(_body(os.path.join(out, "snapshots.csv"))) > 1


def test_build_eval_decompose(tmp_path):
    out = str(tmp_path / "full")
    assert cli.main(["build", "--config", CONFIG, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "bundle", "net.json"))
    assert cli.main(["eval", "--config", CONFIG, "--out", out]) == 0
    assert cli.main(["decompose", "--config", CONFIG, "--out", out]) == 0
    rows = _body(os.path.join(out, "decomposition.csv"))[1:]
    for ln in rows:
        _, tot, t1, t2, t3, _ = ln.split(",")
        assert float(tot) <= float(t1) + float(t2) + float(t3) + 1e-8


def test_nncheck_passes_certificate(tmp_path):
    cfg = json.load(open(CONFIG))
    cfg["evaluation"]["mc_count"] = 25
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = str(tmp_path / "nn")
    assert cli.main(["nncheck", "--config", str(path), "--out", out]) == 0


def test_rows_carry_config_hash(tmp_path):
    out = str(tmp_path / "hash")
    assert cli.main(["mesh", "--config", CONFIG, "--out", out]) == 0
    body = _body(os.path.join(out, "mesh_stats.csv"))
    cfg_hash = cli.config_hash(cli.load_config(CONFIG))
    assert body[0].strip().endswith("config_hash")
    assert body[1].strip().endswith(cfg_hash)


def test_seed_override_changes_output(tmp_path):
    out1 = str(tmp_path / "s1")
    out2 = str(tmp_path / "s2")
    assert cli.main(["snapshots", "--config", CONFIG, "--out", out1, "--seed", "1"]) == 0
    assert cli.main(["snapshots", "--config", CONFIG, "--out", out2, "--seed", "2"]) == 0
    assert _body(os.path.join(out1, "snapshots.csv")) != _body(
        os.path.join(out2, "snapshots.csv")
    )


@pytest.mark.parametrize("path", CONFIGS, ids=os.path.basename)
def test_committed_config_loads_and_meshes(path, tmp_path):
    cli.load_config(path)
    assert cli.main(["mesh", "--config", path, "--out", str(tmp_path)]) == 0


def test_write_csv_closes_file_when_a_row_fails(tmp_path, monkeypatch):
    opened = []

    def recording_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        opened.append(fh)
        return fh

    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    with pytest.raises(TypeError):
        cli._write_csv(str(tmp_path), "bad.csv", ["value"], [(1.0,), (object(),)], "hash")
    assert len(opened) == 1 and opened[0].closed
