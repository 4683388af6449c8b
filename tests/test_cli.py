import csv
import glob
import json
import math
import os

import numpy as np
import pytest
import scipy.sparse as sp
from written_files import differing, written

from richop import cli, coeff, encoder, fem, mesh, pipeline, reduced_basis, relu_net

CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "square_smoke.json")
SWEEP = os.path.join(os.path.dirname(__file__), "..", "configs", "eps_sweep.json")
GLL = os.path.join(os.path.dirname(__file__), "..", "configs", "square_gll.json")
LSHAPE = os.path.join(os.path.dirname(__file__), "..", "configs", "decay_lshape.json")
ANALYTIC = os.path.join(os.path.dirname(__file__), "..", "configs", "decay_analytic.json")
LAB = os.path.join(os.path.dirname(__file__), "..", "configs", "lab.json")
CONFIGS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "configs", "*.json")))


def _body(path):
    """CSV contents without the timestamp header line."""
    with open(path) as fh:
        return [ln for ln in fh if not ln.startswith("# generated=")]


def test_invalid_beta_exits_one(tmp_path):
    cfg = json.load(open(CONFIG))
    cfg["problem"]["beta"] = 2.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize(
    "command, values, key",
    [
        ("build", {"epsilon": 2.0}, "network.epsilon"),
        ("build", {"epsilon": 0.0}, "network.epsilon"),
        ("build", {"degree": 3}, "mesh.degree"),
        ("build", {"degree": 3}, "encoder.degree"),
        ("build", {"degree": 1.0}, "encoder.degree"),
        ("build", {"degree": 1.0}, "mesh.degree"),
        ("sweep", {"values": [0.1, 1.5]}, "sweep.values"),
        ("build", {"fill": 1.5}, "family.fill"),
        ("build", {"n_modes": 0}, "family.n_modes"),
        ("build", {"n_modes": 9}, "family.n_modes"),
        ("build", {"n_modes": 2.5}, "family.n_modes"),
        ("snapshots", {"kind": "parametric", "n_modes": 0}, "family.n_modes"),
        ("snapshots", {"kind": "sobolev_ball", "order": -1}, "family.order"),
        ("snapshots", {"kind": "sobolev_ball", "radius": 0.0}, "family.radius"),
        ("build", {"kind": "gll", "p": 0}, "encoder.p"),
        ("build", {"gamma": 0.0}, "reduction.gamma"),
        ("build", {"gamma": 2.0}, "reduction.gamma"),
        ("build", {"beta_mode": "bogus"}, "network.beta_mode"),
        ("build", {"source": {"kind": "constant", "value": 0.0}}, "problem.source.value"),
        ("build", {"fill": "0.9"}, "family.fill"),
        ("build", {"alpha": "1.0"}, "problem.alpha"),
        ("build", {"h": 0.0}, "mesh.h"),
        ("build", {"h": -0.1}, "mesh.h"),
        ("build", {"h": 0.0}, "encoder.h"),
        ("build", {"h": -0.3}, "encoder.h"),
        ("eval", {"test_count": 0}, "evaluation.test_count"),
        ("run", {"test_count": 0}, "evaluation.test_count"),
        ("decompose", {"test_count": -2}, "evaluation.test_count"),
        ("nncheck", {"mc_count": 0}, "evaluation.mc_count"),
        ("nncheck", {"mc_count": 2.5}, "evaluation.mc_count"),
        ("build", {"training_count": "30"}, "reduction.training_count"),
        ("build", {"n_basis": -1}, "reduction.n_basis"),
        ("build", {"graded": {"corners": [[0.0, 0.0]], "grading": 0.5, "levels": 1.5}},
         "mesh.graded.levels"),
        ("build", {"graded": {"corners": [[0.0, 0.0]], "grading": 0.5, "levels": -1}},
         "mesh.graded.levels"),
        ("build", {"graded": {"corners": [[0.0, 0.0]], "grading": 1.5, "levels": 1}},
         "mesh.graded.grading"),
        ("snapshots", {"kind": "sobolev_ball", "coeff_h": 0}, "family.coeff_h"),
        ("build", {"h": 5.0}, "mesh.h"),
        ("build", {"normalize_source": "no"}, "problem.normalize_source"),
        ("build", {"decay": "0.5"}, "family.decay"),
        ("build", {"decay": -1.0}, "family.decay"),
        ("build", {"decay": 1.5}, "family.decay"),
        ("build", {"graded": {"grading": 0.5, "levels": 1}}, "mesh.graded.corners"),
        ("sweep", {"axis": "epsilon"}, "sweep.values"),
        ("sweep", {"values": []}, "sweep.values"),
        ("mesh", {"beta_mode": "measured"}, "network.beta_mode"),
        ("mesh", {"kind": "disk"}, "domain.kind"),
        ("snapshots", {"kind": "gaussian"}, "family.kind"),
        ("build", {"kind": "modal"}, "encoder.kind"),
        ("build", {"source": {"kind": "gaussian", "value": 1.0}}, "problem.source.kind"),
        ("sweep", {"axis": "n_basis", "values": [0.1]}, "sweep.axis"),
    ],
    ids=["epsilon_above_one", "epsilon_zero", "mesh_degree", "encoder_degree",
         "encoder_degree_float", "mesh_degree_float", "sweep_epsilon",
         "family_fill", "family_n_modes", "analytic_n_modes_above_eight", "family_n_modes_fraction",
         "parametric_n_modes", "sobolev_order", "sobolev_radius", "gll_p_zero", "gamma_zero",
         "gamma_above_one", "beta_mode_unknown", "source_value_zero", "family_fill_string",
         "alpha_string", "mesh_h_zero", "mesh_h_negative", "encoder_h_zero", "encoder_h_negative",
         "eval_test_count_zero", "run_test_count_zero", "decompose_test_count_negative",
         "mc_count_zero", "mc_count_fraction", "training_count_string", "n_basis_negative",
         "graded_levels_fraction", "graded_levels_negative", "graded_grading_above_one",
         "sobolev_coeff_h_zero", "mesh_h_leaves_no_free_dof", "normalize_source_string",
         "decay_string", "decay_negative", "decay_above_one", "graded_without_corners",
         "sweep_without_values", "sweep_values_empty", "beta_mode_measured", "domain_kind_unknown",
         "family_kind_unknown", "encoder_kind_unknown", "source_kind_not_constant",
         "sweep_axis_not_epsilon"],
)
def test_out_of_range_value_exits_one(tmp_path, capsys, command, values, key):
    # values go into key's section, and the message names key itself, not just its section
    cfg = json.load(open(CONFIG))
    cfg.setdefault(key.split(".")[0], {}).update(values)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert cli.main([command, "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert f"config error: {key} " in capsys.readouterr().err


def _graded(corners):
    return {"corners": corners, "grading": 0.5, "levels": 1}


@pytest.mark.parametrize(
    "command, edit, named",
    [
        ("mesh", lambda c: [c], "the config"),
        ("mesh", lambda c: {**c, "problem": 5}, "problem"),
        ("mesh", lambda c: {**c, "reduction": []}, "reduction"),
        ("build", lambda c: {**c, "encoder": "nodal"}, "encoder"),
        ("snapshots", lambda c: {**c, "family": ["analytic"]}, "family"),
        ("eval", lambda c: {**c, "evaluation": 8}, "evaluation"),
        ("sweep", lambda c: {**c, "sweep": "epsilon"}, "sweep"),
        ("mesh", lambda c: {**c, "domain": "square"}, "domain"),
        ("snapshots", lambda c: {**c, "problem": {**c["problem"], "source": 1.0}}, "problem.source"),
        ("mesh", lambda c: {**c, "mesh": {**c["mesh"], "graded": 5}}, "mesh.graded"),
        ("mesh", lambda c: {**c, "mesh": {**c["mesh"], "graded": _graded(5)}}, "mesh.graded.corners"),
        ("mesh", lambda c: {**c, "mesh": {**c["mesh"], "graded": _graded([[0.0, 0.0, 1.0]])}},
         "mesh.graded.corners"),
        ("mesh", lambda c: {**c, "domain": {"kind": "polygon"}}, "domain.vertices"),
        ("mesh", lambda c: {**c, "domain": {"kind": "polygon", "vertices": [[0, 0], [1, 0], 1]}},
         "domain.vertices"),
    ],
    ids=["top_level_list", "problem_number", "reduction_list", "encoder_string", "family_list",
         "evaluation_number", "sweep_string", "domain_string", "source_number", "graded_number",
         "corners_number", "corners_triple", "polygon_without_vertices", "vertices_not_pairs"],
)
def test_malformed_config_shape_exits_one(tmp_path, capsys, command, edit, named):
    # the top level and every section read must be an object, and a point list a list of
    # [x, y] pairs: otherwise a config error (1) through the console entry, not a bug (4)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(edit(json.load(open(CONFIG)))))
    assert cli.console([command, "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {named}")


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda c: c["reduction"].update(n_basiss=4), "reduction.n_basiss"),
        (lambda c: c.update(seeds=1), "seeds"),
        (lambda c: c["mesh"].update(graded={**_graded([[0.0, 0.0]]), "level": 2}),
         "mesh.graded.level"),
    ],
    ids=["reduction_key_misspelled", "top_level_key_misspelled", "graded_extra_key"],
)
def test_unknown_config_key_exits_one(tmp_path, capsys, edit, named):
    # a misspelled key would otherwise leave its default in place (n_basiss: N = 8)
    cfg = json.load(open(CONFIG))
    edit(cfg)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert cli.main(["build", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {named} is an unknown key")
    assert not (tmp_path / "o").exists()


def test_key_of_another_kind_is_accepted(tmp_path):
    # encoder.p belongs to the gll encoder; under the nodal encoder it is accepted, not read
    cfg = json.load(open(CONFIG))
    cfg["encoder"]["p"] = 3
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.load_config(str(path)) == cfg


@pytest.mark.parametrize("seed", ["3", 2.5, -1], ids=["string", "fraction", "negative"])
def test_bad_config_seed_exits_one(tmp_path, capsys, seed):
    cfg = json.load(open(CONFIG))
    cfg["seed"] = seed
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert cli.main(["mesh", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert "config error: seed" in capsys.readouterr().err


def test_bad_seed_flag_exits_one(tmp_path, capsys):
    # the flag is checked like the config's seed, before any stage draws from it
    out = str(tmp_path / "o")
    assert cli.main(["snapshots", "--config", CONFIG, "--out", out, "--seed", "-1"]) == 1
    assert "config error: seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [(["bogus", "--config", CONFIG], "invalid choice"),
     (["mesh"], "the following arguments are required: --config")],
    ids=["unknown_command", "no_config_flag"],
)
def test_usage_error_exits_one(tmp_path, capsys, argv, message):
    # a mistyped command line is a config error, not the build-failure code 2
    assert cli.main([*argv, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not (tmp_path / "o").exists()


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0 and "usage: richop" in capsys.readouterr().out


def test_missing_config_exits_one(tmp_path):
    assert cli.main(["run", "--config", "/nonexistent.json", "--out", str(tmp_path)]) == 1


def test_build_failure_exits_two(tmp_path):
    cfg = json.load(open(CONFIG))
    cfg["reduction"]["n_basis"] = cfg["reduction"]["training_count"] + 5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert cli.main(["build", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_bug_is_not_reported_as_build_failure(tmp_path, monkeypatch):
    def broken(s, out_dir, hash_):
        raise TypeError("a bug, not a refused build")

    monkeypatch.setitem(cli._COMMANDS, "mesh", broken)
    with pytest.raises(TypeError, match="a bug"):
        cli.main(["mesh", "--config", CONFIG, "--out", str(tmp_path)])


def test_console_prints_a_bug_and_exits_four(tmp_path, capsys, monkeypatch):
    def broken(s, out_dir, hash_):
        raise TypeError("a bug, not a refused build")

    monkeypatch.setitem(cli._COMMANDS, "mesh", broken)
    assert cli.console(["mesh", "--config", CONFIG, "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and "TypeError: a bug, not a refused build" in err
    assert cli.console(["mesh", "--config", "/nonexistent.json", "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize(
    "error",
    [
        pipeline.OperatorBuildError,
        fem.SolverError,
        fem.MembershipError,
        mesh.MeshError,
        reduced_basis.IllConditionedBasisError,
    ],
    ids=lambda e: e.__name__,
)
def test_library_errors_exit_two(error, tmp_path, monkeypatch):
    def failing(s, out_dir, hash_):
        raise error("refused")

    monkeypatch.setitem(cli._COMMANDS, "mesh", failing)
    assert cli.main(["mesh", "--config", CONFIG, "--out", str(tmp_path)]) == 2


def test_sweep_rows(tmp_path):
    out = str(tmp_path / "sweep")
    assert cli.main(["sweep", "--config", SWEEP, "--out", out]) == 0
    body = _body(os.path.join(out, "sweep.csv"))
    values = json.load(open(SWEEP))["sweep"]["values"]
    assert len(body) == 1 + len(values)  # header + one row per epsilon
    header = body[0].strip().split(",")
    assert header[:4] == ["epsilon", "depth", "size", "k_steps"]


def test_sweep_builds_the_quadrature_channel_matrix_once(tmp_path, monkeypatch):
    points = []
    original = encoder.Encoder._build_channel_matrix

    def counting(self, pts):
        points.append(pts)
        return original(self, pts)

    monkeypatch.setattr(encoder.Encoder, "_build_channel_matrix", counting)
    assert cli.main(["sweep", "--config", SWEEP, "--out", str(tmp_path / "sweep")]) == 0
    # one build, at the quadrature points, for the input net; none for the envelope
    assert len(points) == 1 and not points[0].flags.writeable
    assert len(json.load(open(SWEEP))["sweep"]["values"]) > 1


def test_sweep_builds_the_input_net_once(tmp_path, monkeypatch):
    calls = []
    original = relu_net.input_net

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(relu_net, "input_net", counting)
    assert cli.main(["sweep", "--config", SWEEP, "--out", str(tmp_path / "sweep")]) == 0
    assert len(calls) == 1


def test_sweep_row_at_the_build_epsilon_repeats_the_built_depth_and_size(tmp_path):
    cfg = json.load(open(CONFIG))
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
    # richop mesh writes the bundle's two mesh files, byte for byte those of build's bundle, and
    # _read_mesh of them is the config's mesh bit for bit
    out = tmp_path / "out"
    for command in ("mesh", "build"):
        assert cli.main([command, "--config", CONFIG, "--out", str(out), "--seed", "0"]) == 0
    for name in ("mesh_nodes.npy", "mesh_triangles.npy"):
        assert (out / name).read_bytes() == (out / "bundle" / name).read_bytes()
    assert (out / "mesh_stats.csv").exists()
    got = pipeline._read_mesh(str(out), "mesh")
    want = cli.Setup(cli.load_config(CONFIG), 0).mesh
    for part in ("nodes", "triangles", "boundary_nodes"):
        a, b = getattr(got, part), getattr(want, part)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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


def test_snapshots_command_on_the_parametric_family(tmp_path):
    path = _edited_config(CONFIG, _parametric, tmp_path)
    out = str(tmp_path / "snaps")
    assert cli.main(["snapshots", "--config", path, "--out", out]) == 0
    assert len(_body(os.path.join(out, "snapshots.csv"))) > 1


def test_greedy_command_on_the_sobolev_ball(tmp_path):
    out = str(tmp_path / "lshape")
    assert cli.main(["greedy", "--config", LSHAPE, "--out", out]) == 0
    deltas = [float(ln.split(",")[1]) for ln in _body(os.path.join(out, "delta_curve.csv"))[1:]]
    assert len(deltas) > 1 and all(b <= a + 1e-14 for a, b in zip(deltas, deltas[1:]))


def test_build_command_with_the_gll_encoder(tmp_path):
    out = str(tmp_path / "gll")
    assert cli.main(["build", "--config", GLL, "--out", out]) == 0
    with open(os.path.join(out, "bundle", "encoder.json")) as fh:
        assert json.load(fh)["kind"] == "gll"


def test_build_eval_decompose(tmp_path):
    out = str(tmp_path / "full")
    assert cli.main(["build", "--config", CONFIG, "--out", out]) == 0
    for name in ("input.npy", "shift.npy"):
        assert os.path.exists(os.path.join(out, "bundle", name))
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


def test_nncheck_violation_exits_three(tmp_path, capsys, monkeypatch):
    # a measured error above epsilon, here from outputs shifted by one, exits 3
    network_solutions = pipeline.network_solutions

    def shifted(op, coefficients):
        recon, outputs = network_solutions(op, coefficients)
        return recon, [u + 1.0 for u in outputs]

    monkeypatch.setattr(pipeline, "network_solutions", shifted)
    cfg = json.load(open(CONFIG))
    cfg["evaluation"]["mc_count"] = 3
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = str(tmp_path / "nn")
    assert cli.main(["nncheck", "--config", str(path), "--out", out]) == 3
    assert capsys.readouterr().err.startswith("certificate violation:")
    assert len(_body(os.path.join(out, "nncheck.csv"))) == 4


def test_unnormalized_source_build_meets_its_certificate(tmp_path):
    # an unnormalized source of value 100 gives a shift with ||g||_2 about 18.6;
    # the iterate box Z~ = 2 + max(1, ||g||_2)/(1 - contraction) must cover it
    cfg = json.load(open(CONFIG))
    cfg["problem"].update(normalize_source=False, source={"kind": "constant", "value": 100.0})
    s = cli.Setup(cfg, cfg["seed"])
    op = s.operator
    g_norm = np.linalg.norm(op.basis.nominal.shift)
    contraction = op.certificates["contraction"]
    assert g_norm > 10.0
    assert op.approximator.report.input_bound == 2.0 + g_norm / (1.0 - contraction)
    members = s.test_coefficients("mc_count", 200, 2)
    errors = [fem.energy_norm(s.space, s.problem, r - u)
              for r, u in zip(*pipeline.network_solutions(op, members))]
    assert max(errors) <= op.certificates["epsilon"]
    pipeline.save_bundle(op, str(tmp_path))
    loaded = pipeline.load_bundle(str(tmp_path))
    assert loaded.approximator.report == op.approximator.report
    assert np.array_equal(loaded.evaluate(members[0]), pipeline.evaluate(op, members[0]))


def test_nncheck_errors_are_the_decomposition_network_term(tmp_path):
    cfg = json.load(open(CONFIG))
    cfg["evaluation"]["mc_count"] = 6
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = str(tmp_path / "nn")
    assert cli.main(["nncheck", "--config", str(path), "--out", out]) == 0
    errors = [float(ln.split(",")[1]) for ln in _body(os.path.join(out, "nncheck.csv"))[1:]]
    s = cli.Setup(cfg, cfg["seed"])
    members = s.test_coefficients("mc_count", 200, 2)
    assert errors == pipeline.error_decomposition(s.operator, members).network


def test_polygon_domain_meshes_and_builds(tmp_path):
    # a non-convex polygon domain whose first vertex is reflex, meshed by ear clipping
    path = _edited_config(CONFIG, _polygon, tmp_path)
    out = str(tmp_path / "polygon")
    for command in ("mesh", "greedy", "build"):
        assert cli.main([command, "--config", path, "--out", out]) == 0
    assert _body(os.path.join(out, "mesh_stats.csv"))[1].split(",")[:2] == ["153", "256"]
    for name in ("input.npy", "shift.npy"):
        assert os.path.exists(os.path.join(out, "bundle", name))


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


def _pentagon(cfg):
    """The GLL config cfg on the regular pentagon, whose quad interfaces hold node copies that
    differ in the last digits."""
    angles = [2 * math.pi * k / 5 + math.pi / 2 for k in range(5)]
    cfg["domain"] = {"kind": "polygon", "vertices": [[math.cos(t), math.sin(t)] for t in angles]}
    cfg["mesh"]["h"] = 0.3
    cfg["encoder"] = {"kind": "gll", "h": 0.5, "p": 3}
    return cfg


def _polygon(cfg):
    """The smoke config cfg on a non-convex polygon whose first vertex is reflex."""
    cfg["domain"] = {"kind": "polygon",
                     "vertices": [[0.6, 0.5], [1, 0.7], [0, 1], [0.2, 0.5], [0, 0], [1, 0.3]]}
    cfg["mesh"]["h"] = 0.15
    cfg["encoder"]["h"] = 0.4
    return cfg


def _parametric(cfg):
    """The smoke config cfg on the parametric family, which no committed config uses."""
    cfg["family"]["kind"] = "parametric"
    return cfg


def _edited_config(path, edit, directory):
    """path itself if edit is None, else the config edit makes of it, written to directory."""
    if edit is None:
        return path
    edited = str(directory / "config.json")
    with open(edited, "w") as fh:
        json.dump(edit(json.load(open(path))), fh)
    return edited


@pytest.mark.parametrize(
    "path, edit",
    [(path, None) for path in CONFIGS] + [(GLL, _pentagon), (CONFIG, _polygon)],
    ids=[os.path.basename(path) for path in CONFIGS] + ["pentagon", "polygon"],
)
def test_built_bundle_loads_and_evaluates_a_family_member(path, edit, tmp_path, monkeypatch):
    path = _edited_config(path, edit, tmp_path)
    built, save = [], pipeline.save_bundle

    def recording(op, directory):
        built.append(op)
        save(op, directory)

    monkeypatch.setattr(pipeline, "save_bundle", recording)
    out = str(tmp_path / "out")
    assert cli.main(["build", "--config", path, "--out", out, "--seed", "0"]) == 0
    bundle = os.path.join(out, "bundle")
    op = pipeline.load_bundle(bundle)
    # the reconstruction interpolates: one channel per query point, none shared
    enc = op.encoder
    assert abs(enc.channel_matrix(enc.query_points) - sp.identity(enc.m, format="csr")).max() <= 1e-13
    # loading re-derives the step net the build shipped, sized to the input net's per-entry
    # bounds, array for array, and the report: the same depth, size, K, beta_eff and epsilon
    # as the run's build.csv (%.17g floats read back exactly)
    for (w, b), (v, c) in zip(op.approximator.step.layers, built[0].approximator.step.layers,
                              strict=True):
        assert w.shape == v.shape
        for got, want in ((w.indptr, v.indptr), (w.indices, v.indices), (w.data, v.data), (b, c)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    with open(os.path.join(out, "build.csv")) as fh:
        row = next(csv.DictReader(line for line in fh if not line.startswith("#")))
    report = op.approximator.report
    assert (report.depth, report.size, report.k_steps, report.beta_eff, report.tolerance) == (
        int(row["depth"]), int(row["size"]), int(row["k_steps"]), float(row["beta_eff"]),
        float(row["epsilon"]))
    a = coeff.sample_family(cli.Setup(cli.load_config(path), 0).family, 1, 0)[0]
    u = op.evaluate(a)
    assert np.all(np.isfinite(u))
    assert np.array_equal(u, pipeline.evaluate(built[0], a))
    # mesh_nodes.npy and mesh_triangles.npy record the output space: u holds its free-dof values
    nodes, triangles = (np.load(os.path.join(bundle, f"mesh_{part}.npy"), allow_pickle=False)
                        for part in ("nodes", "triangles"))
    with open(os.path.join(bundle, "certificates.json")) as fh:
        degree = json.load(fh)["fem_degree"]
    space = fem.build_space(mesh._build_mesh(nodes, triangles), degree)
    assert len(u) == space.n_free
    # basis.npy is the finite float64 (n_free, n_basis + 1) synthesis matrix, read without the
    # loader
    basis = np.load(os.path.join(bundle, "basis.npy"), allow_pickle=False)
    assert basis.dtype == np.float64 and np.isfinite(basis).all()
    assert basis.shape == (space.n_free, op.certificates["n_basis"] + 1)


# Each case runs its commands twice with --seed 0, into a/ and into b/: config, edit, commands.
_RERUNS = {
    "smoke": (CONFIG, None,
              ("mesh", "snapshots", "greedy", "build", "eval", "sweep", "nncheck", "decompose", "run")),
    "gll": (GLL, None, ("build", "nncheck", "decompose", "run")),
    "eps_sweep": (SWEEP, None, ("sweep",)),
    "lshape": (LSHAPE, None, ("mesh", "greedy")),
    "analytic": (ANALYTIC, None, ("greedy",)),
    "lab": (LAB, None, ("run",)),
    "parametric": (CONFIG, _parametric, ("snapshots",)),
    "polygon": (CONFIG, _polygon, ("mesh",)),
}

# the files of a format-8 bundle, in byte order
BUNDLE_FILES = [
    "basis.npy", "certificates.json", "encoder.json", "encoder_mesh_nodes.npy",
    "encoder_mesh_triangles.npy", "input.npy", "mesh_nodes.npy", "mesh_triangles.npy", "shift.npy",
]


@pytest.mark.parametrize("case", list(_RERUNS))
def test_two_runs_write_the_same_files(case, tmp_path):
    # criterion 14 for every command: the same config and seed write the same files, byte for
    # byte but for the timestamp line, and a bundle holds exactly the format-8 files
    path, edit, commands = _RERUNS[case]
    path = _edited_config(path, edit, tmp_path)
    for out in ("a", "b"):
        for command in commands:
            argv = [command, "--config", path, "--out", str(tmp_path / out), "--seed", "0"]
            assert cli.main(argv) == 0, argv
    first, second = written(tmp_path / "a"), written(tmp_path / "b")
    assert differing(first, second) == []
    bundle = sorted(os.path.relpath(name, "bundle") for name in first
                    if name.startswith("bundle" + os.sep))
    assert bundle in ([], BUNDLE_FILES)


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
