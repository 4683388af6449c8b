"""Batch experiment driver.

Consumes a single JSON config and emits deterministic CSV tables: every row
carries the config hash, and repeated runs with the same config and seed are
byte-identical apart from the timestamp header line.

Exit codes: 1 config error, 2 build failure, 3 certificate violation.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import sys

import numpy as np

from . import coeff as coeff_mod
from . import fem as fem_mod
from . import mesh as mesh_mod
from . import pipeline as pipe_mod
from . import reduced_basis as rb_mod
from . import richardson as rich_mod
from .encoder import build_gll_encoder, build_nodal_encoder
from .mesh import quad_split

__all__ = ["main", "run", "load_config", "ConfigError"]


class ConfigError(ValueError):
    pass


class CertificateViolation(RuntimeError):
    pass


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    problem = cfg.get("problem", {})
    alpha = problem.get("alpha", 1.0)
    beta = problem.get("beta", 0.5)
    if not (0 < beta < alpha):
        raise ConfigError(f"invalid problem bounds: require 0 < beta={beta} < alpha={alpha}")
    return cfg


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _domain(cfg: dict):
    dom = cfg.get("domain", {"kind": "square"})
    kind = dom.get("kind", "square")
    if kind == "square":
        return mesh_mod.unit_square()
    if kind == "lshape":
        return mesh_mod.lshape()
    if kind == "polygon":
        return mesh_mod.Polygon(np.asarray(dom["vertices"], dtype=float))
    raise ConfigError(f"unknown domain kind {kind!r}")


def _mesh(cfg: dict):
    section = cfg.get("mesh", {})
    m = mesh_mod.triangulate(_domain(cfg), section.get("h", 0.125))
    graded = section.get("graded")
    if graded:
        m = mesh_mod.refine_corner_graded(
            m, graded["corners"], graded["grading"], graded["levels"]
        )
    return m


def _problem(cfg: dict, space):
    section = cfg.get("problem", {})
    source = section.get("source", {"kind": "constant", "value": 1.0})
    if source.get("kind", "constant") != "constant":
        raise ConfigError("only constant sources are configurable")
    config = fem_mod.ProblemConfig(
        section.get("alpha", 1.0),
        section.get("beta", 0.5),
        coeff_mod.constant(1.0),
        coeff_mod.constant(source.get("value", 1.0)),
    )
    if section.get("normalize_source", True):
        config = fem_mod.normalize_source(space, config)
    return config


def _family(cfg: dict, config, domain, mesh):
    section = cfg.get("family", {"kind": "analytic"})
    kind = section.get("kind", "analytic")
    fill = section.get("fill", 0.9)
    if kind == "analytic":
        return coeff_mod.analytic_family(
            config.alpha,
            config.beta,
            domain,
            n_modes=section.get("n_modes", 4),
            decay=section.get("decay", 0.5),
            fill=fill,
        )
    if kind == "parametric":
        modes = [
            coeff_mod.trig_mode(k + 1, k % 2 + 1) for k in range(section.get("n_modes", 4))
        ]
        return coeff_mod.parametric_family(config.alpha, config.beta, modes, domain, fill=fill)
    if kind == "sobolev_ball":
        coarse = mesh_mod.triangulate(domain, section.get("coeff_h", 0.5))
        return coeff_mod.sobolev_family(
            config.alpha,
            config.beta,
            coarse,
            order=section.get("order", 2),
            radius=section.get("radius", 50.0),
            fill=fill,
        )
    raise ConfigError(f"unknown family kind {kind!r}")


def _encoder(cfg: dict, domain):
    section = cfg.get("encoder", {"kind": "nodal", "h": 0.25, "degree": 1})
    kind = section.get("kind", "nodal")
    coarse = mesh_mod.triangulate(domain, section.get("h", 0.25))
    if kind == "nodal":
        return build_nodal_encoder(fem_mod.build_space(coarse, section.get("degree", 1)))
    if kind == "gll":
        return build_gll_encoder(quad_split(coarse), section.get("p", 3))
    raise ConfigError(f"unknown encoder kind {kind!r}")


class _CsvWriter:
    def __init__(self, out_dir: str, name: str, columns, hash_: str):
        self.path = os.path.join(out_dir, name)
        self.fh = open(self.path, "w")
        stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
        self.fh.write(f"# generated={stamp}\n")
        self.fh.write(",".join(list(columns) + ["config_hash"]) + "\n")
        self.hash = hash_

    def row(self, *values):
        cells = [v if isinstance(v, str) else f"{v:.17g}" for v in values]
        self.fh.write(",".join(cells + [self.hash]) + "\n")

    def close(self):
        self.fh.close()


def _build_all(cfg: dict, seed: int):
    domain = _domain(cfg)
    mesh = _mesh(cfg)
    degree = cfg.get("mesh", {}).get("degree", 1)
    space = fem_mod.build_space(mesh, degree)
    config = _problem(cfg, space)
    family = _family(cfg, config, domain, mesh)
    encoder = _encoder(cfg, domain)
    red = cfg.get("reduction", {})
    net = cfg.get("network", {})
    op = pipe_mod.build_operator(
        family,
        config,
        space,
        red.get("training_count", 40),
        red.get("n_basis", 8),
        encoder,
        net.get("epsilon", 1e-2),
        seed,
        gamma=red.get("gamma", 1.0),
        beta_mode=net.get("beta_mode", "paper"),
    )
    return domain, space, config, family, op


def cmd_mesh(cfg, out_dir, seed, hash_):
    mesh = _mesh(cfg)
    mesh_mod.validate_mesh(mesh)
    mesh_mod.write_mesh(mesh, os.path.join(out_dir, "mesh.txt"))
    w = _CsvWriter(out_dir, "mesh_stats.csv", ["nodes", "triangles", "max_diameter"], hash_)
    w.row(mesh.n_nodes, mesh.n_triangles, mesh_mod.max_diameter(mesh))
    w.close()
    return 0


def cmd_snapshots(cfg, out_dir, seed, hash_):
    mesh = _mesh(cfg)
    space = fem_mod.build_space(mesh, cfg.get("mesh", {}).get("degree", 1))
    config = _problem(cfg, space)
    family = _family(cfg, config, _domain(cfg), mesh)
    count = cfg.get("reduction", {}).get("training_count", 40)
    snaps = rb_mod.generate_snapshots(family, count, seed, space, config)
    k0 = fem_mod.assemble_stiffness(space, config.a0)
    w = _CsvWriter(out_dir, "snapshots.csv", ["index", "energy_norm"], hash_)
    for j in range(snaps.count):
        w.row(j, fem_mod.energy_norm(space, config, snaps.solutions[:, j], k0=k0))
    w.close()
    return 0


def cmd_greedy(cfg, out_dir, seed, hash_):
    mesh = _mesh(cfg)
    space = fem_mod.build_space(mesh, cfg.get("mesh", {}).get("degree", 1))
    config = _problem(cfg, space)
    family = _family(cfg, config, _domain(cfg), mesh)
    red = cfg.get("reduction", {})
    snaps = rb_mod.generate_snapshots(family, red.get("training_count", 40), seed, space, config)
    basis, trace = rb_mod.weak_greedy(snaps, red.get("n_basis", 8), red.get("gamma", 1.0))
    w = _CsvWriter(out_dir, "greedy_trace.csv", ["N", "delta", "selected_index", "seconds"], hash_)
    for n, delta, sel, _sec in trace.rows():
        w.row(n, delta, sel, 0.0)  # timing column zeroed for determinism
    w.close()
    curve = rb_mod.projection_error_curve(basis, snaps.solutions)
    w = _CsvWriter(out_dir, "delta_curve.csv", ["N", "delta"], hash_)
    for n, delta in curve:
        w.row(n, delta)
    w.close()
    return 0


def cmd_build(cfg, out_dir, seed, hash_):
    _domain_, _space, _config, _family_, op = _build_all(cfg, seed)
    pipe_mod.save_bundle(op, os.path.join(out_dir, "bundle"))
    w = _CsvWriter(out_dir, "build.csv", ["depth", "size", "k_steps", "epsilon", "beta_eff"], hash_)
    rep = op.approximator.report
    w.row(rep.depth, rep.size, op.certificates["k_steps"], rep.tolerance, op.certificates["beta_eff"])
    w.close()
    return 0


def cmd_eval(cfg, out_dir, seed, hash_):
    domain, space, config, family, op = _build_all(cfg, seed)
    count = cfg.get("evaluation", {}).get("test_count", 10)
    tests = coeff_mod.sample_family(family, count, seed + 1)
    k0 = op.basis.nominal_stiffness
    w = _CsvWriter(out_dir, "eval.csv", ["index", "energy_error_vs_fine"], hash_)
    for j, a in enumerate(tests):
        err = fem_mod.energy_norm(
            space, config, fem_mod.galerkin_solve(space, config, a) - pipe_mod.evaluate(op, a), k0=k0
        )
        w.row(j, err)
    w.close()
    return 0


def cmd_sweep(cfg, out_dir, seed, hash_):
    sweep = cfg.get("sweep", {"axis": "epsilon", "values": [1e-1, 1e-2, 1e-3]})
    if sweep.get("axis", "epsilon") != "epsilon":
        raise ConfigError("only epsilon sweeps are supported")
    mesh = _mesh(cfg)
    space = fem_mod.build_space(mesh, cfg.get("mesh", {}).get("degree", 1))
    config = _problem(cfg, space)
    family = _family(cfg, config, _domain(cfg), mesh)
    encoder = _encoder(cfg, _domain(cfg))
    red = cfg.get("reduction", {})
    snaps = rb_mod.generate_snapshots(family, red.get("training_count", 40), seed, space, config)
    basis, _ = rb_mod.weak_greedy(snaps, red.get("n_basis", 8), red.get("gamma", 1.0))
    beta_mode = cfg.get("network", {}).get("beta_mode", "paper")
    _, beta_eff = pipe_mod.effective_beta(encoder, config, snaps.coefficients, beta_mode)
    from .relu_net import build_approximator

    w = _CsvWriter(out_dir, "sweep.csv", ["epsilon", "depth", "size", "k_steps"], hash_)
    for eps in sweep["values"]:
        bundle = build_approximator(basis, space, config, encoder, eps, beta_eff=beta_eff)
        w.row(eps, bundle.report.depth, bundle.report.size, bundle.k_steps)
    w.close()
    return 0


def cmd_nncheck(cfg, out_dir, seed, hash_):
    domain, space, config, family, op = _build_all(cfg, seed)
    count = cfg.get("evaluation", {}).get("mc_count", 200)
    tests = coeff_mod.sample_family(family, count, seed + 2)
    k0 = op.basis.nominal_stiffness
    eps = op.certificates["epsilon"]
    w = _CsvWriter(out_dir, "nncheck.csv", ["index", "energy_error_vs_reduced", "certified"], hash_)
    worst = 0.0
    for j, a in enumerate(tests):
        recon = op.encoder.reconstruct(op.encoder.encode(a))
        sys_r = rich_mod.assemble_reduced(op.basis, space, config, recon, frame=op.frame)
        u_ref = rb_mod.synthesize(op.basis, rich_mod.direct_solve(sys_r), frame=op.frame)
        err = fem_mod.energy_norm(space, config, u_ref - pipe_mod.evaluate(op, a), k0=k0)
        worst = max(worst, err)
        w.row(j, err, eps)
    w.close()
    if worst > eps:
        raise CertificateViolation(
            f"Monte-Carlo error {worst:.3e} exceeds certified epsilon {eps:.3e}"
        )
    return 0


def cmd_decompose(cfg, out_dir, seed, hash_):
    domain, space, config, family, op = _build_all(cfg, seed)
    count = cfg.get("evaluation", {}).get("test_count", 10)
    tests = coeff_mod.sample_family(family, count, seed + 3)
    report = pipe_mod.error_decomposition(op, tests)
    w = _CsvWriter(
        out_dir,
        "decomposition.csv",
        ["index", "total", "reduced_truncation", "encoder_perturbation", "network"],
        hash_,
    )
    for j, (tot, t1, t2, t3) in enumerate(report.rows()):
        w.row(j, tot, t1, t2, t3)
    w.close()
    return 0


def cmd_run(cfg, out_dir, seed, hash_):
    """Full pipeline: build, contraction and convergence tables, certificates."""
    domain, space, config, family, op = _build_all(cfg, seed)
    tests = coeff_mod.sample_family(family, cfg.get("evaluation", {}).get("test_count", 10), seed + 1)
    w = _CsvWriter(out_dir, "contraction.csv", ["index", "contraction_norm", "bound"], hash_)
    bound = config.beta / config.alpha
    for j, a in enumerate(tests):
        sys_a = rich_mod.assemble_reduced(op.basis, space, config, a, frame=op.frame)
        w.row(j, rich_mod.contraction_norm(sys_a), bound)
    w.close()
    sys_a = rich_mod.assemble_reduced(op.basis, space, config, tests[0], frame=op.frame)
    c_star = rich_mod.direct_solve(sys_a)
    state = rich_mod.iterate(sys_a, 30)
    w = _CsvWriter(out_dir, "convergence.csv", ["k", "ell2_norm", "energy_error_vs_direct"], hash_)
    for k, c in enumerate(state.trajectory):
        w.row(k, float(np.linalg.norm(c)), rich_mod.reduced_energy_error(op.basis, sys_a, c, c_star))
    w.close()
    pipe_mod.save_bundle(op, os.path.join(out_dir, "bundle"))
    return 0


_COMMANDS = {
    "mesh": cmd_mesh,
    "snapshots": cmd_snapshots,
    "greedy": cmd_greedy,
    "build": cmd_build,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
    "nncheck": cmd_nncheck,
    "decompose": cmd_decompose,
    "run": cmd_run,
}


def run(config_path: str, out_dir: str = "out", seed: int | None = None) -> int:
    """Programmatic entry point for the `run` subcommand."""
    return main(["run", "--config", config_path, "--out", out_dir]
               + ([] if seed is None else ["--seed", str(seed)]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="richop", description=__doc__)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--out", default="out", help="artifact directory")
    parser.add_argument("--seed", type=int, default=None, help="overrides config seed")
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker hint; falls back to RICHOP_THREADS",
    )
    args = parser.parse_args(argv)
    threads = args.threads
    if threads is None:
        threads = int(os.environ.get("RICHOP_THREADS", "0")) or None
    if threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, str(threads))
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    os.makedirs(args.out, exist_ok=True)
    hash_ = config_hash(cfg)
    try:
        return _COMMANDS[args.command](cfg, args.out, seed, hash_)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except CertificateViolation as exc:
        print(f"certificate violation: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # build failures: bad envelopes, solver breakdowns
        print(f"build failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
