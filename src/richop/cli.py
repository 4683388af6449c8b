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
from functools import cached_property

import numpy as np

from . import coeff as coeff_mod
from . import fem as fem_mod
from . import mesh as mesh_mod
from . import pipeline as pipe_mod
from . import reduced_basis as rb_mod
from . import richardson as rich_mod
from .encoder import build_gll_encoder, build_nodal_encoder
from .mesh import quad_split
from .relu_net import build_approximator

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


class Setup:
    """The experiment of one config and seed, built in stages on demand.

    The stages are domain -> mesh -> space -> problem -> family ->
    encoder -> snapshots -> greedy -> operator. Each is computed the first
    time a command reads it, and kept. The operator stage is
    pipeline.build_operator, which draws its own snapshots and basis from
    the same seed, so a command reads either it or the snapshot stages.
    """

    def __init__(self, cfg: dict, seed: int):
        self.cfg = cfg
        self.seed = seed
        self.reduction = cfg.get("reduction", {})
        self.beta_mode = cfg.get("network", {}).get("beta_mode", "paper")

    @cached_property
    def domain(self):
        dom = self.cfg.get("domain", {"kind": "square"})
        kind = dom.get("kind", "square")
        if kind == "square":
            return mesh_mod.unit_square()
        if kind == "lshape":
            return mesh_mod.lshape()
        if kind == "polygon":
            return mesh_mod.Polygon(np.asarray(dom["vertices"], dtype=float))
        raise ConfigError(f"unknown domain kind {kind!r}")

    @cached_property
    def mesh(self):
        section = self.cfg.get("mesh", {})
        m = mesh_mod.triangulate(self.domain, section.get("h", 0.125))
        graded = section.get("graded")
        if graded:
            m = mesh_mod.refine_corner_graded(
                m, graded["corners"], graded["grading"], graded["levels"]
            )
        return m

    @cached_property
    def space(self):
        return fem_mod.build_space(self.mesh, self.cfg.get("mesh", {}).get("degree", 1))

    @cached_property
    def problem(self):
        section = self.cfg.get("problem", {})
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
            config = fem_mod.normalize_source(self.space, config)
        return config

    @cached_property
    def family(self):
        section = self.cfg.get("family", {"kind": "analytic"})
        kind = section.get("kind", "analytic")
        fill = section.get("fill", 0.9)
        alpha, beta = self.problem.alpha, self.problem.beta
        if kind == "analytic":
            return coeff_mod.analytic_family(
                alpha,
                beta,
                self.domain,
                n_modes=section.get("n_modes", 4),
                decay=section.get("decay", 0.5),
                fill=fill,
            )
        if kind == "parametric":
            modes = [
                coeff_mod.trig_mode(k + 1, k % 2 + 1) for k in range(section.get("n_modes", 4))
            ]
            return coeff_mod.parametric_family(alpha, beta, modes, self.domain, fill=fill)
        if kind == "sobolev_ball":
            coarse = mesh_mod.triangulate(self.domain, section.get("coeff_h", 0.5))
            return coeff_mod.sobolev_family(
                alpha,
                beta,
                coarse,
                order=section.get("order", 2),
                radius=section.get("radius", 50.0),
                fill=fill,
            )
        raise ConfigError(f"unknown family kind {kind!r}")

    @cached_property
    def encoder(self):
        section = self.cfg.get("encoder", {"kind": "nodal", "h": 0.25, "degree": 1})
        kind = section.get("kind", "nodal")
        coarse = mesh_mod.triangulate(self.domain, section.get("h", 0.25))
        if kind == "nodal":
            return build_nodal_encoder(fem_mod.build_space(coarse, section.get("degree", 1)))
        if kind == "gll":
            return build_gll_encoder(quad_split(coarse), section.get("p", 3))
        raise ConfigError(f"unknown encoder kind {kind!r}")

    @cached_property
    def snapshots(self):
        count = self.reduction.get("training_count", 40)
        return rb_mod.generate_snapshots(self.family, count, self.seed, self.space, self.problem)

    @cached_property
    def greedy(self):
        """(basis, greedy trace) of the training snapshots."""
        red = self.reduction
        return rb_mod.weak_greedy(self.snapshots, red.get("n_basis", 8), red.get("gamma", 1.0))

    @cached_property
    def operator(self):
        red = self.reduction
        return pipe_mod.build_operator(
            self.family,
            self.problem,
            self.space,
            red.get("training_count", 40),
            red.get("n_basis", 8),
            self.encoder,
            self.cfg.get("network", {}).get("epsilon", 1e-2),
            self.seed,
            gamma=red.get("gamma", 1.0),
            beta_mode=self.beta_mode,
        )

    def test_coefficients(self, count_key: str, default: int, seed_offset: int):
        """Family members drawn with seed + seed_offset, as many as evaluation[count_key]."""
        count = self.cfg.get("evaluation", {}).get(count_key, default)
        return coeff_mod.sample_family(self.family, count, self.seed + seed_offset)


def _write_csv(out_dir: str, name: str, columns, rows, hash_: str) -> None:
    """Timestamp line, header, then one line per row; each row ends in the config hash."""
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(f"# generated={stamp}\n")
        fh.write(",".join(list(columns) + ["config_hash"]) + "\n")
        for row in rows:
            cells = [v if isinstance(v, str) else f"{v:.17g}" for v in row]
            fh.write(",".join(cells + [hash_]) + "\n")


def cmd_mesh(s: Setup, out_dir, hash_):
    mesh = s.mesh
    mesh_mod.validate_mesh(mesh)
    mesh_mod.write_mesh(mesh, os.path.join(out_dir, "mesh.txt"))
    row = (mesh.n_nodes, mesh.n_triangles, mesh_mod.max_diameter(mesh))
    _write_csv(out_dir, "mesh_stats.csv", ["nodes", "triangles", "max_diameter"], [row], hash_)


def cmd_snapshots(s: Setup, out_dir, hash_):
    snaps = s.snapshots
    k0 = fem_mod.assemble_stiffness(s.space, s.problem.a0)
    rows = (
        (j, fem_mod.energy_norm(s.space, s.problem, snaps.solutions[:, j], k0=k0))
        for j in range(snaps.count)
    )
    _write_csv(out_dir, "snapshots.csv", ["index", "energy_norm"], rows, hash_)


def cmd_greedy(s: Setup, out_dir, hash_):
    basis, trace = s.greedy
    # the seconds column is zeroed so that reruns are byte-identical
    rows = ((n, delta, sel, 0.0) for n, delta, sel, _sec in trace.rows())
    _write_csv(out_dir, "greedy_trace.csv", ["N", "delta", "selected_index", "seconds"], rows, hash_)
    curve = rb_mod.projection_error_curve(basis, s.snapshots.solutions)
    _write_csv(out_dir, "delta_curve.csv", ["N", "delta"], curve, hash_)


def cmd_build(s: Setup, out_dir, hash_):
    op = s.operator
    pipe_mod.save_bundle(op, os.path.join(out_dir, "bundle"))
    rep = op.approximator.report
    row = (rep.depth, rep.size, op.certificates["k_steps"], rep.tolerance, op.certificates["beta_eff"])
    _write_csv(out_dir, "build.csv", ["depth", "size", "k_steps", "epsilon", "beta_eff"], [row], hash_)


def cmd_eval(s: Setup, out_dir, hash_):
    op = s.operator
    space, config, k0 = s.space, s.problem, op.basis.nominal_stiffness
    rows = []
    for j, a in enumerate(s.test_coefficients("test_count", 10, 1)):
        diff = fem_mod.galerkin_solve(space, config, a) - pipe_mod.evaluate(op, a)
        rows.append((j, fem_mod.energy_norm(space, config, diff, k0=k0)))
    _write_csv(out_dir, "eval.csv", ["index", "energy_error_vs_fine"], rows, hash_)


def cmd_sweep(s: Setup, out_dir, hash_):
    sweep = s.cfg.get("sweep", {"axis": "epsilon", "values": [1e-1, 1e-2, 1e-3]})
    if sweep.get("axis", "epsilon") != "epsilon":
        raise ConfigError("only epsilon sweeps are supported")
    basis, _ = s.greedy
    _, beta_eff = pipe_mod.effective_beta(s.encoder, s.problem, s.snapshots.coefficients, s.beta_mode)
    rows = []
    for eps in sweep["values"]:
        bundle = build_approximator(basis, s.space, s.problem, s.encoder, eps, beta_eff=beta_eff)
        rows.append((eps, bundle.report.depth, bundle.report.size, bundle.k_steps))
    _write_csv(out_dir, "sweep.csv", ["epsilon", "depth", "size", "k_steps"], rows, hash_)


def cmd_nncheck(s: Setup, out_dir, hash_):
    op = s.operator
    space, config, k0 = s.space, s.problem, op.basis.nominal_stiffness
    eps = op.certificates["epsilon"]
    errors = []
    for a in s.test_coefficients("mc_count", 200, 2):
        recon = op.encoder.reconstruct(op.encoder.encode(a))
        sys_r = rich_mod.assemble_reduced(op.basis, space, config, recon, frame=op.frame)
        u_ref = rb_mod.synthesize(op.basis, rich_mod.direct_solve(sys_r), frame=op.frame)
        errors.append(fem_mod.energy_norm(space, config, u_ref - pipe_mod.evaluate(op, a), k0=k0))
    rows = [(j, err, eps) for j, err in enumerate(errors)]
    _write_csv(out_dir, "nncheck.csv", ["index", "energy_error_vs_reduced", "certified"], rows, hash_)
    worst = max(errors, default=0.0)
    if worst > eps:
        raise CertificateViolation(
            f"Monte-Carlo error {worst:.3e} exceeds certified epsilon {eps:.3e}"
        )


def cmd_decompose(s: Setup, out_dir, hash_):
    report = pipe_mod.error_decomposition(s.operator, s.test_coefficients("test_count", 10, 3))
    _write_csv(
        out_dir,
        "decomposition.csv",
        ["index", "total", "reduced_truncation", "encoder_perturbation", "network"],
        ((j, *terms) for j, terms in enumerate(report.rows())),
        hash_,
    )


def cmd_run(s: Setup, out_dir, hash_):
    """Full pipeline: build, contraction and convergence tables, certificates."""
    op = s.operator
    systems = [
        rich_mod.assemble_reduced(op.basis, s.space, s.problem, a, frame=op.frame)
        for a in s.test_coefficients("test_count", 10, 1)
    ]
    bound = s.problem.beta / s.problem.alpha
    rows = ((j, rich_mod.contraction_norm(sys_a), bound) for j, sys_a in enumerate(systems))
    _write_csv(out_dir, "contraction.csv", ["index", "contraction_norm", "bound"], rows, hash_)
    sys_a = systems[0]
    c_star = rich_mod.direct_solve(sys_a)
    rows = (
        (k, float(np.linalg.norm(c)), rich_mod.reduced_energy_error(op.basis, sys_a, c, c_star))
        for k, c in enumerate(rich_mod.iterate(sys_a, 30).trajectory)
    )
    _write_csv(out_dir, "convergence.csv", ["k", "ell2_norm", "energy_error_vs_direct"], rows, hash_)
    pipe_mod.save_bundle(op, os.path.join(out_dir, "bundle"))


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
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    os.makedirs(args.out, exist_ok=True)
    try:
        _COMMANDS[args.command](Setup(cfg, seed), args.out, config_hash(cfg))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except CertificateViolation as exc:
        print(f"certificate violation: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # build failures: bad envelopes, solver breakdowns
        print(f"build failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
