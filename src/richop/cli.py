"""Batch experiment driver.

Consumes a single JSON config and emits deterministic CSV tables: every row
carries the config hash, and repeated runs with the same config and seed are
byte-identical apart from the timestamp header line.

Exit codes: 1 config error (including a value the library would refuse
and a usage error such as an unknown command or a missing --config),
2 build failure (one of the library's own errors: OperatorBuildError,
SolverError, MembershipError, MeshError, IllConditionedBasisError),
3 certificate violation, 4 a bug: any other exception. main lets a bug
propagate; the console entry (the richop script, python -m richop.cli)
prints its traceback and exits 4.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import sys
import traceback
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
from .relu_net import certified_approximator

__all__ = ["main", "console", "load_config", "ConfigError"]


class ConfigError(ValueError):
    pass


class CertificateViolation(RuntimeError):
    pass


# each section's keys (the top level's under ""); a key of another kind is accepted, unread
_KEYS = {
    "": "domain mesh problem family encoder reduction network evaluation sweep seed",
    "domain": "kind vertices", "mesh": "h degree graded", "mesh.graded": "corners grading levels",
    "problem": "alpha beta source normalize_source", "problem.source": "kind value",
    "family": "kind n_modes decay fill order radius coeff_h", "encoder": "kind h degree p",
    "reduction": "training_count n_basis gamma", "network": "epsilon beta_mode",
    "evaluation": "test_count mc_count", "sweep": "axis values",
}


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    _check(isinstance(cfg, dict), f"the config must be a JSON object, got {type(cfg).__name__}")
    sections = [("", cfg)]
    for name, section in sections:  # a subsection is appended when its parent is read
        for key in section:
            dotted = f"{name}.{key}" if name else key
            _check(key in _KEYS[name].split(), f"{dotted} is an unknown key (known: {_KEYS[name]})")
            if dotted in _KEYS:
                sections.append((dotted, _section(cfg, dotted)))
    alpha = _number(cfg, "problem.alpha", 1.0, lambda a: 0 < a < math.inf, "be positive")
    _number(cfg, "problem.beta", 0.5, lambda b: 0 < b < alpha, f"lie in (0, alpha={alpha!r})")
    _number(cfg, "reduction.gamma", 1.0, lambda g: 0 < g <= 1, "lie in (0, 1]")
    # the network is certified in the configured band alpha +- beta, so "paper" is the one mode
    mode = _value(cfg, "network.beta_mode", "paper")
    _check(mode == "paper", f"network.beta_mode must be paper: {mode!r}")
    _integer(cfg, "seed", 0, 0)
    return cfg


def _check(ok: bool, message: str) -> None:
    """A config value the library would refuse is a config error."""
    if not ok:
        raise ConfigError(message)


def _section(cfg: dict, name: str) -> dict:
    """The object at the dotted name in cfg (cfg for "", {} if absent); ConfigError naming the
    first section on the way that is not an object."""
    section, path = cfg, []
    for key in filter(None, name.split(".")):
        path.append(key)
        section = section.get(key, {})
        _check(isinstance(section, dict), f"{'.'.join(path)} must be an object, got {section!r}")
    return section


def _value(cfg: dict, name: str, default=None):
    """The value at the dotted name in cfg (default if absent), read through _section."""
    parent, _, key = name.rpartition(".")
    return _section(cfg, parent).get(key, default)


def _pairs(cfg: dict, name: str) -> list:
    """The list at the dotted name in cfg; ConfigError unless it is present and each
    item is an [x, y] pair of numbers."""
    value = _value(cfg, name)
    pairs = isinstance(value, list) and all(
        isinstance(p, list) and len(p) == 2 and all(type(c) in (int, float) for c in p)
        for p in value
    )
    _check(pairs, f"{name} must be a list of [x, y] pairs, got {value!r}")
    return value


def _number(cfg: dict, name: str, default, ok, need: str):
    """The number at the dotted name in cfg (default if absent); ConfigError unless ok."""
    value = _value(cfg, name, default)
    _check(type(value) in (int, float) and ok(value), f"{name} must {need}, got {value!r}")
    return value


def _integer(cfg: dict, name: str, default, least: int) -> int:
    """_number for an integer no smaller than least."""
    return _number(cfg, name, default, lambda k: isinstance(k, int) and k >= least,
                   f"be an integer of at least {least}")


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


class Setup:
    """The experiment of one config and seed, built in stages on demand.

    The stages are domain -> mesh -> space -> problem -> family ->
    encoder -> snapshots -> greedy -> operator. Each is computed the first
    time a command reads it, and kept. The operator stage is
    pipeline.build_operator, which draws its own snapshots and basis from
    the same seed, so a command reads either it or the snapshot stages:
    snapshots and greedy read the latter; build, eval, sweep, nncheck,
    decompose and run read the operator (sweep re-certifies its input net).
    """

    def __init__(self, cfg: dict, seed: int):
        self.cfg = cfg
        self.seed = seed

    @cached_property
    def domain(self):
        kind = _value(self.cfg, "domain.kind", "square")
        if kind == "square":
            return mesh_mod.unit_square()
        if kind == "lshape":
            return mesh_mod.lshape()
        if kind == "polygon":
            return mesh_mod.Polygon(np.asarray(_pairs(self.cfg, "domain.vertices"), dtype=float))
        raise ConfigError(f"domain.kind must be square, lshape or polygon, got {kind!r}")

    @cached_property
    def mesh(self):
        h = _number(self.cfg, "mesh.h", 0.125, lambda h: h > 0, "be positive")
        m = mesh_mod.triangulate(self.domain, h)
        if _section(self.cfg, "mesh.graded"):
            grading = _number(self.cfg, "mesh.graded.grading", None, lambda g: 0 < g < 1,
                              "lie in (0, 1)")
            levels = _integer(self.cfg, "mesh.graded.levels", None, 0)
            corners = _pairs(self.cfg, "mesh.graded.corners")
            m = mesh_mod.refine_corner_graded(m, corners, grading, levels)
        return m

    @cached_property
    def space(self):
        degree = _value(self.cfg, "mesh.degree", 1)
        _check(type(degree) is int and degree in (1, 2),
               f"mesh.degree must be 1 or 2, got {degree!r}")
        space = fem_mod.build_space(self.mesh, degree)
        _check(space.n_free > 0, f"mesh.h must leave a free dof at mesh.degree {degree}")
        return space

    @cached_property
    def problem(self):
        kind = _value(self.cfg, "problem.source.kind", "constant")
        _check(kind == "constant", f"problem.source.kind must be constant, got {kind!r}")
        value = _number(self.cfg, "problem.source.value", 1.0, lambda v: 0 < abs(v) < math.inf,
                        "be finite and nonzero")
        alpha, beta = _value(self.cfg, "problem.alpha", 1.0), _value(self.cfg, "problem.beta", 0.5)
        config = fem_mod.ProblemConfig(alpha, beta, coeff_mod.constant(1.0), coeff_mod.constant(value))
        normalize = _value(self.cfg, "problem.normalize_source", True)
        _check(type(normalize) is bool,
               f"problem.normalize_source must be true or false, got {normalize!r}")
        if normalize:
            config = fem_mod.normalize_source(self.space, config)
        return config

    @cached_property
    def family(self):
        kind = _value(self.cfg, "family.kind", "analytic")
        fill = _number(self.cfg, "family.fill", 0.9, lambda f: 0 < f <= 1, "lie in (0, 1]")
        n_modes = _integer(self.cfg, "family.n_modes", 4, 1)
        alpha, beta = self.problem.alpha, self.problem.beta
        if kind == "analytic":
            top = len(coeff_mod.ANALYTIC_WAVENUMBERS)
            _check(n_modes <= top, f"family.n_modes must be at most {top}, got {n_modes!r}")
            decay = _number(self.cfg, "family.decay", 0.5, lambda d: 0 < d <= 1, "lie in (0, 1]")
            return coeff_mod.analytic_family(
                alpha, beta, self.domain, n_modes=n_modes, decay=decay, fill=fill
            )
        if kind == "parametric":
            modes = [coeff_mod.trig_mode(k + 1, k % 2 + 1) for k in range(n_modes)]
            return coeff_mod.AffineFamily(alpha=alpha, beta=beta, domain=self.domain, modes=modes,
                                          fill=fill)
        if kind == "sobolev_ball":
            order = _number(self.cfg, "family.order", 2, lambda k: k >= 0, "be non-negative")
            radius = _number(self.cfg, "family.radius", 50.0, lambda r: r > 0, "be positive")
            coeff_h = _number(self.cfg, "family.coeff_h", 0.5, lambda h: h > 0, "be positive")
            coarse = mesh_mod.triangulate(self.domain, coeff_h)
            return coeff_mod.SobolevBall(
                alpha=alpha, beta=beta, domain=coarse, order=order, radius=radius, fill=fill
            )
        raise ConfigError(f"family.kind must be analytic, parametric or sobolev_ball, got {kind!r}")

    @cached_property
    def encoder(self):
        kind = _value(self.cfg, "encoder.kind", "nodal")
        h = _number(self.cfg, "encoder.h", 0.25, lambda h: h > 0, "be positive")
        coarse = mesh_mod.triangulate(self.domain, h)
        if kind == "nodal":
            degree = _number(self.cfg, "encoder.degree", 1, lambda d: type(d) is int and d in (1, 2),
                             "be 1 or 2")
            return build_nodal_encoder(fem_mod.build_space(coarse, degree))
        if kind == "gll":
            p = _integer(self.cfg, "encoder.p", 3, 1)
            return build_gll_encoder(quad_split(coarse), p)
        raise ConfigError(f"encoder.kind must be nodal or gll, got {kind!r}")

    @cached_property
    def training_count(self) -> int:
        return _integer(self.cfg, "reduction.training_count", 40, 1)

    @cached_property
    def greedy_args(self) -> tuple:
        """(n_basis, gamma) of the weak greedy."""
        gamma = _value(self.cfg, "reduction.gamma", 1.0)
        return _integer(self.cfg, "reduction.n_basis", 8, 0), gamma

    @cached_property
    def snapshots(self):
        count = self.training_count
        return rb_mod.generate_snapshots(self.family, count, self.seed, self.space, self.problem)

    @cached_property
    def greedy(self):
        """(basis, greedy trace) of the training snapshots."""
        n_basis, gamma = self.greedy_args
        return rb_mod.weak_greedy(self.snapshots, n_basis, gamma)

    @cached_property
    def operator(self):
        epsilon = _number(self.cfg, "network.epsilon", 1e-2, lambda e: 0 < e < 1, "lie in (0, 1)")
        stages = (self.family, self.problem, self.space, self.training_count)  # checked in this order
        n_basis, gamma = self.greedy_args
        return pipe_mod.build_operator(*stages, n_basis, self.encoder, epsilon, self.seed, gamma=gamma)

    def test_coefficients(self, count_key: str, default: int, seed_offset: int):
        """Family members drawn with seed + seed_offset, as many as evaluation[count_key]."""
        count = _integer(self.cfg, f"evaluation.{count_key}", default, 1)
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
    pipe_mod._write_mesh(out_dir, "mesh", mesh)
    row = (mesh.n_nodes, mesh.n_triangles, mesh_mod.max_diameter(mesh))
    _write_csv(out_dir, "mesh_stats.csv", ["nodes", "triangles", "max_diameter"], [row], hash_)


def cmd_snapshots(s: Setup, out_dir, hash_):
    snaps = s.snapshots
    rows = (
        (j, fem_mod.energy_norm(s.space, s.problem, snaps.solutions[:, j]))
        for j in range(snaps.count)
    )
    _write_csv(out_dir, "snapshots.csv", ["index", "energy_norm"], rows, hash_)


def cmd_greedy(s: Setup, out_dir, hash_):
    basis, trace = s.greedy
    # greedy steps are not timed; the seconds column stays, all zero, to keep the file format
    rows = ((n, delta, sel, 0.0) for n, delta, sel in trace.rows())
    _write_csv(out_dir, "greedy_trace.csv", ["N", "delta", "selected_index", "seconds"], rows, hash_)
    curve = rb_mod.projection_error_curve(basis, s.snapshots.solutions)
    _write_csv(out_dir, "delta_curve.csv", ["N", "delta"], curve, hash_)


def cmd_build(s: Setup, out_dir, hash_):
    op = s.operator
    pipe_mod.save_bundle(op, os.path.join(out_dir, "bundle"))
    rep = op.approximator.report
    row = (rep.depth, rep.size, rep.k_steps, rep.tolerance, rep.beta_eff)
    _write_csv(out_dir, "build.csv", ["depth", "size", "k_steps", "epsilon", "beta_eff"], [row], hash_)


def cmd_eval(s: Setup, out_dir, hash_):
    op = s.operator
    space, config = s.space, s.problem
    rows = []
    for j, a in enumerate(s.test_coefficients("test_count", 10, 1)):
        diff = fem_mod.galerkin_solve(space, config, a) - pipe_mod.evaluate(op, a)
        rows.append((j, fem_mod.energy_norm(space, config, diff)))
    _write_csv(out_dir, "eval.csv", ["index", "energy_error_vs_fine"], rows, hash_)


def cmd_sweep(s: Setup, out_dir, hash_):
    sweep = _value(s.cfg, "sweep", {"axis": "epsilon", "values": [1e-1, 1e-2, 1e-3]})
    axis = sweep.get("axis", "epsilon")
    _check(axis == "epsilon", f"sweep.axis must be epsilon, got {axis!r}")
    values = sweep.get("values")
    _check(isinstance(values, list) and len(values) > 0
           and all(type(e) in (int, float) and 0 < e < 1 for e in values),
           f"sweep.values must be a non-empty list of numbers in (0, 1), got {values!r}")
    op, rep = s.operator, s.operator.approximator.report
    chain = (op.basis.nominal.shift, rep.alpha, rep.beta_eff, rep.f_dual_norm)
    bundles = [certified_approximator(op.approximator.encoder_input, *chain, eps) for eps in values]
    rows = ((eps, b.report.depth, b.report.size, b.k_steps) for eps, b in zip(values, bundles))
    _write_csv(out_dir, "sweep.csv", ["epsilon", "depth", "size", "k_steps"], rows, hash_)


def cmd_nncheck(s: Setup, out_dir, hash_):
    op = s.operator
    eps = op.approximator.report.tolerance
    solutions = pipe_mod.network_solutions(op, s.test_coefficients("mc_count", 200, 2))
    errors = [fem_mod.energy_norm(s.space, s.problem, r - u) for r, u in zip(*solutions)]
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
    coefficients = s.test_coefficients("test_count", 10, 1)
    matrices = [rich_mod.iteration_matrix(op.basis, a) for a in coefficients]
    bound = s.problem.beta / s.problem.alpha
    rows = ((j, float(np.linalg.norm(a, 2)), bound) for j, a in enumerate(matrices))
    _write_csv(out_dir, "contraction.csv", ["index", "contraction_norm", "bound"], rows, hash_)
    c_star = rich_mod.direct_solve(op.basis, coefficients[0])
    rows = (
        (k, float(np.linalg.norm(c)), rich_mod.reduced_energy_error(op.basis, c, c_star))
        for k, c in enumerate(rich_mod.iterate(op.basis, matrices[0], 30))
    )
    _write_csv(out_dir, "convergence.csv", ["k", "ell2_norm", "energy_error_vs_direct"], rows, hash_)
    pipe_mod.save_bundle(op, os.path.join(out_dir, "bundle"))


# The library's own failures; any other exception is a bug and propagates.
_BUILD_FAILURES = (
    pipe_mod.OperatorBuildError,
    fem_mod.SolverError,
    fem_mod.MembershipError,
    mesh_mod.MeshError,
    rb_mod.IllConditionedBasisError,
)

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


class _Parser(argparse.ArgumentParser):
    """A usage error (unknown command, missing --config) is a config error."""

    def error(self, message):
        raise ConfigError(message)


def main(argv=None) -> int:
    parser = _Parser(prog="richop", description=__doc__)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--out", default="out", help="artifact directory")
    parser.add_argument("--seed", type=int, default=None, help="overrides config seed")
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config)
        seed = _integer(cfg if args.seed is None else vars(args), "seed", 0, 0)
        os.makedirs(args.out, exist_ok=True)
        _COMMANDS[args.command](Setup(cfg, seed), args.out, config_hash(cfg))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except CertificateViolation as exc:
        print(f"certificate violation: {exc}", file=sys.stderr)
        return 3
    except _BUILD_FAILURES as exc:
        print(f"build failure: {exc}", file=sys.stderr)
        return 2
    return 0


def console(argv=None) -> int:
    """main for the console: a bug prints its traceback and exits 4."""
    try:
        return main(argv)
    except Exception:
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(console())
