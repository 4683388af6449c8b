"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All quantitative tolerances below are fixed, not calibrated: contraction and
coefficient bounds at 1e-10 / 1e-8 slack, exactness anchors at 1e-12, network
certificates at their built tolerance, decay-rate thresholds as stated.
"""

import json
import os
import time

import numpy as np
import pytest
from written_files import differing, written

from richop import cli
from richop import coeff as C
from richop import encoder as E
from richop import fem as F
from richop import mesh as M
from richop import pipeline as P
from richop import reduced_basis as RB
from richop import relu_net as NN
from richop import richardson as R

ALPHA, BETA = 1.0, 0.5


def _report(number, text, ok):
    print(f"{'PASS' if ok else 'FAIL'} - criterion {number}: {text}")
    assert ok, f"criterion {number} failed: {text}"


@pytest.fixture(scope="module")
def lab():
    """Unit square, P1 with max triangle diameter 1/16, N = 10 basis."""
    square = M.unit_square()
    mesh = M.triangulate(square, 1.0 / 16.0)
    space = F.build_space(mesh, 1)
    config = F.normalize_source(space, F.ProblemConfig(ALPHA, BETA))
    family = C.analytic_family(ALPHA, BETA, square, n_modes=4, decay=0.7, fill=0.9)
    snapshots = RB.generate_snapshots(family, 60, 0, space, config)
    basis, trace = RB.weak_greedy(snapshots, 10)
    encoder = E.build_nodal_encoder(F.build_space(M.triangulate(square, 0.35), 1))
    f_dual = F.nominal(space, config).f_dual
    return {
        "square": square,
        "space": space,
        "config": config,
        "family": family,
        "snapshots": snapshots,
        "basis": basis,
        "encoder": encoder,
        "f_dual": f_dual,
    }


@pytest.fixture(scope="module")
def approximator(lab):
    return NN.build_approximator(
        lab["basis"], lab["space"], lab["config"], lab["encoder"], 1e-2
    )


def test_criterion_01_contraction_bound(lab):
    t0 = time.perf_counter()
    basis, space, config = lab["basis"], lab["space"], lab["config"]
    assert basis.size == 11
    worst = 0.0
    for a in C.sample_family(lab["family"], 20, 101):
        mat_a = R.iteration_matrix(basis, a)
        worst = max(worst, np.linalg.norm(mat_a, 2))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        f"contraction norm over 20 coefficients = {worst:.6f} <= {BETA/ALPHA} + 1e-10 "
        f"({elapsed:.1f}s < 30s)",
        worst <= BETA / ALPHA + 1e-10 and elapsed < 30.0,
    )


@pytest.fixture(scope="module")
def iteration_run(lab):
    """Band-filling probe keeps iteration errors above the float floor."""
    basis, space, config = lab["basis"], lab["space"], lab["config"]
    probe = C.affine_combination(
        [C.constant(1.0), C.trig_mode(1, 0)], [1.0, 0.98 * BETA]
    )
    mat_p = R.iteration_matrix(basis, probe)
    c_star = R.direct_solve(basis, probe)
    iterates = R.iterate(basis, mat_p, 30)
    errs = [R.reduced_energy_error(basis, c, c_star) for c in iterates]
    return iterates, errs


def test_criterion_02_geometric_convergence(lab, iteration_run):
    t0 = time.perf_counter()
    _, errs = iteration_run
    ratio_bound = BETA / ALPHA + 1e-8
    ratios_ok = all(errs[k + 1] <= ratio_bound * errs[k] for k in range(30))
    f_dual = lab["f_dual"]
    abs_ok = all(
        errs[k] <= (1.0 / (ALPHA - BETA)) * (BETA / ALPHA) ** (k + 1) * f_dual + 1e-8
        for k in range(31)
    )
    elapsed = time.perf_counter() - t0
    worst_ratio = max(errs[k + 1] / errs[k] for k in range(30))
    _report(
        2,
        f"per-step ratio max = {worst_ratio:.4f} <= {ratio_bound}, geometric tail "
        f"bound holds through k=30 ({elapsed:.1f}s < 30s)",
        ratios_ok and abs_ok and elapsed < 30.0,
    )


def test_criterion_03_coefficient_bound(lab, iteration_run):
    basis, space, config = lab["basis"], lab["space"], lab["config"]
    cap = ALPHA / (ALPHA - BETA)
    ok = True
    iterates, _ = iteration_run
    for k, nrm in enumerate(np.linalg.norm(c) for c in iterates):
        ok = ok and nrm <= (BETA / ALPHA) ** k + cap + 1e-8
    for a in C.sample_family(lab["family"], 10, 707):
        mat_a = R.iteration_matrix(basis, a)
        hist = [np.linalg.norm(c) for c in R.iterate(basis, mat_a, 30)]
        for k, nrm in enumerate(hist):
            ok = ok and nrm <= (BETA / ALPHA) ** k + cap + 1e-8
    _report(
        3,
        "coefficient l2 bound (beta/alpha)^k + alpha/(alpha-beta) holds along "
        "all tested trajectories",
        ok,
    )


def test_criterion_04_exact_one_step_fixed_point(lab):
    basis, space, config = lab["basis"], lab["space"], lab["config"]
    mat0 = R.iteration_matrix(basis, config.scaled_nominal())
    iterates = R.iterate(basis, mat0, 1)
    e1 = np.zeros(basis.size)
    e1[0] = 1.0
    dev = float(np.max(np.abs(iterates[-1] - e1)))
    _report(4, f"one-step fixed point |c1 - e1| = {dev:.2e} <= 1e-12", dev <= 1e-12)


def test_criterion_05_input_net_exactness(lab):
    basis, space, config, enc = (
        lab["basis"],
        lab["space"],
        lab["config"],
        lab["encoder"],
    )
    net = NN.input_net(basis, enc)
    worst = 0.0
    for a in C.sample_family(lab["family"], 10, 55):
        y = enc.encode(a)
        recon = enc.channel_matrix(F.quadrature_points(space)) @ y
        mat_r = R.iteration_matrix(basis, recon)
        out = NN.realize(net, y)
        worst = max(
            worst, float(np.max(np.abs(out - mat_r.flatten(order="F"))))
        )
    n = basis.size
    size_ok = net.size <= n * n * enc.m + n * n
    _report(
        5,
        f"input net vs direct assembly worst = {worst:.2e} <= 1e-12, "
        f"size {net.size} <= {n * n * enc.m + n * n}",
        worst <= 1e-12 and size_ok,
    )


def test_criterion_06_network_certificates(lab, approximator, rng):
    t0 = time.perf_counter()
    basis, space, config, enc = (
        lab["basis"],
        lab["space"],
        lab["config"],
        lab["encoder"],
    )
    bundle = approximator
    assert enc.m <= 100
    samples = C.sample_family(lab["family"], 200, 2024)
    worst_step = worst_it = worst_app_l2 = worst_energy = 0.0
    flats = []
    for a in samples:
        y = enc.encode(a)
        recon = enc.channel_matrix(F.quadrature_points(space)) @ y
        mat_r = R.iteration_matrix(basis, recon)
        flat = mat_r.flatten(order="F")
        # step certificate on an admissible state
        x = rng.standard_normal(basis.size)
        x *= rng.uniform(0.0, bundle.report.input_bound) / np.linalg.norm(x)
        step_out = NN.realize(bundle.step, np.concatenate([flat, x]))
        worst_step = max(
            worst_step,
            float(np.linalg.norm(step_out - (mat_r @ x + basis.nominal.shift))),
        )
        # iterator certificate vs the exact unrolled iterate
        exact = R.iterate(basis, mat_r, bundle.k_steps)[-1]
        c_net = bundle.realize(y)
        worst_it = max(worst_it, float(np.linalg.norm(c_net - exact)))
        # full approximator vs the dense reduced solve of the reconstruction
        c_star = R.direct_solve(basis, recon)
        worst_app_l2 = max(worst_app_l2, float(np.linalg.norm(c_net - c_star)))
        u_net = RB.synthesize(basis, c_net, frame="ortho")
        u_ref = RB.synthesize(basis, c_star, frame="ortho")
        worst_energy = max(
            worst_energy, F.energy_norm(space, config, u_net - u_ref)
        )
    elapsed = time.perf_counter() - t0
    ok = (
        worst_step <= bundle.eps_step
        and worst_it <= bundle.eps_iterator
        and worst_energy <= bundle.report.tolerance
        and elapsed < 300.0
    )
    _report(
        6,
        f"Monte-Carlo 200: step {worst_step:.2e} <= {bundle.eps_step:.2e}, "
        f"iterator {worst_it:.2e} <= {bundle.eps_iterator:.2e}, energy "
        f"{worst_energy:.2e} <= {bundle.report.tolerance} ({elapsed:.0f}s < 300s)",
        ok,
    )


def test_criterion_07_size_depth_scaling(lab):
    eps_values = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5]
    depths, sizes = [], []
    for eps in eps_values:
        bundle = NN.build_approximator(
            lab["basis"], lab["space"], lab["config"], lab["encoder"], eps
        )
        depths.append(bundle.report.depth)
        sizes.append(bundle.report.size)
    logs = np.log(1.0 / np.asarray(eps_values))
    u = logs**2 + logs
    a = np.column_stack([u, np.ones(len(u))])
    coefs, *_ = np.linalg.lstsq(a, np.asarray(depths, dtype=float), rcond=None)
    pred = a @ coefs
    r2 = 1 - np.sum((depths - pred) ** 2) / np.sum((depths - np.mean(depths)) ** 2)
    monotone = sizes == sorted(sizes)
    _report(
        7,
        f"depth fits affine in |log eps|^2 + |log eps| with R^2 = {r2:.4f} >= 0.95; "
        f"sizes {sizes} non-decreasing",
        r2 >= 0.95 and monotone,
    )


def test_criterion_08_sparse_concat_bounds(rng):
    from test_relu_net import random_net

    import scipy.sparse as sp

    ok = True
    for _ in range(50):
        inner = random_net(rng, int(rng.integers(1, 4)))
        outer = random_net(rng, int(rng.integers(1, 4)))
        w, b = outer.layers[0]
        w = sp.csr_matrix(rng.standard_normal((w.shape[0], inner.n_outputs)))
        outer = NN.NeuralNet([(w, b)] + outer.layers[1:])
        net = NN.sparse_concat(outer, inner)
        ok = ok and net.depth <= outer.depth + inner.depth
        ok = ok and net.size <= 2 * (outer.size + inner.size)
        x = rng.standard_normal((20, inner.n_inputs))
        want = NN.realize(outer, NN.realize(inner, x))
        got = NN.realize(net, x)
        scale = max(1.0, float(np.max(np.abs(want))))
        ok = ok and float(np.max(np.abs(got - want))) <= 1e-13 * scale
    _report(
        8,
        "sparse concatenation depth/size bounds and exact realization on 50 "
        "random pairs",
        ok,
    )


def test_criterion_09_energy_and_shifted_form_bounds(lab, rng):
    space, config = lab["space"], lab["config"]
    k0 = lab["basis"].nominal_stiffness
    bound = lab["f_dual"] / (ALPHA - BETA)
    samples = C.sample_family(lab["family"], 100, 33)
    ok = True
    for a in samples:
        u = F.galerkin_solve(space, config, a)
        ok = ok and F.energy_norm(space, config, u) <= bound + 1e-8
        k = F.assemble_stiffness(space, a)
        shifted = k - ALPHA * k0
        w = rng.standard_normal(space.n_free)
        v = rng.standard_normal(space.n_free)
        val = abs(float(w @ (shifted @ v)))
        cap = (
            BETA
            * F.energy_norm(space, config, w)
            * F.energy_norm(space, config, v)
        )
        ok = ok and val <= cap * (1 + 1e-10)
    _report(
        9,
        "energy bound |S(a)| <= |f|'/(alpha-beta) and shifted-form bound "
        "|b(a - alpha a0; u, v)| <= beta |u||v| over 100 triples",
        ok,
    )


def test_criterion_10_encoder_rates(lab):
    square = lab["square"]
    split = M.quad_split(M.triangulate(square, 1.5))
    target = C.CoefficientField(lambda p: np.exp(p[:, 0] + p[:, 1]))
    errs = {
        p: E.encoder_error(E.build_gll_encoder(split, p), target, 150)
        for p in (4, 6, 8, 10)
    }
    gll_ok = all(errs[p + 2] / errs[p] <= 0.5 for p in (4, 6, 8))
    smooth = C.CoefficientField(
        lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])
    )
    mesh = M.triangulate(square, 0.6)
    nodal_errs = []
    for _ in range(4):
        enc = E.build_nodal_encoder(F.build_space(mesh, 1))
        nodal_errs.append(E.encoder_error(enc, smooth, 220))
        mesh = M.refine_uniform(mesh)
    slopes = [np.log2(nodal_errs[i] / nodal_errs[i + 1]) for i in range(3)]
    nodal_ok = all(abs(s - 2.0) <= 0.2 for s in slopes)
    _report(
        10,
        f"GLL ratios {[round(float(errs[p + 2] / errs[p]), 4) for p in (4, 6, 8)]} "
        f"<= 0.5; nodal slopes {[round(float(s), 2) for s in slopes]} within 2.0 +- 0.2",
        gll_ok and nodal_ok,
    )


def test_criterion_11_greedy_decay(lab):
    t0 = time.perf_counter()
    square, space, config = lab["square"], lab["space"], lab["config"]
    fam2 = C.analytic_family(ALPHA, BETA, square, n_modes=2, decay=1.0, fill=0.9)
    snaps = RB.generate_snapshots(fam2, 100, 7, space, config)
    _, trace = RB.weak_greedy(snaps, 20)
    d = np.asarray(trace.residuals)
    analytic_ok = all(d[i + 1] < d[i] for i in range(len(d) - 1)) and np.log(
        d.min()
    ) <= -6.0

    coarse = M.triangulate(M.lshape(), 0.7)
    graded = M.refine_corner_graded(M.triangulate(M.lshape(), 0.5), [[0.0, 0.0]], 0.5, 2)
    l_space = F.build_space(graded, 1)
    l_config = F.normalize_source(l_space, F.ProblemConfig(ALPHA, BETA))
    fam_w = C.SobolevBall(alpha=ALPHA, beta=BETA, domain=coarse, order=2, radius=60.0, fill=0.9)
    snaps_w = RB.generate_snapshots(fam_w, 60, 11, l_space, l_config)
    _, trace_w = RB.weak_greedy(snaps_w, 21)
    dw = np.asarray(trace_w.residuals)
    ns = np.arange(len(dw))
    mask = (ns >= 4) & (ns <= 20)
    a = np.column_stack([np.log(ns[mask]), np.ones(int(mask.sum()))])
    slope = np.linalg.lstsq(a, np.log(dw[mask]), rcond=None)[0][0]
    elapsed = time.perf_counter() - t0
    _report(
        11,
        f"analytic family: strictly decreasing, min log delta = {np.log(d.min()):.2f} "
        f"<= -6; W(2,inf) family slope {slope:.2f} <= -0.7 ({elapsed:.0f}s < 600s)",
        analytic_ok and slope <= -0.7 and elapsed < 600.0,
    )


@pytest.fixture(scope="module")
def exact_encoding_operator(lab):
    """Operator over P1 fields on the encoder mesh: encoding is exact."""
    enc = lab["encoder"]
    enc_mesh = enc.mesh
    modes = [
        C.mesh_field(enc_mesh, C.trig_mode(1, 0)(enc_mesh.nodes), 1),
        C.mesh_field(enc_mesh, C.trig_mode(0, 1)(enc_mesh.nodes), 1),
        C.mesh_field(enc_mesh, C.trig_mode(1, 1)(enc_mesh.nodes), 1),
        C.mesh_field(enc_mesh, C.trig_mode(2, 1)(enc_mesh.nodes), 1),
    ]
    fam = C.AffineFamily(alpha=ALPHA, beta=BETA, modes=modes, domain=M.unit_square(), fill=0.9)
    op = P.build_operator(
        fam, lab["config"], lab["space"], 30, 8, enc, 1e-2, seed=12
    )
    return fam, op


def test_criterion_12_error_decomposition(lab, exact_encoding_operator):
    fam, op = exact_encoding_operator
    members = C.sample_family(fam, 50, 2025)
    report = P.error_decomposition(op, members)
    eps = op.certificates["epsilon"]
    triangle_ok = all(
        tot <= t1 + t2 + t3 + 1e-8 for tot, t1, t2, t3 in report.rows()
    )
    certificate_ok = all(
        tot <= t1 + t2 + eps + 1e-8 for tot, t1, t2, _t3 in report.rows()
    )
    picked = op.basis.selection_indices[0]
    member = C.sample_family(fam, 30, 12)[picked]
    tot, t1, t2, t3 = P.error_decomposition(op, [member]).rows()[0]
    in_span_ok = (
        t1 <= 1e-9
        and t2 <= 1e-9
        and t3 <= op.certificates["epsilon"]
        and abs(tot - t3) <= 2e-9
    )
    _report(
        12,
        f"triangle inequality and (I)+(II)+eps certificate on 50 members; "
        f"in-span member: (I)={t1:.1e}, (II)={t2:.1e}, total ~ (III)={t3:.1e} "
        f"<= {op.certificates['epsilon']}",
        triangle_ok and certificate_ok and in_span_ok,
    )


def test_criterion_13_nonsmooth_extension(lab):
    square, space, config = lab["square"], lab["space"], lab["config"]
    modes = [C.trig_mode(1, 0), C.trig_mode(0, 1), C.trig_mode(1, 1)]
    fam = C.AbsShiftFamily(alpha=ALPHA, beta=BETA, modes=modes, domain=square, a_min=0.6,
                           amplitude=0.8)
    base = P.build_operator(fam, config, space, 20, 6, lab["encoder"], 1e-2, seed=66)
    wrapped = P.nonsmooth_operator(base, 0.6)
    members = C.sample_family(fam, 20, 67)
    eps = base.certificates["epsilon"]
    invariance_ok = True
    budget_ok = True
    report = P.error_decomposition(base, members)
    for a, (tot, t1, t2, t3) in zip(members, report.rows()):
        raw = a.meta["raw"]
        neg = C.affine_combination([raw], [-1.0])
        v_pos = P.evaluate(wrapped, raw)
        v_neg = P.evaluate(wrapped, neg)
        invariance_ok = invariance_ok and np.array_equal(v_pos, v_neg)
        u_fine = F.galerkin_solve(space, config, a)
        err = F.energy_norm(space, config, u_fine - v_pos)
        budget_ok = budget_ok and err <= t1 + t2 + eps + 1e-8
    _report(
        13,
        "nonsmooth operator: outputs exactly invariant under a -> -a; error vs "
        "fine solve within certificate plus encoder terms on 20 samples",
        invariance_ok and budget_ok,
    )


def test_criterion_14_cli_determinism(tmp_path):
    cfg_path = os.path.join(
        os.path.dirname(__file__), "..", "configs", "square_smoke.json"
    )
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    code1 = cli.main(["run", "--config", cfg_path, "--out", out1])
    code2 = cli.main(["run", "--config", cfg_path, "--out", out2])
    first, second = written(out1), written(out2)
    diff = differing(first, second)
    expected = {"contraction.csv", "convergence.csv", os.path.join("bundle", "basis.npy")}
    _report(
        14,
        f"repeated CLI runs write the same {len(first)} files, CSV bodies and bundle included "
        f"(differing: {diff})",
        code1 == 0 and code2 == 0 and expected <= first.keys() and diff == [],
    )
