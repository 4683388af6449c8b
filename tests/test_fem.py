import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from richop import coeff as C
from richop import fem as F
from richop import mesh as M


def crisscross_square(levels=2):
    """Fully symmetric mesh of the unit square (4-triangle fan + refinements)."""
    nodes = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]], dtype=float)
    tris = np.array([[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]])
    mesh = M._build_mesh(nodes, tris)
    for _ in range(levels):
        mesh = M.refine_uniform(mesh)
    return mesh


def element_h1_seminorm_sq(space, v):
    """Independent elementwise oracle: sum over triangles of |grad v|^2 * area."""
    mesh = space.mesh
    p = mesh.nodes[mesh.triangles]
    full = np.zeros(space.n_dofs)
    full[space.free_dofs] = v
    total = 0.0
    for t, tri in enumerate(mesh.triangles):
        a, b, c = p[t]
        det = (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])
        grads = (
            np.array([[b[1] - c[1], c[0] - b[0]], [c[1] - a[1], a[0] - c[0]], [a[1] - b[1], b[0] - a[0]]])
            / det
        )
        g = grads.T @ full[tri]
        total += 0.5 * abs(det) * float(g @ g)
    return total


class TestStiffness:
    def test_center_node_diagonal(self, square):
        mesh = M.refine_uniform(M.triangulate(square, 1.5))
        space = F.build_space(mesh, 1)
        k = F.assemble_stiffness(space, C.constant(1.0))
        assert space.n_free == 1
        assert abs(k.toarray()[0, 0] - 4.0) < 1e-13

    def test_constant_scaling(self, space):
        k1 = F.assemble_stiffness(space, C.constant(1.0)).toarray()
        kc = F.assemble_stiffness(space, C.constant(3.7)).toarray()
        assert np.max(np.abs(kc - 3.7 * k1)) <= 1e-13 * np.max(np.abs(kc))

    def test_additivity_in_coefficient(self, space):
        a1 = C.CoefficientField(lambda p: 1.0 + 0.3 * p[:, 0])
        a2 = C.CoefficientField(lambda p: 0.5 + 0.2 * np.sin(3 * p[:, 1]))
        ksum = F.assemble_stiffness(space, C.affine_combination([a1, a2], [1.0, 1.0]))
        k1 = F.assemble_stiffness(space, a1)
        k2 = F.assemble_stiffness(space, a2)
        diff = (ksum - (k1 + k2)).toarray()
        assert np.max(np.abs(diff)) <= 1e-13 * np.max(np.abs(ksum.toarray()))

    def test_symmetry(self, space):
        a = C.CoefficientField(lambda p: 1.0 + 0.4 * p[:, 0] * p[:, 1])
        k = F.assemble_stiffness(space, a)
        asym = np.max(np.abs((k - k.T).toarray()))
        assert asym <= 1e-13 * np.max(np.abs(k.toarray()))

    def test_non_finite_coefficient_raises(self, space):
        bad = C.CoefficientField(lambda p: np.where(p[:, 0] > 0.5, np.nan, 1.0))
        with pytest.raises(F.MembershipError):
            F.assemble_stiffness(space, bad)


class TestLoad:
    def test_zero_source(self, space):
        assert np.all(F.assemble_load(space, C.constant(0.0)) == 0.0)

    def test_unit_source_patch_areas(self, square):
        mesh = M.triangulate(square, 0.4)
        space = F.build_space(mesh, 1)
        load = F.assemble_load(space, C.constant(1.0))
        # oracle: one third of the area of each node's support patch
        p = mesh.nodes[mesh.triangles]
        areas = 0.5 * np.abs(
            (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
            - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
        )
        patch = np.zeros(mesh.n_nodes)
        for t, tri in enumerate(mesh.triangles):
            patch[tri] += areas[t]
        expected = patch[space.free_dofs] / 3.0
        assert np.max(np.abs(load - expected)) < 1e-14


def _einsum_coo_stiffness(space, samples):
    """Per-call assembly as done before the cached operator: einsum, COO, free slice."""
    _, w, _, grads_ref = F._reference_tables(space.degree)
    _, det, inv_t = F._geometry(space)
    samples = samples.reshape(space.mesh.n_triangles, len(w))
    grads = np.einsum("tde,qie->tqid", inv_t, grads_ref)
    local = np.einsum("q,tq,tqid,tqjd->tij", w, samples, grads, grads)
    local *= (0.5 * np.abs(det))[:, None, None]
    nloc = grads_ref.shape[1]
    rows = np.repeat(space.cell_dofs, nloc, axis=1).ravel()
    cols = np.tile(space.cell_dofs, (1, nloc)).ravel()
    full = sp.coo_matrix(
        (local.ravel(), (rows, cols)), shape=(space.n_dofs, space.n_dofs)
    ).tocsr()
    return full[space.free_dofs][:, space.free_dofs].tocsr()


def _add_at_load(space, samples):
    """Per-call load vector as done before the cached operator: einsum, np.add.at."""
    _, w, vals, _ = F._reference_tables(space.degree)
    _, det, _ = F._geometry(space)
    samples = samples.reshape(space.mesh.n_triangles, len(w))
    local = np.einsum("q,tq,qi->ti", w, samples, vals) * (0.5 * np.abs(det))[:, None]
    full = np.zeros(space.n_dofs)
    np.add.at(full, space.cell_dofs.ravel(), local.ravel())
    return full[space.free_dofs]


_WAVY = C.CoefficientField(lambda p: 1.0 + 0.4 * np.sin(3 * p[:, 0]) * np.cos(2 * p[:, 1]))


class TestAssemblyCache:
    @pytest.mark.parametrize("degree", [1, 2])
    def test_stiffness_matches_einsum_coo(self, square_mesh, degree):
        space = F.build_space(square_mesh, degree)
        samples = _WAVY(F.quadrature_points(space))
        k = F.assemble_stiffness_samples(space, samples)
        ref = _einsum_coo_stiffness(space, samples)
        assert np.array_equal(k.indices, ref.indices)
        assert np.array_equal(k.indptr, ref.indptr)
        assert np.max(np.abs(k.data - ref.data)) <= 1e-14 * np.max(np.abs(ref.data))

    @pytest.mark.parametrize("degree", [1, 2])
    def test_load_matches_add_at(self, square_mesh, degree):
        space = F.build_space(square_mesh, degree)
        load = F.assemble_load(space, _WAVY)
        ref = _add_at_load(space, _WAVY(F.quadrature_points(space)))
        assert np.max(np.abs(load - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_non_finite_samples_raise(self, space):
        samples = np.ones(len(F.quadrature_points(space)))
        samples[7] = np.inf
        with pytest.raises(F.MembershipError):
            F.assemble_stiffness(space, samples)
        with pytest.raises(F.MembershipError):
            F.assemble_load(space, samples)

    def test_galerkin_rejects_out_of_band_after_caching(self, space, config):
        F.assemble_stiffness(space, config.a0)
        for a in (C.constant(2.0), C.constant(0.4)):  # band is [0.5, 1.5]
            with pytest.raises(F.MembershipError):
                F.galerkin_solve(space, config, a)

    def test_spaces_never_share_a_cache(self, square_mesh):
        first, second = F.build_space(square_mesh, 1), F.build_space(square_mesh, 1)
        assert F.assembly(first) is F.assembly(first)
        assert F.assembly(first) is not F.assembly(second)
        p2 = F.build_space(square_mesh, 2)
        assert F.assembly(p2).stiffness.shape != F.assembly(first).stiffness.shape

    def test_quadrature_points_are_read_only(self, space):
        pts = F.quadrature_points(space)
        with pytest.raises(ValueError):
            pts[0, 0] = 0.5
        assert np.array_equal(pts, F.quadrature_points(space))

    def test_returned_matrices_do_not_share_the_pattern(self, space):
        k1 = F.assemble_stiffness(space, C.constant(1.0))
        k1.indices[:] = 0
        k2 = F.assemble_stiffness(space, C.constant(1.0))
        assert np.array_equal(k2.indices, F.assembly(space).indices)


class TestPatternKernel:
    """Assembly.product: K x on the cached pattern, bit for bit the csr_matrix product."""

    @pytest.mark.parametrize("degree", [1, 2])
    def test_bit_identical_to_the_matrix_product(self, square_mesh, degree, rng):
        space = F.build_space(square_mesh, degree)
        asm = F.assembly(space)
        upper = asm.stiffness @ _WAVY(F.quadrature_points(space))
        matrix, data = asm.matrix(upper), upper[asm.mirror]
        vector, block = rng.standard_normal(space.n_free), rng.standard_normal((space.n_free, 5))
        for x in (vector, block, np.asfortranarray(block), block[:, ::2]):
            got = asm.product(data, x)
            assert got.shape == x.shape and np.array_equal(got, matrix @ x)
        assert np.array_equal(data[asm.diagonal], matrix.diagonal())

    def test_operands_off_the_pattern_raise(self, space):
        asm = F.assembly(space)
        data = (asm.stiffness @ np.ones(len(asm.points)))[asm.mirror]
        for bad_data, x in ((data, np.ones(space.n_free + 1)), (data[:-1], np.ones(space.n_free)),
                            (data, np.ones((space.n_free, 2, 2)))):
            with pytest.raises(ValueError, match="off the pattern"):
                asm.product(bad_data, x)

    def test_unit_diagonal_reads_the_slots_of_k1(self, space):
        k1 = F.assemble_stiffness(space, C.constant(1.0))
        assert np.array_equal(F.assembly(space).laplace_diagonal, k1.diagonal())


class TestSolveSpd:
    """SPD solves: symmetry of a Galerkin solution, and the pivot guard of the
    factorization that preconditions every CG solve."""

    def test_symmetric_solution_under_square_symmetries(self):
        mesh = crisscross_square(2)
        space = F.build_space(mesh, 1)
        cfg = F.ProblemConfig(1.0, 0.5)
        u = F.galerkin_solve(space, cfg, C.constant(1.0))
        full = np.zeros(space.n_dofs)
        full[space.free_dofs] = u
        coords = space.dof_coords
        lookup = {tuple(np.round(p, 12)): i for i, p in enumerate(coords)}
        for transform in (
            lambda p: (1 - p[0], p[1]),
            lambda p: (p[0], 1 - p[1]),
            lambda p: (p[1], p[0]),
            lambda p: (1 - p[1], 1 - p[0]),
        ):
            mapped = [lookup[tuple(np.round(transform(p), 12))] for p in coords]
            assert np.max(np.abs(full - full[mapped])) < 1e-10

    def test_indefinite_raises(self, rng):
        mat = sp.csr_matrix(np.diag([1.0, -1.0, 2.0]))
        with pytest.raises(F.SolverError):
            F._factor(mat)


class TestGalerkinSolve:
    def test_nominal_anchor_energy_bound(self, space, config):
        u = F.galerkin_solve(space, config, config.scaled_nominal())
        bound = F.nominal(space, config).f_dual / config.alpha
        assert F.energy_norm(space, config, u) <= bound + 1e-8

    def test_manufactured_solution_rate(self, square):
        # oracle: u = sin(pi x) sin(pi y), f = 2 pi^2 u, exact gradient known
        f = C.CoefficientField(
            lambda p: 2 * np.pi**2 * np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])
        )
        grad = lambda p: np.stack(
            [
                np.pi * np.cos(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]),
                np.pi * np.sin(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1]),
            ],
            axis=1,
        )
        mesh = M.triangulate(square, 0.3)
        errs = []
        for _ in range(4):
            space = F.build_space(mesh, 1)
            cfg = F.ProblemConfig(1.0, 0.5, f=f)
            u = F.galerkin_solve(space, cfg, C.constant(1.0))
            errs.append(np.sqrt(_energy_error_sq_vs_exact(space, u, grad)))
            mesh = M.refine_uniform(mesh)
        slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(3)]
        assert all(abs(s - 1.0) <= 0.15 for s in slopes)

    def test_lipschitz_uniform_in_h(self, square):
        a1 = C.CoefficientField(lambda p: 1.0 + 0.3 * np.sin(np.pi * p[:, 0]))
        a2 = C.CoefficientField(lambda p: 1.0 - 0.2 * np.cos(np.pi * p[:, 1]))
        diff_inf = 0.0
        pts = C.domain_grid(square, 400)
        diff_inf = float(np.max(np.abs(a1(pts) - a2(pts))))
        ratios = []
        mesh = M.triangulate(square, 0.3)
        for _ in range(3):
            space = F.build_space(mesh, 1)
            cfg = F.ProblemConfig(1.0, 0.5)
            u1 = F.galerkin_solve(space, cfg, a1)
            u2 = F.galerkin_solve(space, cfg, a2)
            ratios.append(F.energy_norm(space, cfg, u1 - u2) / diff_inf)
            mesh = M.refine_uniform(mesh)
        c_lip = F.nominal(space, cfg).f_dual / (cfg.alpha - cfg.beta) ** 2
        assert all(r <= c_lip for r in ratios)
        assert max(ratios) - min(ratios) <= 0.2 * max(ratios)

    def test_membership_enforced(self, space, config):
        outside = C.constant(2.0)  # above alpha + beta = 1.5
        with pytest.raises(F.MembershipError):
            F.galerkin_solve(space, config, outside)

    def test_equals_cg_on_the_assembled_matrix_data(self, space, config, family):
        # galerkin_solve mirrors the stiffness data itself instead of building the
        # csr_matrix of assemble_stiffness_samples; CG sees the same array either way
        a = C.sample_family(family, 1, 41)[0]
        samples = a(F.quadrature_points(space))
        data = F.assemble_stiffness_samples(space, samples).data
        load = F.nominal(space, config).load
        cold = F._cg(F.assembly(space), data, load)
        assert np.array_equal(F.galerkin_solve(space, config, a), cold)
        start = 0.9 * cold + 1e-3
        warm = F._cg(F.assembly(space), data, load, start)
        assert np.array_equal(F.galerkin_solve(space, config, samples, start=start), warm)


class TestPreconditionedCg:
    """Galerkin solves: CG preconditioned by the cached factorization of K(1),
    scaled to the diagonal of the matrix solved."""

    def test_applications_stay_under_the_a_priori_bound(self, square, family, request):
        # kappa(K(1)^-1 K(a)) <= (alpha + beta) / (alpha - beta) for every
        # admissible a, so CG preconditioned by the unscaled K(1) needs at most
        # ln(2 / tol) / ln(1 / rate) steps (12.5 here) on every mesh. That is
        # the unscaled worst case; the diagonal scaling does not inherit it,
        # but on these smooth members it halves the count (6-7 per solve)
        cfg = F.ProblemConfig(1.0, 0.5)
        kappa = (cfg.alpha + cfg.beta) / (cfg.alpha - cfg.beta)
        rate = (np.sqrt(kappa) - 1.0) / (np.sqrt(kappa) + 1.0)
        bound = np.log(2.0 / F._SOLVE_TOL) / np.log(1.0 / rate)
        coarse = M.triangulate(square, 0.12)
        members = C.sample_family(family, 5, 17)
        spaces = [F.build_space(m, 1) for m in (coarse, M.refine_uniform(coarse))]
        for space in spaces:
            F.assembly(space).laplace  # factor outside the count
            F.nominal(space, cfg)  # and the dual-norm solve of the cached form
        counts = request.getfixturevalue("cg_applications")
        for space in spaces:
            for a in members:
                F.galerkin_solve(space, cfg, a)
        assert len(counts) == 10
        assert 0 < max(counts) <= bound
        assert max(counts) <= bound / 2

    @pytest.mark.parametrize("kind", ["wrong_length", "not_finite", "not_a_vector"])
    def test_malformed_start_raises(self, space, config, kind):
        n = space.n_free
        start = {"wrong_length": np.ones(n - 1), "not_finite": np.full(n, np.nan),
                 "not_a_vector": np.ones((n, 1))}[kind]
        with pytest.raises(ValueError, match="start"):
            F.galerkin_solve(space, config, C.constant(1.0), start=start)

    def test_far_start_meets_the_contract_or_raises(self, space, config, family):
        rhs = F.nominal(space, config).load
        for a in C.sample_family(family, 3, 23):
            try:
                u = F.galerkin_solve(space, config, a, start=1e3 * np.ones(space.n_free))
            except F.SolverError:
                continue
            k = F.assemble_stiffness(space, a)
            assert np.linalg.norm(k @ u - rhs) <= 1e-10 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("kind", ["stripes", "per_element"])
    def test_mesh_scale_jumps_solve_to_the_tolerance(self, square, kind):
        # in-band coefficients that jump at mesh scale are the scaled
        # preconditioner's hard case (43 and 32 applications, against 23 and
        # 21 unscaled); CG still stops at relative residual 1e-14, and the
        # true residual differs from it only by rounding in K u
        cfg = F.ProblemConfig(1.0, 0.5)
        space = F.build_space(M.triangulate(square, 0.025), 1)
        if kind == "stripes":
            x = F.quadrature_points(space)[:, 0]
            a = np.where(np.sin(40 * x) > 0, 1.45, 0.55)
        else:
            per_element = np.random.default_rng(3).uniform(0.55, 1.45, space.mesh.n_triangles)
            a = np.repeat(per_element, len(F._TRI_WEIGHTS))
        u = F.galerkin_solve(space, cfg, a)
        k = F.assemble_stiffness_samples(space, a)
        rhs = F.nominal(space, cfg).load
        assert np.linalg.norm(k @ u - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_negative_region_raises_before_the_scaling(self, space):
        # below the band check, a coefficient negative on a region gives
        # diagonal entries <= 0, which have no square root
        cfg = F.ProblemConfig(1.0, 0.5)
        a = C.CoefficientField(lambda p: np.where(p[:, 0] < 0.3, -1.0, 1.0))
        k = F.assemble_stiffness(space, a)
        assert np.min(k.diagonal()) < 0
        with pytest.raises(F.SolverError, match="non-positive diagonal"):
            F._cg(F.assembly(space), k.data, F.assemble_load(space, cfg.f))

    @pytest.mark.parametrize("degree", [1, 2])
    def test_matches_dense_cholesky(self, square_mesh, family, degree):
        space = F.build_space(square_mesh, degree)
        cfg = F.ProblemConfig(1.0, 0.5)
        rhs = F.assemble_load(space, cfg.f)
        for a in C.sample_family(family, 3, 19):
            dense = F.assemble_stiffness(space, a).toarray()
            oracle = la.cho_solve(la.cho_factor(dense), rhs)
            u = F.galerkin_solve(space, cfg, a)
            assert np.linalg.norm(u - oracle) <= 1e-12 * np.linalg.norm(oracle)

    @pytest.mark.parametrize(
        "a",
        [
            C.CoefficientField(lambda p: 1.0 + 0.9 * np.sin(2 * np.pi * p[:, 0])),
            C.CoefficientField(lambda p: 10.0 ** (3 * np.sin(2 * np.pi * p[:, 0]))),
            C.CoefficientField(lambda p: np.cos(2 * np.pi * p[:, 0])),
        ],
        ids=["mild", "wide", "sign_changing"],
    )
    def test_out_of_band_unchecked_solves_or_raises(self, space, a):
        # the solver below galerkin_solve's band check: out of the band it
        # meets the residual contract or raises SolverError
        cfg = F.ProblemConfig(1.0, 0.5)
        k = F.assemble_stiffness(space, a)
        rhs = F.assemble_load(space, cfg.f)
        try:
            u = F._cg(F.assembly(space), k.data, rhs)
        except F.SolverError:
            return
        assert np.linalg.norm(k @ u - rhs) <= 1e-10 * np.linalg.norm(rhs)


def _energy_error_sq_vs_exact(space, u, exact_grad):
    mesh = space.mesh
    p = mesh.nodes[mesh.triangles]
    full = np.zeros(space.n_dofs)
    full[space.free_dofs] = u
    bary, w = F._TRI_POINTS, F._TRI_WEIGHTS
    total = 0.0
    for t, tri in enumerate(mesh.triangles):
        a, b, c = p[t]
        det = (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])
        grads = (
            np.array([[b[1] - c[1], c[0] - b[0]], [c[1] - a[1], a[0] - c[0]], [a[1] - b[1], b[0] - a[0]]])
            / det
        )
        gh = grads.T @ full[tri]
        qpts = bary @ p[t]
        ge = exact_grad(qpts)
        diff = ge - gh[None, :]
        total += 0.5 * abs(det) * float(np.sum(w * np.sum(diff**2, axis=1)))
    return total


class TestEnergyNorm:
    def test_zero_vector(self, space, config):
        assert F.energy_norm(space, config, np.zeros(space.n_free)) == 0.0

    def test_homogeneity(self, space, config, rng):
        v = rng.standard_normal(space.n_free)
        n1 = F.energy_norm(space, config, v)
        n2 = F.energy_norm(space, config, -2.5 * v)
        assert abs(n2 - 2.5 * n1) <= 1e-13 * n2

    def test_matches_elementwise_h1_oracle(self, space, config, rng):
        v = rng.standard_normal(space.n_free)
        direct = element_h1_seminorm_sq(space, v)
        assert abs(F.energy_norm(space, config, v) ** 2 - direct) <= 1e-10 * direct

    def test_equals_the_csr_matrix_product(self, space, config, k0, rng):
        # Assembly.product runs the csr_matvec of k0 @ v on the same arrays, strided
        # columns of a block included
        block = rng.standard_normal((space.n_free, 3))
        for v in (block[:, 0], block[:, 1], np.zeros(space.n_free), -block[:, 2]):
            assert F.energy_norm(space, config, v) == np.sqrt(max(v @ (k0 @ v), 0.0))


class TestDualNorm:
    def test_zero_source(self, space):
        assert F.nominal(space, F.ProblemConfig(1.0, 0.5, f=C.constant(0.0))).f_dual == 0.0

    def test_riesz_identity(self, space, config, k0, rng):
        # functional induced by g through the nominal form has dual norm |g|
        g = rng.standard_normal(space.n_free)
        load = k0 @ g
        rep = spla.spsolve(k0, load)
        val = np.sqrt(load @ rep)
        assert abs(val - F.energy_norm(space, config, g)) < 1e-10

    def test_unit_source_series_oracle(self, square):
        # truncated double series for -lap(u) = 1 on the unit square:
        # |f|_dual^2 = sum over odd m, n of 64 / (pi^6 m^2 n^2 (m^2 + n^2))
        s = 0.0
        for mo in range(1, 200, 2):
            for no in range(1, 200, 2):
                s += 64.0 / (np.pi**6 * mo**2 * no**2 * (mo**2 + no**2))
        oracle = np.sqrt(s)
        cfg = F.ProblemConfig(1.0, 0.5)
        mesh = M.triangulate(square, 0.1)
        vals = []
        for _ in range(2):
            space = F.build_space(mesh, 1)
            vals.append(F.nominal(space, cfg).f_dual)
            mesh = M.refine_uniform(mesh)
        assert abs(vals[1] - oracle) < abs(vals[0] - oracle)
        assert abs(vals[1] - oracle) / oracle < 2e-3


class TestNominalForm:
    """The fine form of one (space, config): K(a0), the load and |f|_dual."""

    def test_bit_identical_to_its_formulas(self, space, config):
        form = F.nominal(space, config)
        k0 = F.assemble_stiffness(space, config.a0)
        load = F.assemble_load(space, config.f)
        rep = F._cg(F.assembly(space), k0.data, load)
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(form.stiffness, name), getattr(k0, name))
        assert np.array_equal(form.load, load)
        assert form.f_dual == float(np.sqrt(max(float(load @ rep), 0.0)))

    def test_cached_per_space_and_config_and_read_only(self, space, config):
        form = F.nominal(space, config)
        assert F.nominal(space, config) is form
        k0 = form.stiffness
        for array in (k0.data, k0.indices, k0.indptr, form.load):
            with pytest.raises(ValueError):
                array[0] = 0
        other = F.ProblemConfig(config.alpha, config.beta, config.a0, C.constant(2.0))
        assert F.nominal(space, other) is not form
        assert F.nominal(F.build_space(space.mesh, space.degree), config) is not form

    def test_galerkin_solve_reads_the_cached_load(self, space, config, family):
        a = C.sample_family(family, 1, 7)[0]
        k_a = F.assemble_stiffness(space, a)
        rhs = F.assemble_load(space, config.f)
        expected = F._cg(F.assembly(space), k_a.data, rhs)
        assert np.array_equal(F.galerkin_solve(space, config, a), expected)


class TestConeInvariants:
    def test_coercivity_continuity_sandwich(self, space, config, family, rng):
        samples = C.sample_family(family, 5, 42)
        for a in samples:
            k = F.assemble_stiffness(space, a)
            for _ in range(20):
                w = rng.standard_normal(space.n_free)
                en2 = F.energy_norm(space, config, w) ** 2
                val = float(w @ (k @ w))
                lo = (config.alpha - config.beta) * en2
                hi = (config.alpha + config.beta) * en2
                assert lo - 1e-10 * hi <= val <= hi * (1 + 1e-10)

    def test_shifted_form_bounded_by_beta(self, space, config, k0, family, rng):
        # |b(a - alpha a0; u, v)| <= beta |u| |v|
        samples = C.sample_family(family, 10, 77)
        for a in samples:
            k = F.assemble_stiffness(space, a)
            shifted = k - config.alpha * k0
            for _ in range(10):
                u = rng.standard_normal(space.n_free)
                v = rng.standard_normal(space.n_free)
                val = abs(float(u @ (shifted @ v)))
                bound = (
                    config.beta
                    * F.energy_norm(space, config, u)
                    * F.energy_norm(space, config, v)
                )
                assert val <= bound * (1 + 1e-10)

    def test_galerkin_orthogonality_nested_spaces(self, square, config):
        # both solves must use the same (fine-quadrature) bilinear form;
        # assembling the coarse matrix on coarse elements perturbs the form
        # by quadrature error and breaks exact orthogonality
        coarse = M.triangulate(square, 0.3)
        fine = M.refine_uniform(coarse)
        sc = F.build_space(coarse, 1)
        sf = F.build_space(fine, 1)
        a = C.CoefficientField(lambda p: 1.0 + 0.4 * np.sin(np.pi * p[:, 0]))
        uf = F.galerkin_solve(sf, config, a)
        prol = _p1_prolongation(sc, sf)
        kf = F.assemble_stiffness(sf, a)
        ff = F.assemble_load(sf, config.f)
        uc = spla.spsolve((prol.T @ kf @ prol).tocsr(), prol.T @ ff)
        scale = np.linalg.norm(ff)
        # fine solution is orthogonal to every prolongated coarse function
        assert np.max(np.abs(prol.T @ (kf @ uf - ff))) < 1e-11 * scale
        # hence so is the difference with the inherited coarse solution
        diff = uf - prol @ uc
        assert np.max(np.abs(prol.T @ (kf @ diff))) < 1e-9 * scale

    def test_energy_bound_over_family(self, space, config, family):
        bound = F.nominal(space, config).f_dual / (config.alpha - config.beta)
        for a in C.sample_family(family, 10, 3):
            u = F.galerkin_solve(space, config, a)
            assert F.energy_norm(space, config, u) <= bound + 1e-8


def _p1_prolongation(coarse, fine):
    lookup = {tuple(np.round(p, 12)): i for i, p in enumerate(coarse.mesh.nodes)}
    rows, cols, vals = [], [], []
    for j, p in enumerate(fine.mesh.nodes):
        key = tuple(np.round(p, 12))
        if key in lookup:
            rows.append(j)
            cols.append(lookup[key])
            vals.append(1.0)
        else:
            hits = 0
            for e in _coarse_edges(coarse.mesh):
                mid = 0.5 * (coarse.mesh.nodes[e[0]] + coarse.mesh.nodes[e[1]])
                if np.allclose(mid, p, atol=1e-12):
                    rows.extend([j, j])
                    cols.extend([e[0], e[1]])
                    vals.extend([0.5, 0.5])
                    hits += 1
                    break
            assert hits == 1
    full = sp.coo_matrix(
        (vals, (rows, cols)), shape=(fine.n_dofs, coarse.n_dofs)
    ).tocsr()
    return full[fine.free_dofs][:, coarse.free_dofs]


def _coarse_edges(mesh):
    seen = set()
    for tri in mesh.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            seen.add((min(a, b), max(a, b)))
    return sorted(seen)


# the symmetric seven-point triangle rule, exact for degree 5: a reference
# independent of the degree-4 rule that assembles the forms
_RULE_5 = (
    np.array(
        [[1 / 3, 1 / 3, 1 / 3]]
        + F._orbit(0.797426985353087, 0.101286507323456)
        + F._orbit(0.059715871789770, 0.470142064105115)
    ),
    np.array([0.225] + [0.125939180544827] * 3 + [0.132394152788506] * 3),
)


def _p2_energy_error_sq(space, u, exact_grad):
    """Quadrature of |grad(u_h) - grad(u)|^2 with inline standard P2 shapes."""
    mesh = space.mesh
    p = mesh.nodes[mesh.triangles]
    full = np.zeros(space.n_dofs)
    full[space.free_dofs] = u
    bary, w = _RULE_5
    gl = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    lam = [bary[:, 0], bary[:, 1], bary[:, 2]]
    grads_ref = np.empty((len(w), 6, 2))
    for i in range(3):
        grads_ref[:, i, :] = (4 * lam[i] - 1)[:, None] * gl[i]
    for e, (a_, b_) in enumerate(((0, 1), (1, 2), (2, 0))):
        grads_ref[:, 3 + e, :] = 4 * (
            lam[a_][:, None] * gl[b_] + lam[b_][:, None] * gl[a_]
        )
    total = 0.0
    for t in range(mesh.n_triangles):
        a, b, c = p[t]
        jac = np.array([[b[0] - a[0], c[0] - a[0]], [b[1] - a[1], c[1] - a[1]]])
        det = np.linalg.det(jac)
        inv_t = np.linalg.inv(jac).T
        dofs = full[space.cell_dofs[t]]
        gh = np.einsum("de,qie,i->qd", inv_t, grads_ref, dofs)
        qpts = bary @ p[t]
        diff = exact_grad(qpts) - gh
        total += 0.5 * abs(det) * float(np.sum(w * np.sum(diff**2, axis=1)))
    return total


class TestConfig:
    def test_invalid_band(self):
        with pytest.raises(ValueError):
            F.ProblemConfig(1.0, 1.0)

    def test_normalize_source(self, space):
        cfg = F.normalize_source(space, F.ProblemConfig(2.0, 0.5))
        assert abs(F.nominal(space, cfg).f_dual - 2.0) < 1e-10


class TestP2Space:
    def test_dof_count_nodes_plus_edges(self, square):
        mesh = M.triangulate(square, 0.4)
        space = F.build_space(mesh, 2)
        n_edges = len(_coarse_edges(mesh))
        assert space.n_dofs == mesh.n_nodes + n_edges

    def test_p2_manufactured_rate(self, square):
        f = C.CoefficientField(
            lambda p: 2 * np.pi**2 * np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])
        )
        grad = lambda p: np.stack(
            [
                np.pi * np.cos(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]),
                np.pi * np.sin(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1]),
            ],
            axis=1,
        )
        mesh = M.triangulate(square, 0.4)
        errs = []
        for _ in range(3):
            space = F.build_space(mesh, 2)
            cfg = F.ProblemConfig(1.0, 0.5, f=f)
            u = F.galerkin_solve(space, cfg, C.constant(1.0))
            errs.append(np.sqrt(_p2_energy_error_sq(space, u, grad)))
            mesh = M.refine_uniform(mesh)
        slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(abs(s - 2.0) <= 0.25 for s in slopes)


def test_normalize_source_refuses_a_zero_source(space):
    with pytest.raises(ValueError, match="zero source"):
        F.normalize_source(space, F.ProblemConfig(1.0, 0.5, f=C.constant(0.0)))


def test_cg_checks_the_true_residual(square, monkeypatch):
    # a recurrence stopped at relative residual 1e-6 leaves a true residual far above the
    # 1e-10 that every solve guarantees, so the final check refuses the iterate
    space = F.build_space(M.triangulate(square, 0.05), 1)
    cfg = F.ProblemConfig(1.0, 0.5)
    a = C.sample_family(C.analytic_family(1.0, 0.5, square, n_modes=8), 1, 0)[0]
    F.galerkin_solve(space, cfg, a)
    monkeypatch.setattr(F, "_SOLVE_TOL", 1e-6)
    with pytest.raises(F.SolverError, match="relative residual"):
        F.galerkin_solve(space, cfg, a)
