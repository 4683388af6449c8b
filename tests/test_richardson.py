import dataclasses
import glob
import os
import warnings

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import given, settings
from hypothesis import strategies as st

from richop import cli
from richop import coeff as C
from richop import fem as F
from richop import mesh as M
from richop import reduced_basis as RB
from richop import relu_net as NN
from richop import richardson as R


@pytest.fixture(scope="module")
def probe(config):
    """Coefficient filling most of the band, so the contraction is near beta/alpha
    and iteration errors stay above the floating-point floor for 30+ steps."""
    return C.affine_combination(
        [C.constant(1.0), C.trig_mode(1, 0)], [1.0, 0.98 * config.beta]
    )


def _field_kernel(basis, a):
    """B_a: slice 0 of the stack of a's samples as a one-column block."""
    (b_a,) = R.reduced_stiffness(basis, a(F.quadrature_points(basis.space))[:, None])
    return b_a


class TestAssembleReduced:
    def test_nominal_in_ortho_frame_is_identity(self, basis, config):
        b0 = _field_kernel(basis, config.a0)
        assert np.max(np.abs(b0 - np.eye(basis.size))) < 1e-10

    def test_shift_is_first_unit_vector(self, basis):
        e1 = np.zeros(basis.size)
        e1[0] = 1.0
        assert np.max(np.abs(basis.nominal.shift - e1)) < 1e-10

    def test_tiny_case_hand_quadrature(self, square):
        # double-refined two-triangle square, piecewise-constant coefficient,
        # orthonormal frame; the oracle assembles b(v; psi_i, psi_j) per element
        mesh = M.refine_uniform(M.refine_uniform(M.triangulate(square, 1.5)))
        space = F.build_space(mesh, 1)
        config = F.normalize_source(space, F.ProblemConfig(1.0, 0.5))
        v = C.CoefficientField(lambda p: np.where(p[:, 0] < 0.5, 0.8, 1.2))
        fam = C.analytic_family(1.0, 0.5, square, n_modes=2, decay=0.8)
        snaps = RB.generate_snapshots(fam, 4, 5, space, config)
        basis, _ = RB.weak_greedy(snaps, 1)
        assert basis.size == 2
        b_v = _field_kernel(basis, v)
        oracle = _hand_reduced_matrix(space, basis.ortho, v)
        assert np.max(np.abs(b_v - oracle)) < 1e-12

    def test_spd_check(self, basis, config):
        broken = RB.ReducedBasis(
            basis.space,
            basis.config,
            np.zeros_like(basis.raw),
            np.zeros_like(basis.ortho),
            basis.selection_indices,
        )
        with pytest.raises(RuntimeError):
            R.iteration_matrix(broken, config.a0)

    def test_broken_basis_is_a_library_error(self, basis, space, config, nodal_encoder):
        # every reader of the nominal form refuses a basis whose B0 is not SPD
        broken = RB.ReducedBasis(
            basis.space,
            basis.config,
            np.zeros_like(basis.raw),
            np.zeros_like(basis.ortho),
            basis.selection_indices,
        )
        for read_form in (
            lambda: R.iteration_matrix(broken, config.a0),
            lambda: NN.input_net(broken, nodal_encoder),
            lambda: NN.build_approximator(broken, space, config, nodal_encoder, 1e-2),
        ):
            with pytest.raises(RB.IllConditionedBasisError, match="basis is broken"):
                read_form()

    def test_equals_the_formulas_bit_for_bit(self, basis, space, config, family):
        # the cached nominal form and the kernel give every array of the step unchanged
        p = basis.ortho
        b0 = p.T @ (basis.nominal_stiffness @ p)
        load = p.T @ F.assemble_load(space, config.f)
        chol = la.cho_factor(b0, lower=True)
        shift = la.cho_solve(chol, load) / config.alpha
        for a in C.sample_family(family, 2, 37):
            b_v = p.T @ (F.assemble_stiffness(space, a) @ p)
            matrix = np.eye(len(load)) - la.cho_solve(chol, b_v) / config.alpha
            for got, expected in (
                (basis.nominal.b0, b0),
                (_field_kernel(basis, a), b_v),
                (basis.nominal.load, load),
                (R.iteration_matrix(basis, a), matrix),
                (basis.nominal.shift, shift),
            ):
                assert np.array_equal(got, expected)

    def test_nominal_form_is_read_only(self, basis):
        form = basis.nominal
        assert basis.nominal is form
        for array in (form.b0, form.chol[0], form.load, form.shift):
            with pytest.raises(ValueError):
                array[0] = 0.0


class TestReducedStiffness:
    def test_iteration_matrix_reads_the_kernel(self, basis, family, space, config):
        a = C.sample_family(family, 1, 71)[0]
        kernel = _field_kernel(basis, a)
        assert kernel.shape == (basis.size, basis.size)
        matrix = np.eye(basis.size) - la.cho_solve(basis.nominal.chol, kernel) / config.alpha
        assert np.array_equal(R.iteration_matrix(basis, a), matrix)
        samples = a(F.quadrature_points(space))
        # the kernel takes only a block; iteration_matrix flattens any samples array, so
        # no shape of one reads as a block
        with pytest.raises(ValueError, match="2 dimensions"):
            R.reduced_stiffness(basis, samples)
        for shaped in (samples, samples[:, None], samples.reshape(space.mesh.n_triangles, -1)):
            assert np.array_equal(R.iteration_matrix(basis, shaped), matrix)

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_block_slices_equal_single_columns(self, basis, space, nodal_encoder, kind):
        channels = nodal_encoder.channel_matrix(F.quadrature_points(space))
        dense = channels.toarray()
        block = R.reduced_stiffness(basis, channels if kind == "sparse" else dense)
        assert block.shape == (nodal_encoder.m, basis.size, basis.size)
        assert not block.flags.writeable
        for k in range(nodal_encoder.m):
            assert np.array_equal(block[k], R.reduced_stiffness(basis, dense[:, k:k + 1])[0])

    def test_block_rows_equal_direct_solve_per_column(self, basis, family, space):
        # unit weights pick one slice each: row k is the field solve of column k
        members = C.sample_family(family, 3, 73)
        block = np.column_stack([a(F.quadrature_points(space)) for a in members])
        solved = R.direct_solve(basis, block, np.eye(3))
        assert solved.shape == (3, basis.size)
        for a, column, c in zip(members, block.T, solved):
            assert np.array_equal(c, R.direct_solve(basis, column))
            assert np.array_equal(c, R.direct_solve(basis, a))

    def test_non_finite_block_is_a_membership_error(self, basis, family, space):
        block = np.column_stack([a(F.quadrature_points(space))
                                 for a in C.sample_family(family, 2, 79)])
        block[5, 1] = np.nan
        for call in (lambda: R.reduced_stiffness(basis, block),
                     lambda: R.direct_solve(basis, block, np.eye(2))):
            with pytest.raises(F.MembershipError):
                call()


def _members_on_table(family, space, count, seed):
    """count family members, their shared point table at the quadrature points and
    their weights (count, K + 1): each member is exactly table @ its weights."""
    members = C.sample_family(family, count, seed)
    table = members[0].meta["table"](F.quadrature_points(space))
    return members, table, np.stack([a.meta["weights"] for a in members])


class TestWeightedSolve:
    def test_rows_match_the_solve_of_the_summed_samples(self, basis, family, space):
        _, table, weights = _members_on_table(family, space, 4, 83)
        weighted = R.direct_solve(basis, table, weights)
        sampled = np.stack([R.direct_solve(basis, table @ w) for w in weights])
        assert weighted.shape == sampled.shape == (4, basis.size)
        assert np.max(np.abs(weighted - sampled)) <= 1e-12 * np.max(np.abs(sampled))

    def test_each_row_equals_its_single_row_call(self, basis, family, space, nodal_encoder, rng):
        _, table, weights = _members_on_table(family, space, 3, 89)
        channels = nodal_encoder.channel_matrix(F.quadrature_points(space))
        ys = 1.0 + 0.4 * rng.uniform(-1.0, 1.0, size=(3, nodal_encoder.m))
        for block, w in ((table, weights), (channels, ys)):
            solved = R.direct_solve(basis, block, w)
            for j in range(len(w)):
                assert np.array_equal(solved[j], R.direct_solve(basis, block, w[j:j + 1])[0])

    def test_weight_one_column_is_the_field_solve(self, basis, family, space):
        # the field solve of P^T K(a) P c = f_N, written out here
        a = C.sample_family(family, 1, 97)[0]
        p, samples = basis.ortho, a(F.quadrature_points(space))
        b_a = p.T @ (F.assemble_stiffness(space, a) @ p)
        expected = la.solve(b_a, basis.nominal.load, assume_a="sym")
        (c,) = R.direct_solve(basis, samples[:, None], [[1.0]])
        for got in (c, R.direct_solve(basis, a), R.direct_solve(basis, samples)):
            assert np.array_equal(got, expected)

    def test_stack_built_once_per_read_only_block(self, basis, family, space, stack_builds):
        fresh, built = dataclasses.replace(basis), stack_builds  # a basis with empty caches
        _, table, weights = _members_on_table(family, space, 2, 101)
        assert not table.flags.writeable
        first = R.direct_solve(fresh, table, weights)
        assert np.array_equal(R.direct_solve(fresh, table, weights[::-1]), first[::-1])
        assert built == [table.shape]
        stack = R.reduced_stiffness(fresh, table)
        assert R.reduced_stiffness(fresh, table) is stack and not stack.flags.writeable
        writable = table.copy()
        R.direct_solve(fresh, writable, weights)
        R.direct_solve(fresh, writable, weights)
        assert built == [table.shape] * 3 and len(fresh._stacks) == 1
        # a writable block's stack is read-only too, and a fresh array on every call
        rebuilt = R.reduced_stiffness(fresh, writable)
        assert not rebuilt.flags.writeable and rebuilt is not R.reduced_stiffness(fresh, writable)

    def test_sparse_block_cached_only_with_read_only_arrays(self, basis, space, nodal_encoder):
        fresh = dataclasses.replace(basis)
        channels = nodal_encoder.channel_matrix(F.quadrature_points(space))
        assert R.reduced_stiffness(fresh, channels) is R.reduced_stiffness(fresh, channels)
        writable = channels.copy()
        assert writable.data.flags.writeable
        assert R.reduced_stiffness(fresh, writable) is not R.reduced_stiffness(fresh, writable)
        assert len(fresh._stacks) == 1

    def test_empty_blocks_and_weights(self, basis, family, space):
        n, n_qp = basis.size, len(F.quadrature_points(space))
        empty = np.zeros((n_qp, 0))
        assert R.reduced_stiffness(basis, empty).shape == (0, n, n)
        assert R.direct_solve(basis, empty, np.zeros((0, 0))).shape == (0, n)
        _, table, _ = _members_on_table(family, space, 1, 107)
        assert R.direct_solve(basis, table, np.zeros((0, table.shape[1]))).shape == (0, n)

    @pytest.mark.parametrize("shape", [(5,), (2, 3), (1, 1, 5)])
    def test_weights_must_be_one_row_per_solve(self, basis, family, space, shape):
        _, table, _ = _members_on_table(family, space, 1, 109)
        assert table.shape[1] == 5
        with pytest.raises(ValueError, match="weights"):
            R.direct_solve(basis, table, np.ones(shape))


CONFIGS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "configs", "*.json")))


def _outcome(solve):
    """What one solve gives: its solution or its error's type, and its LinAlgWarning count."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = solve()
        except ValueError as exc:  # LinAlgError is a ValueError
            result = type(exc)
    return result, sum(issubclass(w.category, la.LinAlgWarning) for w in caught)


def _same(got, expected):
    (x, x_warned), (y, y_warned) = got, expected
    same = x is y if isinstance(y, type) else not isinstance(x, type) and np.array_equal(x, y)
    return same and x_warned == y_warned


class TestSymmetricSolve:
    """direct_solve's LDL^T through LAPACK against the la.solve(..., assume_a="sym") it replaces."""

    @pytest.mark.parametrize("n", [1, 2, 5, 9, 13, 70])  # 70: dsytrf's blocked path
    @pytest.mark.parametrize("kind", ["spd", "indefinite"])
    def test_random_systems_equal_la_solve(self, n, kind):
        rng = np.random.default_rng(1000 * n + len(kind))
        for _ in range(40):
            m = rng.standard_normal((n, n))
            b = m @ m.T + n * np.eye(n) if kind == "spd" else m + m.T
            b += 1e-14 * rng.standard_normal((n, n))  # not exactly symmetric, like P^T K P
            load = rng.standard_normal(n)
            assert np.array_equal(R._sym_solve(b, load), la.solve(b, load, assume_a="sym"))

    @pytest.mark.parametrize("path", CONFIGS, ids=os.path.basename)
    def test_committed_stacks_equal_la_solve(self, path):
        # every slice of the channel stack (and of a family's point-table stack) alone, then
        # the encodings of family members: direct_solve row by row against la.solve of the
        # same B_j, warnings included (boundary channels give near-singular slices)
        s = cli.Setup(cli.load_config(path), 0)
        basis, points = s.greedy[0], F.quadrature_points(s.space)
        members = C.sample_family(s.family, 3, 11)
        blocks = [(s.encoder.channel_matrix(points), [s.encoder.encode(a) for a in members])]
        if "table" in members[0].meta:
            blocks.append((members[0].meta["table"](points), [a.meta["weights"] for a in members]))
        for block, weights in blocks:
            stack, load = R.reduced_stiffness(basis, block), basis.nominal.load
            flat = stack.reshape(len(stack), -1)
            for w in [*np.eye(len(stack)), *weights]:
                b = np.reshape(w @ flat, stack.shape[1:])
                got = _outcome(lambda: R.direct_solve(basis, block, [w])[0])
                assert _same(got, _outcome(lambda: la.solve(b, load, assume_a="sym")))

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_is_a_value_error(self, n, bad):
        b = np.eye(n)
        b[0, n - 1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            R._sym_solve(b, np.ones(n))
        with pytest.raises(ValueError):
            la.solve(b, np.ones(n), assume_a="sym")

    @pytest.mark.parametrize("make, n", [("zeros", 1), ("zeros", 2), ("zeros", 5),
                                         ("ones", 2), ("ones", 5)])
    def test_exactly_singular_is_a_lin_alg_error(self, make, n):
        b = getattr(np, make)((n, n))
        with pytest.raises(la.LinAlgError):
            R._sym_solve(b, np.ones(n))
        assert _same(_outcome(lambda: R._sym_solve(b, np.ones(n))),
                     _outcome(lambda: la.solve(b, np.ones(n), assume_a="sym")))

    @pytest.mark.parametrize("n", [2, 5])
    def test_near_singular_warns(self, n):
        b, load = np.diag([1.0] * (n - 1) + [1e-17]), np.arange(1.0, n + 1)
        with pytest.warns(la.LinAlgWarning, match="rcond"):
            x = R._sym_solve(b, load)
        assert _same((x, 1), _outcome(lambda: la.solve(b, load, assume_a="sym")))

    def test_upper_triangle_decides_the_rcond_check(self):
        # la.solve reads only the upper triangle, its condition estimate included: a large
        # lower entry neither changes the solution nor raises a warning
        b, load = np.array([[1.0, 0.0], [100.0, 1e-15]]), np.ones(2)
        assert _same(_outcome(lambda: R._sym_solve(b, load)),
                     _outcome(lambda: la.solve(b, load, assume_a="sym")))
        assert _outcome(lambda: R._sym_solve(b, load))[1] == 0


def _hand_reduced_matrix(space, columns, v):
    mesh = space.mesh
    p = mesh.nodes[mesh.triangles]
    full = np.zeros((space.n_dofs, columns.shape[1]))
    full[space.free_dofs] = columns
    out = np.zeros((columns.shape[1], columns.shape[1]))
    for t, tri in enumerate(mesh.triangles):
        a, b, c = p[t]
        det = (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])
        grads = (
            np.array(
                [
                    [b[1] - c[1], c[0] - b[0]],
                    [c[1] - a[1], a[0] - c[0]],
                    [a[1] - b[1], b[0] - a[0]],
                ]
            )
            / det
        )
        centroid = (a + b + c) / 3.0
        vt = v(centroid[None, :])[0]
        g = grads.T @ full[tri]  # (2, n_cols)
        out += 0.5 * abs(det) * vt * (g.T @ g)
    return out


class TestContractionNorm:
    def test_scaled_nominal_contracts_to_zero(self, basis, config):
        a0 = R.iteration_matrix(basis, config.scaled_nominal())
        assert np.linalg.norm(a0, 2) < 1e-10

    def test_family_samples_below_bound(self, basis, config, family):
        bound = config.beta / config.alpha
        for a in C.sample_family(family, 10, 64):
            assert np.linalg.norm(R.iteration_matrix(basis, a), 2) <= bound + 1e-10


class TestIterate:
    def test_one_step_fixed_point_at_nominal(self, basis, config):
        a0 = R.iteration_matrix(basis, config.scaled_nominal())
        iterates = R.iterate(basis, a0, 1)
        assert iterates.shape == (2, basis.size)
        e1 = np.zeros(basis.size)
        e1[0] = 1.0
        assert np.max(np.abs(iterates[-1] - e1)) < 1e-12

    def test_start_vector_norm_exactly_one(self, basis, probe):
        iterates = R.iterate(basis, R.iteration_matrix(basis, probe), 5)
        assert np.linalg.norm(iterates[0]) == 1.0

    def test_geometric_convergence_vs_direct(self, basis, space, config, probe):
        c_star = R.direct_solve(basis, probe)
        iterates = R.iterate(basis, R.iteration_matrix(basis, probe), 30)
        errs = [R.reduced_energy_error(basis, c, c_star) for c in iterates]
        ratio = config.beta / config.alpha
        for k in range(30):
            assert errs[k + 1] <= (ratio + 1e-8) * errs[k]
        f_dual = F.nominal(space, config).f_dual
        for k in range(31):
            bound = (1.0 / (config.alpha - config.beta)) * ratio ** (k + 1) * f_dual
            assert errs[k] <= bound + 1e-8

    def test_fixed_point_consistency_long_run(self, basis, family):
        for a in C.sample_family(family, 3, 17):
            iterates = R.iterate(basis, R.iteration_matrix(basis, a), 200)
            c_star = R.direct_solve(basis, a)
            assert np.linalg.norm(iterates[-1] - c_star) < 1e-10

    def test_coefficient_bound_along_trajectories(self, basis, config, family):
        ratio = config.beta / config.alpha
        cap = config.alpha / (config.alpha - config.beta)
        for a in C.sample_family(family, 20, 23):
            iterates = R.iterate(basis, R.iteration_matrix(basis, a), 50)
            for k, c in enumerate(iterates):
                assert np.linalg.norm(c) <= ratio**k + cap + 1e-8

    def test_negative_steps_rejected(self, basis, config):
        a0 = R.iteration_matrix(basis, config.a0)
        with pytest.raises(ValueError):
            R.iterate(basis, a0, -1)


class TestChooseStepCount:
    def test_reference_value(self):
        # direct evaluation: (|log 5e-4| + |log 1 - log 0.5|) / |log 0.5|
        #                  = (7.6009 + 0.6931) / 0.6931 = 11.97 -> 12
        assert R.choose_step_count(1.0, 0.5, 1.0, 1e-3) == 12

    @settings(max_examples=30, deadline=None)
    @given(
        eps1=st.floats(min_value=1e-8, max_value=0.5),
        factor=st.floats(min_value=1.0, max_value=100.0),
    )
    def test_monotone_in_epsilon(self, eps1, factor):
        eps2 = min(eps1 * factor, 0.99)
        k1 = R.choose_step_count(1.0, 0.5, 1.0, eps1)
        k2 = R.choose_step_count(1.0, 0.5, 1.0, eps2)
        assert k2 <= k1

    def test_log_cancellation_when_dual_norm_matches_gap(self):
        import math

        k = R.choose_step_count(1.0, 0.5, 0.5, 1e-2)
        assert k == math.ceil(abs(math.log(0.5e-2)) / abs(math.log(0.5)))

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            R.choose_step_count(1.0, 0.0, 1.0, 1e-3)
        with pytest.raises(ValueError):
            R.choose_step_count(1.0, 0.5, 1.0, 2.0)
        with pytest.raises(ValueError):
            R.choose_step_count(1.0, 0.5, -1.0, 0.1)


class TestReducedEnergyError:
    def test_identical_vectors(self, basis):
        c = np.ones(basis.size)
        assert R.reduced_energy_error(basis, c, c) == 0.0

    def test_orthonormal_frame_matches_l2(self, basis, rng):
        c1 = rng.standard_normal(basis.size)
        c2 = rng.standard_normal(basis.size)
        val = R.reduced_energy_error(basis, c1, c2)
        assert abs(val - np.linalg.norm(c1 - c2)) < 1e-12

    def test_matches_full_space_recomputation(self, basis, space, config, rng):
        c1 = rng.standard_normal(basis.size)
        c2 = rng.standard_normal(basis.size)
        direct = F.energy_norm(
            space,
            config,
            RB.synthesize(basis, c1, "ortho") - RB.synthesize(basis, c2, "ortho"),
        )
        assert abs(R.reduced_energy_error(basis, c1, c2) - direct) < 1e-10
