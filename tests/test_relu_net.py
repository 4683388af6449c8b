import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from richop import coeff as C
from richop import fem as F
from richop import relu_net as NN
from richop import richardson as R
from richop import reduced_basis as RB


def random_net(rng, depth, width_lo=2, width_hi=5, density=0.6):
    widths = [int(rng.integers(width_lo, width_hi + 1)) for _ in range(depth + 1)]
    layers = []
    for ell in range(depth):
        w = rng.standard_normal((widths[ell + 1], widths[ell]))
        w[rng.random(w.shape) > density] = 0.0
        b = rng.standard_normal(widths[ell + 1])
        layers.append((sp.csr_matrix(w), b))
    return NN.NeuralNet(layers)


class TestRealize:
    def test_depth_one_affine(self, rng):
        # sparse and dense matvecs may sum in different orders; agreement is
        # exact up to reassociation
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal(3)
        net = NN.affine_net(a, b)
        x = rng.standard_normal(4)
        assert np.max(np.abs(NN.realize(net, x) - (a @ x + b))) < 1e-14

    def test_identity_net_exact(self, rng):
        net = NN.identity_net(5, 4)
        x = rng.standard_normal((20, 5))
        assert np.array_equal(NN.realize(net, x), x)

    def test_hand_built_max_net(self, rng):
        # max(x1, x2) = x2 + relu(x1 - x2), with x2 = relu(x2) - relu(-x2)
        w1 = sp.csr_matrix(np.array([[1.0, -1.0], [0.0, 1.0], [0.0, -1.0]]))
        w2 = sp.csr_matrix(np.array([[1.0, 1.0, -1.0]]))
        net = NN.NeuralNet([(w1, np.zeros(3)), (w2, np.zeros(1))])
        pairs = rng.standard_normal((100, 2))
        got = NN.realize(net, pairs)[:, 0]
        assert np.max(np.abs(got - np.maximum(pairs[:, 0], pairs[:, 1]))) < 1e-15

    def test_width_mismatch(self, rng):
        net = NN.identity_net(3, 2)
        with pytest.raises(ValueError):
            NN.realize(net, np.ones(4))

    def test_rejects_bad_batch_shapes(self):
        net = NN.identity_net(3, 2)
        with pytest.raises(ValueError):
            NN.realize(net, np.ones((2, 4)))
        with pytest.raises(ValueError):
            NN.realize(net, np.ones((2, 2, 3)))

    def test_single_input_equals_batch_row_bitwise(self, rng):
        nets = [random_net(rng, 4), NN.product_net(1e-5, 2.0)]
        nets.append(NN.step_net(3, 4.0, 1e-4, rng.standard_normal(3), carry=True))
        for net in nets:
            x = rng.uniform(-1, 1, (7, net.n_inputs))
            batch = NN.realize(net, x)
            for i in range(len(x)):
                single = NN.realize(net, x[i])
                assert single.shape == (net.n_outputs,)
                assert np.array_equal(single, batch[i])

    def test_size_counts_nonzeros(self):
        w = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 2.0]]))
        net = NN.NeuralNet([(w, np.array([0.0, 3.0]))])
        assert net.size == 3
        assert net.depth == 1


class TestSparseConcat:
    def test_identity_outer_preserves_realization(self, rng):
        inner = random_net(rng, 3)
        outer = NN.identity_net(inner.n_outputs, 1)
        net = NN.sparse_concat(outer, inner)
        x = rng.standard_normal((100, inner.n_inputs))
        got = NN.realize(net, x)
        want = NN.realize(inner, x)
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))

    def test_depth_and_size_bounds_on_random_pairs(self, rng):
        for _ in range(50):
            inner = random_net(rng, int(rng.integers(1, 4)))
            outer = random_net(rng, int(rng.integers(1, 4)))
            # align interface widths
            w, b = outer.layers[0]
            w = sp.csr_matrix(rng.standard_normal((w.shape[0], inner.n_outputs)))
            outer = NN.NeuralNet([(w, b)] + outer.layers[1:])
            net = NN.sparse_concat(outer, inner)
            assert net.depth <= outer.depth + inner.depth
            assert net.size <= 2 * (outer.size + inner.size)
            x = rng.standard_normal((30, inner.n_inputs))
            want = NN.realize(outer, NN.realize(inner, x))
            got = NN.realize(net, x)
            scale = max(1.0, np.max(np.abs(want)))
            assert np.max(np.abs(got - want)) <= 1e-13 * scale

    def test_width_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            NN.sparse_concat(NN.identity_net(3, 1), NN.identity_net(4, 1))


class TestProductNet:
    def test_reference_point(self):
        net = NN.product_net(1e-6, 1.0)
        val = NN.realize(net, np.array([0.5, 0.25]))[0]
        assert abs(val - 0.125) <= 1e-6

    def test_zero_factor_within_certificate(self, rng):
        # documented branch: zero factors cancel to rounding level, not to
        # an exact zero; the certificate is the guarantee
        net = NN.product_net(1e-6, 1.0)
        xs = rng.uniform(-1, 1, 50)
        vals = NN.realize(net, np.column_stack([xs, np.zeros(50)]))
        assert np.max(np.abs(vals)) <= 1e-6

    def test_epsilon_sweep_certificates_and_depth(self):
        eps_list = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8]
        xs = np.linspace(-1, 1, 200)
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        batch = np.column_stack([gx.ravel(), gy.ravel()])
        exact = gx.ravel() * gy.ravel()
        depths = []
        for eps in eps_list:
            net = NN.product_net(eps, 1.0)
            err = np.max(np.abs(NN.realize(net, batch)[:, 0] - exact))
            assert err <= eps
            depths.append(net.depth)
        logs = np.log(1.0 / np.asarray(eps_list))
        a = np.column_stack([logs, np.ones(len(logs))])
        coefs, *_ = np.linalg.lstsq(a, np.asarray(depths, dtype=float), rcond=None)
        pred = a @ coefs
        r2 = 1 - np.sum((depths - pred) ** 2) / np.sum(
            (depths - np.mean(depths)) ** 2
        )
        assert r2 >= 0.98

    @pytest.mark.parametrize("bound", [1.0, 3.0, 7.5])
    @pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-4, 1.5e-5, 1e-8])
    def test_box_scaling(self, rng, eps, bound):
        net = NN.product_net(eps, bound)
        xs = np.linspace(-bound, bound, 161)
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        grid = np.column_stack([gx.ravel(), gy.ravel()])
        pts = np.vstack([grid, rng.uniform(-bound, bound, (500, 2))])
        got = NN.realize(net, pts)[:, 0]
        assert np.max(np.abs(got - pts[:, 0] * pts[:, 1])) <= eps

    @pytest.mark.parametrize("bound", [1.0, 3.0, 7.5, 20.0])
    @pytest.mark.parametrize("eps", [0.5, 1e-1, 1e-2, 1e-4, 1.5e-5, 3.7e-7, 1e-8])
    def test_sawtooth_levels_smallest_certified(self, eps, bound):
        # certified product error with m levels is 2 Z^2 4^-(m+1)
        m = NN._sawtooth_levels(eps, bound)
        assert m >= 1
        assert 2.0 * bound**2 * 4.0 ** -(m + 1) <= eps
        assert m == 1 or 2.0 * bound**2 * 4.0 ** -m > eps

    def test_validation(self):
        with pytest.raises(ValueError):
            NN.product_net(2.0, 1.0)
        with pytest.raises(ValueError):
            NN.product_net(1e-3, 0.5)


def matvec_net(n, epsilon, bound):
    """Net mapping (vec(A), x) to Ax within epsilon in l2: a step with zero shift."""
    return NN.step_net(n, bound, epsilon, np.zeros(n), carry=False)


class TestMatvecNet:
    def test_zero_matrix(self, rng):
        n = 4
        net = matvec_net(n, 1e-4, 2.0)
        x = rng.standard_normal(n)
        out = NN.realize(net, np.concatenate([np.zeros(n * n), x]))
        assert np.linalg.norm(out) <= 1e-4

    def test_identity_matrix(self, rng):
        n = 5
        net = matvec_net(n, 1e-4, 2.0)
        x = rng.standard_normal(n)
        x *= 1.5 / np.linalg.norm(x)
        out = NN.realize(net, np.concatenate([np.eye(n).flatten(order="F"), x]))
        assert np.linalg.norm(out - x) <= 1e-4

    def test_random_vs_dense_oracle(self, rng):
        n = 6
        net = matvec_net(n, 1e-4, 2.0)
        for _ in range(10):
            a = rng.uniform(-0.5, 0.5, (n, n))
            a *= 0.5 / max(np.linalg.norm(a, 2), 0.5)
            x = rng.standard_normal(n)
            x *= 2.0 / np.linalg.norm(x)
            out = NN.realize(net, np.concatenate([a.flatten(order="F"), x]))
            assert np.linalg.norm(out - a @ x) <= 1e-4

    def test_vec_index_column_major(self):
        n = 3
        a = np.arange(9.0).reshape(3, 3)
        flat = a.flatten(order="F")
        for i in range(n):
            for j in range(n):
                assert flat[NN.vec_index(i, j, n)] == a[i, j]


@pytest.fixture(scope="module")
def lab(basis, space, config, nodal_encoder):
    from richop import fem as F

    f_dual = F.dual_norm(space, config, k0=basis.nominal_stiffness)
    return {
        "basis": basis,
        "space": space,
        "config": config,
        "encoder": nodal_encoder,
        "f_dual": f_dual,
    }


class TestStepNet:
    def test_matches_exact_step_on_samples(self, lab, family, rng):
        basis, space, config = lab["basis"], lab["space"], lab["config"]
        n = basis.size
        eps = 1e-4
        z = 4.0
        a = C.sample_family(family, 1, 91)[0]
        sys_a = R.assemble_reduced(basis, space, config, a)
        net = NN.step_net(n, z, eps, sys_a.shift, carry=False)
        for _ in range(5):
            x = rng.standard_normal(n)
            x *= rng.uniform(0.1, z) / np.linalg.norm(x)
            out = NN.realize(
                net, np.concatenate([sys_a.iteration_matrix.flatten(order="F"), x])
            )
            exact = sys_a.iteration_matrix @ x + sys_a.shift
            assert np.linalg.norm(out - exact) <= eps

    def test_fixed_point_maps_to_itself(self, lab, family):
        basis, space, config = lab["basis"], lab["space"], lab["config"]
        a = C.sample_family(family, 1, 17)[0]
        sys_a = R.assemble_reduced(basis, space, config, a)
        c_star = R.direct_solve(sys_a)
        eps = 1e-5
        net = NN.step_net(basis.size, 4.0, eps, sys_a.shift, carry=False)
        out = NN.realize(
            net, np.concatenate([sys_a.iteration_matrix.flatten(order="F"), c_star])
        )
        assert np.linalg.norm(out - c_star) <= eps

    def test_nominal_zero_matrix_returns_shift(self, lab, rng):
        basis, space, config = lab["basis"], lab["space"], lab["config"]
        sys0 = R.assemble_reduced(basis, space, config, config.scaled_nominal())
        n = basis.size
        eps = 1e-5
        net = NN.step_net(n, 4.0, eps, sys0.shift, carry=False)
        x = rng.standard_normal(n)
        x *= 3.0 / np.linalg.norm(x)
        out = NN.realize(
            net, np.concatenate([sys0.iteration_matrix.flatten(order="F"), x])
        )
        assert np.linalg.norm(out - sys0.shift) <= eps

    def test_carry_passthrough(self, lab, rng):
        n = 3
        flat = rng.uniform(-0.9, 0.9, n * n)
        x = rng.standard_normal(n)
        x *= 2.0 / np.linalg.norm(x)
        net = NN.step_net(n, 4.0, 1e-4, np.zeros(n), carry=True)
        out = NN.realize(net, np.concatenate([flat, x]))
        assert np.array_equal(out[: n * n], flat)


class TestIteratorNet:
    def test_zero_steps_returns_start_vector(self, lab):
        n = lab["basis"].size
        net = NN.iterator_net(n, 0, 1e-3, np.zeros(n), 0.5)
        out = NN.realize(net, np.zeros(n * n))
        e1 = np.zeros(n)
        e1[0] = 1.0
        assert np.array_equal(out, e1)

    def test_nominal_contracts_to_start(self, lab):
        basis, space, config = lab["basis"], lab["space"], lab["config"]
        sys0 = R.assemble_reduced(basis, space, config, config.scaled_nominal())
        eps = 1e-5
        net = NN.iterator_net(basis.size, 3, eps, sys0.shift, 0.5)
        out = NN.realize(net, sys0.iteration_matrix.flatten(order="F"))
        e1 = np.zeros(basis.size)
        e1[0] = 1.0
        assert np.linalg.norm(out - e1) <= eps

    def test_tracks_exact_iterate_at_chosen_step_count(self, lab, family):
        basis, space, config = lab["basis"], lab["space"], lab["config"]
        eps = 1e-3
        k = R.choose_step_count(config.alpha, config.beta, lab["f_dual"], eps)
        for a in C.sample_family(family, 3, 37):
            sys_a = R.assemble_reduced(basis, space, config, a)
            net = NN.iterator_net(
                basis.size, k, eps, sys_a.shift, config.beta / config.alpha
            )
            out = NN.realize(net, sys_a.iteration_matrix.flatten(order="F"))
            exact = R.iterate(sys_a, k, record=False).coefficients
            assert np.linalg.norm(out - exact) <= eps


class TestInputNet:
    def test_scaled_nominal_maps_to_zero_matrix(self, lab):
        basis, space, config, enc = (
            lab["basis"],
            lab["space"],
            lab["config"],
            lab["encoder"],
        )
        net = NN.input_net(basis, space, config, enc)
        y = enc.encode(config.scaled_nominal())
        out = NN.realize(net, y)
        assert np.max(np.abs(out)) < 1e-10

    def test_zero_encoding_gives_identity(self, lab):
        basis, space, config, enc = (
            lab["basis"],
            lab["space"],
            lab["config"],
            lab["encoder"],
        )
        net = NN.input_net(basis, space, config, enc)
        out = NN.realize(net, np.zeros(enc.m))
        assert np.array_equal(out, np.eye(basis.size).flatten(order="F"))

    def test_matches_reduced_assembly_entrywise(self, lab, family):
        basis, space, config, enc = (
            lab["basis"],
            lab["space"],
            lab["config"],
            lab["encoder"],
        )
        net = NN.input_net(basis, space, config, enc)
        for a in C.sample_family(family, 10, 53):
            y = enc.encode(a)
            recon = enc.reconstruct(y)
            sys_r = R.assemble_reduced(basis, space, config, recon)
            out = NN.realize(net, y)
            assert np.max(
                np.abs(out - sys_r.iteration_matrix.flatten(order="F"))
            ) <= 1e-12

    def test_exactly_affine(self, lab, rng):
        basis, space, config, enc = (
            lab["basis"],
            lab["space"],
            lab["config"],
            lab["encoder"],
        )
        net = NN.input_net(basis, space, config, enc)
        bias = NN.realize(net, np.zeros(enc.m))
        y1 = rng.standard_normal(enc.m)
        y2 = rng.standard_normal(enc.m)
        lhs = NN.realize(net, y1 + y2)
        rhs = NN.realize(net, y1) + NN.realize(net, y2) - bias
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_size_bound(self, lab):
        basis, enc = lab["basis"], lab["encoder"]
        net = NN.input_net(basis, lab["space"], lab["config"], enc)
        n = basis.size
        assert net.size <= n * n * enc.m + n * n


@pytest.fixture(scope="module")
def bundle(lab):
    return NN.build_approximator(
        lab["basis"], lab["space"], lab["config"], lab["encoder"], 1e-2
    )


class TestApproximator:
    def test_certificate_against_exact_iterate(self, bundle, lab, family):
        basis, space, config = lab["basis"], lab["space"], lab["config"]
        for a in C.sample_family(family, 20, 3):
            y = lab["encoder"].encode(a)
            recon = lab["encoder"].reconstruct(y)
            sys_r = R.assemble_reduced(basis, space, config, recon)
            exact = R.iterate(sys_r, bundle.k_steps, record=False).coefficients
            assert np.linalg.norm(bundle.realize(y) - exact) <= bundle.eps_iterator

    def test_energy_certificate_vs_dense_solve(self, bundle, lab, family):
        basis, space, config = lab["basis"], lab["space"], lab["config"]
        k0 = basis.nominal_stiffness
        for a in C.sample_family(family, 10, 4):
            y = lab["encoder"].encode(a)
            recon = lab["encoder"].reconstruct(y)
            sys_r = R.assemble_reduced(basis, space, config, recon)
            u_net = RB.synthesize(basis, bundle.realize(y), "ortho")
            u_ref = RB.synthesize(basis, R.direct_solve(sys_r), "ortho")
            err = F.energy_norm(space, config, u_net - u_ref, k0=k0)
            assert err <= bundle.report.tolerance

    def test_recurrent_mode_matches_unrolled(self, bundle, lab, family):
        y = lab["encoder"].encode(C.sample_family(family, 1, 5)[0])
        a = bundle.realize(y)
        b = bundle.realize_recurrent(y)
        assert np.max(np.abs(a - b)) <= 1e-13 * max(1.0, np.max(np.abs(a)))

    def test_report_recount(self, bundle):
        assert bundle.report.depth == bundle.net.depth
        assert bundle.report.size == bundle.net.size
        sections = dict((name, nnz) for name, nnz in bundle.report.sections)
        assert sum(sections.values()) == bundle.report.size

    def test_size_monotone_in_accuracy(self, lab):
        sizes = []
        depths = []
        for eps in (1e-1, 1e-2, 1e-3):
            b = NN.build_approximator(
                lab["basis"], lab["space"], lab["config"], lab["encoder"], eps
            )
            sizes.append(b.report.size)
            depths.append(b.report.depth)
        assert sizes == sorted(sizes)
        assert depths == sorted(depths)

    def test_builds_one_carry_and_one_final_step(self, lab, monkeypatch):
        built = []
        step_net = NN.step_net

        def counting_step_net(*args, **kwargs):
            built.append(step_net(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(NN, "step_net", counting_step_net)
        b = NN.build_approximator(
            lab["basis"], lab["space"], lab["config"], lab["encoder"], 1e-1
        )
        assert len(built) == 2
        assert b.step in built

    def test_monte_carlo_step_certificate(self, bundle, lab, family, rng):
        basis, space, config = lab["basis"], lab["space"], lab["config"]
        step = bundle.step
        worst = 0.0
        samples = C.sample_family(family, 10, 6)
        for a in samples:
            sys_a = R.assemble_reduced(basis, space, config, a)
            flat = sys_a.iteration_matrix.flatten(order="F")
            for _ in range(20):
                x = rng.standard_normal(basis.size)
                x *= rng.uniform(0.0, bundle.report.input_bound) / np.linalg.norm(x)
                out = NN.realize(step, np.concatenate([flat, x]))
                exact = sys_a.iteration_matrix @ x + sys_a.shift
                worst = max(worst, float(np.linalg.norm(out - exact)))
        assert worst <= bundle.eps_step


class TestSerialization:
    def test_round_trip_bit_exact(self, rng):
        net = NN.product_net(1e-4, 2.0)
        text = NN.net_to_json(net)
        back, _ = NN.net_from_json(text)
        assert back.depth == net.depth
        assert back.size == net.size
        x = rng.uniform(-2, 2, (20, 2))
        assert np.array_equal(NN.realize(back, x), NN.realize(net, x))

    def test_report_round_trip(self, lab):
        bundle = NN.build_approximator(
            lab["basis"], lab["space"], lab["config"], lab["encoder"], 1e-1
        )
        text = NN.net_to_json(bundle.net, bundle.report)
        back, report = NN.net_from_json(text)
        assert report.depth == bundle.report.depth
        assert report.size == bundle.report.size
        assert report.certificates["k_steps"] == bundle.k_steps

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=4))
    def test_random_net_round_trip(self, depth):
        rng = np.random.default_rng(depth)
        net = random_net(rng, depth)
        back, _ = NN.net_from_json(NN.net_to_json(net))
        x = rng.standard_normal((5, net.n_inputs))
        assert np.array_equal(NN.realize(back, x), NN.realize(net, x))
