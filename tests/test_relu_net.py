import hashlib
import itertools
import sys
import threading

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

from richop import coeff as C
from richop import encoder as E
from richop import fem as F
from richop import mesh as M
from richop import pipeline as P
from richop import relu_net as NN
from richop import richardson as R
from richop import reduced_basis as RB
from scipy.sparse import _sparsetools


PRODUCT_NET_DIGEST = "e386c8f4b50662f0da4350eff2769aba7af470ea8a66cd961ba0d8df663eca49"
STEP_NET_DIGEST = "2833c608b47f53ae7a1f210fb8c37b5d38d55b743572d4f2be916877d4310bb7"
CARRYING_STEP_DIGEST = "3d2f097d3090a4db01d1c734b9ee24d13312495f43ebadd7f3acf96d4446449d"


def random_net(rng, depth, width_lo=2, width_hi=5, density=0.6):
    widths = [int(rng.integers(width_lo, width_hi + 1)) for _ in range(depth + 1)]
    layers = []
    for ell in range(depth):
        w = rng.standard_normal((widths[ell + 1], widths[ell]))
        w[rng.random(w.shape) > density] = 0.0
        b = rng.standard_normal(widths[ell + 1])
        layers.append((sp.csr_matrix(w), b))
    return NN.NeuralNet(layers)


def layers_digest(nets):
    """sha256 of every layer's indptr, indices, data and bias, net by net."""
    h = hashlib.sha256()
    for net in nets:
        for w, b in net.layers:
            for arr, dtype in ((w.indptr, "<i8"), (w.indices, "<i8"), (w.data, "<f8"), (b, "<f8")):
                h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    return h.hexdigest()


def identity(n):
    return NN.affine_net(sp.eye(n), np.zeros(n))


def matmul_realize(layers, x):
    """Reference forward pass through scipy's `w @ y`, bias and ReLU."""
    y = np.asarray(x, dtype=float).T
    for ell, (w, b) in enumerate(layers):
        y = w @ y
        y += b if x.ndim == 1 else b[:, None]
        if ell != len(layers) - 1:
            np.maximum(y, 0.0, out=y)
    return y.T


def kernel_forward(net, y):
    """Reference layer loop on columns y ending in ones: np.zeros, the kernel, ReLU."""
    for ell, (rows, cols, indptr, indices, data) in enumerate(net._kernel):
        out = np.zeros((rows,) + y.shape[1:])
        if y.ndim == 1:
            _sparsetools.csr_matvec(rows, cols, indptr, indices, data, y, out)
        else:
            _sparsetools.csr_matvecs(rows, cols, y.shape[1], indptr, indices, data, y, out)
        if ell != net.depth - 1:
            np.maximum(out, 0.0, out=out)
        y = out
    return y


def recurrent_reference(app, ys):
    """The recurrent loop with a fresh array per layer and a new [vec(A), x, 1] per step."""
    ones = np.ones((1,) + ys.shape[:-1])
    flat = kernel_forward(app.encoder_input, np.concatenate([ys.T, ones]))
    state = np.zeros((app.step.n_outputs,) + ys.shape[:-1])
    state[0] = 1.0
    for _ in range(app.k_steps):
        state = kernel_forward(app.step, np.concatenate([flat, state, ones]))
    return state.T


def kernel_layers(rng):
    """Three layers the kernel must sum exactly as `w @ y` does.

    Integer-valued weights in int64; CSR with unsorted indices and duplicate
    entries whose values span 16 decades, so any reordering of a row's sum
    changes its bits; an empty row, whose output is its bias alone; and in
    the last layer two rows whose two terms cancel exactly, one with bias
    +0.0 and one with bias -0.0, whose outputs are +0 as with `w @ y` and
    `+= b`.
    """
    ints = sp.csr_matrix(rng.integers(-3, 4, (7, 5)) * (rng.random((7, 5)) < 0.6))
    cols = np.array([4, 0, 4, 2, 6, 1, 1, 5, 3, 3, 0, 6])
    indptr = np.array([0, 4, 4, 8, 12])  # row 1 is empty
    vals = rng.standard_normal(len(cols)) * 10.0 ** rng.uniform(-8, 8, len(cols))
    messy = sp.csr_matrix((vals, cols, indptr), shape=(4, 7))
    assert not messy.has_sorted_indices and not messy.has_canonical_format
    v = rng.standard_normal(2)
    dense = rng.standard_normal((3, 4))
    last = sp.csr_matrix((
        np.concatenate([dense.ravel(), [v[0], -v[0], v[1], -v[1]]]),
        np.concatenate([np.tile(np.arange(4), 3), [0, 0, 1, 1]]),
        np.array([0, 4, 8, 12, 14, 16]),
    ), shape=(5, 4))
    return [
        (ints, rng.standard_normal(7)),
        (messy, rng.standard_normal(4)),
        (last, np.concatenate([rng.standard_normal(3), [0.0, -0.0]])),
    ]


class TestRealize:
    def test_depth_one_affine(self, rng):
        # sparse and dense matvecs may sum in different orders; agreement is
        # exact up to reassociation
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal(3)
        net = NN.affine_net(a, b)
        x = rng.standard_normal(4)
        assert np.max(np.abs(NN.realize(net, x) - (a @ x + b))) < 1e-14

    def test_hand_built_max_net(self, rng):
        # max(x1, x2) = x2 + relu(x1 - x2), with x2 = relu(x2) - relu(-x2)
        w1 = sp.csr_matrix(np.array([[1.0, -1.0], [0.0, 1.0], [0.0, -1.0]]))
        w2 = sp.csr_matrix(np.array([[1.0, 1.0, -1.0]]))
        net = NN.NeuralNet([(w1, np.zeros(3)), (w2, np.zeros(1))])
        pairs = rng.standard_normal((100, 2))
        got = NN.realize(net, pairs)[:, 0]
        assert np.max(np.abs(got - np.maximum(pairs[:, 0], pairs[:, 1]))) < 1e-15

    def test_width_mismatch(self, rng):
        net = identity(3)
        with pytest.raises(ValueError):
            NN.realize(net, np.ones(4))

    def test_rejects_bad_batch_shapes(self):
        net = identity(3)
        with pytest.raises(ValueError):
            NN.realize(net, np.ones((2, 4)))
        with pytest.raises(ValueError):
            NN.realize(net, np.ones((2, 2, 3)))

    def test_single_input_equals_batch_row_bitwise(self, rng):
        nets = [random_net(rng, 4), product_net(1e-5, 2.0)]
        step = NN.step_net(3, 4.0, 1e-4, rng.standard_normal(3), matrix_bound=np.ones((3, 3)))
        nets.append(NN._carrying(step))
        for net in nets:
            x = rng.uniform(-1, 1, (7, net.n_inputs))
            batch = NN.realize(net, x)
            for i in range(len(x)):
                single = NN.realize(net, x[i])
                assert single.shape == (net.n_outputs,)
                assert np.array_equal(single, batch[i])

    @pytest.mark.parametrize("layout", ["vector", "c_batch", "f_batch", "strided", "one_row"])
    @pytest.mark.parametrize("kind", ["mixed", "depth_one"])
    def test_kernel_equals_matmul_loop_bitwise(self, rng, kind, layout):
        layers = kernel_layers(rng) if kind == "mixed" else kernel_layers(rng)[1:2]
        net = NN.NeuralNet(layers)
        n = net.n_inputs
        x = {
            "vector": lambda: rng.standard_normal(n),
            "c_batch": lambda: rng.standard_normal((6, n)),
            "f_batch": lambda: np.asfortranarray(rng.standard_normal((6, n))),
            "strided": lambda: rng.standard_normal((6, 2 * n))[:, ::2],
            "one_row": lambda: rng.standard_normal((1, n)),
        }[layout]()
        got = NN.realize(net, x)
        want = matmul_realize(layers, x)
        assert got.shape == want.shape == x.shape[:-1] + (net.n_outputs,)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        if kind == "mixed":
            # the cancelling rows: exact +0 whatever the sign of their zero bias
            assert np.all(got[..., 3:] == 0.0) and not np.any(np.signbit(got[..., 3:]))

    def test_result_is_fresh(self, rng):
        net = NN.NeuralNet(kernel_layers(rng))
        for x in (rng.standard_normal(net.n_inputs), rng.standard_normal((4, net.n_inputs))):
            kept = x.copy()
            first = NN.realize(net, x)
            want = first.copy()
            first[...] = np.nan
            assert np.array_equal(NN.realize(net, x), want)
            assert np.array_equal(x, kept)

    def test_kernel_form_built_on_first_realize(self, rng):
        net = NN.NeuralNet(kernel_layers(rng))
        assert "_kernel" not in net.__dict__
        NN.realize(net, rng.standard_normal(net.n_inputs))
        assert "_kernel" in net.__dict__

    def test_weights_stored_as_float64_csr(self, rng):
        for w, _ in NN.NeuralNet(kernel_layers(rng)).layers:
            assert sp.issparse(w) and w.format == "csr" and w.dtype == np.float64

    def test_size_counts_nonzeros(self):
        w = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 2.0]]))
        net = NN.NeuralNet([(w, np.array([0.0, 3.0]))])
        assert net.size == 3
        assert net.depth == 1


class TestSparseConcat:
    def test_identity_outer_preserves_realization(self, rng):
        inner = random_net(rng, 3)
        outer = identity(inner.n_outputs)
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
            NN.sparse_concat(identity(3), identity(4))


def product_net(epsilon, bound):
    """Two-input net with |net(x, y) - x y| <= epsilon on |x|, |y| <= bound: a one-entry
    step net with zero shift on the box |a| <= bound."""
    return NN.step_net(1, bound, epsilon, np.zeros(1), matrix_bound=np.full((1, 1), bound))


class TestProductNet:
    def test_reference_point(self):
        net = product_net(1e-6, 1.0)
        val = NN.realize(net, np.array([0.5, 0.25]))[0]
        assert abs(val - 0.125) <= 1e-6

    def test_zero_factor_within_certificate(self, rng):
        # documented branch: zero factors cancel to rounding level, not to
        # an exact zero; the certificate is the guarantee
        net = product_net(1e-6, 1.0)
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
            net = product_net(eps, 1.0)
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
        net = product_net(eps, bound)
        xs = np.linspace(-bound, bound, 161)
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        grid = np.column_stack([gx.ravel(), gy.ravel()])
        pts = np.vstack([grid, rng.uniform(-bound, bound, (500, 2))])
        got = NN.realize(net, pts)[:, 0]
        assert np.max(np.abs(got - pts[:, 0] * pts[:, 1])) <= eps

    @pytest.mark.parametrize("bound", [1.0, 3.0, 7.5, 20.0])
    @pytest.mark.parametrize("eps", [0.5, 1e-1, 1e-2, 1e-4, 1.5e-5, 3.7e-7, 1e-8])
    def test_sawtooth_levels_smallest_certified(self, eps, bound):
        # certified product error with m levels on |a| <= Z_A, |x| <= Z is
        # 2 Z_A Z 4^-(m+1); the symmetric box is Z_A = Z
        for z_a in (bound, 1.0, 0.5, 0.5086, 0.125):
            m = NN._sawtooth_levels(eps, z_a, bound)
            assert m >= 1
            assert 2.0 * z_a * bound * 4.0 ** -(m + 1) <= eps
            assert m == 1 or 2.0 * z_a * bound * 4.0 ** -m > eps

    @pytest.mark.parametrize("z_a, z_x", [(0.5, 4.0), (0.25, 7.5), (0.5086, 4.0), (1.0, 3.0)])
    @pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-4, 1.5e-5, 1e-8])
    def test_asymmetric_box_scaling(self, rng, eps, z_a, z_x):
        # a one-entry step net with zero shift is the product a*x on the box
        # |a| <= z_a, |x| <= z_x, with per-entry tolerance eps
        net = NN.step_net(1, z_x, eps, np.zeros(1), matrix_bound=np.full((1, 1), z_a))
        ga, gx = np.meshgrid(
            np.linspace(-z_a, z_a, 161), np.linspace(-z_x, z_x, 161), indexing="ij"
        )
        grid = np.column_stack([ga.ravel(), gx.ravel()])
        rand = rng.uniform(-1.0, 1.0, (500, 2)) * [z_a, z_x]
        pts = np.vstack([grid, rand])
        got = NN.realize(net, pts)[:, 0]
        assert np.max(np.abs(got - pts[:, 0] * pts[:, 1])) <= eps

    def test_product_net_bits_unchanged(self):
        # digest of every layer (indptr, indices, data, bias) of the symmetric
        # product nets the tests above use; the asymmetric box must leave
        # them bit for bit as they were
        h = hashlib.sha256()
        cases = [(eps, 1.0) for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)]
        cases += [(eps, b) for b in (1.0, 3.0, 7.5) for eps in (1e-1, 1.5e-5)]
        cases.append((1e-5, 2.0))
        for eps, bound in cases:
            for w, b in product_net(eps, bound).layers:
                for arr, dtype in ((w.indptr, "<i8"), (w.indices, "<i8"), (w.data, "<f8"), (b, "<f8")):
                    h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
        assert h.hexdigest() == PRODUCT_NET_DIGEST


def matvec_net(n, epsilon, bound):
    """Net mapping (vec(A), x) to Ax within epsilon in l2 on |A_ij| <= 1: a zero-shift step."""
    return NN.step_net(n, bound, epsilon, np.zeros(n), matrix_bound=np.ones((n, n)))


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

    f_dual = F.nominal(space, config).f_dual
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
        mat_a = R.iteration_matrix(basis, a)
        net = NN.step_net(n, z, eps, basis.nominal.shift, matrix_bound=np.ones((n, n)))
        for _ in range(5):
            x = rng.standard_normal(n)
            x *= rng.uniform(0.1, z) / np.linalg.norm(x)
            out = NN.realize(
                net, np.concatenate([mat_a.flatten(order="F"), x])
            )
            exact = mat_a @ x + basis.nominal.shift
            assert np.linalg.norm(out - exact) <= eps

    def test_fixed_point_maps_to_itself(self, lab, family):
        basis, space, config = lab["basis"], lab["space"], lab["config"]
        a = C.sample_family(family, 1, 17)[0]
        mat_a = R.iteration_matrix(basis, a)
        c_star = R.direct_solve(basis, a)
        eps = 1e-5
        box = np.ones((basis.size, basis.size))
        net = NN.step_net(basis.size, 4.0, eps, basis.nominal.shift, matrix_bound=box)
        out = NN.realize(
            net, np.concatenate([mat_a.flatten(order="F"), c_star])
        )
        assert np.linalg.norm(out - c_star) <= eps

    def test_nominal_zero_matrix_returns_shift(self, lab, rng):
        basis, space, config = lab["basis"], lab["space"], lab["config"]
        mat0 = R.iteration_matrix(basis, config.scaled_nominal())
        n = basis.size
        eps = 1e-5
        net = NN.step_net(n, 4.0, eps, basis.nominal.shift, matrix_bound=np.ones((n, n)))
        x = rng.standard_normal(n)
        x *= 3.0 / np.linalg.norm(x)
        out = NN.realize(
            net, np.concatenate([mat0.flatten(order="F"), x])
        )
        assert np.linalg.norm(out - basis.nominal.shift) <= eps

    def test_carry_passthrough(self, lab, rng):
        n = 3
        flat = rng.uniform(-0.9, 0.9, n * n)
        x = rng.standard_normal(n)
        x *= 2.0 / np.linalg.norm(x)
        net = NN._carrying(NN.step_net(n, 4.0, 1e-4, np.zeros(n), matrix_bound=np.ones((n, n))))
        out = NN.realize(net, np.concatenate([flat, x]))
        assert np.array_equal(out[: n * n], flat)


def iteration_bundle(n, k_steps, epsilon, shift, contraction):
    """Bundle whose input net passes vec(A) through: K certified steps from e1.

    Each step has tolerance (1 - contraction) epsilon on the box
    2 + 1 / (1 - contraction), as build_approximator chooses them.
    """
    eps_step = (1.0 - contraction) * epsilon
    z = 2.0 + 1.0 / (1.0 - contraction)
    report = NN.BuildReport(
        depth=0, size=0, tolerance=epsilon, input_bound=z, alpha=1.0, beta_eff=contraction,
        f_dual_norm=1.0, k_steps=k_steps, eps_iterator=epsilon, eps_step=eps_step,
        contraction=contraction, matrix_bound=1.0,
    )
    step = NN.step_net(n, z, eps_step, shift, matrix_bound=np.ones((n, n)))
    return NN.ApproximatorBundle(identity(n * n), step, report)


class TestStepNetBox:
    @pytest.mark.parametrize("value", [0.0, -0.5, float("nan"), float("inf")])
    def test_rejects_matrix_bound_not_finite_positive(self, value):
        with pytest.raises(ValueError, match="matrix_bound"):
            NN.step_net(2, 4.0, 1e-3, np.zeros(2), matrix_bound=np.full((2, 2), value))

    def test_step_net_bits_unchanged(self):
        # pinned digests of the step nets, carry-free and carrying, over a
        # grid of (n, eps, Z_A, Z~): any change of row order, weight or bias
        # changes them, and with them the bundles and CSV outputs
        steps = [
            NN.step_net(n, z_x, eps, (np.arange(n) - 1.5) / 7.0, matrix_bound=np.full((n, n), z_a))
            for n in (1, 2, 3, 9, 13)
            for eps in (1e-1, 1e-2, 1e-4, 1e-6)
            for z_a, z_x in ((1.0, 3.0), (0.5, 4.0), (0.5086, 7.5))
        ]
        assert layers_digest(steps) == STEP_NET_DIGEST
        assert layers_digest(map(NN._carrying, steps)) == CARRYING_STEP_DIGEST

    def test_fewer_levels_on_the_smaller_matrix_box(self):
        wide = NN.step_net(3, 4.0, 1e-4, np.zeros(3), matrix_bound=np.ones((3, 3)))
        narrow = NN.step_net(3, 4.0, 1e-4, np.zeros(3), matrix_bound=np.full((3, 3), 0.5))
        assert narrow.depth == wide.depth - 1
        assert narrow.size < wide.size


def row_rule_levels(z, bound, epsilon):
    """The fewest m >= 1 with 2 bound 4^-(m+1) ||(sum_j Z_ij)_i||_2 <= epsilon, by counting."""
    rows, m = np.linalg.norm(np.sum(z, axis=1)), 1
    while 2.0 * bound * 4.0 ** -(m + 1) * rows > epsilon:
        m += 1
    return m


def step_error(net, xs):
    """Worst l2 error of a zero-shift step net against A x, over the rows (vec(A), x) of xs."""
    n = net.n_outputs
    mats = xs[:, : n * n].reshape(-1, n, n).transpose(0, 2, 1)  # vec(A) is column-major
    want = np.einsum("bij,bj->bi", mats, xs[:, n * n:])
    return float(np.max(np.linalg.norm(NN.realize(net, xs) - want, axis=1)))


def box_inputs(rng, z, bound, vertices, count=200):
    """Rows (vec(A), x): A at every vertex A_ij = +-Z_ij (vertices) or uniform in the box,
    x uniform on the sphere ||x||_2 = bound."""
    n = len(z)
    if vertices:
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=n * n)))
    else:
        signs = rng.uniform(-1.0, 1.0, (count, n * n))
    mats = signs.reshape(-1, n, n) * z
    x = rng.standard_normal((len(mats), n))
    x *= bound / np.linalg.norm(x, axis=1, keepdims=True)
    flat = mats.transpose(0, 2, 1).reshape(len(mats), n * n)  # vec(A), column-major
    return np.hstack([flat, x])


def nonuniform_box(rng, n):
    """Per-entry bounds drawn on [0.05, 0.5]: the maximum is about twice the median."""
    return rng.uniform(0.05, 0.5, (n, n))


class TestPerEntryBox:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_within_budget_on_nonuniform_boxes(self, rng, n):
        bound, eps = 4.0, 1e-3
        for _ in range(3):
            z = nonuniform_box(rng, n)
            net = NN.step_net(n, bound, eps, np.zeros(n), matrix_bound=z)
            inputs = [box_inputs(rng, z, bound, vertices=False)]
            if n <= 3:
                inputs.append(box_inputs(rng, z, bound, vertices=True))
            for xs in inputs:
                assert step_error(net, xs) <= eps

    def test_levels_follow_the_row_rule(self, rng):
        bound = 4.0
        for n in (1, 2, 3, 5, 9):
            for eps in (1e-2, 1e-4, 1e-6):
                z = nonuniform_box(rng, n)
                net = NN.step_net(n, bound, eps, np.zeros(n), matrix_bound=z)
                assert net.depth == row_rule_levels(z, bound, eps) + 2
                # a constant box: the per-entry tolerance eps / n^{3/2}
                c = float(z.max())
                const = NN.step_net(n, bound, eps, np.zeros(n), matrix_bound=np.full((n, n), c))
                assert const.depth == NN._sawtooth_levels(eps / n**1.5, c, bound) + 2
                assert const.depth == row_rule_levels(np.full((n, n), c), bound, eps) + 2

    def test_zero_entry_builds_within_budget(self, rng):
        n, bound, eps = 3, 4.0, 1e-3
        z = nonuniform_box(rng, n)
        z[1, 2] = 0.0
        net = NN.step_net(n, bound, eps, np.zeros(n), matrix_bound=z)
        assert all(np.all(np.isfinite(w.data)) for w, _ in net.layers)
        for vertices in (True, False):
            xs = box_inputs(rng, z, bound, vertices)
            assert np.all(xs[:, NN.vec_index(1, 2, n)] == 0.0)
            assert step_error(net, xs) <= eps

    @pytest.mark.parametrize("shape", [(2,), (3, 3), (2, 2, 1), ()])
    def test_rejects_box_of_another_shape(self, shape):
        with pytest.raises(ValueError, match="matrix_bound"):
            NN.step_net(2, 4.0, 1e-3, np.zeros(2), matrix_bound=np.full(shape, 0.5))

    def test_build_sizes_the_step_to_the_input_net(self, operator, loaded):
        # the shipped step is step_net on the per-entry interval bounds of the
        # input net, and load_bundle rebuilds it layer for layer
        app, report = operator.approximator, operator.approximator.report
        n = app.step.n_outputs
        alpha = operator.basis.config.alpha
        z = NN.interval_entry_bounds(app.encoder_input, alpha, report.beta_eff)
        assert report.matrix_bound == float(z.max())
        z = z.reshape(n, n, order="F")
        bound, eps = app.report.input_bound, app.eps_step
        assert app.step.depth == row_rule_levels(z, bound, eps) + 2
        assert app.report.depth == 2 + app.k_steps * app.step.depth
        want = NN.step_net(n, bound, eps, operator.basis.nominal.shift, matrix_bound=z)
        assert layers_digest([app.step]) == layers_digest([want])
        assert same_layers(loaded.step, app.step)


class TestIteratorNet:
    def test_nominal_contracts_to_start(self, lab):
        basis, space, config = lab["basis"], lab["space"], lab["config"]
        mat0 = R.iteration_matrix(basis, config.scaled_nominal())
        eps = 1e-5
        bundle = iteration_bundle(basis.size, 3, eps, basis.nominal.shift, 0.5)
        flat = mat0.flatten(order="F")
        e1 = np.zeros(basis.size)
        e1[0] = 1.0
        for out in (bundle.realize(flat), NN.realize(bundle.net, flat)):
            assert np.linalg.norm(out - e1) <= eps

    def test_tracks_exact_iterate_at_chosen_step_count(self, lab, family):
        basis, space, config = lab["basis"], lab["space"], lab["config"]
        eps = 1e-3
        k = R.choose_step_count(config.alpha, config.beta, lab["f_dual"], eps)
        for a in C.sample_family(family, 3, 37):
            mat_a = R.iteration_matrix(basis, a)
            bundle = iteration_bundle(
                basis.size, k, eps, basis.nominal.shift, config.beta / config.alpha
            )
            flat = mat_a.flatten(order="F")
            exact = R.iterate(basis, mat_a, k)[-1]
            assert np.linalg.norm(bundle.realize(flat) - exact) <= eps
            assert np.array_equal(NN.realize(bundle.net, flat), bundle.realize(flat))


class TestInputNet:
    def test_scaled_nominal_maps_to_zero_matrix(self, lab):
        basis, space, config, enc = (
            lab["basis"],
            lab["space"],
            lab["config"],
            lab["encoder"],
        )
        net = NN.input_net(basis, enc)
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
        net = NN.input_net(basis, enc)
        out = NN.realize(net, np.zeros(enc.m))
        assert np.array_equal(out, np.eye(basis.size).flatten(order="F"))

    def test_matches_reduced_assembly_entrywise(self, lab, family):
        basis, space, config, enc = (
            lab["basis"],
            lab["space"],
            lab["config"],
            lab["encoder"],
        )
        net = NN.input_net(basis, enc)
        for a in C.sample_family(family, 10, 53):
            y = enc.encode(a)
            recon = enc.reconstruct(y)
            mat_r = R.iteration_matrix(basis, recon)
            out = NN.realize(net, y)
            assert np.max(
                np.abs(out - mat_r.flatten(order="F"))
            ) <= 1e-12

    def test_exactly_affine(self, lab, rng):
        basis, space, config, enc = (
            lab["basis"],
            lab["space"],
            lab["config"],
            lab["encoder"],
        )
        net = NN.input_net(basis, enc)
        bias = NN.realize(net, np.zeros(enc.m))
        y1 = rng.standard_normal(enc.m)
        y2 = rng.standard_normal(enc.m)
        lhs = NN.realize(net, y1 + y2)
        rhs = NN.realize(net, y1) + NN.realize(net, y2) - bias
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_size_bound(self, lab):
        basis, enc = lab["basis"], lab["encoder"]
        net = NN.input_net(basis, enc)
        n = basis.size
        assert net.size <= n * n * enc.m + n * n

    @pytest.mark.parametrize("kind", ["nodal", "gll"])
    def test_batched_weights_equal_per_channel_loop(self, lab, kind, square):
        basis, space, config = lab["basis"], lab["space"], lab["config"]
        if kind == "nodal":
            enc = lab["encoder"]
        else:
            from richop import encoder as E
            from richop import mesh as M

            enc = E.build_gll_encoder(M.quad_split(M.triangulate(square, 0.5)), 2)
        p = basis.frame("ortho")
        chol = la.cho_factor(p.T @ (basis.nominal_stiffness @ p), lower=True)
        channels = enc.channel_matrix(F.quadrature_points(space)).toarray()
        loop = np.column_stack([
            -la.cho_solve(
                chol, p.T @ (F.assemble_stiffness_samples(space, channels[:, k]) @ p)
            ).flatten(order="F") / config.alpha
            for k in range(enc.m)
        ])
        weights = NN.input_net(basis, enc).layers[0][0].toarray()
        assert np.max(np.abs(weights - loop)) <= 1e-15

    @pytest.mark.parametrize("kind", ["nodal", "gll"])
    def test_weight_columns_are_the_kernel_of_each_channel(self, lab, kind, square):
        basis, space, config = lab["basis"], lab["space"], lab["config"]
        if kind == "nodal":
            enc = lab["encoder"]
        else:
            enc = E.build_gll_encoder(M.quad_split(M.triangulate(square, 0.5)), 2)
        channels = enc.channel_matrix(F.quadrature_points(space)).toarray()
        weights = NN.input_net(basis, enc).layers[0][0].toarray()
        for k in range(enc.m):
            b_k = R.reduced_stiffness(basis, channels[:, k:k + 1])[0]
            column = -la.cho_solve(basis.nominal.chol, b_k).flatten(order="F") / config.alpha
            assert np.array_equal(weights[:, k], column)


@pytest.fixture(scope="module")
def bundle(lab):
    return NN.build_approximator(
        lab["basis"], lab["space"], lab["config"], lab["encoder"], 1e-2
    )


@pytest.fixture(scope="module")
def approximators(bundle, lab, square):
    """(approximator, encoder) by kind; nonsmooth_operator's input net has depth 3."""
    basis, space, config, nodal = lab["basis"], lab["space"], lab["config"], lab["encoder"]
    gll = E.build_gll_encoder(M.quad_split(M.triangulate(square, 0.5)), 2)
    op = P.NeuralOperator(nodal, bundle, basis, beta_tilde=config.beta)
    return {
        "nodal": (bundle, nodal),
        "gll": (NN.build_approximator(basis, space, config, gll, 1e-2), gll),
        "nonsmooth": (P.nonsmooth_operator(op, 0.6).approximator, nodal),
    }


class TestApproximator:
    def test_certificate_against_exact_iterate(self, bundle, lab, family):
        basis, space, config = lab["basis"], lab["space"], lab["config"]
        for a in C.sample_family(family, 20, 3):
            y = lab["encoder"].encode(a)
            recon = lab["encoder"].reconstruct(y)
            mat_r = R.iteration_matrix(basis, recon)
            exact = R.iterate(basis, mat_r, bundle.k_steps)[-1]
            assert np.linalg.norm(bundle.realize(y) - exact) <= bundle.eps_iterator

    def test_energy_certificate_vs_dense_solve(self, bundle, lab, family):
        basis, space, config = lab["basis"], lab["space"], lab["config"]
        for a in C.sample_family(family, 10, 4):
            y = lab["encoder"].encode(a)
            recon = lab["encoder"].reconstruct(y)
            mat_r = R.iteration_matrix(basis, recon)
            u_net = RB.synthesize(basis, bundle.realize(y), "ortho")
            u_ref = RB.synthesize(basis, R.direct_solve(basis, recon), "ortho")
            err = F.energy_norm(space, config, u_net - u_ref)
            assert err <= bundle.report.tolerance

    def test_recurrent_mode_matches_unrolled(self, approximators, family):
        # exact by construction: every first-layer row of the step net has at
        # most two terms, so the unrolled net's splices sum the same floats
        members = C.sample_family(family, 8, 5)
        for app, enc in approximators.values():
            ys = np.stack([enc.encode(a) for a in members])
            ys = np.vstack([ys, 0.75 - ys])
            assert np.array_equal(app.realize(ys), NN.realize(app.net, ys))
            for y in ys[:3]:
                assert np.array_equal(app.realize(y), NN.realize(app.net, y))

    @pytest.mark.parametrize("kind", ["nodal", "gll"])
    def test_one_row_block_equals_the_single_input(self, approximators, family, kind):
        # a (1, M) block runs as the single input, through csr_matvec
        app, enc = approximators[kind]
        for y in [enc.encode(a) for a in C.sample_family(family, 4, 17)] + [np.zeros(enc.m)]:
            for net_realize in (app.realize, lambda x: NN.realize(app.encoder_input, x)):
                got, want = net_realize(y[None]), net_realize(y)
                assert got.shape == (1,) + want.shape
                assert np.array_equal(got[0], want)
                assert np.array_equal(np.signbit(got[0]), np.signbit(want))

    def test_batch_equals_unrolled_net_bitwise(self, bundle, lab, family):
        enc = lab["encoder"]
        ys = np.stack([enc.encode(a) for a in C.sample_family(family, 16, 11)])
        got, want = bundle.realize(ys), NN.realize(bundle.net, ys)
        assert got.shape == want.shape == (16, bundle.step.n_outputs)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert all(np.array_equal(got[i], bundle.realize(y)) for i, y in enumerate(ys))

    def test_result_is_fresh(self, bundle, lab, family):
        enc = lab["encoder"]
        ys = np.stack([enc.encode(a) for a in C.sample_family(family, 4, 13)])
        for y in (ys[0], ys):
            first = bundle.realize(y)
            want = first.copy()
            first[...] = np.nan
            assert np.array_equal(bundle.realize(y), want)

    def test_building_and_loading_build_no_kernel_form(self, lab, operator, tmp_path):
        built = NN.build_approximator(
            lab["basis"], lab["space"], lab["config"], lab["encoder"], 1e-2
        )
        assert "net" not in built.__dict__
        direct = NN.certified_approximator(
            built.encoder_input, lab["basis"].nominal.shift, lab["config"].alpha,
            lab["config"].beta, lab["f_dual"], 1e-2,
        )
        P.save_bundle(operator, str(tmp_path))
        loaded = P.load_bundle(str(tmp_path)).approximator
        for app in (built, direct, loaded):
            assert "_kernel" not in app.encoder_input.__dict__
            assert "_kernel" not in app.step.__dict__

    @pytest.mark.parametrize("bad", ["nan", "inf", "column"])
    def test_refuses_a_shift_that_is_not_a_finite_vector(self, bundle, lab, bad):
        # max(1, nan) reads as 1 in Z~, so a NaN shift would pass every later check and
        # the step net would output NaN: the shift is refused before anything is built
        shift = lab["basis"].nominal.shift.copy()
        if bad == "column":
            shift = shift[:, None]
        else:
            shift[0] = float(bad)
        with pytest.raises(ValueError, match="shift"):
            NN.certified_approximator(bundle.encoder_input, shift, lab["config"].alpha,
                                      lab["config"].beta, lab["f_dual"], 1e-2)

    @pytest.mark.parametrize("kind", ["nodal", "gll", "nonsmooth"])
    def test_workspace_equals_fresh_array_loop_bitwise(self, approximators, family, kind):
        app, enc = approximators[kind]
        assert app.encoder_input.depth == (3 if kind == "nonsmooth" else 1)
        ys = np.stack([enc.encode(a) for a in C.sample_family(family, 6, 17)])
        ys = np.vstack([ys, 0.75 - ys])
        for y in (ys, ys[:1], ys[0], ys[-1]):
            got, want = app.realize(y), recurrent_reference(app, y)
            assert got.shape == want.shape == y.shape[:-1] + (app.step.n_outputs,)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_concurrent_calls_equal_serial_bitwise(self, approximators, family):
        app, enc = approximators["nodal"]
        ys = np.stack([enc.encode(a) for a in C.sample_family(family, 4, 19)])
        inputs = [ys[0], ys, ys[3], 0.75 - ys[:2]]
        want = [app.realize(y) for y in inputs]
        got = [[] for _ in inputs]
        start = threading.Barrier(len(inputs))

        def work(i):
            start.wait(timeout=30)
            got[i].extend(app.realize(inputs[i]) for _ in range(40))

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(inputs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for outs, w in zip(got, want):
            assert len(outs) == 40 and all(np.array_equal(o, w) for o in outs)

    def test_realize_keeps_nothing_but_the_kernel_form(self, approximators, family):
        for app, enc in approximators.values():
            nets = (app.encoder_input, app.step)
            before = set(vars(app)), [set(vars(net)) for net in nets]
            ys = np.stack([enc.encode(a) for a in C.sample_family(family, 3, 23)])
            app.realize(ys)
            app.realize(ys[0])
            assert set(vars(app)) == before[0]
            for net, keys in zip(nets, before[1]):
                assert set(vars(net)) - keys <= {"_kernel"}

    def test_report_recount(self, bundle):
        assert bundle.report.depth == bundle.net.depth
        assert bundle.report.depth == 2 + bundle.k_steps * bundle.step.depth
        assert bundle.report.size == bundle.net.size

    @pytest.mark.parametrize("n", range(1, 14))
    def test_injection_counts_are_the_entry_nets(self, n):
        # certified_approximator states these counts instead of building the net
        assert NN._layer_counts(NN._entry_net(n)) == [(n * n, 1)]

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
        # a build makes the final step only; the unrolled net is built on
        # read, its one carrying step derived from the shipped step
        built, carried, spliced = [], [], []
        step_net, carrying, sparse_concat = NN.step_net, NN._carrying, NN.sparse_concat

        def counting_step_net(*args, **kwargs):
            built.append(step_net(*args, **kwargs))
            return built[-1]

        def counting_carrying(step):
            carried.append(step)
            return carrying(step)

        def counting_concat(*args):
            spliced.append(args)
            return sparse_concat(*args)

        monkeypatch.setattr(NN, "step_net", counting_step_net)
        monkeypatch.setattr(NN, "_carrying", counting_carrying)
        monkeypatch.setattr(NN, "sparse_concat", counting_concat)
        b = NN.build_approximator(
            lab["basis"], lab["space"], lab["config"], lab["encoder"], 1e-1
        )
        assert built == [b.step]
        assert carried == spliced == []
        assert b.net.depth == b.report.depth
        assert built == carried == [b.step]
        assert len(spliced) == b.k_steps + 1

    def test_refuses_space_or_config_not_the_basis_own(self, lab, square):
        # alpha and beta come from config, the shift and ||f|| from the
        # basis: a mismatched pair would certify the wrong problem
        basis, space, config, enc = lab["basis"], lab["space"], lab["config"], lab["encoder"]
        wider = F.ProblemConfig(2.0, config.beta, config.a0, config.f)
        coarse = F.build_space(M.triangulate(square, 0.5), 1)
        for s, c in ((space, wider), (coarse, config)):
            with pytest.raises(ValueError, match="basis's own"):
                NN.build_approximator(basis, s, c, enc, 1e-1)
        equal = F.ProblemConfig(config.alpha, config.beta, config.a0, config.f)
        assert NN.build_approximator(basis, space, equal, enc, 1e-1).report.depth > 0

    def test_monte_carlo_step_certificate(self, bundle, lab, family, rng):
        basis, space, config = lab["basis"], lab["space"], lab["config"]
        step = bundle.step
        worst = 0.0
        samples = C.sample_family(family, 10, 6)
        for a in samples:
            mat_a = R.iteration_matrix(basis, a)
            flat = mat_a.flatten(order="F")
            for _ in range(20):
                x = rng.standard_normal(basis.size)
                x *= rng.uniform(0.0, bundle.report.input_bound) / np.linalg.norm(x)
                out = NN.realize(step, np.concatenate([flat, x]))
                exact = mat_a @ x + basis.nominal.shift
                worst = max(worst, float(np.linalg.norm(out - exact)))
        assert worst <= bundle.eps_step


class TestIntervalBound:
    def test_attained_at_box_vertex(self, bundle, lab):
        # the entry and vertex the bound picks reproduce it through the net
        net, config = bundle.encoder_input, lab["config"]
        alpha, beta = config.alpha, bundle.report.beta_eff
        z_a = bundle.report.matrix_bound
        assert z_a == np.max(NN.interval_entry_bounds(net, alpha, beta))
        w = net.layers[0][0].toarray()
        center = w @ np.full(w.shape[1], alpha) + net.layers[0][1]
        r = int(np.argmax(np.abs(center) + beta * np.abs(w).sum(axis=1)))
        y_star = alpha + beta * (1.0 if center[r] >= 0 else -1.0) * np.sign(w[r])
        assert abs(abs(NN.realize(net, y_star)[r]) - z_a) <= 1e-12

    def test_bounds_family_encodings(self, bundle, lab, family):
        z_a = bundle.report.matrix_bound
        ys = np.stack([lab["encoder"].encode(a) for a in C.sample_family(family, 200, 71)])
        assert np.max(np.abs(NN.realize(bundle.encoder_input, ys))) <= z_a

    def test_rejects_deeper_input_net(self):
        with pytest.raises(ValueError):
            NN.interval_entry_bounds(random_net(np.random.default_rng(0), 2), 1.0, 0.5)


@pytest.fixture(scope="module")
def loaded(operator, tmp_path_factory):
    """The conftest operator's approximator, saved and rebuilt by load_bundle."""
    path = str(tmp_path_factory.mktemp("bundle"))
    P.save_bundle(operator, path)
    return P.load_bundle(path).approximator


def same_layers(got, want):
    pairs = [(w.indptr, w.indices, w.data, b) for w, b in got.layers]
    wants = [(w.indptr, w.indices, w.data, b) for w, b in want.layers]
    return len(pairs) == len(wants) and all(
        np.array_equal(x, y) for p, q in zip(pairs, wants) for x, y in zip(p, q)
    )


class TestSerialization:
    def test_round_trip_bit_exact(self, operator, loaded, rng):
        # the step is not stored: load_bundle rebuilds it from the input net
        # and the shift through the build's own certificate chain
        built = operator.approximator
        assert same_layers(loaded.encoder_input, built.encoder_input)
        assert same_layers(loaded.step, built.step)
        y = rng.uniform(-1, 1, (20, built.encoder_input.n_inputs))
        assert np.array_equal(loaded.realize(y), built.realize(y))

    def test_loaded_unrolled_net_equals_in_memory(self, operator, loaded):
        # .net derives its carrying steps from the step alone, so a loaded
        # bundle unrolls to the same layers bit for bit
        assert loaded.net.widths == operator.approximator.net.widths
        assert same_layers(loaded.net, operator.approximator.net)

    def test_report_round_trip(self, operator, loaded):
        built = operator.approximator
        assert loaded.report == built.report
        assert loaded.k_steps == built.k_steps
        assert loaded.eps_step == built.eps_step
