import json

import numpy as np
import pytest

from richop import coeff as C
from richop import encoder as E
from richop import fem as F
from richop import mesh as M


class TestGllNodes:
    def test_known_low_orders(self):
        assert np.allclose(E.gll_nodes(1), [-1.0, 1.0], atol=1e-15)
        assert np.allclose(E.gll_nodes(2), [-1.0, 0.0, 1.0], atol=1e-15)
        s5 = 1.0 / np.sqrt(5.0)
        assert np.allclose(E.gll_nodes(3), [-1.0, -s5, s5, 1.0], atol=1e-14)
        s37 = np.sqrt(3.0 / 7.0)
        assert np.allclose(E.gll_nodes(4), [-1.0, -s37, 0.0, s37, 1.0], atol=1e-14)

    def test_roots_of_derivative_polynomial(self):
        # interior nodes satisfy P'_p = 0 within the Newton tolerance
        p = 7
        nodes = E.gll_nodes(p)[1:-1]
        from numpy.polynomial import legendre

        dcoef = legendre.legder(np.eye(p + 1)[p])
        assert np.max(np.abs(legendre.legval(nodes, dcoef))) < 1e-11

    def test_order_validation(self):
        with pytest.raises(ValueError):
            E.gll_nodes(0)


@pytest.fixture(scope="module")
def coarse_split(square):
    return M.quad_split(M.triangulate(square, 1.5))


class TestNodalEncoder:
    def test_constant_partition_of_unity(self, nodal_encoder):
        assert E.encoder_error(nodal_encoder, C.constant(4.2), grid_n=60) < 1e-12

    def test_linear_reproduction(self, nodal_encoder):
        lin = C.from_callable(lambda p: 1.0 + 0.7 * p[:, 0] - 0.4 * p[:, 1])
        assert E.encoder_error(nodal_encoder, lin, grid_n=60) < 1e-12

    def test_quadratic_h_rate(self, square):
        a = C.from_callable(lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]))
        mesh = M.triangulate(square, 0.6)
        errs = []
        for _ in range(4):
            enc = E.build_nodal_encoder(F.build_space(mesh, 1))
            errs.append(E.encoder_error(enc, a, grid_n=220))
            mesh = M.refine_uniform(mesh)
        slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(3)]
        assert all(abs(s - 2.0) <= 0.2 for s in slopes)

    def test_sobolev_member_channel_rate(self, square):
        # sup error of P1 interpolation of a W2inf-ball member scales like
        # M^{-1}; encoder meshes nest the coefficient mesh so that the
        # piecewise field is smooth inside every encoder element
        coarse = M.triangulate(square, 0.5)
        fam = C.sobolev_family(1.0, 0.5, coarse, order=2, radius=60.0)
        a = C.sample_family(fam, 1, 4)[0]
        mesh = M.refine_uniform(coarse)
        ms, errs = [], []
        for _ in range(4):
            enc = E.build_nodal_encoder(F.build_space(mesh, 1))
            ms.append(enc.m)
            errs.append(E.encoder_error(enc, a, grid_n=200))
            mesh = M.refine_uniform(mesh)
        fit = np.polyfit(np.log(ms), np.log(errs), 1)
        assert abs(fit[0] - (-1.0)) <= 0.3

    def test_p2_nodal_encoder(self, square):
        mesh = M.triangulate(square, 0.6)
        enc = E.build_nodal_encoder(F.build_space(mesh, 2))
        quad = C.from_callable(lambda p: 1.0 + p[:, 0] ** 2 - 0.5 * p[:, 0] * p[:, 1])
        assert E.encoder_error(enc, quad, grid_n=80) < 1e-12


class TestGllEncoder:
    def test_constant_exact_every_order(self, coarse_split):
        for p in (1, 3, 5):
            enc = E.build_gll_encoder(coarse_split, p)
            assert E.encoder_error(enc, C.constant(2.5), grid_n=60) < 1e-12

    def test_affine_exact_at_order_one(self, coarse_split):
        # affine fields pull back to tensor-degree-(1,1) through bilinear maps
        a = C.from_callable(lambda p: 0.5 + 1.3 * p[:, 0] - 0.8 * p[:, 1])
        enc = E.build_gll_encoder(coarse_split, 1)
        assert E.encoder_error(enc, a, grid_n=60) < 1e-12

    def test_bilinear_exact_at_order_two(self, coarse_split):
        a = C.from_callable(lambda p: 1.0 + p[:, 0] * p[:, 1])
        enc = E.build_gll_encoder(coarse_split, 2)
        assert E.encoder_error(enc, a, grid_n=60) < 1e-12

    def test_exponential_consistency(self, coarse_split):
        a = C.from_callable(lambda p: np.exp(p[:, 0] + p[:, 1]))
        errs = {p: E.encoder_error(E.build_gll_encoder(coarse_split, p), a, 150) for p in range(2, 11)}
        for p in (4, 6, 8):
            assert errs[p + 2] / errs[p] <= 0.5

    def test_channel_count_growth_polylog(self, coarse_split):
        # along the p-sweep, channels M(eps) grow no faster than c*log(1/eps)^2
        a = C.from_callable(lambda p: np.exp(p[:, 0] + p[:, 1]))
        ms, errs = [], []
        for p in range(2, 9):
            enc = E.build_gll_encoder(coarse_split, p)
            ms.append(enc.m)
            errs.append(E.encoder_error(enc, a, 150))
        logs = np.log(1.0 / np.asarray(errs))
        ratio = np.asarray(ms) / logs**2
        assert ratio.max() <= 3.0 * max(ratio[0], 1.0)
        # and log-error decreases monotonically along the sweep
        assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))

    def test_interface_continuity(self, coarse_split, rng):
        enc = E.build_gll_encoder(coarse_split, 4)
        y = rng.standard_normal(enc.m)
        mesh = coarse_split.mesh
        worst = 0.0
        count = 0
        for t in range(mesh.n_triangles):
            for i in range(3):
                params = rng.uniform(-0.95, 0.95, size=20)
                edge = coarse_split.map_points(
                    t, i, np.column_stack([np.ones(20), params])
                )
                vertex = mesh.nodes[mesh.triangles[t, i]]
                bary = mesh.nodes[mesh.triangles[t]].mean(axis=0)
                side_a = edge + 1e-13 * (vertex - edge)
                side_b = edge + 1e-13 * (bary - edge)
                va = enc.channel_matrix(side_a) @ y
                vb = enc.channel_matrix(side_b) @ y
                worst = max(worst, float(np.max(np.abs(va - vb))))
                count += len(edge)
        assert count >= 100
        assert worst <= 1e-10

    def test_non_bijective_map_detected(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]])
        mesh = M._build_mesh(nodes, np.array([[0, 1, 2]]))
        split = M.quad_split(mesh)
        broken = M.QuadSplit(mesh, split.corners[:, :, [0, 2, 1, 3], :])
        with pytest.raises(ValueError):
            E.build_gll_encoder(broken, 2)


class TestEncodeOp:
    def test_all_ones(self, nodal_encoder):
        vals = nodal_encoder.encode(C.constant(1.0))
        assert np.array_equal(vals, np.ones(nodal_encoder.m))

    def test_basis_members_give_unit_vectors(self, coarse_split):
        enc = E.build_gll_encoder(coarse_split, 3)
        eye = np.eye(enc.m)
        for j in (0, enc.m // 2, enc.m - 1):
            xi = enc.reconstruct(eye[j])
            assert np.max(np.abs(enc.encode(xi) - eye[j])) < 1e-12

    def test_linearity(self, nodal_encoder, rng):
        a = C.from_callable(lambda p: 1.0 + 0.3 * np.sin(2 * p[:, 0] + p[:, 1]))
        twice = C.affine_combination([a], [2.0])
        assert np.array_equal(nodal_encoder.encode(twice), 2 * nodal_encoder.encode(a))


class TestEncoderError:
    def test_in_span_zero(self, nodal_encoder, rng):
        y = rng.standard_normal(nodal_encoder.m)
        recon = nodal_encoder.reconstruct(y)
        assert E.encoder_error(nodal_encoder, recon, grid_n=60) < 1e-12

    def test_projector_identity(self, coarse_split, rng):
        enc = E.build_gll_encoder(coarse_split, 5)
        y = rng.standard_normal(enc.m)
        assert np.max(np.abs(enc.encode(enc.reconstruct(y)) - y)) < 1e-12


class TestEnvelope:
    def test_reconstruction_envelope_p1_inside_band(self, nodal_encoder, family):
        # P1 interpolation preserves the value range, so the envelope cannot
        # exceed the sampled band
        for a in C.sample_family(family, 5, 21):
            beta_tilde = E.reconstruction_envelope(
                nodal_encoder, nodal_encoder.encode(a), 1.0
            )
            assert beta_tilde <= 0.5
            assert beta_tilde < 1.0  # admissibility condition for the operator

    def test_envelope_flags_bad_values(self, nodal_encoder):
        vals = np.full(nodal_encoder.m, 1.0)
        vals[0] = -0.5  # reconstruction dips below zero near that node
        assert E.reconstruction_envelope(nodal_encoder, vals, 1.0) > 1.0


class TestSerialization:
    def test_nodal_json(self, nodal_encoder):
        doc = json.loads(E.encoder_to_json(nodal_encoder))
        assert doc["kind"] == "nodal"
        assert doc["degree"] == 1
        assert len(doc["query_points"]) == nodal_encoder.m

    def test_gll_json(self, coarse_split):
        enc = E.build_gll_encoder(coarse_split, 3)
        doc = json.loads(E.encoder_to_json(enc))
        assert doc["kind"] == "gll"
        assert doc["p"] == 3
        assert len(doc["query_points"]) == enc.m
