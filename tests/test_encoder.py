import json

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.spatial import cKDTree

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
        lin = C.CoefficientField(lambda p: 1.0 + 0.7 * p[:, 0] - 0.4 * p[:, 1])
        assert E.encoder_error(nodal_encoder, lin, grid_n=60) < 1e-12

    def test_quadratic_h_rate(self, square):
        a = C.CoefficientField(lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]))
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
        fam = C.SobolevBall(alpha=1.0, beta=0.5, domain=coarse, order=2, radius=60.0)
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
        quad = C.CoefficientField(lambda p: 1.0 + p[:, 0] ** 2 - 0.5 * p[:, 0] * p[:, 1])
        assert E.encoder_error(enc, quad, grid_n=80) < 1e-12


class TestGllEncoder:
    def test_constant_exact_every_order(self, coarse_split):
        for p in (1, 3, 5):
            enc = E.build_gll_encoder(coarse_split, p)
            assert E.encoder_error(enc, C.constant(2.5), grid_n=60) < 1e-12

    def test_affine_exact_at_order_one(self, coarse_split):
        # affine fields pull back to tensor-degree-(1,1) through bilinear maps
        a = C.CoefficientField(lambda p: 0.5 + 1.3 * p[:, 0] - 0.8 * p[:, 1])
        enc = E.build_gll_encoder(coarse_split, 1)
        assert E.encoder_error(enc, a, grid_n=60) < 1e-12

    def test_bilinear_exact_at_order_two(self, coarse_split):
        a = C.CoefficientField(lambda p: 1.0 + p[:, 0] * p[:, 1])
        enc = E.build_gll_encoder(coarse_split, 2)
        assert E.encoder_error(enc, a, grid_n=60) < 1e-12

    def test_exponential_consistency(self, coarse_split):
        a = C.CoefficientField(lambda p: np.exp(p[:, 0] + p[:, 1]))
        errs = {p: E.encoder_error(E.build_gll_encoder(coarse_split, p), a, 150) for p in range(2, 11)}
        for p in (4, 6, 8):
            assert errs[p + 2] / errs[p] <= 0.5

    def test_channel_count_growth_polylog(self, coarse_split):
        # along the p-sweep, channels M(eps) grow no faster than c*log(1/eps)^2
        a = C.CoefficientField(lambda p: np.exp(p[:, 0] + p[:, 1]))
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
                edge = coarse_split.bilinear_map(3 * t + i, np.ones(20), params)[0].T
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
            xi = C.CoefficientField(lambda pts: enc.channel_matrix(pts) @ eye[j])
            assert np.max(np.abs(enc.encode(xi) - eye[j])) < 1e-12

    def test_linearity(self, nodal_encoder, rng):
        a = C.CoefficientField(lambda p: 1.0 + 0.3 * np.sin(2 * p[:, 0] + p[:, 1]))
        twice = C.affine_combination([a], [2.0])
        assert np.array_equal(nodal_encoder.encode(twice), 2 * nodal_encoder.encode(a))


class TestEncoderError:
    def test_in_span_zero(self, nodal_encoder, rng):
        y = rng.standard_normal(nodal_encoder.m)
        recon = C.CoefficientField(lambda pts: nodal_encoder.channel_matrix(pts) @ y)
        assert E.encoder_error(nodal_encoder, recon, grid_n=60) < 1e-12

    def test_projector_identity(self, coarse_split, rng):
        enc = E.build_gll_encoder(coarse_split, 5)
        y = rng.standard_normal(enc.m)
        recon = C.CoefficientField(lambda pts: enc.channel_matrix(pts) @ y)
        assert np.max(np.abs(enc.encode(recon) - y)) < 1e-12


def _invert_bilinear_loop(coefs, pts):
    """Reference Newton inversion for the points of one quad."""
    a0, a1, a2, a3 = coefs
    st = np.zeros_like(pts)
    for _ in range(60):
        s, u = st[:, 0], st[:, 1]
        gx = a0[0] + a1[0] * s + a2[0] * u + a3[0] * s * u - pts[:, 0]
        gy = a0[1] + a1[1] * s + a2[1] * u + a3[1] * s * u - pts[:, 1]
        j11 = a1[0] + a3[0] * u
        j12 = a2[0] + a3[0] * s
        j21 = a1[1] + a3[1] * u
        j22 = a2[1] + a3[1] * s
        det = j11 * j22 - j12 * j21
        ds = (gx * j22 - gy * j12) / det
        du = (gy * j11 - gx * j21) / det
        st[:, 0] -= ds
        st[:, 1] -= du
        if max(np.max(np.abs(ds)), np.max(np.abs(du))) < 1e-14:
            break
    return st


def _gll_channel_matrix_loop(enc, pts):
    """Reference: one quad group at a time, one row at a time."""
    tri_idx, bary = M.locate_points(enc.split.mesh, pts, tol=1e-9)
    quad_idx = np.argmax(bary, axis=1)
    a0, a1, a2, a3 = enc.split.bilinear_coefficients()
    out = np.zeros((len(pts), enc.m))
    for t, i in {(int(t), int(i)) for t, i in zip(tri_idx, quad_idx)}:
        sel = np.flatnonzero((tri_idx == t) & (quad_idx == i))
        st = _invert_bilinear_loop((a0[t, i], a1[t, i], a2[t, i], a3[t, i]), pts[sel])
        ls = E._lagrange_1d(enc.nodes_1d, st[:, 0])
        lu = E._lagrange_1d(enc.nodes_1d, st[:, 1])
        tensor = ls[:, :, None] * lu[:, None, :]
        for row, vals in zip(sel, tensor.reshape(len(sel), -1)):
            out[row, enc.cell_channels[3 * t + i]] += vals
    return out


class TestGllChannelMatrix:
    @pytest.fixture(scope="class")
    def enc(self, square):
        return E.build_gll_encoder(M.quad_split(M.triangulate(square, 0.5)), 2)

    def test_random_points_match_loop(self, enc):
        pts = np.random.default_rng(7).uniform(0.0, 1.0, size=(500, 2))
        assert np.array_equal(
            enc._build_channel_matrix(pts).toarray(), _gll_channel_matrix_loop(enc, pts)
        )

    def test_quad_interface_points_match_loop(self, enc):
        # the four edges of every quad: shared by two quads inside a
        # triangle, or by two triangles, or on the boundary
        u = np.linspace(-1.0, 1.0, 5)
        edges = np.concatenate(
            [np.column_stack([np.full(5, side), u]) for side in (-1.0, 1.0)]
            + [np.column_stack([u, np.full(5, side)]) for side in (-1.0, 1.0)]
        )
        quads = np.arange(3 * enc.split.mesh.n_triangles)[:, None]
        pts = enc.split.bilinear_map(quads, edges[:, 0], edges[:, 1])[0].reshape(2, -1).T
        assert np.array_equal(
            enc._build_channel_matrix(pts).toarray(), _gll_channel_matrix_loop(enc, pts)
        )


class TestChannelMatrixSparsity:
    @pytest.mark.parametrize(
        "kind,degree,per_row",
        [("nodal", 1, 3), ("nodal", 2, 6), ("gll", 2, 9), ("gll", 3, 16)],
    )
    def test_csr_with_one_cell_per_row(self, kind, degree, per_row, square):
        coarse = M.triangulate(square, 0.5)
        if kind == "nodal":
            enc = E.build_nodal_encoder(F.build_space(coarse, degree))
        else:
            enc = E.build_gll_encoder(M.quad_split(coarse), degree)
        pts = np.random.default_rng(11).uniform(0.0, 1.0, size=(300, 2))
        channels = enc.channel_matrix(pts)
        assert sp.issparse(channels) and channels.format == "csr"
        assert channels.shape == (300, enc.m)
        assert np.all(np.diff(channels.indptr) == per_row)
        assert channels.nnz == 300 * per_row
        # the stored values reconstruct a constant exactly (partition of unity)
        assert np.allclose(channels @ np.ones(enc.m), 1.0, atol=1e-12)


def _pentagon():
    angles = 2.0 * np.pi * np.arange(5) / 5 + np.pi / 2
    return M.Polygon(np.column_stack([np.cos(angles), np.sin(angles)]))


class TestChannelMatrixAtQueryPoints:
    """The reconstruction interpolates: at query point i only channel i is nonzero,
    so reconstruction_envelope reads the channel values as the nodal values."""

    @pytest.mark.parametrize("h", [0.25, 0.5])
    @pytest.mark.parametrize("domain", ["square", "lshape", "pentagon"])
    def test_exact_identity_for_p1(self, domain, h):
        polygon = {"square": M.unit_square, "lshape": M.lshape, "pentagon": _pentagon}[domain]()
        enc = E.build_nodal_encoder(F.build_space(M.triangulate(polygon, h), 1))
        assert np.array_equal(enc.channel_matrix(enc.query_points).toarray(), np.eye(enc.m))

    @pytest.mark.parametrize("domain", ["square", "lshape", "pentagon"])
    def test_identity_for_p2(self, domain):
        polygon = {"square": M.unit_square, "lshape": M.lshape, "pentagon": _pentagon}[domain]()
        enc = E.build_nodal_encoder(F.build_space(M.triangulate(polygon, 0.25), 2))
        dense = enc.channel_matrix(enc.query_points).toarray()
        assert np.max(np.abs(dense - np.eye(enc.m))) <= 1e-13

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("domain,h", [("square", 0.25), ("square", 0.5), ("lshape", 0.5)])
    def test_identity_for_gll(self, domain, h, p):
        polygon = {"square": M.unit_square, "lshape": M.lshape}[domain]()
        enc = E.build_gll_encoder(M.quad_split(M.triangulate(polygon, h)), p)
        dense = enc.channel_matrix(enc.query_points).toarray()
        assert np.max(np.abs(dense - np.eye(enc.m))) <= 1e-13

    # copies of a node on the pentagon's quad interfaces differ in their last digits;
    # keyed by mesh entity, they are one channel
    @pytest.mark.parametrize("h,p", [(0.5, 2), (0.5, 3), (0.5, 4), (0.25, 3)])
    def test_identity_for_gll_on_the_pentagon(self, h, p):
        enc = E.build_gll_encoder(M.quad_split(M.triangulate(_pentagon(), h)), p)
        diff = enc.channel_matrix(enc.query_points) - sp.identity(enc.m, format="csr")
        assert abs(diff).max() <= 1e-13

    # at h = 0.25 with p = 4, Newton inversion alone leaves 1.3e-13 off the identity, as on
    # the L-shape, so only the points are checked there
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("h", [0.25, 0.5])
    def test_gll_query_points_distinct_on_the_pentagon(self, h, p):
        enc = E.build_gll_encoder(M.quad_split(M.triangulate(_pentagon(), h)), p)
        assert not cKDTree(enc.query_points).query_pairs(1e-9)


class TestChannelMatrixCache:
    @pytest.fixture
    def encoder(self, square):
        return E.build_nodal_encoder(F.build_space(M.triangulate(square, 0.5), 2))

    @staticmethod
    def _counting(encoder, monkeypatch):
        built, original = [], encoder._build_channel_matrix
        monkeypatch.setattr(
            encoder, "_build_channel_matrix", lambda pts: built.append(pts) or original(pts)
        )
        return built

    def test_cached_for_a_read_only_array(self, encoder, monkeypatch):
        built = self._counting(encoder, monkeypatch)
        pts = np.random.default_rng(3).uniform(0.0, 1.0, size=(50, 2))
        pts.flags.writeable = False
        first = encoder.channel_matrix(pts)
        assert encoder.channel_matrix(pts) is first and len(built) == 1
        fresh = E.Encoder._build_channel_matrix(encoder, pts)  # past the counting patch
        assert (first != fresh).nnz == 0

    def test_rebuilt_for_a_writable_array(self, encoder, monkeypatch):
        built = self._counting(encoder, monkeypatch)
        pts = np.random.default_rng(4).uniform(0.0, 1.0, size=(50, 2))
        first, second = encoder.channel_matrix(pts), encoder.channel_matrix(pts)
        assert first is not second and len(built) == 2 and encoder._channels == {}
        assert (first != second).nnz == 0

    def test_entry_dropped_with_its_array(self, encoder):
        pts = np.random.default_rng(5).uniform(0.0, 1.0, size=(50, 2))
        pts.flags.writeable = False
        encoder.channel_matrix(pts)
        assert list(encoder._channels) == [id(pts)]
        del pts
        assert encoder._channels == {}

    def test_cached_arrays_are_read_only(self, encoder):
        channels = encoder.channel_matrix(encoder.query_points)
        for array in (channels.data, channels.indices, channels.indptr):
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            channels.data[0] = 2.0


class TestEnvelope:
    @pytest.mark.parametrize("kind", ["nodal", "gll"])
    def test_stack_equals_max_of_single_rows(self, kind, square, family):
        coarse = M.triangulate(square, 0.5)
        if kind == "nodal":
            enc = E.build_nodal_encoder(F.build_space(coarse, 2))
        else:
            enc = E.build_gll_encoder(M.quad_split(coarse), 2)
        values = np.stack([enc.encode(a) for a in C.sample_family(family, 4, 31)])
        singles = [E.reconstruction_envelope(enc, v, 1.0) for v in values]
        stacked = E.reconstruction_envelope(enc, values, 1.0)
        assert stacked == max(singles)

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


class TestEnvelopeBound:
    """The Bernstein bound against a 400 x 400 lattice of the reconstructions."""

    @pytest.fixture(
        scope="class",
        params=[("nodal", 1), ("nodal", 2), ("gll", 2), ("gll", 3)],
        ids=["p1", "p2", "gll2", "gll3"],
    )
    def sampled(self, request, square):
        kind, degree = request.param
        coarse = M.triangulate(square, 0.5)
        if kind == "nodal":
            enc = E.build_nodal_encoder(F.build_space(coarse, degree))
        else:
            enc = E.build_gll_encoder(M.quad_split(coarse), degree)
        return enc, enc.channel_matrix(C.domain_grid(coarse, 400))

    def _rows(self, enc, family):
        members = np.stack([enc.encode(a) for a in C.sample_family(family, 6, 53)])
        perturbed = 1.0 + 0.4 * np.random.default_rng(59).standard_normal((6, enc.m))
        return np.vstack([members, perturbed])

    def test_bound_covers_the_lattice(self, sampled, family):
        enc, lattice = sampled
        for v in self._rows(enc, family):
            sampled_max = np.max(np.abs(lattice @ v - 1.0))
            assert E.reconstruction_envelope(enc, v, 1.0) >= sampled_max

    def test_bound_is_tight_for_an_affine_field(self, sampled):
        # every element reproduces an affine field, whose Bernstein hull is
        # the range of its corners: the bound meets the lattice maximum at
        # the domain corner (1, 0)
        enc, lattice = sampled
        v = enc.encode(C.CoefficientField(lambda p: 1.0 + 0.3 * p[:, 0] - 0.2 * p[:, 1]))
        bound = E.reconstruction_envelope(enc, v, 1.0)
        assert abs(bound - np.max(np.abs(lattice @ v - 1.0))) <= 1e-12

    def test_p1_bound_is_exact(self, nodal_encoder, family):
        rows = self._rows(nodal_encoder, family)
        for v in rows:
            assert E.reconstruction_envelope(nodal_encoder, v, 1.0) == np.max(np.abs(v - 1.0))
        assert E.reconstruction_envelope(nodal_encoder, rows, 1.0) == np.max(np.abs(rows - 1.0))


class TestSerialization:
    def test_nodal_json(self, nodal_encoder):
        doc = json.loads(E.encoder_to_json(nodal_encoder))
        assert doc["kind"] == "nodal"
        assert doc["degree"] == 1
        assert len(doc["query_points"]) == nodal_encoder.m

    @pytest.mark.parametrize("kind", ["nodal", "gll"])
    def test_json_bytes_are_those_of_python_floats(self, nodal_encoder, coarse_split, kind):
        # the bytes every format 8 bundle's encoder.json holds: each coordinate as repr of its
        # Python float, which reads back to the same bits
        enc = nodal_encoder if kind == "nodal" else E.build_gll_encoder(coarse_split, 3)
        points = [[float(x), float(y)] for x, y in enc.query_points]
        text = E.encoder_to_json(enc)
        assert text == json.dumps({"kind": kind, "m": enc.m, "query_points": points, **enc.doc})
        assert np.array_equal(json.loads(text)["query_points"], enc.query_points)

    def test_gll_json(self, coarse_split):
        enc = E.build_gll_encoder(coarse_split, 3)
        doc = json.loads(E.encoder_to_json(enc))
        assert doc["kind"] == "gll"
        assert doc["p"] == 3
        assert len(doc["query_points"]) == enc.m


def test_channel_matrix_refuses_a_point_outside_the_mesh(nodal_encoder):
    with pytest.raises(ValueError, match="point outside mesh"):
        nodal_encoder.channel_matrix(np.array([[0.5, 0.5], [1.5, 0.5]]))
