import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from richop import mesh as M


def pairwise_conformity_oracle(mesh):
    """Classify every close-pair of closed triangles geometrically.

    Conforming means zero overlap area and no vertex sitting strictly inside
    another triangle's edge (T-junction).
    """
    tris = mesh.nodes[mesh.triangles]
    lo = tris.min(axis=1)
    hi = tris.max(axis=1)

    def clip_area(subject, clipper):
        # Sutherland-Hodgman clipping of subject by convex clipper
        poly = list(subject)
        for k in range(3):
            a, b = clipper[k], clipper[(k + 1) % 3]
            if not poly:
                break
            out = []
            for i in range(len(poly)):
                p, q = poly[i], poly[(i + 1) % len(poly)]
                dp = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
                dq = (b[0] - a[0]) * (q[1] - a[1]) - (b[1] - a[1]) * (q[0] - a[0])
                if dp >= -1e-14:
                    out.append(p)
                if (dp > 1e-14 and dq < -1e-14) or (dp < -1e-14 and dq > 1e-14):
                    t = dp / (dp - dq)
                    out.append(p + t * (q - p))
            poly = out
        if len(poly) < 3:
            return 0.0
        x = np.array([p[0] for p in poly])
        y = np.array([p[1] for p in poly])
        return 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))

    n = len(tris)
    for i in range(n):
        for j in range(i + 1, n):
            if np.any(lo[i] > hi[j] + 1e-12) or np.any(lo[j] > hi[i] + 1e-12):
                continue
            shared = len(set(mesh.triangles[i]) & set(mesh.triangles[j]))
            area = clip_area(tris[i], tris[j])
            assert area <= 1e-12 * min(
                _tri_area(tris[i]), _tri_area(tris[j])
            ), f"triangles {i},{j} overlap with {shared} shared vertices"
            # T-junction scan: vertex of one strictly inside an edge of the other
            for va, tb in ((tris[i], mesh.triangles[j]), (tris[j], mesh.triangles[i])):
                for v in va:
                    for k in range(3):
                        p = mesh.nodes[tb[k]]
                        q = mesh.nodes[tb[(k + 1) % 3]]
                        d = q - p
                        t = np.dot(v - p, d) / np.dot(d, d)
                        if 1e-9 < t < 1 - 1e-9:
                            dist = np.linalg.norm(v - (p + t * d))
                            assert dist > 1e-12, "hanging node detected"


def _tri_area(t):
    return 0.5 * abs(
        (t[1, 0] - t[0, 0]) * (t[2, 1] - t[0, 1])
        - (t[2, 0] - t[0, 0]) * (t[1, 1] - t[0, 1])
    )


class TestTriangulate:
    def test_square_coarsest(self, square):
        mesh = M.triangulate(square, 1.5)
        assert mesh.n_triangles == 2
        assert mesh.n_nodes == 4

    def test_lshape_keeps_corners(self):
        poly = M.lshape()
        mesh = M.triangulate(poly, 0.5)
        nodes = {tuple(p) for p in mesh.nodes}
        for v in poly.vertices:
            assert tuple(v) in nodes

    def test_edge_scan_meets_target(self, square):
        mesh = M.triangulate(square, 0.1)
        assert M.edge_lengths(mesh).max() <= 0.1

    def test_invalid_h(self, square):
        with pytest.raises(M.MeshError):
            M.triangulate(square, 0.0)

    def test_degenerate_polygon(self):
        bowtie = [[0, 0], [1, 1], [1, 0], [0, 1]]
        with pytest.raises(M.MeshError):
            M.Polygon(np.asarray(bowtie, dtype=float))

    def test_general_polygon_ear_clip(self):
        poly = M.Polygon(
            np.array([[0.0, 0.0], [2.0, 0.3], [1.7, 1.4], [0.6, 1.9], [-0.4, 0.9]])
        )
        mesh = M.triangulate(poly, 0.4)
        M.validate_mesh(mesh)
        assert M.edge_lengths(mesh).max() <= 0.4
        nodes = {tuple(p) for p in mesh.nodes}
        for v in poly.vertices:
            assert tuple(v) in nodes


class TestRefineUniform:
    def test_counts(self, square):
        mesh = M.triangulate(square, 1.5)
        fine = M.refine_uniform(mesh)
        assert fine.n_triangles == 8
        assert fine.n_nodes == 9

    def test_child_count_identity(self):
        mesh = M.triangulate(M.lshape(), 0.6)
        fine = M.refine_uniform(mesh)
        assert fine.n_triangles == 4 * mesh.n_triangles

    def test_diameter_halves_exactly(self, square):
        # dyadic coordinates make the halving exact in floating point
        mesh = M.triangulate(square, 0.4)
        fine = M.refine_uniform(mesh)
        assert M.max_diameter(fine) == M.max_diameter(mesh) / 2.0

    def test_corner_coordinates_bit_identical(self):
        poly = M.Polygon(
            np.array([[0.1, 0.2], [1.9, 0.33], [1.55, 1.41], [0.3, 1.07]])
        )
        mesh = M.triangulate(poly, 0.8)
        fine = M.refine_uniform(M.refine_uniform(mesh))
        nodes = {p.tobytes() for p in fine.nodes}
        for v in poly.vertices:
            assert v.tobytes() in nodes


class TestCornerGraded:
    def test_empty_corners_equals_uniform(self, square):
        mesh = M.triangulate(square, 0.6)
        graded = M.refine_corner_graded(mesh, [], 0.5, 2)
        uniform = M.refine_uniform(M.refine_uniform(mesh))
        assert np.array_equal(graded.nodes, uniform.nodes)
        assert np.array_equal(graded.triangles, uniform.triangles)

    def test_lshape_reentrant_refines_deeper(self):
        mesh = M.triangulate(M.lshape(), 0.5)
        graded = M.refine_corner_graded(mesh, [[0.0, 0.0]], 0.5, 3)
        smallest = M.edge_lengths(graded).max(axis=1).min()
        assert smallest < M.max_diameter(mesh) / 8.0

    def test_conformity_after_grading(self):
        mesh = M.triangulate(M.lshape(), 0.8)
        graded = M.refine_corner_graded(mesh, [[0.0, 0.0]], 0.4, 2)
        M.validate_mesh(graded)
        if graded.n_triangles <= 1000:
            pairwise_conformity_oracle(graded)

    def test_grading_out_of_range(self, square):
        mesh = M.triangulate(square, 0.6)
        with pytest.raises(M.MeshError):
            M.refine_corner_graded(mesh, [[0.0, 0.0]], 1.2, 2)


class TestQuadSplit:
    def test_reference_triangle_vertex_quad(self):
        mesh = M.Mesh.__new__(M.Mesh)  # build directly to pin vertex order
        mesh = M._build_mesh(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]])
        )
        split = M.quad_split(mesh)
        expected = np.array(
            [[0.0, 0.0], [0.5, 0.0], [1 / 3, 1 / 3], [0.0, 0.5]]
        )
        assert np.allclose(split.corners[0, 0], expected, atol=1e-15)

    def test_exact_area_tiling(self):
        mesh = M.triangulate(M.lshape(), 0.7)
        split = M.quad_split(mesh)
        p = mesh.nodes[mesh.triangles]
        tri_areas = 0.5 * np.abs(
            (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
            - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
        )
        for t in range(mesh.n_triangles):
            total = 0.0
            for i in range(3):
                q = split.corners[t, i]
                x, y = q[:, 0], q[:, 1]
                total += 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
            assert abs(total - tri_areas[t]) <= 1e-12 * tri_areas[t]

    def test_map_anchors_vertex(self):
        mesh = M.triangulate(M.unit_square(), 0.8)
        split = M.quad_split(mesh)
        for t in range(mesh.n_triangles):
            for i in range(3):
                image = split.map_points(t, i, np.array([[-1.0, -1.0]]))
                vertex = mesh.nodes[mesh.triangles[t, i]]
                assert np.allclose(image[0], vertex, rtol=0, atol=1e-15)

    def test_jacobian_positive_on_grid(self):
        mesh = M.triangulate(M.lshape(), 0.6)
        split = M.quad_split(mesh)
        grid = np.linspace(-1, 1, 11)
        gs, gt = np.meshgrid(grid, grid, indexing="ij")
        st_pts = np.column_stack([gs.ravel(), gt.ravel()])
        for t in range(mesh.n_triangles):
            for i in range(3):
                assert np.all(split.jacobians(t, i, st_pts) > 0)


class TestConformityInvariant:
    def test_pairwise_oracle_uniform_chain(self, square):
        mesh = M.triangulate(square, 0.6)
        for _ in range(2):
            mesh = M.refine_uniform(mesh)
            M.validate_mesh(mesh)
        pairwise_conformity_oracle(mesh)


class TestTextFormat:
    def test_round_trip_structured(self):
        mesh = M.refine_corner_graded(
            M.triangulate(M.lshape(), 0.7), [[0.0, 0.0]], 0.5, 1
        )
        back = M.mesh_from_text(M.mesh_to_text(mesh))
        assert np.array_equal(mesh.nodes, back.nodes)
        assert np.array_equal(mesh.triangles, back.triangles)
        assert np.array_equal(mesh.boundary_nodes, back.boundary_nodes)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.floats(
                min_value=-1e6,
                max_value=1e6,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=2,
            max_size=2,
        )
    )
    def test_seventeen_digit_round_trip(self, xy):
        # the mesh writer uses %.17g; any double must survive
        for x in xy:
            assert float(f"{x:.17g}") == x

    def test_header_line(self, square):
        mesh = M.triangulate(square, 1.5)
        text = M.mesh_to_text(mesh)
        assert text.splitlines()[0] == "NODES 4 TRIANGLES 2"

    def test_irrational_coordinates_bit_exact(self):
        poly = M.Polygon(
            np.array(
                [
                    [0.0, 0.0],
                    [np.pi / 3, 0.1],
                    [1.1, np.sqrt(2) - 0.2],
                    [0.05, 1.03],
                ]
            )
        )
        mesh = M.triangulate(poly, 0.5)
        back = M.mesh_from_text(M.mesh_to_text(mesh))
        assert np.array_equal(mesh.nodes, back.nodes)


class TestLocatePoints:
    def test_barycentric_recovery(self, square_mesh, rng):
        pts = rng.uniform(0.05, 0.95, size=(50, 2))
        tri_idx, bary = M.locate_points(square_mesh, pts)
        assert np.all(tri_idx >= 0)
        rebuilt = np.einsum(
            "nk,nkd->nd", bary, square_mesh.nodes[square_mesh.triangles[tri_idx]]
        )
        assert np.max(np.abs(rebuilt - pts)) < 1e-12

    def test_matches_the_per_triangle_scan(self, square_mesh, rng, monkeypatch):
        # reference: scan triangles in index order, each point kept by the
        # first one holding it; small blocks exercise the block boundaries
        def scan(mesh, pts, tol):
            tri_idx, bary = -np.ones(len(pts), dtype=np.int64), np.zeros((len(pts), 3))
            for t, (v0, v1, v2) in enumerate(mesh.nodes[mesh.triangles]):
                d = (v1[0] - v0[0]) * (v2[1] - v0[1]) - (v2[0] - v0[0]) * (v1[1] - v0[1])
                for i, q in enumerate(pts):
                    if tri_idx[i] >= 0:
                        continue
                    l1 = ((q[0] - v0[0]) * (v2[1] - v0[1]) - (q[1] - v0[1]) * (v2[0] - v0[0])) / d
                    l2 = ((q[1] - v0[1]) * (v1[0] - v0[0]) - (q[0] - v0[0]) * (v1[1] - v0[1])) / d
                    l0 = 1.0 - l1 - l2
                    if min(l0, l1, l2) >= -tol:
                        tri_idx[i], bary[i] = t, (l0, l1, l2)
            return tri_idx, bary

        edges = square_mesh.nodes[square_mesh.triangles[:, :2]].mean(axis=1)
        pts = np.vstack([
            square_mesh.nodes, edges, rng.uniform(-0.1, 1.1, size=(200, 2))
        ])
        monkeypatch.setattr(M, "_LOCATE_PAIRS", 7 * square_mesh.n_triangles)
        for tol in (1e-12, 1e-9):
            got, expected = M.locate_points(square_mesh, pts, tol), scan(square_mesh, pts, tol)
            assert np.array_equal(got[0], expected[0]) and np.array_equal(got[1], expected[1])
