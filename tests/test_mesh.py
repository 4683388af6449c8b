import hashlib
import json
import math
import os

import numpy as np
import pytest

from richop import coeff as C
from richop import encoder as E
from richop import fem as F
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


# two counter-clockwise non-convex polygons that ear clipping has to work around: the first
# starts at a reflex vertex, the second's vertex (0.5, 0.5) lies inside its first candidate ear
REFLEX_FIRST = np.array([(0.6, 0.5), (1, 0.7), (0, 1), (0.2, 0.5), (0, 0), (1, 0.3)])
VERTEX_IN_EAR = np.array([(0, 0), (2, 0), (2, 2), (0.5, 0.5), (0, 2)], dtype=float)


def _pentagon():
    """The regular pentagon that the CI workflow's GLL bundle meshes at h = 0.3."""
    angles = [2 * math.pi * k / 5 + math.pi / 2 for k in range(5)]
    return M.Polygon(np.array([[math.cos(t), math.sin(t)] for t in angles]))


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

    @pytest.mark.parametrize(
        "vertices, h, n_triangles",
        [(REFLEX_FIRST, 0.3, 64), (VERTEX_IN_EAR, 0.5, 192)],
        ids=["reflex_vertex_first", "vertex_inside_an_ear"],
    )
    def test_non_convex_ear_clip_tiles_the_polygon(self, vertices, h, n_triangles):
        mesh = M.triangulate(M.Polygon(vertices), h)
        M.validate_mesh(mesh)
        assert mesh.n_triangles == n_triangles
        x, y = vertices[:, 0], vertices[:, 1]
        shoelace = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
        area = sum(_tri_area(t) for t in mesh.nodes[mesh.triangles])
        assert abs(area - shoelace) <= 1e-12

    @pytest.mark.parametrize(
        "vertices, message",
        [
            ([(0, 0), (3, 0), (0, 1), (1, 2)], "self-intersecting"),
            ([(0, 0), (0, 0), (1, 0), (0, 1)], "zero-length edge"),
            ([(0, 0), (1, 0)], "at least 3"),
        ],
        ids=["self_intersecting", "zero_length_edge", "two_vertices"],
    )
    def test_invalid_polygon_raises(self, vertices, message):
        with pytest.raises(M.MeshError, match=message):
            M.Polygon(np.asarray(vertices, dtype=float))

    def test_clockwise_polygon_is_stored_counter_clockwise(self):
        assert np.array_equal(M.Polygon(REFLEX_FIRST[::-1]).vertices, REFLEX_FIRST)

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

    def test_levels_zero_grades_the_coarse_mesh(self):
        mesh = M.triangulate(M.lshape(), 0.5)
        graded = M.refine_corner_graded(mesh, [[0.0, 0.0]], 0.5, 0)
        M.validate_mesh(graded)
        assert (mesh.n_triangles, graded.n_triangles) == (54, 70)
        assert np.array_equal(graded.nodes[: mesh.n_nodes], mesh.nodes)

    def test_rivara_propagation_on_the_pentagon(self):
        # grading toward the regular pentagon's vertex (0, 1), twice a marked triangle's
        # longest edge is not its neighbour's, so the neighbour is bisected first
        # (Rivara propagation); the result stays conforming and meets every target
        angles = 2.0 * np.pi * np.arange(5) / 5 + np.pi / 2
        pentagon = M.Polygon(np.column_stack([np.cos(angles), np.sin(angles)]))
        coarse = M.triangulate(pentagon, 0.5)
        graded = M.refine_corner_graded(coarse, [pentagon.vertices[0]], 0.2, 2)
        M.validate_mesh(graded)
        assert graded.n_triangles == 1196
        h = M.max_diameter(M.refine_uniform(M.refine_uniform(coarse)))
        p = graded.nodes[graded.triangles]
        r = np.linalg.norm(p.mean(axis=1) - pentagon.vertices[0], axis=1)
        target = h * (r / M.max_diameter(coarse)) ** (1.0 - 0.2)
        assert np.all(M.edge_lengths(graded).max(axis=1) <= target * (1.0 + 1e-12))

    # the first 16 hex digits of sha256(nodes.tobytes() + triangles.tobytes()):
    # node order, triangle order and each triangle's vertex order are pinned
    @pytest.mark.parametrize(
        "polygon, h, corners, grading, levels, n_nodes, n_triangles, digest",
        [
            (M.lshape, 0.5, [[0.0, 0.0]], 0.5, 2, 650, 1192, "afd62fd9ec3fc15f"),
            (M.unit_square, 0.5, [[0.0, 0.0], [1.0, 1.0]], 0.4, 2, 331, 584, "fde014c85ca9fe35"),
            (M.lshape, 0.25, [[0.0, 0.0]], 0.5, 3, 7740, 15072, "0dbe960c959b782d"),
        ],
    )
    def test_pinned_meshes(self, polygon, h, corners, grading, levels, n_nodes, n_triangles, digest):
        mesh = M.refine_corner_graded(M.triangulate(polygon(), h), corners, grading, levels)
        assert (mesh.n_nodes, mesh.n_triangles) == (n_nodes, n_triangles)
        data = mesh.nodes.tobytes() + mesh.triangles.tobytes()
        assert hashlib.sha256(data).hexdigest()[:16] == digest


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
                image = split.bilinear_map(3 * t + i, np.array([-1.0]), np.array([-1.0]))[0]
                vertex = mesh.nodes[mesh.triangles[t, i]]
                assert np.allclose(image[:, 0], vertex, rtol=0, atol=1e-15)

    def test_jacobian_positive_on_grid(self):
        mesh = M.triangulate(M.lshape(), 0.6)
        split = M.quad_split(mesh)
        grid = np.linspace(-1, 1, 11)
        gs, gt = np.meshgrid(grid, grid, indexing="ij")
        st_pts = np.column_stack([gs.ravel(), gt.ravel()])
        for t in range(mesh.n_triangles):
            for i in range(3):
                assert np.all(split.bilinear_map(3 * t + i, st_pts[:, 0], st_pts[:, 1])[3] > 0)


class TestConformityInvariant:
    def test_pairwise_oracle_uniform_chain(self, square):
        mesh = M.triangulate(square, 0.6)
        for _ in range(2):
            mesh = M.refine_uniform(mesh)
            M.validate_mesh(mesh)
        pairwise_conformity_oracle(mesh)


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


class TestValidateMeshRejects:
    """One crafted mesh per MeshError branch of validate_mesh."""

    def test_duplicate_node(self, square):
        mesh = M.triangulate(square, 1.5)
        copy = M._build_mesh(np.vstack([mesh.nodes, mesh.nodes[:1]]), mesh.triangles)
        with pytest.raises(M.MeshError, match="duplicate node"):
            M.validate_mesh(copy)

    def test_non_positive_area(self, square):
        mesh = M.triangulate(square, 1.5)
        clockwise = M.Mesh(
            mesh.nodes, mesh.triangles[:, [0, 2, 1]], mesh.boundary_nodes, mesh.boundary_edges
        )
        with pytest.raises(M.MeshError, match="non-positive"):
            M.validate_mesh(clockwise)

    def test_edge_traversed_twice_in_one_direction(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 1.0]])
        overlap = M._build_mesh(nodes, np.array([[0, 1, 2], [0, 1, 3]]))
        with pytest.raises(M.MeshError, match="traversed twice"):
            M.validate_mesh(overlap)

    def test_edge_in_three_triangles(self):
        # three triangles hold the edge in only two directions, so the
        # same-direction check is the one that fires
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, 2.0], [0.5, -1.0]])
        fan = M.Mesh(nodes, np.array([[0, 1, 2], [0, 1, 3], [1, 0, 4]]), np.arange(5), np.zeros((0, 2)))
        with pytest.raises(M.MeshError, match="traversed twice"):
            M.validate_mesh(fan)

    def test_stale_boundary_edges(self, square):
        mesh = M.triangulate(square, 0.5)
        stale = M.Mesh(mesh.nodes, mesh.triangles, mesh.boundary_nodes, mesh.boundary_edges[1:])
        with pytest.raises(M.MeshError, match="out of date"):
            M.validate_mesh(stale)

    def test_angle_sum_gap(self):
        # a fan of seven 4pi/7 wedges winds twice around its interior centre
        angles = 4.0 * np.pi * np.arange(7) / 7.0
        radii = np.where(angles < 2.0 * np.pi, 1.0, 2.0)
        rim = radii[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])
        wedges = np.column_stack([np.zeros(7, dtype=np.int64), 1 + np.arange(7),
                                  1 + (np.arange(1, 8) % 7)])
        double_cover = M._build_mesh(np.vstack([[0.0, 0.0], rim]), wedges)
        assert 0 not in double_cover.boundary_nodes
        with pytest.raises(M.MeshError, match="angle sum"):
            M.validate_mesh(double_cover)


class TestBuildMeshRejects:
    def test_degenerate_triangle(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(M.MeshError, match="degenerate"):
            M._build_mesh(nodes, np.array([[0, 1, 2]]))

    def test_edge_in_three_triangles(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, 2.0], [0.5, -1.0]])
        with pytest.raises(M.MeshError, match="more than two"):
            M._build_mesh(nodes, np.array([[0, 1, 2], [0, 1, 3], [1, 0, 4]]))

    @pytest.mark.parametrize(
        "nodes, triangles, message",
        [
            ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, -1]], r"\[0, 3\)"),
            ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 3]], r"\[0, 3\)"),
            ([[0.0, 0.0], [1.0, 0.0], [0.0, np.nan]], [[0, 1, 2]], "not finite"),
            ([[0.0, 0.0], [1.0, 0.0], [0.0, np.inf]], [[0, 1, 2]], "not finite"),
            ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[0, 1, 2]], r"\(n, 2\)"),
            ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0, 2.0]], "integers"),
            ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1]], "integers"),
            ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [0, 1, 2], "integers"),
        ],
        ids=["index_minus_one", "index_n", "nan_node", "infinite_node", "three_columns",
             "float_triangles", "two_indices", "one_dimensional"],
    )
    def test_bad_arrays(self, nodes, triangles, message):
        # -1 would wrap to the last node, n would raise IndexError, a NaN area would pass the
        # degeneracy test, and a float index would be truncated: each is a MeshError instead
        with pytest.raises(M.MeshError, match=message):
            M._build_mesh(np.array(nodes), np.array(triangles))


class TestBuildMeshCopies:
    @pytest.mark.parametrize("flip", [False, True], ids=["counter_clockwise", "one_clockwise"])
    def test_callers_arrays_stay_writable_and_unchanged(self, flip):
        # int64 triangles pass _mesh_arrays uncopied: the mesh freezes its own copy, not these
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        triangles = np.array([[0, 1, 2], [1, 3, 2]], dtype=np.int64)
        if flip:
            triangles[0] = [0, 2, 1]
        before = nodes.copy(), triangles.copy()
        mesh = M._build_mesh(nodes, triangles)
        for array, want in zip((nodes, triangles), before):
            assert array.flags.writeable
            assert array.dtype == want.dtype and np.array_equal(array, want)
        assert not (mesh.nodes.flags.writeable or mesh.triangles.flags.writeable)
        assert np.array_equal(mesh.triangles, [[0, 1, 2], [1, 3, 2]])


# Reference numberings: dict loops that number each shared node, edge or
# channel the first time a (cell, local entity) scan meets it.


def _dict_structured(polygon, h_target):
    step = h_target / np.sqrt(2.0)
    xs = M._grid_lines(polygon.vertices[:, 0], step)
    ys = M._grid_lines(polygon.vertices[:, 1], step)
    node_id, nodes, triangles = {}, [], []

    def nid(i, j):
        if (i, j) not in node_id:
            node_id[i, j] = len(nodes)
            nodes.append((xs[i], ys[j]))
        return node_id[i, j]

    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            centre = [[0.5 * (xs[i] + xs[i + 1]), 0.5 * (ys[j] + ys[j + 1])]]
            if not polygon.contains(centre)[0]:
                continue
            n00, n10, n11, n01 = nid(i, j), nid(i + 1, j), nid(i + 1, j + 1), nid(i, j + 1)
            triangles += [(n00, n10, n11), (n00, n11, n01)]
    return np.asarray(nodes), np.asarray(triangles)


def _dict_boundary_edges(triangles):
    counts = {}
    for tri in triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            counts[key] = counts.get(key, 0) + 1
    return np.array(sorted(e for e, c in counts.items() if c == 1)).reshape(-1, 2)


def _dict_p2(mesh):
    """(dof coordinates, cell dofs, boundary dofs) of the P2 space."""
    edge_ids, mids = {}, []
    for tri in mesh.triangles:
        for a, b in ((0, 1), (1, 2), (2, 0)):
            key = (min(tri[a], tri[b]), max(tri[a], tri[b]))
            if key not in edge_ids:
                edge_ids[key] = mesh.n_nodes + len(mids)
                mids.append(0.5 * (mesh.nodes[key[0]] + mesh.nodes[key[1]]))
    cell_dofs = [
        list(tri) + [edge_ids[min(tri[a], tri[b]), max(tri[a], tri[b])] for a, b in ((0, 1), (1, 2), (2, 0))]
        for tri in mesh.triangles
    ]
    boundary = {tuple(e) for e in mesh.boundary_edges}
    constrained = sorted(list(mesh.boundary_nodes) + [i for k, i in edge_ids.items() if k in boundary])
    return np.vstack([mesh.nodes, mids]), np.asarray(cell_dofs), np.asarray(constrained)


def _dict_refine(mesh):
    nodes, midpoint, triangles = [tuple(p) for p in mesh.nodes], {}, []

    def mid(a, b):
        key = (min(a, b), max(a, b))
        if key not in midpoint:
            midpoint[key] = len(nodes)
            pa, pb = mesh.nodes[a], mesh.nodes[b]
            nodes.append(((pa[0] + pb[0]) / 2.0, (pa[1] + pb[1]) / 2.0))
        return midpoint[key]

    for v0, v1, v2 in mesh.triangles:
        m01, m12, m20 = mid(v0, v1), mid(v1, v2), mid(v2, v0)
        triangles += [(v0, m01, m20), (v1, m12, m01), (v2, m20, m12), (m01, m12, m20)]
    return np.asarray(nodes), np.asarray(triangles)


def _graded_lshape():
    cfg = json.load(open(os.path.join(os.path.dirname(__file__), "..", "configs", "decay_lshape.json")))
    graded = cfg["mesh"]["graded"]
    coarse = M.triangulate(M.lshape(), cfg["mesh"]["h"])
    return M.refine_corner_graded(coarse, graded["corners"], graded["grading"], graded["levels"])


_NUMBERING_MESHES = {
    "square_0.3": lambda: M.triangulate(M.unit_square(), 0.3),
    "square_0.025": lambda: M.triangulate(M.unit_square(), 0.025),
    "square_0.0884": lambda: M.triangulate(M.unit_square(), 0.0884),
    "lshape_0.5": lambda: M.triangulate(M.lshape(), 0.5),
    "lshape_0.07": lambda: M.triangulate(M.lshape(), 0.07),
    "lshape_graded": _graded_lshape,
    "ear_clipped": lambda: M.triangulate(
        M.Polygon(np.array([[0.0, 0.0], [2.0, 0.3], [1.7, 1.4], [0.6, 1.9], [-0.4, 0.9]])), 0.4
    ),
    "ear_clipped_reflex_first": lambda: M.triangulate(M.Polygon(REFLEX_FIRST), 0.3),
    "ear_clipped_vertex_in_ear": lambda: M.triangulate(M.Polygon(VERTEX_IN_EAR), 0.5),
}


class TestFirstAppearanceNumbering:
    @pytest.fixture(scope="class", params=sorted(_NUMBERING_MESHES))
    def mesh(self, request):
        return _NUMBERING_MESHES[request.param]()

    def test_boundary_edges(self, mesh):
        assert np.array_equal(mesh.boundary_edges, _dict_boundary_edges(mesh.triangles))

    def test_p2_space(self, mesh):
        space = F.build_space(mesh, 2)
        coords, cell_dofs, constrained = _dict_p2(mesh)
        assert np.array_equal(space.dof_coords, coords)
        assert np.array_equal(space.cell_dofs, cell_dofs)
        assert np.array_equal(np.setdiff1d(np.arange(space.n_dofs), space.free_dofs), constrained)

    def test_red_refinement(self, mesh):
        fine, (nodes, triangles) = M.refine_uniform(mesh), _dict_refine(mesh)
        assert np.array_equal(fine.nodes, nodes) and np.array_equal(fine.triangles, triangles)

    @pytest.mark.parametrize("h", [0.3, 0.025, 0.0884])
    def test_structured_square(self, h):
        mesh, (nodes, triangles) = M.triangulate(M.unit_square(), h), _dict_structured(M.unit_square(), h)
        assert np.array_equal(mesh.nodes, nodes) and np.array_equal(mesh.triangles, triangles)

    @pytest.mark.parametrize("h", [0.5, 0.07])
    def test_structured_lshape(self, h):
        mesh, (nodes, triangles) = M.triangulate(M.lshape(), h), _dict_structured(M.lshape(), h)
        assert np.array_equal(mesh.nodes, nodes) and np.array_equal(mesh.triangles, triangles)

    @pytest.mark.parametrize("p", [2, 3])
    def test_gll_channels(self, p):
        split = M.quad_split(M.triangulate(M.unit_square(), 0.5))
        enc = E.build_gll_encoder(split, p)
        nodes = E.gll_nodes(p)
        st = np.column_stack([np.repeat(nodes, p + 1), np.tile(nodes, p + 1)])
        channel_of, points = {}, []
        channels = np.empty_like(enc.cell_channels)
        for t in range(split.mesh.n_triangles):
            for i in range(3):
                for loc, x in enumerate(split.bilinear_map(3 * t + i, st[:, 0], st[:, 1])[0].T):
                    key = tuple(np.round(x, 12))
                    if key not in channel_of:
                        channel_of[key] = len(points)
                        points.append(x)
                    channels[3 * t + i, loc] = channel_of[key]
        assert np.array_equal(enc.query_points, np.asarray(points))
        assert np.array_equal(enc.cell_channels, channels)


class TestLagrangeDegree:
    @pytest.mark.parametrize("degree", [1.0, 2.0, True, 0, 3, "1", None],
                             ids=["one_float", "two_float", "true", "zero", "three", "string", "none"])
    def test_only_the_integers_one_and_two(self, degree):
        # a float or bool equal to 1 built a space whose encoder.json its reader refused;
        # the dof table's check covers every builder that takes a degree
        mesh = M.triangulate(M.unit_square(), 0.5)
        builders = [
            lambda: M._lagrange_dofs(mesh, degree),
            lambda: F.build_space(mesh, degree),
            lambda: C.mesh_field(mesh, np.ones(mesh.n_nodes), degree),
            lambda: C.sample_family(
                C.SobolevBall(alpha=1.0, beta=0.5, domain=mesh, degree=degree), 1, 0),
        ]
        for build in builders:
            with pytest.raises(ValueError, match="integer 1 or 2"):
                build()
