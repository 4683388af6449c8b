"""Conforming triangulations of plane polygons.

Provides structured template meshes for rectilinear domains (squares,
L-shapes), ear-clipping plus refinement for general simple polygons,
uniform red refinement, corner-graded refinement by longest-edge
bisection, the barycentric split of every triangle into three
quadrilaterals with their one bilinear reference map (QuadSplit.bilinear_map),
and the one Lagrange dof table of degree 1 or 2 (_lagrange_dofs).

Shared entities are numbered once, by first appearance: grid nodes in
cell order, edges in (triangle, local edge) order with local edges (0,1),
(1,2), (2,0), and the P2 dofs as the vertices followed by the edge
midpoints. The FEM spaces, red refinement, mesh fields and the GLL
encoder's channels all use this numbering (_first_appearance).

Corner grading keeps one bisection state across its marking passes and
creates each half counter-clockwise, as _build_mesh would orient it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Polygon",
    "Mesh",
    "QuadSplit",
    "unit_square",
    "lshape",
    "triangulate",
    "refine_uniform",
    "refine_corner_graded",
    "quad_split",
    "max_diameter",
    "edge_lengths",
    "locate_points",
    "validate_mesh",
]

_MERGE_DECIMALS = 12
_P2_EDGES = ((0, 1), (1, 2), (2, 0))  # local edge k joins vertices k and k + 1
_LOCATE_PAIRS = 1 << 14  # point-triangle pairs per block of locate_points


class MeshError(ValueError):
    """Raised for invalid geometry or broken mesh invariants."""


def _signed_area(vertices: np.ndarray) -> float:
    x, y = vertices[:, 0], vertices[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _orient(a, b, c) -> float:
    """Twice the signed area of the triangle abc, positive when it turns counter-clockwise."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _affine_maps(nodes: np.ndarray, triangles: np.ndarray):
    """Vertices p = nodes[triangles] (t, 3, 2), edges e1 = p1 - p0, e2 = p2 - p0 and det [e1 e2]."""
    p = nodes[triangles]
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    return p, e1, e2, e1[:, 0] * e2[:, 1] - e2[:, 0] * e1[:, 1]


def _segments_cross(p, q, r, s) -> bool:
    """Proper crossing test for open segments pq and rs."""
    d1 = _orient(r, s, p)
    d2 = _orient(r, s, q)
    d3 = _orient(p, q, r)
    d4 = _orient(p, q, s)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


@dataclass(frozen=True)
class Polygon:
    """Simple polygon given by counterclockwise vertices; the domain is its interior."""

    vertices: np.ndarray

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 3:
            raise MeshError("polygon needs at least 3 planar vertices")
        area = _signed_area(verts)
        if abs(area) < 1e-14:
            raise MeshError("polygon is degenerate (zero area)")
        if area < 0:
            verts = verts[::-1].copy()
        k = len(verts)
        for i in range(k):
            p, q = verts[i], verts[(i + 1) % k]
            if np.allclose(p, q):
                raise MeshError("polygon has a zero-length edge")
            for j in range(i + 1, k):
                if j == i or (j + 1) % k == i or (i + 1) % k == j:
                    continue
                r, s = verts[j], verts[(j + 1) % k]
                if _segments_cross(p, q, r, s):
                    raise MeshError("polygon is self-intersecting")
        verts.setflags(write=False)
        object.__setattr__(self, "vertices", verts)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Crossing-number inclusion test, vectorized over points (n, 2)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        verts = self.vertices
        inside = np.zeros(len(pts), dtype=bool)
        x, y = pts[:, 0], pts[:, 1]
        k = len(verts)
        for i in range(k):
            x1, y1 = verts[i]
            x2, y2 = verts[(i + 1) % k]
            crosses = (y1 > y) != (y2 > y)
            with np.errstate(divide="ignore", invalid="ignore"):
                xint = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            inside ^= crosses & (x < np.where(crosses, xint, np.inf))
        return inside


def unit_square() -> Polygon:
    return Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))


def lshape() -> Polygon:
    """(-1, 1)^2 with the quadrant [0, 1) x (-1, 0] removed; reentrant corner at the origin."""
    return Polygon(
        np.array(
            [
                [-1.0, -1.0],
                [0.0, -1.0],
                [0.0, 0.0],
                [1.0, 0.0],
                [1.0, 1.0],
                [-1.0, 1.0],
            ]
        )
    )


@dataclass(frozen=True)
class Mesh:
    """Conforming triangulation: nodes, CCW triangles, and boundary topology."""

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_nodes: np.ndarray
    boundary_edges: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)


def _first_appearance(keys: np.ndarray):
    """Number the distinct rows of keys in order of first appearance.

    Returns (first, ids): first[j] is the row where the j-th distinct key
    first appears and ids[i] the number of row i's key, so that
    keys[first][ids] equals keys.
    """
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse.reshape(-1)]


def _edge_table(triangles: np.ndarray):
    """Undirected edges numbered by first appearance over (triangle, local edge).

    Returns (edges, cell_edges, counts): the (min, max) node pairs (E, 2),
    the edge of each local edge (t, 3) in _P2_EDGES order, and the number
    of triangles holding each edge (E,).
    """
    pairs = np.sort(triangles[:, _P2_EDGES].reshape(-1, 2), axis=1)
    first, ids = _first_appearance(pairs[:, 0] * (pairs.max(initial=0) + 1) + pairs[:, 1])
    return pairs[first], ids.reshape(-1, 3), np.bincount(ids, minlength=len(first))


def _lagrange_dofs(mesh: Mesh, degree: int):
    """The Lagrange dof table of the integer degree 1 or 2: (coords, cell_dofs, boundary).

    The dof coordinates, each triangle's dofs (t, 3 or 6), and the sorted
    dofs on the boundary. P1 dofs are the mesh's own (read-only) arrays; P2
    dofs are the vertices, then the edge midpoints 0.5 (a + b), each
    triangle's edge dofs in _P2_EDGES order.
    """
    if type(degree) is not int or degree not in (1, 2):  # 1.0 and True are not degrees
        raise ValueError(f"degree must be the integer 1 or 2, got {degree!r}")
    if degree == 1:
        return mesh.nodes, mesh.triangles, mesh.boundary_nodes
    edges, cell_edges, counts = _edge_table(mesh.triangles)
    nodes, n = mesh.nodes, mesh.n_nodes
    coords = np.vstack([nodes, 0.5 * (nodes[edges[:, 0]] + nodes[edges[:, 1]])])
    boundary = np.concatenate([mesh.boundary_nodes, n + np.flatnonzero(counts == 1)])
    return coords, np.hstack([mesh.triangles, n + cell_edges]), boundary


def _mesh_arrays(nodes, triangles) -> tuple[np.ndarray, np.ndarray]:
    """nodes as float (n, 2) and triangles as int64 (t, 3); MeshError unless every node is
    finite and every triangle holds three integer indices in [0, n) (numpy would wrap a
    negative index to the last nodes)."""
    nodes, triangles = np.asarray(nodes, dtype=float), np.asarray(triangles)
    if not (nodes.ndim == 2 and nodes.shape[1] == 2):
        raise MeshError(f"nodes must be (n, 2) floats, got shape {nodes.shape}")
    if not np.isfinite(nodes).all():
        raise MeshError("a node coordinate is not finite")
    if not (triangles.ndim == 2 and triangles.shape[1] == 3 and triangles.dtype.kind in "iu"):
        raise MeshError(f"triangles must be (t, 3) integers, got {triangles.dtype} "
                        f"{triangles.shape}")
    if triangles.size and not (triangles.min() >= 0 and triangles.max() < len(nodes)):
        raise MeshError(f"triangle indices must lie in [0, {len(nodes)}), got "
                        f"{triangles.min()} to {triangles.max()}")
    return nodes, triangles.astype(np.int64, copy=False)


def _build_mesh(nodes: np.ndarray, triangles: np.ndarray) -> Mesh:
    # the mesh's own read-only copies: the caller's arrays stay as they were, writable
    nodes, triangles = (a.copy() for a in _mesh_arrays(nodes, triangles))
    areas = 0.5 * _affine_maps(nodes, triangles)[3]
    flip = areas < 0
    if np.any(flip):
        triangles[flip] = triangles[flip][:, [0, 2, 1]]
        areas = np.abs(areas)
    if np.any(areas <= 1e-16):
        raise MeshError("degenerate triangle in mesh")
    edges, _, counts = _edge_table(triangles)
    if np.any(counts > 2):
        raise MeshError("edge shared by more than two triangles")
    boundary_edges = np.unique(edges[counts == 1], axis=0)
    boundary_nodes = np.unique(boundary_edges)
    for array in (nodes, triangles, boundary_nodes, boundary_edges):
        array.setflags(write=False)
    return Mesh(nodes, triangles, boundary_nodes, boundary_edges)


def edge_lengths(mesh: Mesh) -> np.ndarray:
    p = mesh.nodes[mesh.triangles]
    e = np.roll(p, -1, axis=1) - p  # p1 - p0, p2 - p1, p0 - p2
    return np.sqrt(np.sum(e**2, axis=2))


def max_diameter(mesh: Mesh) -> float:
    return float(edge_lengths(mesh).max())


def _is_rectilinear(polygon: Polygon) -> bool:
    verts = polygon.vertices
    k = len(verts)
    for i in range(k):
        d = verts[(i + 1) % k] - verts[i]
        if abs(d[0]) > 1e-14 and abs(d[1]) > 1e-14:
            return False
    return True


def _grid_lines(coords: np.ndarray, step: float) -> np.ndarray:
    """Refine each interval between sorted corner coordinates into pieces <= step."""
    coords = np.unique(coords)
    lines = [coords[0]]
    for a, b in zip(coords[:-1], coords[1:]):
        n = max(1, int(np.ceil((b - a) / step - 1e-12)))
        lines.extend(a + (b - a) * np.arange(1, n + 1) / n)
    return np.asarray(lines)


def _structured_rectilinear(polygon: Polygon, h_target: float) -> Mesh:
    # Cell diagonal must stay below h_target, so each axis pitch <= h/sqrt(2).
    step = h_target / np.sqrt(2.0)
    xs = _grid_lines(polygon.vertices[:, 0], step)
    ys = _grid_lines(polygon.vertices[:, 1], step)
    ny = len(ys)
    centers_x = 0.5 * (xs[:-1, None] + xs[1:, None])
    centers_y = 0.5 * (ys[None, :-1] + ys[None, 1:])
    cx, cy = np.broadcast_arrays(centers_x, centers_y)
    keep = polygon.contains(np.column_stack([cx.ravel(), cy.ravel()])).reshape(cx.shape)
    ci, cj = np.nonzero(keep)  # kept cells, i-major
    if not len(ci):
        raise MeshError("no cell center inside polygon; h_target too coarse?")
    # grid index i * ny + j of the corners n00, n10, n11, n01 of each cell
    corners = (ci * ny + cj)[:, None] + np.array([0, ny, ny + 1, 1])
    first, ids = _first_appearance(corners.reshape(-1))
    key = corners.reshape(-1)[first]
    nodes = np.column_stack([xs[key // ny], ys[key % ny]])
    return _build_mesh(nodes, ids.reshape(-1, 4)[:, [0, 1, 2, 0, 2, 3]].reshape(-1, 3))


def _ear_clip(polygon: Polygon) -> np.ndarray:
    """Triangles of a simple polygon by ear clipping (indices into its vertices): an ear
    turns counter-clockwise by _orient, and by _orient no other vertex lies in or on it."""
    verts = polygon.vertices
    idx = list(range(len(verts)))
    triangles = []

    def is_ear(i0, i1, i2):
        a, b, c = verts[i0], verts[i1], verts[i2]
        if _orient(a, b, c) <= 1e-14:
            return False
        for j in idx:
            if j in (i0, i1, i2):
                continue
            p = verts[j]
            if all(_orient(u, v, p) >= -1e-14 for u, v in ((a, b), (b, c), (c, a))):
                return False
        return True

    guard = 0
    while len(idx) > 3:
        guard += 1
        if guard > 10 * len(verts) ** 2:
            raise MeshError("ear clipping failed; polygon may be degenerate")
        n = len(idx)
        for k in range(n):
            i0, i1, i2 = idx[(k - 1) % n], idx[k], idx[(k + 1) % n]
            if is_ear(i0, i1, i2):
                triangles.append((i0, i1, i2))
                idx.pop(k)
                break
    triangles.append(tuple(idx))
    return np.asarray(triangles, dtype=np.int64)


def triangulate(polygon: Polygon, h_target: float) -> Mesh:
    """Conforming mesh of the polygon with max triangle diameter <= h_target.

    Rectilinear polygons get a structured grid aligned with all corners;
    general polygons are ear-clipped and uniformly refined. Every polygon
    vertex appears as a mesh node.
    """
    if h_target <= 0:
        raise MeshError("h_target must be positive")
    if _is_rectilinear(polygon):
        return _structured_rectilinear(polygon, h_target)
    mesh = _build_mesh(polygon.vertices, _ear_clip(polygon))
    while max_diameter(mesh) > h_target:
        mesh = refine_uniform(mesh)
    return mesh


def refine_uniform(mesh: Mesh) -> Mesh:
    """Red refinement: every triangle is split into 4 via edge midpoints.

    Original nodes keep their indices and exact coordinates; the new nodes
    are the P2 edge dofs, so the children of triangle (v0, v1, v2, m01, m12,
    m20) are (v0, m01, m20), (v1, m12, m01), (v2, m20, m12), (m01, m12, m20).
    """
    coords, cell_dofs, _ = _lagrange_dofs(mesh, 2)
    children = cell_dofs[:, [[0, 3, 5], [1, 4, 3], [2, 5, 4], [3, 4, 5]]]
    return _build_mesh(coords, children.reshape(-1, 3))


def refine_corner_graded(
    mesh: Mesh, corners, grading: float, levels: int
) -> Mesh:
    """Uniform refinement plus bisection grading toward the given corners.

    After `levels` red refinements (width h), triangles at distance r from a
    marked corner are bisected until their diameter is below
    h * (r / d0)^(1 - grading), d0 the coarse-mesh diameter; with levels 0,
    h is d0 and the coarse mesh itself is graded. Empty corner list reduces
    to plain uniform refinement.

    One bisection state serves every pass: the node list, the triangles in
    creation order (a split triangle leaves None and its two halves are
    appended) and the live holders of each edge (min, max). Each pass
    bisects, in creation order, the live triangles whose diameter exceeds
    the target at their centroid, across their longest edge ranked by
    (length², -min, -max), with Rivara propagation. Each half starts at the
    vertex opposite the split edge and is counter-clockwise, so every pass
    reads the centroids of the triangles as _build_mesh would orient them.
    """
    if not (0.0 < grading < 1.0):
        raise MeshError("grading must lie in (0, 1)")
    corners = np.atleast_2d(np.asarray(corners, dtype=float)) if len(corners) else None
    d0 = max_diameter(mesh)
    out = mesh
    for _ in range(levels):
        out = refine_uniform(out)
    if corners is None:
        return out
    h_uniform = max_diameter(out)
    nodes, tris, holders = list(out.nodes), [], {}

    def edges(t):
        return [(min(a, b), max(a, b)) for a, b in zip(t, t[1:] + t[:1])]

    def add(t):
        for key in edges(t):
            holders.setdefault(key, []).append(len(tris))
        tris.append(t)

    def longest(t):
        def rank(key):
            d = nodes[key[0]] - nodes[key[1]]
            return float(d @ d), -key[0], -key[1]

        return max(edges(t), key=rank)

    def split(i, key, m):
        """Replace triangle i by its halves across the edge key, the one holding key[0] first."""
        t, tris[i] = tris[i], None
        for e in edges(t):
            holders[e].remove(i)
        k = next(k for k in range(3) if t[k] not in key)
        c, p, q = t[k:] + t[:k]
        halves = [(c, p, m), (c, m, q)]
        for half in halves if p < q else halves[::-1]:
            add(half)

    def refine(i, depth=0):
        if depth > 200:
            raise MeshError("bisection propagation did not terminate")
        if tris[i] is None:
            return
        key = longest(tris[i])
        for j in [j for j in holders[key] if j != i and longest(tris[j]) != key]:
            refine(j, depth + 1)
        # after propagation the (possibly new) neighbor across `key` shares it as
        # longest edge; split both sides across `key` at its midpoint
        nodes.append((nodes[key[0]] + nodes[key[1]]) / 2.0)
        split(i, key, len(nodes) - 1)
        for j in list(holders[key]):
            split(j, key, len(nodes) - 1)

    for t in out.triangles.tolist():
        add(tuple(t))
    for _ in range(100):
        live = [i for i, t in enumerate(tris) if t is not None]
        p = np.asarray(nodes)[[tris[i] for i in live]]
        pts = p.mean(axis=1)
        r = np.min(
            np.sqrt(((pts[:, None, :] - corners[None, :, :]) ** 2).sum(axis=2)),
            axis=1,
        )
        target = h_uniform * np.power(np.maximum(r / d0, 1e-300), 1.0 - grading)
        diameters = np.sqrt(np.sum((np.roll(p, -1, axis=1) - p) ** 2, axis=2)).max(axis=1)
        marked = diameters > target * (1.0 + 1e-12)
        if not marked.any():
            break
        for i in np.flatnonzero(marked):
            refine(live[i])
    return _build_mesh(np.asarray(nodes), [t for t in tris if t is not None])


@dataclass(frozen=True)
class QuadSplit:
    """Barycentric split of each triangle into 3 quadrilaterals.

    corners[t, i] holds the 4 corner points of the quad at local vertex i of
    triangle t, ordered to match the reference square corners
    (-1,-1) -> vertex, (1,-1) -> first CCW edge midpoint, (1,1) -> barycenter,
    (-1,1) -> second edge midpoint.
    """

    mesh: Mesh
    corners: np.ndarray  # (t, 3, 4, 2)

    def bilinear_coefficients(self):
        """Coefficients (a0, a1, a2, a3) with G(s,t) = a0 + a1 s + a2 t + a3 st."""
        p = self.corners
        a0 = (p[..., 0, :] + p[..., 1, :] + p[..., 2, :] + p[..., 3, :]) / 4.0
        a1 = (-p[..., 0, :] + p[..., 1, :] + p[..., 2, :] - p[..., 3, :]) / 4.0
        a2 = (-p[..., 0, :] - p[..., 1, :] + p[..., 2, :] + p[..., 3, :]) / 4.0
        a3 = (p[..., 0, :] - p[..., 1, :] + p[..., 2, :] - p[..., 3, :]) / 4.0
        return a0, a1, a2, a3

    def bilinear_map(self, quad: np.ndarray, s: np.ndarray, u: np.ndarray):
        """The reference map G(s, u) = a0 + a1 s + a2 u + a3 s u and its Jacobian.

        quad numbers the quads 3 t + i; quad, s and u broadcast together to a
        shape S. Returns G, the columns dG/ds and dG/du, each (2, S) with the
        x and y components first, and det DG (S). Every point is computed by
        the same expressions, so a point's image does not depend on the batch
        it is mapped in.
        """
        # quad padded to the rank of S, so the gathered coefficients are (2, ...) against S
        ndim = len(np.broadcast_shapes(np.shape(quad), np.shape(s), np.shape(u)))
        quad = np.reshape(quad, (1,) * (ndim - np.ndim(quad)) + np.shape(quad))
        a0, a1, a2, a3 = (a.reshape(-1, 2).T[:, quad] for a in self.bilinear_coefficients())
        g_s = a1 + a3 * u
        g_u = a2 + a3 * s
        det = g_s[0] * g_u[1] - g_u[0] * g_s[1]
        return a0 + a1 * s + a2 * u + a3 * s * u, g_s, g_u, det


def quad_split(mesh: Mesh) -> QuadSplit:
    """Split every triangle into 3 quads around its barycenter."""
    p = mesh.nodes[mesh.triangles]  # (t, 3, 2)
    bary = p.mean(axis=1)
    corners = np.empty((mesh.n_triangles, 3, 4, 2))
    for i in range(3):
        m_next = 0.5 * (p[:, i] + p[:, (i + 1) % 3])
        m_prev = 0.5 * (p[:, i] + p[:, (i + 2) % 3])
        corners[:, i] = np.stack([p[:, i], m_next, bary, m_prev], axis=1)
    return QuadSplit(mesh, corners)


def locate_points(mesh: Mesh, pts: np.ndarray, tol: float = 1e-12):
    """Assign each point to a containing triangle.

    Returns (tri_index, barycentric) arrays; index -1 for points outside.
    A point inside several triangles (within tol) takes the first in index
    order. The coordinates invert each triangle's _affine_maps by Cramer's
    rule, for blocks of points against all triangles at once, with at most
    _LOCATE_PAIRS point-triangle pairs per block.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    n = len(pts)
    tri_idx = -np.ones(n, dtype=np.int64)
    bary = np.zeros((n, 3))
    p, e1, e2, d = _affine_maps(mesh.nodes, mesh.triangles)
    v0 = p[:, 0]
    block = max(1, _LOCATE_PAIRS // max(1, mesh.n_triangles))
    for lo in range(0, n, block):
        qx = pts[lo : lo + block, 0:1] - v0[:, 0]  # (block, n_triangles)
        qy = pts[lo : lo + block, 1:2] - v0[:, 1]
        l1 = (qx * e2[:, 1] - qy * e2[:, 0]) / d
        l2 = (qy * e1[:, 0] - qx * e1[:, 1]) / d
        l0 = 1.0 - l1 - l2
        hit = (l0 >= -tol) & (l1 >= -tol) & (l2 >= -tol)
        rows = np.flatnonzero(hit.any(axis=1))
        t = hit[rows].argmax(axis=1)
        tri_idx[lo + rows] = t
        bary[lo + rows] = np.column_stack([l0[rows, t], l1[rows, t], l2[rows, t]])
    return tri_idx, bary


def validate_mesh(mesh: Mesh) -> None:
    """Check conformity invariants; raises MeshError on violation.

    Verifies unique node coordinates, positive triangle areas, consistent
    edge orientation (each interior edge traversed once per direction), and
    2*pi angle sums at interior nodes, which together rule out overlaps and
    hanging nodes.
    """
    rounded = np.round(mesh.nodes, _MERGE_DECIMALS)
    if len(np.unique(rounded, axis=0)) != mesh.n_nodes:
        raise MeshError("duplicate node coordinates")
    p, _, _, det = _affine_maps(mesh.nodes, mesh.triangles)
    if np.any(det <= 0):
        raise MeshError("non-positive triangle area")
    directed = mesh.triangles[:, _P2_EDGES].reshape(-1, 2)
    if len(np.unique(directed, axis=0)) < len(directed):
        raise MeshError("edge traversed twice in the same direction")
    edges, _, counts = _edge_table(mesh.triangles)
    boundary = np.unique(np.reshape(mesh.boundary_edges, (-1, 2)), axis=0)
    if not np.array_equal(boundary, np.unique(edges[counts == 1], axis=0)):
        raise MeshError("boundary edges out of date")
    # corner k of every triangle at once: u, v run to corners k + 1 and k + 2
    u, v = np.roll(p, -1, axis=1) - p, np.roll(p, -2, axis=1) - p
    cosang = np.sum(u * v, axis=2) / (np.linalg.norm(u, axis=2) * np.linalg.norm(v, axis=2))
    angles = np.arccos(np.clip(cosang, -1.0, 1.0))
    angle_sum = np.zeros(mesh.n_nodes)
    np.add.at(angle_sum, mesh.triangles.ravel(), angles.ravel())
    interior = np.setdiff1d(np.arange(mesh.n_nodes), mesh.boundary_nodes)
    if len(interior) and np.max(np.abs(angle_sum[interior] - 2 * np.pi)) > 1e-9:
        raise MeshError("interior angle sum differs from 2*pi (overlap or gap)")
