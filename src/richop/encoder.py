"""Linear point-query encoders with reconstruction systems.

Two encoders are provided: nodal interpolation on a P1/P2 coefficient space,
and piecewise tensor Gauss-Legendre-Lobatto interpolation on the barycentric
quad split of a triangulation, with channels keyed by the mesh entity each
node lies on, so copies of a node on quad interfaces are one channel and the
reconstruction is globally continuous. The GLL nodes, the
bijectivity probe and the Newton inversion of the reconstruction all map
through the split's one bilinear map, QuadSplit.bilinear_map.
"""

from __future__ import annotations

import json
import math

import numpy as np
import scipy.sparse as sp

from .coeff import CoefficientField, _bernstein_range, _per_points, _shape_values, domain_grid
from .fem import FemSpace, build_space
from .mesh import Mesh, QuadSplit, _first_appearance, _lagrange_dofs, locate_points, quad_split

__all__ = [
    "Encoder",
    "NodalEncoder",
    "GllEncoder",
    "gll_nodes",
    "build_nodal_encoder",
    "build_gll_encoder",
    "encoder_error",
    "reconstruction_envelope",
    "encoder_to_json",
    "encoder_from_json",
]


def gll_nodes(p: int) -> np.ndarray:
    """Gauss-Legendre-Lobatto nodes of order p on [-1, 1].

    The p+1 nodes are the roots of (1 - x^2) P'_p(x), found by Newton
    iteration from the Chebyshev-Lobatto guess using the Legendre
    three-term recurrence, until no node moves by more than 1e-14.
    """
    if p < 1:
        raise ValueError("order p must be at least 1")
    n = p + 1
    x = np.cos(np.pi * np.arange(n) / p)
    vand = np.zeros((n, n))
    x_old = 2.0 * np.ones(n)
    for _ in range(200):
        if np.max(np.abs(x - x_old)) <= 1e-14:
            break
        x_old = x.copy()
        vand[:, 0] = 1.0
        vand[:, 1] = x
        for k in range(2, n):
            vand[:, k] = ((2 * k - 1) * x * vand[:, k - 1] - (k - 1) * vand[:, k - 2]) / k
        x = x_old - (x * vand[:, n - 1] - vand[:, n - 2]) / (n * vand[:, n - 1])
    return np.sort(x)


def _lagrange_1d(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Values of the 1D Lagrange basis over `nodes` at points x, (len(x), len(nodes))."""
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    bary_w = 1.0 / np.prod(diff, axis=1)
    d = x[:, None] - nodes[None, :]
    exact = np.isclose(d, 0.0, atol=1e-14)
    d_safe = np.where(exact, 1.0, d)
    terms = bary_w[None, :] / d_safe
    out = terms / terms.sum(axis=1, keepdims=True)
    hit = exact.any(axis=1)
    out[hit] = exact[hit].astype(float)
    return out


class Encoder:
    """Linear encoder a -> R^M given by point queries on a coarse `mesh`, with reconstruction basis.

    A kind gives `cell_channels` (row c: the channels of cell c), the `doc` encoder_from_json
    rebuilds it from, and the hooks _cell_values (each point's cell and its basis values
    there) and _range (the Bernstein range of channel vectors). ``query_points`` is a
    read-only copy, so family members encode from their family's table.
    """

    def __init__(self, mesh: Mesh, query_points: np.ndarray, cell_channels: np.ndarray, doc: dict):
        self.mesh = mesh
        self.query_points = np.array(query_points, dtype=float)
        self.query_points.flags.writeable = False
        self.m = len(self.query_points)
        self.cell_channels = cell_channels
        self.doc = doc
        self._channels = {}  # id(points) -> (weakref to the points, channel matrix)

    def encode(self, a: CoefficientField) -> np.ndarray:
        """Point queries a(x_1..x_M) in canonical channel order."""
        return np.asarray(a(self.query_points), dtype=float)

    def channel_matrix(self, pts: np.ndarray) -> sp.csr_matrix:
        """Values of all reconstruction basis fields at the points, CSR (n, M).

        Row i stores the fields of the one cell holding point i: its nloc
        local dofs for a nodal encoder, its quad's (p+1)^2 channels for GLL.
        Cached per read-only point array (coeff._per_points); a writable array
        is rebuilt on every call. The CSR arrays are read-only.
        """
        return _per_points(self._channels, np.asarray(pts, dtype=float), self._build_channel_matrix)

    def _build_channel_matrix(self, pts: np.ndarray) -> sp.csr_matrix:
        tri_idx, bary = locate_points(self.mesh, pts, tol=1e-9)
        if np.any(tri_idx < 0):
            raise ValueError("point outside mesh in encoder reconstruction")
        cells, values = self._cell_values(np.atleast_2d(pts), tri_idx, bary)
        n, k = values.shape
        matrix = sp.csr_matrix((values.ravel(), self.cell_channels[cells].ravel(),
                                np.arange(0, n * k + 1, k)), shape=(n, self.m))
        for array in (matrix.data, matrix.indices, matrix.indptr):
            array.flags.writeable = False
        return matrix


class NodalEncoder(Encoder):
    """Lagrange interpolation on a P1/P2 space: its dofs are the channels."""

    def __init__(self, space: FemSpace):
        doc = {"kind": "nodal", "degree": space.degree}
        super().__init__(space.mesh, space.dof_coords, space.cell_dofs, doc)
        self.degree = space.degree

    def _cell_values(self, pts, tri_idx, bary):
        return tri_idx, _shape_values(bary, self.degree)

    def _range(self, nodal):
        return _bernstein_range(nodal, self.cell_channels, self.degree)


def build_nodal_encoder(space: FemSpace) -> NodalEncoder:
    """Lagrange interpolation encoder; queries at the dof coordinates."""
    return NodalEncoder(space)


class GllEncoder(Encoder):
    """Tensor GLL interpolation of order p on the flat quads 3 t + i of the split: row q
    of cell_channels holds quad q's node a (p+1) + b, mapped from (nodes_1d[a], nodes_1d[b])."""

    def __init__(self, split: QuadSplit, p: int):
        nodes = gll_nodes(p)  # refuses p < 1
        ss, uu = np.meshgrid(nodes, nodes, indexing="ij")  # local index a*(p+1)+b
        quads = np.arange(3 * split.mesh.n_triangles)[:, None]
        # detect non-bijective maps on an 11 x 11 probe grid
        probe = np.linspace(-1.0, 1.0, 11)
        ps, pu = np.meshgrid(probe, probe, indexing="ij")
        if np.any(split.bilinear_map(quads, ps.ravel()[None], pu.ravel()[None])[3] <= 0):
            raise ValueError("non-bijective bilinear map detected in quad split")
        mapped = split.bilinear_map(quads, ss.ravel()[None], uu.ravel()[None])[0].reshape(2, -1).T.copy()
        # copies of one node on quad interfaces share a mesh-entity key; each key is one channel
        first, channels = _first_appearance(_gll_keys(split.mesh, p).ravel())
        super().__init__(split.mesh, mapped[first], channels.reshape(len(quads), -1),
                         {"kind": "gll", "p": p})
        self.split, self.order, self.nodes_1d = split, p, nodes

    def _cell_values(self, pts, tri_idx, bary):
        quad = 3 * tri_idx + np.argmax(bary, axis=1)  # flat quad at the dominant vertex
        st = _invert_bilinear(self.split, quad, pts)
        ls = _lagrange_1d(self.nodes_1d, st[:, 0])
        lu = _lagrange_1d(self.nodes_1d, st[:, 1])
        # each point takes the values of exactly one quad
        return quad, (ls[:, :, None] * lu[:, None, :]).reshape(len(pts), -1)

    def _range(self, nodal):
        p, k = self.order, np.arange(self.order + 1)
        t = (self.nodes_1d[:, None] + 1.0) / 2.0
        binom = np.array([math.comb(p, i) for i in k], dtype=float)
        inv = np.linalg.inv(binom * t**k * (1.0 - t) ** (p - k))
        coeffs = inv @ nodal[:, self.cell_channels].reshape(len(nodal), -1, p + 1, p + 1) @ inv.T
        return coeffs.min(), coeffs.max()


def _gll_keys(mesh: Mesh, p: int) -> np.ndarray:
    """Integer key of each GLL node (quad 3 t + i, local node a (p+1) + b), from mesh topology.

    The quad's corners in reference order are vertex i, the P2 midpoint in column 3 + i,
    the barycentre (id n_p2 + t) and the midpoint in column [5, 3, 4][i]. A corner node's
    key is (c, c, 0); a node k steps inside the edge from corner c to corner d has
    (min, max, k counted from min); an interior node has (-1 - quad, a, b). Each triple
    is packed into one integer, so copies of a node share one key and no others do.
    """
    coords, dofs, _ = _lagrange_dofs(mesh, 2)
    centre = np.repeat(len(coords) + np.arange(len(dofs))[:, None], 3, axis=1)
    corner = np.stack([dofs[:, :3], dofs[:, 3:], centre, dofs[:, [5, 3, 4]]], axis=2).reshape(-1, 4)
    a, b = np.divmod(np.arange((p + 1) ** 2), p + 1)
    # a boundary node lies `step` nodes along its quad edge b = 0, a = 0, b = p or a = p,
    # from the edge's start corner to its end corner; a corner node starts and ends at itself
    sides = [b == 0, a == 0, b == p, a == p]
    step = np.select(sides, [a, b, a, b])
    start = np.select(sides, [0, 0, 3, 1])
    end = np.where(step == 0, start, np.select(sides, [1, 3, 2, 2]))
    start = np.where(step == p, end, start)
    step = step % p
    c, d = corner[:, start], corner[:, end]
    inner, quad = ~np.any(sides, axis=0), np.arange(len(corner))[:, None]
    first = np.where(inner, -1 - quad, np.minimum(c, d)) + len(corner)  # made non-negative
    second = np.where(inner, a, np.maximum(c, d))  # below len(coords) + len(dofs) + p
    third = np.where(inner, b, np.where(c <= d, step, p - step))
    return (first * (len(coords) + len(dofs) + p) + second) * (p + 1) + third


def build_gll_encoder(split: QuadSplit, p: int) -> GllEncoder:
    """Piecewise tensor GLL encoder on the barycentric quad split."""
    return GllEncoder(split, p)


def _invert_bilinear(split: QuadSplit, quad: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Newton inversion of G(s, u) = x, each point in the map of its flat quad.

    The points of a quad stop together, after the first step whose largest
    |ds|, |du| over them is below 1e-14; at most 60 steps.
    """
    st = np.zeros_like(pts)
    live = np.arange(len(pts))  # points whose quad still iterates
    for _ in range(60):
        if not len(live):
            break
        g, g_s, g_u, det = split.bilinear_map(quad[live], st[live, 0], st[live, 1])
        rx, ry = g[0] - pts[live, 0], g[1] - pts[live, 1]
        ds = (rx * g_u[1] - ry * g_u[0]) / det
        du = (ry * g_s[0] - rx * g_s[1]) / det
        st[live, 0] -= ds
        st[live, 1] -= du
        step = np.zeros(3 * split.mesh.n_triangles)
        np.maximum.at(step, quad[live], np.maximum(np.abs(ds), np.abs(du)))
        live = live[~(step[quad[live]] < 1e-14)]
    return st


def encoder_error(encoder: Encoder, a: CoefficientField, grid_n: int = 400) -> float:
    """Sampled sup-norm of a - reconstruction(encode(a)) on the mesh domain.

    A lower bound of the true L-inf error; dense enough grids make it sharp.
    """
    pts = domain_grid(encoder.mesh, grid_n)
    recon = encoder.channel_matrix(pts) @ encoder.encode(a)
    return float(np.max(np.abs(a(pts) - recon)))


def reconstruction_envelope(encoder: Encoder, values: np.ndarray, alpha: float) -> float:
    """Upper bound of the deviation from alpha of the reconstructions.

    `values` is one channel vector (M,) or a stack of them (n, M). The
    channels are the reconstructions' values at the query points (the
    channel matrix there is the identity), so the rows are gathered per
    element into Bernstein-Bezier coefficients, whose convex hull holds the
    element's range: coeff._bernstein_range for P1/P2 (the hull that also
    scales Sobolev-ball members), and T V T^T per quad for GLL, with
    V the quad's nodal block and T the inverse of the Bernstein Vandermonde
    at the GLL nodes mapped to [0, 1]. Returns max(alpha - min, max - alpha)
    over all coefficients, a bound on the whole domain; for P1 it is exact.
    """
    lo, hi = encoder._range(np.atleast_2d(np.asarray(values, dtype=float)))
    return float(max(alpha - lo, hi - alpha))


def encoder_to_json(encoder: Encoder) -> str:
    """encoder.json: the kind, m, the query points, then the kind's order."""
    head = {"kind": encoder.doc["kind"], "m": encoder.m,
            "query_points": encoder.query_points.tolist()}
    return json.dumps({**head, **encoder.doc})


def encoder_from_json(text: str, mesh: Mesh) -> Encoder:
    """The encoder that encoder_to_json wrote, rebuilt on its coarse mesh.

    Raises ValueError for a document that is not an object, a kind other than
    nodal or gll, a degree or p that is not an integer, an m other than the
    rebuilt encoder's, and query points that differ from the rebuilt ones by
    more than 1e-12 in any coordinate.
    """
    doc = json.loads(text)
    kind = doc.get("kind") if isinstance(doc, dict) else None
    key = {"nodal": "degree", "gll": "p"}.get(kind)
    if key is None:
        raise ValueError(f"encoder.json has kind {kind!r}, not 'nodal' or 'gll'")
    if type(doc.get(key)) is not int:
        raise ValueError(f"encoder.json has {key} {doc.get(key)!r}, not an integer")
    if kind == "nodal":
        enc = build_nodal_encoder(build_space(mesh, doc[key]))
    else:
        enc = build_gll_encoder(quad_split(mesh), doc[key])
    if type(doc.get("m")) is not int or doc["m"] != enc.m:
        raise ValueError(f"encoder.json has m {doc.get('m')!r}, not the rebuilt encoder's {enc.m}")
    points = np.asarray(doc.get("query_points", []), dtype=float)
    if enc.m != len(points) or not np.allclose(enc.query_points, points, rtol=0.0, atol=1e-12):
        raise ValueError("rebuilt encoder does not match the stored query points")
    return enc
