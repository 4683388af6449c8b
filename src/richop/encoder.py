"""Linear point-query encoders with reconstruction systems.

Two encoders are provided: nodal interpolation on a P1/P2 coefficient space,
and piecewise tensor Gauss-Legendre-Lobatto interpolation on the barycentric
quad split of a triangulation, with channels deduplicated across quad
interfaces so the reconstruction is globally continuous. The GLL nodes, the
bijectivity probe and the Newton inversion of the reconstruction all map
through the split's one bilinear map, QuadSplit.bilinear_map.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .coeff import (CoefficientField, _bernstein_range, _per_points, _shape_values, domain_grid,
                    from_callable)
from .fem import FemSpace
from .mesh import QuadSplit, _first_appearance, locate_points

__all__ = [
    "Encoder",
    "GllGrid",
    "gll_nodes",
    "build_nodal_encoder",
    "build_gll_encoder",
    "encoder_error",
    "reconstruction_envelope",
    "encoder_to_json",
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


@dataclass(frozen=True)
class GllGrid:
    """Mapped tensor GLL nodes per quad with interface channels identified."""

    split: QuadSplit
    order: int
    nodes_1d: np.ndarray
    points: np.ndarray  # (M, 2) deduplicated global query points
    quad_channels: np.ndarray  # (t, 3, (p+1)^2) global channel ids


class Encoder:
    """Linear encoder a -> R^M given by point queries, with reconstruction basis.

    ``query_points`` is a read-only copy, so family members encode from their family's table.
    """

    def __init__(self, kind: str, query_points: np.ndarray, payload):
        self.kind = kind
        self.query_points = np.array(query_points, dtype=float)
        self.query_points.flags.writeable = False
        self.m = len(self.query_points)
        self._payload = payload
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
        build = _nodal_channel_matrix if self.kind == "nodal" else _gll_channel_matrix
        matrix = build(self._payload, pts)
        for array in (matrix.data, matrix.indices, matrix.indptr):
            array.flags.writeable = False
        return matrix

    def reconstruct(self, values: np.ndarray) -> CoefficientField:
        values = np.asarray(values, dtype=float)
        if len(values) != self.m:
            raise ValueError("channel count mismatch")
        return from_callable(
            lambda pts: self.channel_matrix(pts) @ values,
            meta={"encoder": self, "values": values},
        )


def build_nodal_encoder(space: FemSpace) -> Encoder:
    """Lagrange interpolation encoder; queries at the dof coordinates."""
    if space.degree not in (1, 2):
        raise ValueError("nodal encoder needs degree 1 or 2")
    return Encoder("nodal", space.dof_coords, space)


def _rows_of(values: np.ndarray, cols: np.ndarray, m: int) -> sp.csr_matrix:
    """CSR (n, m) whose row i holds values[i] in columns cols[i]."""
    n, k = values.shape
    return sp.csr_matrix((values.ravel(), cols.ravel(), np.arange(0, n * k + 1, k)), shape=(n, m))


def _nodal_channel_matrix(space: FemSpace, pts: np.ndarray) -> sp.csr_matrix:
    tri_idx, bary = locate_points(space.mesh, pts, tol=1e-9)
    if np.any(tri_idx < 0):
        raise ValueError("point outside mesh in encoder reconstruction")
    return _rows_of(_shape_values(bary, space.degree), space.cell_dofs[tri_idx], space.n_dofs)


def build_gll_encoder(split: QuadSplit, p: int) -> Encoder:
    """Piecewise tensor GLL encoder on the barycentric quad split."""
    if p < 1:
        raise ValueError("order p must be at least 1")
    nodes = gll_nodes(p)
    ss, uu = np.meshgrid(nodes, nodes, indexing="ij")  # local index a*(p+1)+b
    quads = np.arange(3 * split.mesh.n_triangles)[:, None]
    # detect non-bijective maps on an 11 x 11 probe grid
    probe = np.linspace(-1.0, 1.0, 11)
    ps, pu = np.meshgrid(probe, probe, indexing="ij")
    if np.any(split.bilinear_map(quads, ps.ravel()[None], pu.ravel()[None])[3] <= 0):
        raise ValueError("non-bijective bilinear map detected in quad split")
    mapped = split.bilinear_map(quads, ss.ravel()[None], uu.ravel()[None])[0].reshape(2, -1).T.copy()
    # nodes on quad interfaces coincide to rounding; each is one channel
    first, channels = _first_appearance(np.round(mapped, 12))
    grid = GllGrid(split, p, nodes, mapped[first], channels.reshape(split.mesh.n_triangles, 3, -1))
    return Encoder("gll", grid.points, grid)


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


def _gll_channel_matrix(grid: GllGrid, pts: np.ndarray) -> sp.csr_matrix:
    split, p = grid.split, grid.order
    tri_idx, bary = locate_points(split.mesh, pts, tol=1e-9)
    if np.any(tri_idx < 0):
        raise ValueError("point outside mesh in encoder reconstruction")
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    quad = 3 * tri_idx + np.argmax(bary, axis=1)  # flat quad at the dominant vertex
    st = _invert_bilinear(split, quad, pts)
    ls = _lagrange_1d(grid.nodes_1d, st[:, 0])
    lu = _lagrange_1d(grid.nodes_1d, st[:, 1])
    tensor = (ls[:, :, None] * lu[:, None, :]).reshape(len(pts), -1)
    # each point takes the values of exactly one quad
    return _rows_of(tensor, grid.quad_channels.reshape(-1, (p + 1) ** 2)[quad], len(grid.points))


def encoder_error(encoder: Encoder, a: CoefficientField, grid_n: int = 400) -> float:
    """Sampled sup-norm of a - reconstruction(encode(a)) on the mesh domain.

    A lower bound of the true L-inf error; dense enough grids make it sharp.
    """
    pts = domain_grid(_encoder_mesh(encoder), grid_n)
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
    nodal = np.atleast_2d(np.asarray(values, dtype=float))  # (n, M)
    payload = encoder._payload
    if encoder.kind == "gll":
        p, k = payload.order, np.arange(payload.order + 1)
        t = (payload.nodes_1d[:, None] + 1.0) / 2.0
        binom = np.array([math.comb(p, i) for i in k], dtype=float)
        inv = np.linalg.inv(binom * t**k * (1.0 - t) ** (p - k))
        coeffs = inv @ nodal[:, payload.quad_channels].reshape(len(nodal), -1, p + 1, p + 1) @ inv.T
        lo, hi = coeffs.min(), coeffs.max()
    else:
        lo, hi = _bernstein_range(nodal, payload.cell_dofs, payload.degree)
    return float(max(alpha - lo, hi - alpha))


def _encoder_mesh(encoder: Encoder):
    if encoder.kind == "nodal":
        return encoder._payload.mesh
    return encoder._payload.split.mesh


def encoder_to_json(encoder: Encoder) -> str:
    doc = {
        "kind": encoder.kind,
        "m": encoder.m,
        "query_points": [[x, y] for x, y in encoder.query_points],
    }
    if encoder.kind == "nodal":
        doc["degree"] = encoder._payload.degree
    else:
        doc["p"] = encoder._payload.order
    return json.dumps(doc)
