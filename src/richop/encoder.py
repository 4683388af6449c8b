"""Linear point-query encoders with reconstruction systems.

Two encoders are provided: nodal interpolation on a P1/P2 coefficient space,
and piecewise tensor Gauss-Legendre-Lobatto interpolation on the barycentric
quad split of a triangulation, with channels deduplicated across quad
interfaces so the reconstruction is globally continuous.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .coeff import CoefficientField, domain_grid, from_callable
from .fem import FemSpace
from .mesh import QuadSplit, locate_points

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


def gll_nodes(p: int, tol: float = 1e-14) -> np.ndarray:
    """Gauss-Legendre-Lobatto nodes of order p on [-1, 1].

    The p+1 nodes are the roots of (1 - x^2) P'_p(x), found by Newton
    iteration from the Chebyshev-Lobatto guess using the Legendre
    three-term recurrence.
    """
    if p < 1:
        raise ValueError("order p must be at least 1")
    n = p + 1
    x = np.cos(np.pi * np.arange(n) / p)
    vand = np.zeros((n, n))
    x_old = 2.0 * np.ones(n)
    for _ in range(200):
        if np.max(np.abs(x - x_old)) <= tol:
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
    """Linear encoder a -> R^M given by point queries, with reconstruction basis."""

    def __init__(self, kind: str, query_points: np.ndarray, payload):
        self.kind = kind
        self.query_points = np.asarray(query_points, dtype=float)
        self.m = len(self.query_points)
        self._payload = payload

    def encode(self, a: CoefficientField) -> np.ndarray:
        """Point queries a(x_1..x_M) in canonical channel order."""
        return np.asarray(a(self.query_points), dtype=float)

    def channel_matrix(self, pts: np.ndarray) -> np.ndarray:
        """Values of all reconstruction basis fields at the points, (n, M)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.kind == "nodal":
            return _nodal_channel_matrix(self._payload, pts)
        return _gll_channel_matrix(self._payload, pts)

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


def _nodal_channel_matrix(space: FemSpace, pts: np.ndarray) -> np.ndarray:
    from .coeff import _shape_values  # same local ordering as the mesh fields

    tri_idx, bary = locate_points(space.mesh, pts, tol=1e-9)
    if np.any(tri_idx < 0):
        raise ValueError("point outside mesh in encoder reconstruction")
    shapes = _shape_values(bary, space.degree)
    out = np.zeros((len(pts), space.n_dofs))
    rows = np.repeat(np.arange(len(pts)), space.cell_dofs.shape[1])
    cols = space.cell_dofs[tri_idx].ravel()
    np.add.at(out, (rows, cols), shapes.ravel())
    return out


def build_gll_encoder(split: QuadSplit, p: int) -> Encoder:
    """Piecewise tensor GLL encoder on the barycentric quad split."""
    if p < 1:
        raise ValueError("order p must be at least 1")
    nodes = gll_nodes(p)
    ss, uu = np.meshgrid(nodes, nodes, indexing="ij")
    st = np.column_stack([ss.ravel(), uu.ravel()])  # local index a*(p+1)+b
    a0, a1, a2, a3 = split.bilinear_coefficients()
    # detect non-bijective maps on an 11 x 11 probe grid
    probe = np.linspace(-1.0, 1.0, 11)
    ps, pu = np.meshgrid(probe, probe, indexing="ij")
    gs = a1[..., None, 0] + a3[..., None, 0] * pu.ravel()
    gy = a1[..., None, 1] + a3[..., None, 1] * pu.ravel()
    hs = a2[..., None, 0] + a3[..., None, 0] * ps.ravel()
    hy = a2[..., None, 1] + a3[..., None, 1] * ps.ravel()
    det = gs * hy - hs * gy
    if np.any(det <= 0):
        raise ValueError("non-bijective bilinear map detected in quad split")

    n_tri = split.mesh.n_triangles
    mapped = (
        a0[:, :, None, :]
        + a1[:, :, None, :] * st[None, None, :, 0:1]
        + a2[:, :, None, :] * st[None, None, :, 1:2]
        + a3[:, :, None, :] * st[None, None, :, 0:1] * st[None, None, :, 1:2]
    )  # (t, 3, (p+1)^2, 2)
    channel_of: dict = {}
    points = []
    quad_channels = np.empty((n_tri, 3, (p + 1) ** 2), dtype=np.int64)
    for t in range(n_tri):
        for i in range(3):
            for loc in range((p + 1) ** 2):
                key = tuple(np.round(mapped[t, i, loc], 12))
                if key not in channel_of:
                    channel_of[key] = len(points)
                    points.append(mapped[t, i, loc])
                quad_channels[t, i, loc] = channel_of[key]
    grid = GllGrid(split, p, nodes, np.asarray(points), quad_channels)
    return Encoder("gll", grid.points, grid)


def _invert_bilinear(coefs, pts: np.ndarray) -> np.ndarray:
    """Newton inversion of G(s, u) = x for one quad, vectorized over points."""
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


def _gll_channel_matrix(grid: GllGrid, pts: np.ndarray) -> np.ndarray:
    split, p = grid.split, grid.order
    tri_idx, bary = locate_points(split.mesh, pts, tol=1e-9)
    if np.any(tri_idx < 0):
        raise ValueError("point outside mesh in encoder reconstruction")
    quad_idx = np.argmax(bary, axis=1)  # quad at the dominant vertex
    a0, a1, a2, a3 = split.bilinear_coefficients()
    out = np.zeros((len(pts), len(grid.points)))
    for t, i in {(int(t), int(i)) for t, i in zip(tri_idx, quad_idx)}:
        sel = np.flatnonzero((tri_idx == t) & (quad_idx == i))
        st = _invert_bilinear(
            (a0[t, i], a1[t, i], a2[t, i], a3[t, i]), pts[sel]
        )
        ls = _lagrange_1d(grid.nodes_1d, st[:, 0])
        lu = _lagrange_1d(grid.nodes_1d, st[:, 1])
        tensor = ls[:, :, None] * lu[:, None, :]  # (n_sel, p+1, p+1)
        cols = grid.quad_channels[t, i]
        for row, vals in zip(sel, tensor.reshape(len(sel), -1)):
            out[row, cols] += vals
    return out


def encoder_error(encoder: Encoder, a: CoefficientField, grid_n: int = 400) -> float:
    """Sampled sup-norm of a - reconstruction(encode(a)) on the mesh domain.

    A lower bound of the true L-inf error; dense enough grids make it sharp.
    """
    mesh = _encoder_mesh(encoder)
    pts = domain_grid(mesh, grid_n)
    recon = encoder.channel_matrix(pts) @ encoder.encode(a)
    return float(np.max(np.abs(a(pts) - recon)))


def reconstruction_envelope(
    encoder: Encoder, values: np.ndarray, alpha: float, grid_n: int = 200
) -> float:
    """Smallest beta_tilde with the reconstruction inside [alpha -/+ beta_tilde]."""
    mesh = _encoder_mesh(encoder)
    pts = domain_grid(mesh, grid_n)
    recon = encoder.channel_matrix(pts) @ np.asarray(values, dtype=float)
    return float(max(alpha - recon.min(), recon.max() - alpha))


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
