"""Coefficient fields and data families for the diffusion problem.

Fields are pointwise evaluators a(x) on the domain, vectorized over point
arrays. A family kind is a DataFamily subclass that owns its parameter
count, point table and member: affine combinations of stored modes
(AffineFamily, also the analytic trigonometric sums), their shifted absolute
values (AbsShiftFamily), and random piecewise-polynomial fields on a coarse
mesh (SobolevBall).

Every member lies in the band by construction, with no grid sample: an
affine family computes its normalizer sum_k |c_k| sup|xi_k| in closed form
per mode kind, and a Sobolev-ball member is scaled from the Bernstein hull
of its nodal values (_bernstein_range, which also bounds the encoder's
reconstructions).

A family computes the parameter-free part of its members once per read-only
point array and keeps it, read-only, while the array lives (_point_table):
the mode table of an affine family, or the cell dofs and shape values on a
Sobolev ball's mesh. Members evaluate from it bit-identically to
affine_combination and mesh_field. An affine member evaluates as exactly
table(pts) @ weights and exposes both in its meta, so a consumer linear in
the field can work on the table's columns. The cache (_per_points, weakly
keyed by the array) also holds the encoder's channel matrices and each
basis's reduced stiffness stacks.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .mesh import _P2_EDGES, Mesh, Polygon, _lagrange_dofs, locate_points

__all__ = [
    "CoefficientField",
    "DataFamily",
    "AffineFamily",
    "AbsShiftFamily",
    "SobolevBall",
    "constant",
    "affine_combination",
    "mesh_field",
    "abs_shift",
    "domain_grid",
    "sample_family",
    "analytic_family",
    "trig_mode",
]


class CoefficientField:
    """Bounded scalar field on the domain, evaluated pointwise.

    Instances are immutable; ``field(pts)`` accepts a single point (2,) or an
    array (n, 2) and returns a scalar or (n,) array.
    """

    def __init__(self, fn, kind: str = "callable", meta: dict | None = None):
        self._fn = fn
        self.kind = kind
        self.meta = dict(meta or {})

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        vals = self._fn(np.atleast_2d(pts))
        vals = np.asarray(vals, dtype=float)
        return float(vals[0]) if single else vals


def constant(value: float) -> CoefficientField:
    value = float(value)
    return CoefficientField(
        lambda pts: np.full(len(pts), value), kind="constant", meta={"value": value}
    )


def affine_combination(fields, weights) -> CoefficientField:
    """Field sum_k w_k xi_k(x); evaluation is exactly linear in the weights."""
    fields = list(fields)
    weights = np.asarray(weights, dtype=float)
    if len(fields) != len(weights):
        raise ValueError("one weight per field required")

    def fn(pts):
        stacked = np.stack([f(pts) for f in fields], axis=1)
        return stacked @ weights

    return CoefficientField(
        fn, kind="affine", meta={"weights": weights, "fields": fields}
    )


def _shape_values(bary: np.ndarray, degree: int) -> np.ndarray:
    """Shape values (n, nloc) at barycentric coordinates; _lagrange_dofs checked the degree."""
    l0, l1, l2 = bary[:, 0], bary[:, 1], bary[:, 2]
    if degree == 1:
        return np.stack([l0, l1, l2], axis=1)
    lam = (l0, l1, l2)
    vert = [l * (2 * l - 1) for l in lam]
    edge = [4 * lam[a] * lam[b] for a, b in _P2_EDGES]
    return np.stack(vert + edge, axis=1)


def mesh_field(mesh: Mesh, values: np.ndarray, degree: int = 1) -> CoefficientField:
    """Continuous piecewise-polynomial field from nodal values.

    For degree 2 the value array is ordered vertices first, then edge
    midpoints numbered by first appearance, as in the P2 FEM spaces.
    """
    values = np.asarray(values, dtype=float)
    cell_dofs = _lagrange_dofs(mesh, degree)[1]

    def fn(pts):
        dofs, shapes = _locate(mesh, cell_dofs, degree, pts)
        return np.sum(values[dofs] * shapes, axis=1)

    return CoefficientField(
        fn,
        kind="mesh_field",
        meta={"mesh": mesh, "degree": degree, "values": values, "cell_dofs": cell_dofs},
    )


def _locate(mesh: Mesh, cell_dofs: np.ndarray, degree: int, pts: np.ndarray) -> tuple:
    """Dofs (n, nloc) and shape values (n, nloc) of the cell holding each point."""
    tri_idx, bary = locate_points(mesh, pts)
    if np.any(tri_idx < 0):
        raise ValueError("point outside mesh in mesh_field evaluation")
    return cell_dofs[tri_idx], _shape_values(bary, degree)


def _bernstein_range(values: np.ndarray, cell_dofs: np.ndarray, degree: int) -> tuple:
    """Bounds (lo, hi) of continuous P1/P2 fields on the whole mesh.

    `values` is one nodal vector or a stack (n, n_dofs), numbered as
    cell_dofs (t, nloc). Per element, the Bernstein-Bezier coefficients are
    the nodal values for P1, and the vertex values and 2 mid - (va + vb) / 2
    per edge for P2; their convex hull holds the element's range, so
    [lo, hi] encloses every field, exactly for P1.
    """
    coeffs = np.asarray(values, dtype=float)[..., cell_dofs]
    if degree == 2:
        a, b = np.array(_P2_EDGES).T
        edges = 2.0 * coeffs[..., 3:] - 0.5 * (coeffs[..., a] + coeffs[..., b])
        coeffs = np.concatenate([coeffs[..., :3], edges], axis=-1)
    return float(coeffs.min()), float(coeffs.max())


def abs_shift(a: CoefficientField, a_min: float) -> CoefficientField:
    """Pointwise field x -> a_min + |a(x)|; always has essinf >= a_min."""
    if a_min <= 0:
        raise ValueError("a_min must be positive")

    def fn(pts):
        return a_min + np.abs(a(pts))

    return CoefficientField(fn, kind="abs_shift", meta={"base": a, "a_min": a_min})


def domain_grid(domain, grid_n: int) -> np.ndarray:
    """grid_n x grid_n bounding-box lattice restricted to the domain."""
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    if isinstance(domain, Polygon):
        lo = domain.vertices.min(axis=0)
        hi = domain.vertices.max(axis=0)
    elif isinstance(domain, Mesh):
        lo = domain.nodes.min(axis=0)
        hi = domain.nodes.max(axis=0)
    else:
        raise TypeError("domain must be a Polygon or Mesh")
    xs = np.linspace(lo[0], hi[0], grid_n)
    ys = np.linspace(lo[1], hi[1], grid_n)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    if isinstance(domain, Polygon):
        # nudge boundary-line samples inward so inclusion is unambiguous
        center = domain.vertices.mean(axis=0)
        probe = pts + 1e-12 * (center - pts)
        keep = domain.contains(probe)
    else:
        keep = locate_points(domain, pts, tol=1e-9)[0] >= 0
    return pts[keep]


def trig_mode(kx: int, ky: int) -> CoefficientField:
    """Product mode cos(kx*pi*x) * cos(ky*pi*y)."""

    def fn(pts):
        return np.cos(kx * np.pi * pts[:, 0]) * np.cos(ky * np.pi * pts[:, 1])

    return CoefficientField(fn, kind="trig", meta={"kx": kx, "ky": ky})


@dataclass(frozen=True, kw_only=True)
class DataFamily:
    """Generator of coefficients admissible for the band alpha +- beta.

    A kind gives ``n_params``, ``member(params)`` for params in [-1, 1]^n_params,
    and ``_build_table(pts)``, its members' parameter-free part at pts.
    """

    alpha: float
    beta: float
    domain: object
    # id(points) -> (weakref to the points, parameter-free part), see _point_table
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0 < self.beta < self.alpha):
            raise ValueError("family requires 0 < beta < alpha")

    def _point_table(self, pts: np.ndarray) -> tuple:
        """_build_table(pts), read-only, kept per read-only array (_per_points)."""
        return _per_points(self._tables, pts, lambda pts: _frozen(self._build_table(pts)))


def _check_fill(fill: float) -> None:
    """fill, the share of the beta band a family's members may use, must lie in (0, 1]."""
    if not (0 < fill <= 1):
        raise ValueError("fill must lie in (0, 1]")


def _mode_sup(mode: CoefficientField) -> float:
    """sup|xi| of a family mode in closed form, on any domain."""
    if mode.kind == "constant":
        return abs(mode.meta["value"])
    if mode.kind == "trig":
        return 1.0
    if mode.kind == "mesh_field":
        lo, hi = _bernstein_range(mode.meta["values"], mode.meta["cell_dofs"], mode.meta["degree"])
        return max(-lo, hi)
    raise ValueError(f"no closed-form bound for a {mode.kind!r} mode")


@dataclass(frozen=True, kw_only=True)
class _ModeSum(DataFamily):
    """Members table(pts) @ weights over stored modes xi_k with amplitudes c_k.

    c_k is 1 unless given; s = sum_k |c_k| sup|xi_k|, in closed form per mode
    kind, bounds sum_k |c_k xi_k|. A kind gives the table's columns and the
    weights of a parameter vector.
    """

    modes: tuple
    amplitudes: tuple | None = None
    normalizer: float = field(init=False)

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "modes", tuple(self.modes))
        if not self.modes:
            raise ValueError("an affine family needs at least one mode")
        amplitudes = [1.0] * len(self.modes) if self.amplitudes is None else self.amplitudes
        object.__setattr__(self, "amplitudes", tuple(float(c) for c in amplitudes))
        normalizer = 0.0  # in mode order, a bound of sum_k |c_k xi_k(x)|
        for amp, mode in zip(self.amplitudes, self.modes):
            normalizer += abs(amp) * _mode_sup(mode)
        object.__setattr__(self, "normalizer", normalizer)

    @property
    def n_params(self) -> int:
        return len(self.modes)

    def _build_table(self, pts: np.ndarray) -> tuple:
        return (np.stack([f(pts) for f in self._columns()], axis=1),)

    def member(self, params) -> CoefficientField:
        """The family's shared table times this member's own weights."""
        params = np.asarray(params, dtype=float)
        weights = self._weights(params)

        def table(pts):
            return self._point_table(pts)[0]

        return CoefficientField(
            lambda pts: table(pts) @ weights, kind="affine",
            meta={"weights": weights, "table": table, "params": params},
        )


@dataclass(frozen=True, kw_only=True)
class AffineFamily(_ModeSum):
    """Affine family a = alpha + beta*fill * sum_k y_k c_k xi_k / s, y in [-1,1]^K,
    every member in alpha +- beta*fill."""

    fill: float = 0.9

    def __post_init__(self):
        super().__post_init__()
        _check_fill(self.fill)

    def _columns(self) -> tuple:
        return (constant(1.0), *self.modes)

    def _weights(self, params: np.ndarray) -> np.ndarray:
        scale = self.beta * self.fill / self.normalizer
        return np.concatenate([[self.alpha], scale * params * np.asarray(self.amplitudes)])


@dataclass(frozen=True, kw_only=True)
class AbsShiftFamily(_ModeSum):
    """Fields a_min + |g|, g = amplitude * sum_k y_k c_k xi_k / s (meta["raw"]), whose
    range [a_min, a_min + amplitude] must lie in the band alpha +- beta; no fill applies."""

    a_min: float
    amplitude: float

    def __post_init__(self):
        super().__post_init__()
        if not (self.alpha - self.beta <= self.a_min
                and self.a_min + self.amplitude <= self.alpha + self.beta):
            raise ValueError("shifted range leaves the admissible band")

    def _columns(self) -> tuple:
        return self.modes  # the raw field has no offset

    def _weights(self, params: np.ndarray) -> np.ndarray:
        return self.amplitude / self.normalizer * params * np.asarray(self.amplitudes)

    def member(self, params) -> CoefficientField:
        raw = super().member(params)
        out = abs_shift(raw, self.a_min)
        out.meta.update(raw=raw, params=raw.meta["params"])
        return out


# wavenumbers and W^{m,inf}-scaled amplitudes for the Sobolev-ball sampler
_SOBOLEV_WAVES = [
    (kx, ky) for kx in range(0, 5) for ky in range(0, 5) if (kx, ky) != (0, 0)
]
_SOBOLEV_K2 = np.array([kx * kx + ky * ky for kx, ky in _SOBOLEV_WAVES], dtype=float)


def _sobolev_amplitudes(order: int) -> np.ndarray:
    return (1.0 + _SOBOLEV_K2) ** (-(order + 1) / 2.0)


@dataclass(frozen=True, kw_only=True)
class SobolevBall(DataFamily):
    """Random piecewise-P1/P2 (``degree``) fields on the coarse mesh ``domain``, in the cone."""

    fill: float = 0.9
    order: int = 2
    radius: float = 50.0
    degree: int = 2
    n_params = len(_SOBOLEV_WAVES)

    def __post_init__(self):
        super().__post_init__()
        _check_fill(self.fill)
        if self.order < 0 or not self.radius > 0:
            raise ValueError("SobolevBall needs order >= 0 and radius > 0")

    @cached_property
    def _dofs(self) -> tuple:
        """(coords, cell_dofs, cx, cy), read-only: the dof table of the mesh, and the
        factors cos(kx pi x) and cos(ky pi y) of every wave at the dofs, one row per wave."""
        coords, cell_dofs, _ = _lagrange_dofs(self.domain, self.degree)
        cx = np.array([np.cos(kx * np.pi * coords[:, 0]) for kx, _ in _SOBOLEV_WAVES])
        cy = np.array([np.cos(ky * np.pi * coords[:, 1]) for _, ky in _SOBOLEV_WAVES])
        return _frozen((coords, cell_dofs, cx, cy))

    def _build_table(self, pts: np.ndarray) -> tuple:
        return _locate(self.domain, self._dofs[1], self.degree, pts)

    def member(self, params) -> CoefficientField:
        params = np.asarray(params, dtype=float)
        coords, cell_dofs, cx, cy = self._dofs
        amps = _sobolev_amplitudes(self.order)
        raw_vals = np.zeros(len(coords))
        for y, amp, cos_x, cos_y in zip(params, amps, cx, cy):
            raw_vals += y * amp * cos_x * cos_y
        # P2 fields overshoot their nodal values; the Bernstein hull bounds
        # the range, so the scaled member stays in alpha +- beta * fill
        lo, hi = _bernstein_range(raw_vals, cell_dofs, self.degree)
        mid = 0.5 * (lo + hi)
        half = max(0.5 * (hi - lo), 1e-12)
        scale = self.beta * self.fill / half
        # near-flat draws would be range-amplified past the declared radius;
        # cap the analytic curvature bound of the generator at 0.8 R
        curvature = scale * float(np.sum(np.abs(params) * amps * _SOBOLEV_K2)) * np.pi**2
        if curvature > 0.8 * self.radius:
            scale *= 0.8 * self.radius / curvature
        vals = self.alpha + scale * (raw_vals - mid)

        def member(pts):  # mesh_field(domain, vals, degree) from the cached location
            dofs, shapes = self._point_table(pts)
            return np.sum(vals[dofs] * shapes, axis=1)

        meta = {"mesh": self.domain, "degree": self.degree, "values": vals,
                "cell_dofs": cell_dofs, "params": params}
        return CoefficientField(member, kind="mesh_field", meta=meta)


# wavenumbers (kx, ky) of the analytic family's modes, in order of decaying amplitude
ANALYTIC_WAVENUMBERS = ((1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3))

# envelope constant A of the analytic family: finite trig sums with bounded
# wavenumbers have W^{m,inf} norms growing like (k*pi)^m, inside A^{m+1} m!
# for moderate m; recorded without a sharpness claim
ANALYTIC_BOUND = 4.0


def analytic_family(
    alpha: float,
    beta: float,
    domain,
    n_modes: int = 2,
    decay: float = 0.5,
    fill: float = 0.9,
) -> DataFamily:
    """Trigonometric family with geometrically decaying mode amplitudes (see ANALYTIC_BOUND)."""
    if not 1 <= n_modes <= len(ANALYTIC_WAVENUMBERS):
        raise ValueError(
            f"analytic_family takes 1 to {len(ANALYTIC_WAVENUMBERS)} modes, got {n_modes!r}"
        )
    modes = [trig_mode(kx, ky) for kx, ky in ANALYTIC_WAVENUMBERS[:n_modes]]
    amps = [decay**k for k in range(len(modes))]
    return AffineFamily(
        alpha=alpha, beta=beta, domain=domain, fill=fill, modes=modes, amplitudes=amps
    )


def _read_only(array) -> bool:
    """A dense array without write access, or a CSR/CSC matrix whose three arrays have none."""
    if not sp.issparse(array):
        return not array.flags.writeable
    return array.format in ("csr", "csc") and not any(
        part.flags.writeable for part in (array.data, array.indices, array.indptr))


def _per_points(cache: dict, pts, build):
    """build(pts), kept in cache per read-only array (see _read_only) until a weakref
    callback drops it with the array, so a reused id finds nothing; any other array is
    rebuilt on every call."""
    if not _read_only(pts):
        return build(pts)
    key = id(pts)
    entry = cache.get(key)
    if entry is None or entry[0]() is not pts:
        ref = weakref.ref(pts, lambda _, key=key: cache.pop(key, None))
        entry = cache[key] = (ref, build(pts))
    return entry[1]


def _frozen(arrays: tuple) -> tuple:
    """The arrays, made read-only: every member of a family shares them."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


def sample_family(family: DataFamily, count: int, seed: int):
    """Deterministic list of family members, each admissible by construction.

    One uniform draw in [-1, 1]^(count, n_params), one member per row; no
    member is sampled on a grid.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.default_rng(seed)
    return [family.member(row) for row in rng.uniform(-1.0, 1.0, size=(count, family.n_params))]
