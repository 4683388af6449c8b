"""Coefficient fields and data families for the diffusion problem.

Fields are pointwise evaluators a(x) on the domain, vectorized over point
arrays. Families generate admissible coefficients: trigonometric sums with
factorially controlled derivatives (analytic), random piecewise-quadratic
fields on a coarse mesh (Sobolev ball), and affine parametric combinations
of stored modes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import _P2_EDGES, Mesh, Polygon, _p2_dofs, locate_points

__all__ = [
    "CoefficientField",
    "MembershipResult",
    "DataFamily",
    "constant",
    "from_callable",
    "affine_combination",
    "mesh_field",
    "abs_shift",
    "membership",
    "domain_grid",
    "sample_family",
    "parametric_family",
    "analytic_family",
    "sobolev_family",
    "abs_family",
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


def from_callable(fn, meta: dict | None = None) -> CoefficientField:
    return CoefficientField(fn, kind="callable", meta=meta)


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
    """Lagrange shape values from barycentric coordinates; (n, nloc)."""
    l0, l1, l2 = bary[:, 0], bary[:, 1], bary[:, 2]
    if degree == 1:
        return np.stack([l0, l1, l2], axis=1)
    if degree == 2:
        lam = (l0, l1, l2)
        vert = [l * (2 * l - 1) for l in lam]
        edge = [4 * lam[a] * lam[b] for a, b in _P2_EDGES]
        return np.stack(vert + edge, axis=1)
    raise ValueError("degree must be 1 or 2")


def mesh_field(mesh: Mesh, values: np.ndarray, degree: int = 1) -> CoefficientField:
    """Continuous piecewise-polynomial field from nodal values.

    For degree 2 the value array is ordered vertices first, then edge
    midpoints numbered by first appearance, as in the P2 FEM spaces.
    """
    values = np.asarray(values, dtype=float)
    if degree == 1:
        cell_dofs = mesh.triangles
    elif degree == 2:
        cell_dofs = _p2_dofs(mesh)[1]
    else:
        raise ValueError("degree must be 1 or 2")

    def fn(pts):
        tri_idx, bary = locate_points(mesh, pts)
        if np.any(tri_idx < 0):
            raise ValueError("point outside mesh in mesh_field evaluation")
        shapes = _shape_values(bary, degree)
        return np.sum(values[cell_dofs[tri_idx]] * shapes, axis=1)

    return CoefficientField(
        fn,
        kind="mesh_field",
        meta={"mesh": mesh, "degree": degree, "values": values},
    )


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


@dataclass(frozen=True)
class MembershipResult:
    ok: bool
    min_value: float
    min_point: np.ndarray
    max_value: float
    max_point: np.ndarray

    def __bool__(self) -> bool:
        return self.ok


def membership(
    a: CoefficientField,
    alpha: float,
    beta: float,
    grid_n: int,
    domain,
) -> MembershipResult:
    """Sampled essinf/esssup test for membership in the admissible cone.

    True iff min sample >= alpha - beta - 1e-12 and max sample
    <= alpha + beta + 1e-12 over a grid_n x grid_n sampling of the domain.
    """
    pts = domain_grid(domain, grid_n)
    vals = a(pts)
    if not np.all(np.isfinite(vals)):
        raise ValueError("coefficient evaluated to a non-finite value")
    imin, imax = int(np.argmin(vals)), int(np.argmax(vals))
    ok = bool(vals[imin] >= alpha - beta - 1e-12 and vals[imax] <= alpha + beta + 1e-12)
    return MembershipResult(ok, float(vals[imin]), pts[imin], float(vals[imax]), pts[imax])


def trig_mode(kx: int, ky: int, phase: str = "cos") -> CoefficientField:
    """Product mode cos/sin(kx*pi*x) * cos/sin(ky*pi*y)."""
    fx = np.cos if phase == "cos" else np.sin

    def fn(pts):
        return fx(kx * np.pi * pts[:, 0]) * fx(ky * np.pi * pts[:, 1])

    return CoefficientField(
        fn, kind="trig", meta={"kx": kx, "ky": ky, "phase": phase}
    )


@dataclass(frozen=True)
class DataFamily:
    """Generator description for a set of admissible coefficients.

    ``fill`` is the fraction of the beta band the family occupies, so every
    sample satisfies the membership bounds with strict margin.
    """

    kind: str
    alpha: float
    beta: float
    modes: tuple = ()
    amplitudes: tuple = ()
    fill: float = 0.9
    normalizer: float = 1.0
    analytic_bound: float | None = None
    sobolev_order: int | None = None
    sobolev_radius: float | None = None
    coeff_mesh: Mesh | None = None
    coeff_degree: int = 2
    domain: object = None
    a_min: float | None = None
    raw_amplitude: float | None = None

    def __post_init__(self):
        if not (0 < self.beta < self.alpha):
            raise ValueError("family requires 0 < beta < alpha")
        if not (0 < self.fill <= 1):
            raise ValueError("fill must lie in (0, 1]")


def _mode_normalizer(modes, amplitudes, domain, grid_n: int = 200) -> float:
    pts = domain_grid(domain, grid_n)
    total = np.zeros(len(pts))
    for amp, mode in zip(amplitudes, modes):
        total += abs(amp) * np.abs(mode(pts))
    return float(total.max())


def parametric_family(
    alpha: float,
    beta: float,
    modes,
    domain,
    amplitudes=None,
    fill: float = 0.9,
) -> DataFamily:
    """Affine family a = alpha + beta*fill * sum_k y_k c_k xi_k / s, y in [-1,1]^K."""
    modes = tuple(modes)
    if amplitudes is None:
        amplitudes = tuple(1.0 for _ in modes)
    amplitudes = tuple(float(c) for c in amplitudes)
    normalizer = _mode_normalizer(modes, amplitudes, domain)
    return DataFamily(
        kind="parametric",
        alpha=alpha,
        beta=beta,
        modes=modes,
        amplitudes=amplitudes,
        fill=fill,
        normalizer=normalizer,
        domain=domain,
    )


def analytic_family(
    alpha: float,
    beta: float,
    domain,
    n_modes: int = 2,
    decay: float = 0.5,
    fill: float = 0.9,
    analytic_bound: float = 4.0,
) -> DataFamily:
    """Trigonometric family with geometrically decaying mode amplitudes.

    Finite trig sums with bounded wavenumbers have W^{m,inf} norms growing
    like (k*pi)^m, inside the factorial envelope A^{m+1} m! for moderate m;
    ``analytic_bound`` records the envelope constant as metadata without a
    sharpness claim.
    """
    modes, amps = [], []
    wave = [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)]
    for k, (kx, ky) in enumerate(wave[:n_modes]):
        modes.append(trig_mode(kx, ky))
        amps.append(decay**k)
    fam = parametric_family(alpha, beta, modes, domain, amps, fill)
    return DataFamily(
        kind="analytic",
        alpha=alpha,
        beta=beta,
        modes=fam.modes,
        amplitudes=fam.amplitudes,
        fill=fill,
        normalizer=fam.normalizer,
        analytic_bound=analytic_bound,
        domain=domain,
    )


def sobolev_family(
    alpha: float,
    beta: float,
    coeff_mesh: Mesh,
    order: int = 2,
    radius: float = 50.0,
    fill: float = 0.9,
    degree: int = 2,
) -> DataFamily:
    """Random piecewise-P2 fields on a coarse mesh, range-clipped into the cone."""
    return DataFamily(
        kind="sobolev_ball",
        alpha=alpha,
        beta=beta,
        fill=fill,
        sobolev_order=order,
        sobolev_radius=radius,
        coeff_mesh=coeff_mesh,
        coeff_degree=degree,
        domain=coeff_mesh,
    )


def abs_family(
    alpha: float,
    beta: float,
    modes,
    domain,
    a_min: float,
    amplitude: float,
    amplitudes=None,
) -> DataFamily:
    """Family of fields a_min + |g| where g is a sign-changing mode sum.

    Requires [a_min, a_min + amplitude] inside [alpha - beta, alpha + beta].
    Each member records the raw sign-changing field in its metadata.
    """
    if not (alpha - beta <= a_min and a_min + amplitude <= alpha + beta):
        raise ValueError("shifted range leaves the admissible band")
    modes = tuple(modes)
    if amplitudes is None:
        amplitudes = tuple(1.0 for _ in modes)
    normalizer = _mode_normalizer(modes, amplitudes, domain)
    return DataFamily(
        kind="abs_shift",
        alpha=alpha,
        beta=beta,
        modes=modes,
        amplitudes=tuple(float(c) for c in amplitudes),
        normalizer=normalizer,
        domain=domain,
        a_min=a_min,
        raw_amplitude=amplitude,
    )


# wavenumbers and W^{m,inf}-scaled amplitudes for the Sobolev-ball sampler
_SOBOLEV_WAVES = [
    (kx, ky) for kx in range(0, 5) for ky in range(0, 5) if (kx, ky) != (0, 0)
]


def _sobolev_amplitudes(order: int) -> np.ndarray:
    k2 = np.array([kx * kx + ky * ky for kx, ky in _SOBOLEV_WAVES], dtype=float)
    return (1.0 + k2) ** (-(order + 1) / 2.0)


def parameter_vectors(family: DataFamily, count: int, seed: int) -> np.ndarray:
    """Deterministic parameter draws; rows are y vectors (or nodal values)."""
    rng = np.random.default_rng(seed)
    if family.kind in ("parametric", "analytic", "abs_shift"):
        return rng.uniform(-1.0, 1.0, size=(count, len(family.modes)))
    if family.kind == "sobolev_ball":
        return rng.uniform(-1.0, 1.0, size=(count, len(_SOBOLEV_WAVES)))
    raise ValueError(f"unknown family kind {family.kind!r}")


def realize_member(family: DataFamily, params: np.ndarray) -> CoefficientField:
    """Build the coefficient field for one parameter vector."""
    params = np.asarray(params, dtype=float)
    if family.kind in ("parametric", "analytic"):
        scale = family.beta * family.fill / family.normalizer
        weights = np.concatenate(
            [[family.alpha], scale * params * np.asarray(family.amplitudes)]
        )
        fields = [constant(1.0), *family.modes]
        out = affine_combination(fields, weights)
        out.meta["params"] = params
        return out
    if family.kind == "abs_shift":
        scale = family.raw_amplitude / family.normalizer
        raw = affine_combination(
            family.modes, scale * params * np.asarray(family.amplitudes)
        )
        out = abs_shift(raw, family.a_min)
        out.meta["params"] = params
        out.meta["raw"] = raw
        return out
    if family.kind == "sobolev_ball":
        # smooth random draw with W^{m,inf}-scaled spectrum, interpolated as
        # a piecewise-P2 field on the coarse coefficient mesh
        coords = (
            family.coeff_mesh.nodes
            if family.coeff_degree == 1
            else _p2_dofs(family.coeff_mesh)[0]
        )
        amps = _sobolev_amplitudes(family.sobolev_order or 2)
        raw_vals = np.zeros(len(coords))
        for y, amp, (kx, ky) in zip(params, amps, _SOBOLEV_WAVES):
            raw_vals += (
                y
                * amp
                * np.cos(kx * np.pi * coords[:, 0])
                * np.cos(ky * np.pi * coords[:, 1])
            )
        # measure the field range on a fine grid: P2 fields overshoot their
        # nodal values, so nodal min/max are not enough for range clipping
        raw = mesh_field(family.coeff_mesh, raw_vals, family.coeff_degree)
        sampled = raw(domain_grid(family.coeff_mesh, 160))
        mid = 0.5 * (sampled.min() + sampled.max())
        half = max(0.5 * (sampled.max() - sampled.min()), 1e-12)
        band = family.beta * family.fill
        scale = band / half
        # near-flat draws would be range-amplified past the declared radius;
        # cap the analytic curvature bound of the generator at 0.8 R
        k2 = np.array([kx * kx + ky * ky for kx, ky in _SOBOLEV_WAVES])
        curvature = scale * float(np.sum(np.abs(params) * amps * k2)) * np.pi**2
        radius = family.sobolev_radius or 50.0
        if curvature > 0.8 * radius:
            scale *= 0.8 * radius / curvature
        vals = family.alpha + scale * (raw_vals - mid)
        out = mesh_field(family.coeff_mesh, vals, family.coeff_degree)
        out.meta["params"] = params
        return out
    raise ValueError(f"unknown family kind {family.kind!r}")


def sample_family(family: DataFamily, count: int, seed: int):
    """Deterministic list of family members; every member passes membership."""
    if count < 1:
        raise ValueError("count must be at least 1")
    draws = parameter_vectors(family, count, seed)
    members = []
    for row in draws:
        a = realize_member(family, row)
        check = membership(a, family.alpha, family.beta, 64, family.domain)
        if not check:
            raise ValueError(
                "family produced an inadmissible member: "
                f"range [{check.min_value:.6g}, {check.max_value:.6g}]"
            )
        members.append(a)
    return members

