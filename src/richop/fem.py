"""Galerkin systems for the variable-coefficient diffusion form.

Assembles stiffness matrices int a grad(u).grad(v) and load vectors on P1/P2
Lagrange spaces with homogeneous Dirichlet conditions eliminated, solves the
resulting SPD systems, and provides the energy norm induced by the nominal
coefficient together with the discrete dual norm of the source.

What the problem fixes, K(a0), the load vector of f and the dual norm of f,
is one FineForm per (space, config), built on first use and cached on the
space (see nominal); every solve and norm reads it.

Every form is integrated by one quadrature rule, the symmetric six-point
rule exact for degree 4. Everything in an assembly that does not depend on
the coefficient (the quadrature points, the free-dof sparsity pattern, and
the sparse operators taking samples at the quadrature points to the
stiffness data and to the load vector) is built once per space and cached
on the space (see Assembly), so each stiffness matrix or load vector is one
sparse mat-vec. The stiffness operator yields the upper triangle of the
symmetric matrix, which a gather mirrors into the whole pattern.

The one solver is CG preconditioned by the sparse factorization of K(1), cached
with the Assembly, rescaled symmetrically to the diagonal of the matrix solved
(van der Sluis 1969): z = s^-1 * K(1)^-1 (s^-1 * r) with
s = sqrt(diag K(a) / diag K(1)), and every product with K(a) a csr_matvec on the
cached pattern (Assembly.product), energy norms' products with K(a0) too; a
Galerkin solve reads K(a)'s pattern data and builds no csr_matrix. Every solve
uses it: snapshots, the anchor, the dual norm and the decomposition's fine
solves, which start from the reduced solution u_N.
Admissible coefficients lie in [alpha - beta, alpha + beta], so the unscaled
factor would bound the condition number by (alpha + beta) / (alpha - beta) on
every mesh; that bound does not carry over to the scaled one. On smooth
coefficients the scaled one needs about half the applications (6-7 against 12-17
on the committed families); on coefficients that jump at mesh scale it can need
more (stripes 0.55/1.45 on h = 0.025: 43 against 23). The accuracy contract is
the same for both: the recurrence stops at relative residual 1e-14, and the
returned solution's true relative residual is checked to be at most 1e-10
(1.6e-13 to 2.2e-13 on those stripes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import _sparsetools

from . import coeff as coeff_mod
from .coeff import CoefficientField, _shape_values, constant
from .mesh import _P2_EDGES, Mesh, _affine_maps, _lagrange_dofs

__all__ = [
    "FemSpace",
    "Assembly",
    "FineForm",
    "ProblemConfig",
    "SolverError",
    "MembershipError",
    "build_space",
    "assembly",
    "nominal",
    "quadrature_points",
    "assemble_stiffness",
    "assemble_stiffness_samples",
    "assemble_load",
    "galerkin_solve",
    "energy_norm",
    "normalize_source",
]


class SolverError(RuntimeError):
    """Linear solver failed to reach the requested residual."""


class MembershipError(ValueError):
    """Coefficient left the admissible cone."""


def _orbit(a: float, b: float) -> list:
    """The three barycentric points with one coordinate a and two equal to b."""
    return [[a, b, b], [b, a, b], [b, b, a]]


# the symmetric degree-4 triangle rule: barycentric points, weights summing to one
_TRI_POINTS = np.array(
    _orbit(0.816847572980459, 0.091576213509771) + _orbit(0.108103018168070, 0.445948490915965)
)
_TRI_WEIGHTS = np.repeat([0.109951743655322, 0.223381589678011], 3)


@dataclass(frozen=True)
class FemSpace:
    """Lagrange space of degree 1 or 2 with Dirichlet dofs eliminated."""

    mesh: Mesh
    degree: int
    dof_coords: np.ndarray
    cell_dofs: np.ndarray
    free_dofs: np.ndarray
    # FineForm per ProblemConfig, filled by nominal(space, config)
    _nominal: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_dofs(self) -> int:
        return len(self.dof_coords)

    @property
    def n_free(self) -> int:
        return len(self.free_dofs)

    @cached_property
    def _assembly(self) -> Assembly:
        """Built on first read, through assembly(space)."""
        return _build_assembly(self)


def build_space(mesh: Mesh, degree: int = 1) -> FemSpace:
    dof_coords, cell_dofs, constrained = _lagrange_dofs(mesh, degree)
    free = np.setdiff1d(np.arange(len(dof_coords)), constrained)
    return FemSpace(mesh, degree, dof_coords.copy(), cell_dofs.copy(), free)


def _reference_tables(degree: int):
    """Shape values (nq, nloc) and reference gradients (nq, nloc, 2)."""
    bary, w = _TRI_POINTS, _TRI_WEIGHTS
    vals = _shape_values(bary, degree)
    gl = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])  # grad of l0, l1, l2
    if degree == 1:
        grads = np.broadcast_to(gl, (len(w), 3, 2)).copy()
    else:
        lam = bary.T
        grads = np.empty((len(w), 6, 2))
        for i in range(3):
            grads[:, i, :] = (4 * lam[i] - 1)[:, None] * gl[i]
        for e, (a, b) in enumerate(_P2_EDGES):
            grads[:, 3 + e, :] = 4 * (
                lam[a][:, None] * gl[b] + lam[b][:, None] * gl[a]
            )
    return bary, w, vals, grads


def _geometry(space: FemSpace):
    """The vertices (t, 3, 2) and Jacobian determinants of mesh._affine_maps, and the
    inverse-transpose Jacobians: the adjugate [[e2y, -e1y], [-e2x, e1x]] divided by det."""
    p, e1, e2, det = _affine_maps(space.mesh.nodes, space.mesh.triangles)
    adjugate = np.stack([e2[:, 1], -e1[:, 1], -e2[:, 0], e1[:, 0]], axis=1).reshape(-1, 2, 2)
    return p, det, adjugate / det[:, None, None]


@dataclass(frozen=True)
class Assembly:
    """Coefficient-independent assembly data of one space.

    points are the physical quadrature points (n_triangles * nq, 2),
    element-major and read-only. indices/indptr are the CSR pattern of the
    free-dof stiffness matrix. The matrix is symmetric, so stiffness maps
    samples at the points to the data of the pattern's upper triangle only,
    and data[mirror] is the data of the whole pattern, diagonal its slots of
    diag K. load maps samples to the free-dof load vector. laplace, built on first
    read, factors K(1); every solve rescales it by laplace_diagonal = diag K(1).
    """

    points: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    mirror: np.ndarray
    diagonal: np.ndarray
    stiffness: sp.csc_matrix  # (upper nnz, n_points)
    load: sp.csc_matrix  # (n_free, n_points)

    def matrix(self, upper: np.ndarray) -> sp.csr_matrix:
        """Free-dof matrix whose upper triangle holds the given data."""
        n = len(self.indptr) - 1
        data = upper[self.mirror]
        return sp.csr_matrix((data, self.indices.copy(), self.indptr.copy()), shape=(n, n))

    def product(self, data: np.ndarray, x: np.ndarray) -> np.ndarray:
        """K x, K the matrix of the pattern's data upper[mirror] and x a vector or a block,
        taken C-ordered: csr_matvec(s) into a fresh np.zeros, bit for bit matrix(upper) @ x."""
        n, x = len(self.indptr) - 1, np.ascontiguousarray(x, dtype=float)
        if x.shape[:1] != (n,) or x.ndim > 2 or data.shape != self.indices.shape:
            raise ValueError(f"x of shape {x.shape} or data {data.shape} off the pattern")
        out = np.zeros(x.shape)
        if x.ndim == 1:
            _sparsetools.csr_matvec(n, n, self.indptr, self.indices, data, x, out)
        else:
            _sparsetools.csr_matvecs(n, n, x.shape[1], self.indptr, self.indices, data, x, out)
        return out

    @cached_property
    def _unit(self) -> np.ndarray:  # the upper-triangle data of K(1)
        return self.stiffness @ np.ones(len(self.points))

    @cached_property
    def laplace(self) -> spla.SuperLU:
        """Factorization of the coefficient-1 stiffness matrix K(1)."""
        return _factor(self.matrix(self._unit))

    @cached_property
    def laplace_diagonal(self) -> np.ndarray:
        """diag K(1), read-only."""
        diagonal = self._unit[self.mirror][self.diagonal]
        diagonal.flags.writeable = False
        return diagonal


def assembly(space: FemSpace) -> Assembly:
    """The space's Assembly, built on first use and cached."""
    return space._assembly


def _csc_by_point(values, rows, keep, n_rows: int) -> sp.csc_matrix:
    """Operator whose column (t, q) holds values[t, q, k] in row rows[t, k] where keep[t, k].

    Exact zeros are left out; they add nothing to any product.
    """
    nt, nq, _ = values.shape
    mask = keep[:, None, :] & (values != 0.0)
    indices = np.broadcast_to(rows[:, None, :], values.shape)[mask]
    indptr = np.zeros(nt * nq + 1, dtype=np.int32)
    np.cumsum(mask.sum(axis=2).ravel(), out=indptr[1:])
    return sp.csc_matrix((values[mask], indices, indptr), shape=(n_rows, nt * nq))


def _build_assembly(space: FemSpace) -> Assembly:
    bary, w, vals, grads_ref = _reference_tables(space.degree)
    p, det, inv_t = _geometry(space)
    nt, nloc, n = space.mesh.n_triangles, vals.shape[1], space.n_free
    points = np.einsum("qk,tkd->tqd", bary, p).reshape(-1, 2)
    points.flags.writeable = False
    weight = w[None, :] * (0.5 * np.abs(det))[:, None]  # (t, q)
    free_of = np.full(space.n_dofs, -1, dtype=np.int32)
    free_of[space.free_dofs] = np.arange(n, dtype=np.int32)
    local_dofs = free_of[space.cell_dofs]  # (t, nloc), -1 where constrained
    # one value per unordered local pair {i, j}, at the upper entry of its dofs
    pi, pj = np.triu_indices(nloc)
    lo = np.minimum(local_dofs[:, pi], local_dofs[:, pj]).astype(np.int64)
    hi = np.maximum(local_dofs[:, pi], local_dofs[:, pj])
    keep = lo >= 0
    upper, slot = np.unique(lo[keep] * n + hi[keep], return_inverse=True)
    position = np.full(keep.shape, -1, dtype=np.int32)
    position[keep] = slot
    rows, cols = upper // n, upper % n
    keys = np.unique(np.concatenate([upper, cols * n + rows]))
    kr, kc = keys // n, keys % n
    mirror = np.searchsorted(upper, np.minimum(kr, kc) * n + np.maximum(kr, kc))
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(kr, minlength=n), out=indptr[1:])
    grads = grads_ref @ inv_t.transpose(0, 2, 1)[:, None]  # (t, q, nloc, 2)
    pairs = (grads @ grads.transpose(0, 1, 3, 2))[:, :, pi, pj]  # (t, q, pairs)
    pairs *= weight[:, :, None]
    stiffness = _csc_by_point(pairs, position, keep, len(upper))
    load = _csc_by_point(vals[None] * weight[:, :, None], local_dofs, local_dofs >= 0, n)
    return Assembly(points, kc.astype(np.int32), indptr, mirror.astype(np.int32),
                    np.flatnonzero(kr == kc), stiffness, load)


def quadrature_points(space: FemSpace) -> np.ndarray:
    """Physical quadrature points, shaped (n_triangles * nq, 2), element-major.

    The array is cached with the space's Assembly and is read-only; copy it
    before mutating.
    """
    return assembly(space).points


def _sample_coefficient(space: FemSpace, a) -> np.ndarray:
    """Samples of a field (or given samples) at the quadrature points, flat and finite."""
    if isinstance(a, CoefficientField):
        vals = a(quadrature_points(space))
    else:
        vals = np.asarray(a, dtype=float)
    vals = vals.reshape(space.mesh.n_triangles * len(_TRI_WEIGHTS))
    if not np.all(np.isfinite(vals)):
        raise MembershipError("coefficient evaluated to non-finite values")
    return vals


def assemble_stiffness_samples(space: FemSpace, samples: np.ndarray) -> sp.csr_matrix:
    """Stiffness matrix from coefficient samples at the quadrature points.

    One sparse mat-vec of the space's cached Assembly, mirrored into its
    fixed pattern.
    """
    asm = assembly(space)
    return asm.matrix(asm.stiffness @ np.asarray(samples, dtype=float).reshape(-1))


def assemble_stiffness(space: FemSpace, a) -> sp.csr_matrix:
    """Stiffness matrix of the form int a grad(phi_j).grad(phi_i), free dofs only."""
    return assemble_stiffness_samples(space, _sample_coefficient(space, a))


def assemble_load(space: FemSpace, f) -> np.ndarray:
    """Load vector with entries int f phi_i over the free dofs.

    One sparse mat-vec of the space's cached Assembly with the samples of f.
    """
    return assembly(space).load @ _sample_coefficient(space, f)


# Two CG steps past 1e-12 keep solutions within about 1e-14 of a direct solve;
# the greedy basis divides that by a snapshot's residual (down to about 3e-3).
_SOLVE_TOL = 1e-14


def _factor(matrix) -> spla.SuperLU:
    """Unpivoted sparse LU, symmetric order; SolverError unless all pivots are positive."""
    try:
        lu = spla.splu(
            sp.csc_matrix(matrix),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # exactly singular
        raise SolverError("factorization failed; matrix not SPD") from exc
    if not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal() > 0)):
        raise SolverError("non-positive pivot; matrix not SPD")
    return lu


def _cg(asm: Assembly, data: np.ndarray, rhs: np.ndarray, start=None) -> np.ndarray:
    """CG for K x = rhs, K the matrix of the pattern's data, from start (a finite vector
    shaped as rhs, else ValueError) or zero; every product is asm.product, and z =
    s^-1 * asm.laplace.solve(s^-1 * r), s = sqrt(diag K / asm.laplace_diagonal) taken once
    per solve. The recurrence stops at relative residual _SOLVE_TOL; the true relative residual
    ||K x - rhs|| / ||rhs|| is guaranteed at most 1e-10. SolverError on a
    non-positive diagonal entry or curvature, at the cap, or when that check fails."""
    rhs = np.asarray(rhs, dtype=float)
    if start is not None and not (np.shape(start) == rhs.shape and np.all(np.isfinite(start))):
        raise ValueError(f"a start must be a finite vector of length {len(rhs)}")
    bnorm = np.linalg.norm(rhs)
    if bnorm == 0.0:
        return np.zeros_like(rhs)
    diagonal = data[asm.diagonal]
    if not np.all(diagonal > 0.0):
        raise SolverError("non-positive diagonal; matrix not SPD")
    scale, factor = np.sqrt(asm.laplace_diagonal / diagonal), asm.laplace  # s^-1
    x = np.zeros_like(rhs) if start is None else np.array(start, dtype=float)
    r = rhs.copy() if start is None else rhs - asm.product(data, x)
    z = scale * factor.solve(scale * r)
    p = z.copy()
    rz = r @ z
    for _ in range(max(len(rhs), 100)):
        ap = asm.product(data, p)
        curvature = p @ ap
        if not curvature > 0.0:
            raise SolverError("non-positive curvature; matrix not SPD")
        step = rz / curvature
        x += step * p
        r -= step * ap
        if np.linalg.norm(r) <= _SOLVE_TOL * bnorm:
            break
        z = scale * factor.solve(scale * r)
        rz, rz_old = r @ z, rz
        p = z + (rz / rz_old) * p
    else:
        raise SolverError("CG did not converge within the iteration cap")
    res = np.linalg.norm(asm.product(data, x) - rhs) / bnorm
    if res > 1e-10:
        raise SolverError(f"relative residual {res:.3e} above tolerance 1e-10")
    return x


@dataclass(frozen=True)
class ProblemConfig:
    """Problem data: coercivity band (alpha, beta), nominal coefficient, source."""

    alpha: float
    beta: float
    a0: CoefficientField = field(default_factory=lambda: constant(1.0))
    f: CoefficientField = field(default_factory=lambda: constant(1.0))

    def __post_init__(self):
        if not (0.0 < self.beta < self.alpha):
            raise ValueError("require 0 < beta < alpha")

    def scaled_nominal(self) -> CoefficientField:
        """The coefficient alpha * a0 whose solution anchors the reduced basis."""
        return coeff_mod.affine_combination([self.a0], [self.alpha])


@dataclass(frozen=True)
class FineForm:
    """The nominal form of one (space, config), fixed by the problem.

    stiffness is K(a0) and load the load vector of f, both on the free dofs.
    f_dual is the discrete dual norm of f,
    sqrt(load' K(a0)^{-1} load), whose Riesz representer is solved by CG
    preconditioned by the space's cached factorization of K(1), scaled to
    diag K(a0). Arrays are read-only.
    """

    stiffness: sp.csr_matrix
    load: np.ndarray
    f_dual: float


def nominal(space: FemSpace, config: ProblemConfig) -> FineForm:
    """The FineForm of (space, config), built on first use and cached on the space."""
    form = space._nominal.get(config)
    if form is None:
        k0 = assemble_stiffness(space, config.a0)
        load = assemble_load(space, config.f)
        rep = _cg(assembly(space), k0.data, load)
        for array in (k0.data, k0.indices, k0.indptr, load):
            array.flags.writeable = False
        f_dual = float(np.sqrt(max(float(load @ rep), 0.0)))
        form = space._nominal[config] = FineForm(k0, load, f_dual)
    return form


def galerkin_solve(
    space: FemSpace,
    config: ProblemConfig,
    a: CoefficientField | np.ndarray,
    start: np.ndarray | None = None,
) -> np.ndarray:
    """Discrete solution of b(a; u, v) = (f, v) on the space, free dofs only.

    a is a field, or its samples at quadrature_points(space). The load is the
    cached one of nominal(space, config). CG on K(a)'s pattern data, the mirrored
    upper data of one product with the cached Assembly (the .data of
    assemble_stiffness_samples, without building its csr_matrix), starts from
    start (a finite free-dof vector, else ValueError) or zero, preconditioned by
    the cached factor of K(1) scaled to diag K(a); its recurrence stops at relative
    residual 1e-14, and the true relative residual is guaranteed at most 1e-10.
    Samples outside the band alpha +- beta raise MembershipError before any solve.
    """
    samples = _sample_coefficient(space, a)
    lo, hi = samples.min(), samples.max()
    if lo < config.alpha - config.beta - 1e-12 or hi > config.alpha + config.beta + 1e-12:
        raise MembershipError(
            f"coefficient range [{lo:.6g}, {hi:.6g}] outside "
            f"[{config.alpha - config.beta:.6g}, {config.alpha + config.beta:.6g}]"
        )
    asm = assembly(space)
    data = (asm.stiffness @ samples)[asm.mirror]
    return _cg(asm, data, nominal(space, config).load, start)


def energy_norm(space: FemSpace, config: ProblemConfig, v: np.ndarray) -> float:
    """Nominal energy norm sqrt(v' K(a0) v), with K(a0) read from nominal(space, config);
    K(a0) v is Assembly.product on its data, bit for bit the csr_matrix product."""
    v = np.asarray(v, dtype=float)
    val = float(v @ assembly(space).product(nominal(space, config).stiffness.data, v))
    return float(np.sqrt(max(val, 0.0)))


def normalize_source(space: FemSpace, config: ProblemConfig) -> ProblemConfig:
    """Rescale the source so its discrete dual norm equals alpha.

    The dual norm is nominal(space, config).f_dual. This makes the anchor
    solution S(alpha a0) have unit energy norm, so the reduced systems below
    carry their coefficient bounds exactly.
    """
    nrm = nominal(space, config).f_dual
    if nrm == 0.0:
        raise ValueError("cannot normalize a zero source")
    scaled = coeff_mod.affine_combination([config.f], [config.alpha / nrm])
    return ProblemConfig(config.alpha, config.beta, config.a0, scaled)
