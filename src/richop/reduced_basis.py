"""Snapshot generation and weak greedy reduced-basis construction.

The basis anchors at the solution for the scaled nominal coefficient and
grows by greedily selecting training snapshots with maximal energy-norm
distance to the current span. Orthonormalization is modified Gram-Schmidt
in the nominal inner product with one reorthogonalization pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from . import fem
from .coeff import DataFamily, sample_family
from .fem import FemSpace, ProblemConfig, SolverError, energy_norm, galerkin_solve

__all__ = [
    "SnapshotSet",
    "ReducedBasis",
    "NominalForm",
    "GreedyTrace",
    "IllConditionedBasisError",
    "generate_snapshots",
    "weak_greedy",
    "synthesize",
]


class IllConditionedBasisError(RuntimeError):
    """The reduced basis is unusable: rank-deficient Gram matrix, vanished
    anchor, or a nominal reduced matrix that is not positive definite."""


@dataclass
class SnapshotSet:
    """Training coefficients with their discrete solutions (columns)."""

    coefficients: list
    solutions: np.ndarray  # (n_free, count)
    space: FemSpace
    config: ProblemConfig

    @property
    def count(self) -> int:
        return self.solutions.shape[1]


@dataclass
class GreedyTrace:
    """Row N: the worst training residual on the first N + 1 basis columns and the snapshot
    picked next (-1 at a floor stop). final: the worst training residual on the returned basis."""

    residuals: list = field(default_factory=list)
    selected: list = field(default_factory=list)
    final: float = float("nan")

    def rows(self):
        return [(n, r, sel) for n, (r, sel) in enumerate(zip(self.residuals, self.selected))]

    def record(self, residual: float, selected: int) -> None:
        self.residuals.append(residual)
        self.selected.append(selected)


@dataclass(frozen=True)
class NominalForm:
    """The coefficient-independent half of the reduced Richardson step.

    In the orthonormal frame P: b0 = P^T K(a0) P with its lower Cholesky
    factor chol, the reduced load P^T f, the shift (alpha b0)^{-1} P^T f and
    the dual norm of f. K(a0), the load of f and its dual norm are those of
    the fine form fem.nominal(space, config). Arrays are read-only.
    """

    b0: np.ndarray
    chol: tuple
    load: np.ndarray
    shift: np.ndarray
    f_dual: float


@dataclass
class ReducedBasis:
    """Anchored snapshot basis in its orthonormal frame.

    ``ortho`` spans the anchor and the selected snapshots and is orthonormal
    in the nominal inner product, with the first column parallel to the
    anchor. Its prefixes are hierarchical by construction. ``nominal`` is the
    basis's own coefficient-independent reduced form; the basis also keeps
    its reduced stiffness stacks (richardson.reduced_stiffness).
    """

    space: FemSpace
    config: ProblemConfig
    ortho: np.ndarray
    selection_indices: list
    # id(block) -> (weakref to the block, its reduced stiffness stack), see coeff._per_points
    _stacks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def size(self) -> int:
        return self.ortho.shape[1]

    @property
    def nominal_stiffness(self) -> sp.csr_matrix:
        """K(a0) of the fine form fem.nominal(space, config); read-only."""
        return fem.nominal(self.space, self.config).stiffness

    @cached_property
    def nominal(self) -> NominalForm:
        """Computed on first read; IllConditionedBasisError unless b0 is SPD."""
        p, config = self.ortho, self.config
        fine = fem.nominal(self.space, config)
        b0 = p.T @ (fine.stiffness @ p)
        try:
            chol = la.cho_factor(b0, lower=True)
        except la.LinAlgError as exc:
            raise IllConditionedBasisError(
                "nominal reduced matrix is not SPD; basis is broken"
            ) from exc
        load = p.T @ fine.load
        shift = la.cho_solve(chol, load) / config.alpha
        for array in (b0, chol[0], load, shift):
            array.flags.writeable = False
        return NominalForm(b0, chol, load, shift, fine.f_dual)


def generate_snapshots(
    family: DataFamily,
    count: int,
    seed: int,
    space: FemSpace,
    config: ProblemConfig,
) -> SnapshotSet:
    """Sample the family and solve each member; verifies the energy bound."""
    coefficients = sample_family(family, count, seed)
    bound = fem.nominal(space, config).f_dual / (config.alpha - config.beta)
    cols = []
    for a in coefficients:
        u = galerkin_solve(space, config, a)
        if energy_norm(space, config, u) > bound + 1e-8:
            raise SolverError("snapshot violates the a priori energy bound")
        cols.append(u)
    return SnapshotSet(coefficients, np.column_stack(cols), space, config)


_RESIDUAL_FLOOR = 1e-13


def weak_greedy(snapshots: SnapshotSet, n_max: int, gamma: float = 1.0):
    """Greedy basis selection in the energy norm.

    Starts from the anchor solution for the scaled nominal coefficient. At
    each step any snapshot whose orthogonal residual is at least gamma times
    the maximum may be picked; the smallest qualifying index is used, so
    gamma = 1 is the strong greedy choice. Stops at n_max selected snapshots
    or when the worst residual falls below _RESIDUAL_FLOOR.
    """
    if snapshots.count == 0:
        raise ValueError("empty snapshot set")
    if not (0.0 < gamma <= 1.0):
        raise ValueError("gamma must lie in (0, 1]")
    space, config = snapshots.space, snapshots.config
    k0 = fem.nominal(space, config).stiffness
    anchor = galerkin_solve(space, config, config.scaled_nominal())
    anchor_norm = energy_norm(space, config, anchor)
    if anchor_norm == 0.0:
        raise IllConditionedBasisError("anchor solution vanished; zero source?")

    sols = snapshots.solutions
    ks = k0 @ sols

    ortho_cols = [anchor / anchor_norm]
    selected: list = []
    trace = GreedyTrace()

    def residual_norms():
        # explicit residual vectors; the difference-of-squares shortcut
        # cannot measure residuals below sqrt(eps) * |s|
        q = np.column_stack(ortho_cols)
        resid = sols - q @ (q.T @ ks)
        vals = np.einsum("ij,ij->j", resid, k0 @ resid)
        return np.sqrt(np.maximum(vals, 0.0))

    while True:
        res = residual_norms()
        rmax = trace.final = float(res.max())
        if len(selected) >= n_max:
            break
        if rmax < _RESIDUAL_FLOOR:
            trace.record(rmax, -1)
            break
        pick = int(np.flatnonzero(res >= gamma * rmax)[0])
        trace.record(rmax, pick)
        v = sols[:, pick].copy()
        # MGS against current orthonormal columns, one reorthogonalization pass
        for _ in range(2):
            for q in ortho_cols:
                v -= (q @ (k0 @ v)) * q
        nrm = energy_norm(space, config, v)
        if nrm < _RESIDUAL_FLOOR:
            break
        ortho_cols.append(v / nrm)
        selected.append(pick)

    return ReducedBasis(space, config, np.column_stack(ortho_cols), selected), trace


def synthesize(basis: ReducedBasis, coeffs: np.ndarray, frame: str) -> np.ndarray:
    """basis.ortho @ coeffs: the field of ortho-frame coefficients, which the reduced solves
    and the network give. frame must be "ortho", else ValueError; the keyword stays only for
    the call at bench/run.py:243 and goes with ROADMAP item 1a.
    """
    if frame != "ortho":
        raise ValueError(f"frame must be 'ortho', got {frame!r}")
    coeffs = np.asarray(coeffs, dtype=float)
    if len(coeffs) != basis.size:
        raise ValueError("coefficient length does not match basis size")
    return basis.ortho @ coeffs

