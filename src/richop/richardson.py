"""Reduced Galerkin systems and the frozen-coefficient fixed-point iteration.

For a coefficient v the reduced system holds the dense matrices of the
bilinear form on the basis's orthonormal frame, the iteration matrix
Id - (alpha B0)^{-1} B_v, and the shifted load. Only B_v depends on v; the
rest is the basis's NominalForm, computed once per basis. B_v has one
kernel, reduced_stiffness, which also serves relu_net.input_net and
direct_solves, the dense solutions of a block of sample columns. The
iteration contracts with factor beta/alpha on the admissible cone and its
step count for a target accuracy follows a closed-form ceiling rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .coeff import CoefficientField
from .fem import MembershipError, _sample_coefficient, assembly
from .reduced_basis import ReducedBasis

__all__ = [
    "ReducedSystem",
    "IterationState",
    "reduced_stiffness",
    "assemble_reduced",
    "direct_solve",
    "direct_solves",
    "contraction_norm",
    "iterate",
    "choose_step_count",
    "reduced_energy_error",
]


@dataclass
class ReducedSystem:
    """Dense reduced matrices for one coefficient in a fixed basis frame."""

    b_nominal: np.ndarray  # Gram of the frame in the nominal form
    b_coeff: np.ndarray  # bilinear form of the coefficient on the frame
    load: np.ndarray
    iteration_matrix: np.ndarray
    shift: np.ndarray

    @property
    def size(self) -> int:
        return len(self.load)


@dataclass
class IterationState:
    """Trajectory of the reduced fixed-point iteration."""

    coefficients: np.ndarray
    steps: int
    ell2_history: list = field(default_factory=list)
    trajectory: list = field(default_factory=list)


def reduced_stiffness(basis: ReducedBasis, v) -> np.ndarray:
    """B_v = P^T K(v) P on the basis's orthonormal frame P, (N, N) for a field or its
    samples at quadrature_points(basis.space); (M, N, N) for a block of sample columns
    (n_qp, M), dense or sparse, whose stiffness data is one product with the assembly."""
    block = np.ndim(v) == 2  # a sparse matrix has ndim 2 too
    asm, p = assembly(basis.space), basis.ortho
    upper = asm.stiffness @ (v if block else _sample_coefficient(basis.space, v)[:, None])
    upper = upper.toarray() if sp.issparse(upper) else upper
    if not np.all(np.isfinite(upper)):  # a block skips _sample_coefficient's check
        raise MembershipError("coefficient evaluated to non-finite values")
    out = np.array([p.T @ (asm.matrix(column) @ p) for column in upper.T])
    return out if block else out[0]


def assemble_reduced(basis: ReducedBasis, v: CoefficientField | np.ndarray) -> ReducedSystem:
    """The reduced system of v, B_v the kernel of v's samples as one column whatever
    their shape; the iteration matrix is one solve with the cached Cholesky factor of
    basis.nominal, which raises IllConditionedBasisError when B0 is not positive definite."""
    b_v = reduced_stiffness(basis, _sample_coefficient(basis.space, v)[:, None])[0]
    form = basis.nominal
    iteration_matrix = np.eye(len(form.load)) - la.cho_solve(form.chol, b_v) / basis.config.alpha
    return ReducedSystem(form.b0, b_v, form.load, iteration_matrix, form.shift)


def contraction_norm(system: ReducedSystem) -> float:
    """Spectral norm of the iteration matrix."""
    return float(np.linalg.norm(system.iteration_matrix, 2))


def iterate(system: ReducedSystem, k_steps: int) -> IterationState:
    """Run k steps of c <- A c + g from the anchor coordinate vector e1, recording every iterate."""
    if k_steps < 0:
        raise ValueError("k_steps must be nonnegative")
    n = system.size
    c = np.zeros(n)
    c[0] = 1.0
    history = [float(np.linalg.norm(c))]
    traj = [c.copy()]
    for _ in range(k_steps):
        c = system.iteration_matrix @ c + system.shift
        history.append(float(np.linalg.norm(c)))
        traj.append(c.copy())
    return IterationState(c, k_steps, history, traj)


def choose_step_count(alpha: float, beta: float, f_dual_norm: float, epsilon: float) -> int:
    """Step count making the geometric iteration tail at most epsilon / 2."""
    if beta == 0.0:
        return 1
    if not (0.0 < beta < alpha):
        raise ValueError("require 0 < beta < alpha")
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    if f_dual_norm <= 0.0:
        raise ValueError("f_dual_norm must be positive")
    num = abs(math.log(epsilon / 2.0)) + abs(
        math.log(f_dual_norm) - math.log(alpha - beta)
    )
    return int(math.ceil(num / abs(math.log(beta / alpha))))


def reduced_energy_error(system: ReducedSystem, c: np.ndarray, c_ref: np.ndarray) -> float:
    """Energy-norm distance between two reduced coefficient vectors."""
    d = np.asarray(c, dtype=float) - np.asarray(c_ref, dtype=float)
    return float(np.sqrt(max(d @ (system.b_nominal @ d), 0.0)))


def direct_solve(system: ReducedSystem) -> np.ndarray:
    """Dense solve of the reduced Galerkin system B_v c = f_N."""
    return la.solve(system.b_coeff, system.load, assume_a="sym")


def direct_solves(basis: ReducedBasis, samples) -> np.ndarray:
    """Row j solves B_j c = f_N as direct_solve does, B_j slice j of the kernel of a
    block of sample columns (n_qp, M): one reduced_stiffness call, then one solve per slice."""
    load = basis.nominal.load
    return np.array([la.solve(b, load, assume_a="sym") for b in reduced_stiffness(basis, samples)])
