"""Reduced Galerkin systems and the frozen-coefficient fixed-point iteration.

For a coefficient v the reduced system holds the dense matrices of the
bilinear form on the basis span, the iteration matrix
Id - (alpha B0)^{-1} B_v, and the shifted load. The iteration contracts with
factor beta/alpha on the admissible cone and its step count for a target
accuracy follows a closed-form ceiling rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la

from .coeff import CoefficientField
from .fem import FemSpace, ProblemConfig, assemble_load, assemble_stiffness
from .reduced_basis import ReducedBasis

__all__ = [
    "ReducedSystem",
    "IterationState",
    "assemble_reduced",
    "contraction_norm",
    "iterate",
    "choose_step_count",
    "reduced_energy_error",
]


@dataclass
class ReducedSystem:
    """Dense reduced matrices for one coefficient in a fixed basis frame."""

    basis: ReducedBasis
    frame: str
    coefficient: CoefficientField
    b_nominal: np.ndarray  # Gram of the frame in the nominal form
    b_coeff: np.ndarray  # bilinear form of the coefficient on the frame
    load: np.ndarray
    iteration_matrix: np.ndarray
    shift: np.ndarray
    gram: np.ndarray  # nominal Gram, used for energy distances

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


def assemble_reduced(
    basis: ReducedBasis,
    space: FemSpace,
    config: ProblemConfig,
    v: CoefficientField,
    frame: str = "ortho",
    order: int = 4,
) -> ReducedSystem:
    """Project the coefficient's stiffness onto the basis frame.

    The iteration matrix and shifted load are formed through a Cholesky
    factorization of the nominal reduced matrix, which must be positive
    definite; failure indicates a broken basis.
    """
    p = basis.frame(frame)
    k_v = assemble_stiffness(space, v, order)
    b_v = p.T @ (k_v @ p)
    b0 = p.T @ (basis.nominal_stiffness @ p)
    load = p.T @ assemble_load(space, config.f, order)
    try:
        chol = la.cho_factor(b0, lower=True)
    except la.LinAlgError as exc:
        raise RuntimeError("nominal reduced matrix is not SPD; basis is broken") from exc
    iteration_matrix = np.eye(len(load)) - la.cho_solve(chol, b_v) / config.alpha
    shift = la.cho_solve(chol, load) / config.alpha
    return ReducedSystem(basis, frame, v, b0, b_v, load, iteration_matrix, shift, b0)


def contraction_norm(system: ReducedSystem) -> float:
    """Spectral norm of the iteration matrix."""
    return float(np.linalg.norm(system.iteration_matrix, 2))


def iterate(system: ReducedSystem, k_steps: int, record: bool = True) -> IterationState:
    """Run k steps of c <- A c + g from the anchor coordinate vector e1."""
    if k_steps < 0:
        raise ValueError("k_steps must be nonnegative")
    n = system.size
    c = np.zeros(n)
    c[0] = 1.0
    history = [float(np.linalg.norm(c))]
    traj = [c.copy()] if record else []
    for _ in range(k_steps):
        c = system.iteration_matrix @ c + system.shift
        history.append(float(np.linalg.norm(c)))
        if record:
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


def reduced_energy_error(
    basis: ReducedBasis, system: ReducedSystem, c: np.ndarray, c_ref: np.ndarray
) -> float:
    """Energy-norm distance between two reduced coefficient vectors."""
    d = np.asarray(c, dtype=float) - np.asarray(c_ref, dtype=float)
    return float(np.sqrt(max(d @ (system.gram @ d), 0.0)))


def direct_solve(system: ReducedSystem) -> np.ndarray:
    """Dense solve of the reduced Galerkin system B_v c = f_N."""
    return la.solve(system.b_coeff, system.load, assume_a="sym")
