"""Reduced Galerkin solves and the frozen-coefficient fixed-point iteration.

For a coefficient v the reduced Richardson step is c <- A c + g with the
iteration matrix A = Id - (alpha B0)^{-1} B_v. Only B_v depends on v; B0,
its Cholesky factor, the load f_N and the shift g are the basis's
NominalForm (basis.nominal), computed once per basis, and every function
here reads them from it. B_v has one kernel, reduced_stiffness: for a block of
sample columns it gives the stack S with S[k] the B of column k, cached on the
basis per read-only block. B_v is linear in v, so a v that is a weighted sum of
a block's columns (an encoded reconstruction, an affine family member, one
field's samples with weight 1) has B_v = sum_k w_k S[k]. direct_solve, the
dense solution of B_v c = f_N, has that one path; iteration_matrix and
relu_net.input_net read the same kernel. The iteration contracts with
factor beta/alpha on the admissible cone and its step count for a target
accuracy follows a closed-form ceiling rule.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .coeff import CoefficientField, _per_points
from .fem import MembershipError, _sample_coefficient, assembly
from .reduced_basis import ReducedBasis

__all__ = [
    "reduced_stiffness",
    "iteration_matrix",
    "iterate",
    "direct_solve",
    "choose_step_count",
    "reduced_energy_error",
]


def reduced_stiffness(basis: ReducedBasis, block) -> np.ndarray:
    """Read-only stack S (M, N, N), S[k] = P^T K(column k) P on the orthonormal frame P, of
    a block of sample columns (n_qp, M) at quadrature_points(basis.space), dense or sparse,
    from one product with the assembly and an Assembly.product of P per column. Cached on the
    basis per read-only block (coeff._per_points); a writable block is rebuilt."""
    if np.ndim(block) != 2:  # a sparse matrix has ndim 2 too
        raise ValueError(f"a block of sample columns has 2 dimensions, not {np.ndim(block)}")

    def build(block):
        asm, p, n = assembly(basis.space), basis.ortho, basis.size
        upper = asm.stiffness @ block
        upper = upper.toarray() if sp.issparse(upper) else upper
        if not np.all(np.isfinite(upper)):  # a block skips _sample_coefficient's check
            raise MembershipError("coefficient evaluated to non-finite values")
        stack = np.reshape([p.T @ asm.product(u[asm.mirror], p) for u in upper.T], (-1, n, n))
        stack.flags.writeable = False
        return stack

    return _per_points(basis._stacks, block, build)


def iteration_matrix(basis: ReducedBasis, v: CoefficientField | np.ndarray) -> np.ndarray:
    """A = Id - (alpha B0)^{-1} B_v, B_v the kernel of v's samples as one column whatever
    their shape; one solve with the cached Cholesky factor of basis.nominal, which raises
    IllConditionedBasisError when B0 is not positive definite."""
    (b_v,) = reduced_stiffness(basis, _sample_coefficient(basis.space, v)[:, None])
    form = basis.nominal
    return np.eye(len(form.load)) - la.cho_solve(form.chol, b_v) / basis.config.alpha


def iterate(basis: ReducedBasis, a: np.ndarray, k_steps: int) -> np.ndarray:
    """Iterates 0..k of c <- a c + g from the anchor coordinate vector e1, g the shift of
    basis.nominal: an array of shape (k + 1, N) whose row k is the k-th iterate."""
    if k_steps < 0:
        raise ValueError("k_steps must be nonnegative")
    shift = basis.nominal.shift
    c = np.zeros((k_steps + 1, len(shift)))
    c[0, 0] = 1.0
    for k in range(k_steps):
        c[k + 1] = a @ c[k] + shift
    return c


def choose_step_count(alpha: float, beta: float, f_dual_norm: float, epsilon: float) -> int:
    """Step count making the geometric iteration tail at most epsilon / 2; at least 1."""
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


def reduced_energy_error(basis: ReducedBasis, c: np.ndarray, c_ref: np.ndarray) -> float:
    """Energy-norm distance between two reduced coefficient vectors, in the B0 of basis.nominal."""
    d = np.asarray(c, dtype=float) - np.asarray(c_ref, dtype=float)
    return float(np.sqrt(max(d @ (basis.nominal.b0 @ d), 0.0)))


def direct_solve(basis: ReducedBasis, v, weights=None) -> np.ndarray:
    """Dense solutions of B_j c = f_N, (J, N) for weights (J, M) on a block v of sample
    columns: B_j = sum_k weights[j, k] S[k], S = reduced_stiffness(basis, v), by the same
    product whatever the other rows, so row j is the call with weights[j:j + 1]. Without
    weights, v is a field or its samples, solved as one column of weight 1: (N,)."""
    field = weights is None
    if field:
        v, weights = _sample_coefficient(basis.space, v)[:, None], [[1.0]]
    stack, load = reduced_stiffness(basis, v), basis.nominal.load
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2 or weights.shape[1] != len(stack):
        raise ValueError(f"weights of shape {weights.shape} for a block of {len(stack)} columns")
    flat = stack.reshape(len(stack), len(load) ** 2)  # -1 is undefined for an empty block
    b = [np.reshape(w @ flat, stack.shape[1:]) for w in weights]
    solved = np.reshape([la.solve(b_j, load, assume_a="sym") for b_j in b], (-1, len(load)))
    return solved[0] if field else solved
