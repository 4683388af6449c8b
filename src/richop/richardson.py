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
relu_net.input_net read the same kernel. direct_solve factors each B_v by
LAPACK's symmetric-indefinite LDL^T (dsytrf, dsytrs, dsycon) called directly:
the routines scipy.linalg.solve(..., assume_a="sym") runs, with its checks and
its bits, without its per-call front end. The iteration contracts with
factor beta/alpha on the admissible cone and its step count for a target
accuracy follows a closed-form ceiling rule.
"""

from __future__ import annotations

import math
import warnings
from functools import cache

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
from scipy.linalg import lapack

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


_EPS = float(np.finfo(float).eps)  # the rcond below which a reduced solve warns


@cache  # one entry per basis size
def _sym_layout(n: int) -> tuple:
    """The read-only upper-triangle mask of an n x n matrix and dsytrf's queried workspace."""
    upper = np.triu(np.ones((n, n), dtype=bool))
    upper.flags.writeable = False
    return upper, int(lapack.dsytrf_lwork(n)[0])


def _sym_solve(b: np.ndarray, load: np.ndarray) -> np.ndarray:
    """b^-1 load read from the upper triangle of b, bit for bit la.solve(b, load,
    assume_a="sym"): dsytrf with the queried workspace, then dsytrs, and dsycon on the
    1-norm of the upper triangle mirrored; a 1 x 1 b is load / b, la.solve's scalar path.
    Its checks too: ValueError for a non-finite entry of b, LinAlgError for an exactly
    singular b, LinAlgWarning when the estimated rcond is below machine epsilon."""
    if not np.isfinite(b).all():
        raise ValueError("a reduced matrix must not contain infs or NaNs")
    n = len(load)
    if n == 1:
        if b[0, 0] == 0.0:
            raise la.LinAlgError("the 1 x 1 reduced matrix is singular")
        return load / b[0, 0]
    upper, lwork = _sym_layout(n)
    ldu, pivots, info = lapack.dsytrf(b, lwork=lwork)
    if info > 0:
        raise la.LinAlgError(f"the reduced matrix is singular: D[{info - 1}] is zero")
    solved, _ = lapack.dsytrs(ldu, pivots, load)
    rcond, _ = lapack.dsycon(ldu, pivots, lapack.dlange("1", np.where(upper, b, b.T)))
    if rcond < _EPS:
        warnings.warn(f"ill-conditioned reduced matrix: rcond = {rcond}", la.LinAlgWarning,
                      stacklevel=2)
    return solved


def direct_solve(basis: ReducedBasis, v, weights=None) -> np.ndarray:
    """Dense solutions of B_j c = f_N, (J, N) for weights (J, M) on a block v of sample
    columns: B_j = sum_k weights[j, k] S[k], S = reduced_stiffness(basis, v), by the same
    product whatever the other rows, so row j is the call with weights[j:j + 1]. Without
    weights, v is a field or its samples, solved as one column of weight 1: (N,). Each B_j
    is solved by LAPACK's LDL^T of its upper triangle, bit for bit la.solve(B_j, f_N,
    assume_a="sym"), with its errors and warnings (see _sym_solve)."""
    field = weights is None
    if field:
        v, weights = _sample_coefficient(basis.space, v)[:, None], [[1.0]]
    stack, load = reduced_stiffness(basis, v), basis.nominal.load
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2 or weights.shape[1] != len(stack):
        raise ValueError(f"weights of shape {weights.shape} for a block of {len(stack)} columns")
    flat = stack.reshape(len(stack), len(load) ** 2)  # -1 is undefined for an empty block
    b = [np.reshape(w @ flat, stack.shape[1:]) for w in weights]
    solved = np.reshape([_sym_solve(b_j, load) for b_j in b], (-1, len(load)))
    return solved[0] if field else solved
