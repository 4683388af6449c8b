"""Feedforward ReLU network calculus with exact size and depth accounting.

Networks are lists of (sparse weight, bias) layers with ReLU between them.
The module provides sparse concatenation with certified depth/size bounds
and the recurrent approximator of the reduced fixed-point iteration: an
exact affine input net assembling the iteration matrix from encoder
channels, and one tolerance-certified step net, n^2 copies of a sawtooth
product gadget whose CSR arrays step_net writes in closed form from index
arithmetic (no kron or block_diag), that evaluation runs K times. The unrolled
network (input net, then K spliced steps) computes the same function; it is
built only when read, and its depth and size are counted from the parts
without building it.

Weights are float64 CSR. realize runs each layer through the kernel that
scipy's `w @ y` dispatches to (`_sparsetools.csr_matvec`, `csr_matvecs`),
without the dispatch, on a kernel form of the net built on first use: every
nonzero bias b_i is appended as the last stored entry of row i, at one extra
input column that reads a constant 1, and every layer but the last gets one
extra row that carries the 1 through its ReLU. The input gets the 1
appended, and each layer is the kernel call into a zeroed output and an
in-place ReLU. This is bit-identical to `w @ y` followed by `+= b`:
- the kernel sums each row from the output's initial +0 over the row's
  stored entries in order, so appending b_i * 1 as the last term gives
  exactly (sum) + b_i;
- a sum that starts at +0 is never -0, so a row with b_i = 0 (of either
  sign) needs no entry: sum + 0.0 is bitwise the sum.

realize gives each layer a fresh np.zeros output. The recurrent
ApproximatorBundle.realize allocates one zeroed workspace per call instead:
the input net's input [y, 1] and hidden layers, the step's column block
[vec(A), x, 1], into which the input net's last layer writes vec(A) in
place, and every step-net layer's output, back to back. Each step zeroes
the step-net region once, writes each layer into its slice, and copies the
last one into the x rows. Each output still starts from +0, so the result
is bit for bit the same.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .encoder import Encoder
from .fem import FemSpace, ProblemConfig, _csr_kernel, quadrature_points
from .reduced_basis import ReducedBasis
from .richardson import choose_step_count, reduced_stiffness

__all__ = [
    "NeuralNet",
    "BuildReport",
    "ApproximatorBundle",
    "realize",
    "affine_net",
    "sparse_concat",
    "step_net",
    "input_net",
    "interval_entry_bounds",
    "certified_approximator",
    "build_approximator",
    "vec_index",
]


class NeuralNet:
    """Weight/bias list; realization applies ReLU after every layer but the last."""

    def __init__(self, layers):
        self.layers = [
            (w.tocsr().astype(np.float64, copy=False), np.asarray(b, dtype=float))
            for w, b in layers
        ]
        if not self.layers:
            raise ValueError("a network needs at least one layer")
        widths = [self.layers[0][0].shape[1]]
        for w, b in self.layers:
            if w.shape[1] != widths[-1]:
                raise ValueError("inconsistent layer widths")
            if w.shape[0] != len(b):
                raise ValueError("bias length does not match layer output")
            widths.append(w.shape[0])
        self.widths = widths

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def n_inputs(self) -> int:
        return self.widths[0]

    @property
    def n_outputs(self) -> int:
        return self.widths[-1]

    @property
    def size(self) -> int:
        return sum(w + b for w, b in _layer_counts(self))

    @cached_property
    def _kernel(self) -> list:
        """(rows, cols, indptr, indices, data) of each layer in kernel form.

        Row i is w's row i followed by (cols - 1, b_i) when b_i != 0; every
        layer but the last has one more row, (cols - 1, 1.0), so that its
        output ends in the 1 the next layer's bias column reads.
        """
        last = len(self.layers) - 1
        return [_bias_folded(w, b, carry=ell != last) for ell, (w, b) in enumerate(self.layers)]


def _bias_folded(w: sp.csr_matrix, b: np.ndarray, carry: bool) -> tuple:
    """Kernel arrays of [w b] (of [w b; 0 1] when carry) for an input ending in 1."""
    indptr, one = w.indptr, w.shape[1]
    if carry:  # one more row, empty, whose bias 1 carries the constant
        indptr, b = np.append(indptr, indptr[-1]), np.append(b, 1.0)
    has = b != 0.0
    folded = np.zeros_like(indptr)
    np.cumsum(np.diff(indptr) + has, out=folded[1:])
    tail = folded[1:][has] - 1  # the last slot of each row with a bias
    kept = np.ones(folded[-1], dtype=bool)
    kept[tail] = False
    indices = np.full(folded[-1], one, dtype=w.indices.dtype)
    indices[kept] = w.indices
    data = np.empty(folded[-1])
    data[kept] = w.data
    data[tail] = b[has]
    return len(b), one + 1, folded, indices, data


def _checked(net: NeuralNet, x) -> np.ndarray:
    """x as float, after checking it is one input (1-D) or a batch (rows) of net's width."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != net.n_inputs:
        raise ValueError(
            f"expected input of width {net.n_inputs} with 1 or 2 dimensions, "
            f"got shape {x.shape}"
        )
    return x


def _forward(net: NeuralNet, y: np.ndarray, outs) -> np.ndarray:
    """net's output columns for input columns y whose last row is all ones.

    Layer ell writes into the ell-th of outs, which must be zeroed and
    C-ordered, (rows,) or (rows, batch) as y is; the last one is returned.
    outs is drawn with next rather than zipped: zip's cached result tuple
    would keep the first output alive to the end.
    """
    last, outs, matvec = len(net.layers) - 1, iter(outs), _csr_kernel(y.ndim)
    for ell, (rows, cols, indptr, indices, data) in enumerate(net._kernel):
        out = next(outs)
        matvec(rows, cols, indptr, indices, data, y, out)
        if ell != last:
            np.maximum(out, 0.0, out=out)
        y = out
    return y


def realize(net: NeuralNet, x: np.ndarray) -> np.ndarray:
    """Exact forward evaluation of a single input (1-D) or a batch (rows).

    Activations are carried as columns: a vector for a single input, a
    C-ordered (width + 1, batch) block for a batch, whose last row is the
    constant 1 that the kernel form's bias column reads. Each layer is one
    csr_matvec or csr_matvecs call on the kernel form into a fresh np.zeros
    output, allocated as the layer is reached, and an in-place ReLU.
    The kernel sums each output from +0 over the row's stored entries in
    order and the bias is the last of them, so the result is bit-identical
    to `w @ y` followed by `+= b` (see the module docstring). The result is
    a fresh array.
    """
    x = _checked(net, x)
    y = np.ones((net.n_inputs + 1,) + x.shape[:-1])
    y[:-1] = x.T
    outs = (np.zeros((layer[0],) + x.shape[:-1]) for layer in net._kernel)
    return _forward(net, y, outs).T


def _index_dtype(count: int):
    """The CSR index dtype scipy picks for arrays of up to count entries: int32 while it fits."""
    return np.int32 if count <= np.iinfo(np.int32).max else np.int64


def affine_net(weights, bias) -> NeuralNet:
    """The depth-one net x -> W x + b: W is the CSR of the nonzeros of weights, all read off
    one weights != 0 mask of the dense block (a sparse argument is densified first)."""
    w = np.asarray(weights.toarray() if sp.issparse(weights) else weights, dtype=float)
    nonzero, idx = w != 0.0, _index_dtype(w.size)
    indptr = np.zeros(len(w) + 1, dtype=idx)
    np.cumsum(np.count_nonzero(nonzero, axis=1), out=indptr[1:])
    csr = (w[nonzero], np.nonzero(nonzero)[1].astype(idx), indptr)
    return NeuralNet([(sp.csr_matrix(csr, shape=w.shape), np.asarray(bias, dtype=float))])


def sparse_concat(outer: NeuralNet, inner: NeuralNet) -> NeuralNet:
    """Composition net with realize(result) = realize(outer) o realize(inner).

    The interface splices the inner output through relu(+-y) pairs, so the
    result is exact up to floating-point reassociation, with
    depth = depth(outer) + depth(inner) and
    size <= 2 size(outer) + 2 size(inner).
    """
    if outer.n_inputs != inner.n_outputs:
        raise ValueError("outer input width must equal inner output width")
    w2, b2 = inner.layers[-1]
    w1, b1 = outer.layers[0]
    splice_in = (sp.vstack([w2, -w2]).tocsr(), np.concatenate([b2, -b2]))
    splice_out = (sp.hstack([w1, -w1]).tocsr(), b1.copy())
    return NeuralNet(inner.layers[:-1] + [splice_in, splice_out] + outer.layers[1:])


def _layer_counts(net: NeuralNet) -> list:
    """Nonzero weights and biases of each layer; net.size is their total."""
    return [(int(np.count_nonzero(w.data)), int(np.count_nonzero(b))) for w, b in net.layers]


def _concat_counts(outer: list, inner: list) -> list:
    """The layer counts of sparse_concat(outer, inner), from those of its parts."""
    (w2, b2), (w1, b1) = inner[-1], outer[0]
    return inner[:-1] + [(2 * w2, 2 * b2), (2 * w1, b1)] + outer[1:]


def _sawtooth_levels(epsilon: float, bound_a: float, bound_b: float) -> int:
    # on [0, 1], f_m(t) - t^2 lies in [0, 4^-(m+1)] (Yarotsky 2017); a*b is
    # Z_a Z_b times the difference of two such squares, so the product error
    # is at most Z_a Z_b 4^-(m+1) <= 2 Z_a Z_b 4^-(m+1) <= eps
    return max(1, math.ceil(0.5 * math.log2(2.0 * bound_a * bound_b / epsilon)) - 1)


# the product gadget u*v = ((u+v)/2)^2 - ((u-v)/2)^2 on |u|, |v| <= 1: a 4x2 split into
# relu(+-(u+v)/2) and relu(+-(u-v)/2), then m sawtooth levels of two 3-row chains (h1, h2, h3,
# h1 offset by -1/2), one per square; each level's (row entry counts, columns, width)
_SPLIT = np.array([[0.5, 0.5], [-0.5, -0.5], [0.5, -0.5], [-0.5, 0.5]])
_LEVEL_ONE = ([2] * 6, [0, 1, 0, 1, 0, 1, 2, 3, 2, 3, 2, 3], 4)
_LEVEL = ([2, 2, 3] * 2, [0, 1, 0, 1, 0, 1, 2, 3, 4, 3, 4, 3, 4, 5], 6)
_CHAIN_BIAS = [-0.5, 0.0, 0.0, -0.5, 0.0, 0.0]


def _diagonal(k: int, pattern: tuple, idx) -> tuple:
    """CSR indices and indptr of kron(I_k, W), W given as a level pattern such as _LEVEL."""
    lengths, cols, width = pattern
    indptr = np.zeros(k * len(lengths) + 1, dtype=idx)
    np.cumsum(np.tile(lengths, k), out=indptr[1:])
    indices = np.asarray(cols, dtype=idx) + np.arange(0, k * width, width, dtype=idx)[:, None]
    return indices.ravel(), indptr


def vec_index(i, j, n: int):
    """Column-major position of matrix entry (i, j) in the flattened input; i, j may be arrays."""
    return i + n * j


def step_net(
    n: int,
    bound: float,
    epsilon: float,
    shift: np.ndarray,
    matrix_bound: np.ndarray,
) -> NeuralNet:
    """One approximate iteration step (vec(A), x) -> A x + g.

    Certified for inputs with every |A_ij| <= Z_ij and every |x_j| <= bound
    (which ||x||_l2 <= bound implies), and for no others. matrix_bound is Z,
    the (n, n) array of per-entry bounds; any other shape, a scalar
    included, raises ValueError. Entries below eps max Z (eps the float64
    machine epsilon) are raised to that floor, as the split layer divides by
    them; a larger bound is still a bound.

    The net is n^2 copies of one product gadget side by side, copy i n + j
    computing A_ij x_j: a gather feeds (A_ij / Z_ij, x_j / bound) into the
    copies' 4x2 split, every hidden gadget layer W becomes
    kron(I_{n^2}, W), and the output kron(I_n, [w_out ... w_out]) weighs
    copy i n + j by Z_ij bound, sums each row's n products and adds the
    shifted load g as its bias. Copy i n + j errs by at most
    2 Z_ij bound 4^-(m+1), so row i errs by at most
    2 bound 4^-(m+1) sum_j Z_ij, and m is the fewest levels with
    2 bound 4^-(m+1) ||(sum_j Z_ij)_i||_2 <= epsilon: the error stays within
    epsilon in l2. For a constant Z this is the per-entry tolerance
    epsilon / n^{3/2} on |A_ij| <= Z. When one factor is zero the two chains
    carry identical values and the output cancels to rounding level, but not
    to an exact zero: the certified tolerance is the only guarantee.

    Each layer's CSR arrays come from index arithmetic, with the index dtype
    and sorted rows scipy would give: row 4p + r of the first layer, copy
    p = i n + j, holds split row r times (1 / Z_ij, 1 / bound) at columns
    (vec_index(i, j), n^2 + j); levels 1 and 2..m tile one per-copy pattern
    each over the n^2 copies; output row i holds w_out Z_ij bound, j < n.
    """
    shift = np.array(shift, dtype=float)
    if len(shift) != n:
        raise ValueError("shift length must match the reduced dimension")
    if not (math.isfinite(bound) and bound > 0.0):
        raise ValueError(f"bound must be finite and positive, got {bound!r}")
    z = np.asarray(matrix_bound, dtype=float)
    if z.shape != (n, n):
        raise ValueError(f"matrix_bound must be an ({n}, {n}) array, not {z.shape}")
    if not (np.all(np.isfinite(z)) and np.all(z >= 0.0) and np.max(z) > 0.0):
        raise ValueError(
            f"matrix_bound must be finite, nonnegative and not all zero, got {matrix_bound!r}"
        )
    z = np.maximum(z, np.finfo(float).eps * np.max(z))
    m = _sawtooth_levels(epsilon, float(np.linalg.norm(z.sum(axis=1))), bound)
    k, idx = n * n, _index_dtype(14 * n * n)  # 14 n^2: the most entries of any layer
    i, j = np.divmod(np.arange(k, dtype=idx), n)
    gather = np.repeat(np.column_stack([vec_index(i, j, n), k + j]), 4, axis=0).ravel()
    scale = np.column_stack([1.0 / z.ravel(), np.full(k, 1.0 / bound)])[:, None, :]
    csrs = [((_SPLIT * scale).ravel(), gather, np.arange(0, 8 * k + 1, 2, dtype=idx))]
    csrs.append((np.ones(12 * k), *_diagonal(k, _LEVEL_ONE, idx)))
    pattern = _diagonal(k, _LEVEL, idx)  # shared by levels 2..m
    for s in range(2, m + 1):
        f = 4.0 ** (s - 1)
        csrs.append((np.tile([-4.0, 2.0, -4.0, 2.0, 4.0 / f, -2.0 / f, 1.0] * 2, k), *pattern))
    f = 4.0**m
    w_out = np.array([4.0 / f, -2.0 / f, 1.0, -4.0 / f, 2.0 / f, -1.0])
    csrs.append((((z * bound)[:, :, None] * w_out).ravel(), np.arange(6 * k, dtype=idx),
                 np.arange(0, 6 * k + 1, 6 * n, dtype=idx)))
    widths = [k + n, 4 * k] + [6 * k] * m
    biases = [np.zeros(4 * k)] + [np.tile(_CHAIN_BIAS, k) for _ in range(m)] + [shift]
    return NeuralNet([(sp.csr_matrix(csr, shape=(len(csr[2]) - 1, width)), b)
                      for csr, width, b in zip(csrs, widths, biases)])


def _carrying(step: NeuralNet) -> NeuralNet:
    """The step with its matrix input carried: (vec(A), x) -> (vec(A), step(vec(A), x)).

    Each entry a of vec(A) rides along as the pair relu(a), relu(-a): the
    pairs are stacked under the first layer, pass every hidden layer through
    an identity block, and leave as a = relu(a) - relu(-a) in output rows
    above the step's own. This adds 2 n^2 unit weights and no bias to every
    layer.
    """
    n_mat = step.n_inputs - step.n_outputs
    pair = np.array([[1.0], [-1.0]])
    carried = sp.identity(2 * n_mat)
    zeros = np.zeros(2 * n_mat)
    (w0, b0), *hidden, (w_out, b_out) = step.layers
    first = sp.vstack([w0, sp.kron(sp.eye(n_mat, step.n_inputs), pair)])
    layers = [(first, np.concatenate([b0, zeros]))]
    layers += [(sp.block_diag([w, carried]), np.concatenate([b, zeros])) for w, b in hidden]
    out = sp.bmat([[None, sp.kron(sp.identity(n_mat), pair.T)], [w_out, None]])
    layers.append((out, np.concatenate([np.zeros(n_mat), b_out])))
    return NeuralNet(layers)  # tocsr sums duplicates and sorts each row; no weight is zero


def _entry_net(n: int) -> NeuralNet:
    """The affine injection vec(A) -> (vec(A), e1) that the first step reads: n * n unit
    weights and one unit bias, the layer counts certified_approximator states."""
    inject_w = sp.vstack([sp.eye(n * n), sp.csr_matrix((n, n * n))])
    inject_b = np.zeros(n * n + n)
    inject_b[n * n] = 1.0
    return affine_net(inject_w, inject_b)


def _unroll(encoder_input, step, carry, k_steps: int, inject, concat):
    """The input net, the (vec(A), e1) injection, carry K - 1 times, then step (K >= 1),
    spliced by concat: nets with sparse_concat, their layer counts with _concat_counts."""
    iterator = step
    for _ in range(k_steps - 1):
        iterator = concat(iterator, carry)
    return concat(concat(iterator, inject), encoder_input)


def input_net(basis: ReducedBasis, encoder: Encoder) -> NeuralNet:
    """Depth-one affine net: encoder channels y -> vec(Id - (alpha B0)^{-1} B_v).

    Column k is -(alpha B0)^{-1} B_k in F order: B_k is slice k of
    richardson.reduced_stiffness of the encoder's cached channel matrix at the
    quadrature points, the stack that the basis caches and that
    richardson.direct_solve reads for the reconstructions; solved with basis.nominal's
    factor, so it matches richardson.iteration_matrix of the reconstruction up to solve
    reassociation. All M N right-hand sides go to one solve, columns
    k N ... k N + N - 1 holding B_k.
    """
    chol, alpha, n = basis.nominal.chol, basis.config.alpha, basis.size
    modes = reduced_stiffness(basis, encoder.channel_matrix(quadrature_points(basis.space)))
    rhs = modes.transpose(1, 0, 2).reshape(n, len(modes) * n)
    solved = la.cho_solve(chol, rhs, check_finite=False)
    # row k of solved^T reshaped to (M, N^2) is the F-order flattening of solved block k
    weights = -solved.T.reshape(len(modes), n * n).T / alpha
    return affine_net(weights, np.eye(n).flatten(order="F"))


def interval_entry_bounds(encoder_input: NeuralNet, alpha: float, beta: float) -> np.ndarray:
    """Z_ij = max |vec(A)_ij| over channels y in [alpha - beta, alpha + beta]^M, in vec order.

    Interval bound propagation through the depth-one affine input net
    vec(A) = W y + b (Gowal et al. 2018): the box centre alpha 1 maps to
    W alpha 1 + b and the radius adds beta sum_k |W_ij,k|, so
    Z_ij = |(W alpha 1 + b)_ij| + beta sum_k |W_ij,k|, attained at a vertex
    of the box.
    """
    if encoder_input.depth != 1:
        raise ValueError("the interval bound needs a depth-one affine input net")
    w, b = encoder_input.layers[0]
    ones = np.ones(w.shape[1])
    center = w @ (alpha * ones) + b
    return np.abs(center) + beta * (abs(w) @ ones)


@dataclass(frozen=True, kw_only=True)
class BuildReport:
    """The certificate chain of a built network; certified_approximator is its one constructor."""

    depth: int  # depth and size count the unrolled net
    size: int
    tolerance: float  # epsilon
    input_bound: float  # the iterate box Z~
    alpha: float
    beta_eff: float
    f_dual_norm: float
    k_steps: int
    eps_iterator: float
    eps_step: float
    contraction: float
    matrix_bound: float  # Z_A = max_ij Z_ij


@dataclass
class ApproximatorBundle:
    """Recurrent approximator: the input net once, then the step net K times.

    The step net is carry-free: each step gets the input net's output again.
    K, eps_iterator and eps_step read the report, the chain's one record. It
    counts the equivalent unrolled net, which net builds on first read (sparse
    concatenation of the input net, an e1 injection, K - 1 carrying steps and
    this step) for accounting and tests. The carrying step is this step with
    vec(A) carried through identity channels (_carrying).
    """

    encoder_input: NeuralNet
    step: NeuralNet
    report: BuildReport

    @property
    def k_steps(self) -> int:
        return self.report.k_steps

    @property
    def eps_iterator(self) -> float:
        return self.report.eps_iterator

    @property
    def eps_step(self) -> float:
        return self.report.eps_step

    def realize(self, y: np.ndarray) -> np.ndarray:
        """Iterate from e1: x <- step(vec(A), x) with vec(A) the input net's output.

        One np.zeros workspace per call holds, back to back: the input
        net's input [y, 1] and hidden-layer outputs; the step's column block
        [vec(A), x, 1], whose vec(A) rows the input net's last layer writes
        in place; and each step-net layer's output. Each step zeroes the
        step-net region once, runs every layer into its own slice and copies
        the last into the x rows. Nothing is kept between calls, and the
        result is a fresh array. Equal bit for bit to realize(self.net, y):
        every output starts from +0 as with np.zeros, and every first-layer
        row of the step net has at most two terms, so its splice sums the
        same ones.
        """
        y = _checked(self.encoder_input, y)
        if y.shape[:-1] == (1,):  # one row runs as the single input: csr_matvec, bit for bit
            return self.realize(y[0])[None]
        inputs, step, depth = self.encoder_input, self.step, self.encoder_input.depth
        sizes = [inputs.n_inputs + 1] + [layer[0] for layer in inputs._kernel[:-1]]
        sizes += [step.n_inputs + 1] + [layer[0] for layer in step._kernel]
        ends = list(itertools.accumulate(sizes))
        work = np.zeros((ends[-1],) + y.shape[:-1])
        regions = [work[a:b] for a, b in zip([0] + ends, ends)]
        source, hidden = regions[0], regions[1:depth]
        columns, layers = regions[depth], regions[depth + 1:]
        source[:-1] = y.T
        source[-1] = 1.0
        _forward(inputs, source, hidden + [columns[:inputs.n_outputs]])
        columns[-1] = 1.0
        state = columns[inputs.n_outputs:-1]
        state[0] = 1.0
        for _ in range(self.k_steps):
            work[ends[depth]:].fill(0.0)
            state[...] = _forward(step, columns, layers)
        return state.copy().T

    @cached_property
    def net(self) -> NeuralNet:
        """The unrolled net of the same function."""
        carry, inject = _carrying(self.step), _entry_net(self.step.n_outputs)
        return _unroll(self.encoder_input, self.step, carry, self.k_steps, inject, sparse_concat)


def certified_approximator(
    encoder_input: NeuralNet, shift: np.ndarray,
    alpha: float, beta_eff: float, f_dual_norm: float, epsilon: float,
) -> ApproximatorBundle:
    """The certificate chain: K, the budgets, the matrix box, the step net and the report.

    All follow from the depth-one input net, the shift g (a finite vector of length
    n, else ValueError before anything is built), alpha, beta_eff, the dual norm
    ||f|| and epsilon; build and load both call this, and it is the one place a
    BuildReport is made. A non-finite alpha or ||f|| raises ValueError naming it. The
    step count comes from the geometric tail rule and the iterator tolerance from the
    synthesis budget (alpha - beta_eff) eps / (2 sqrt(n) ||f||), so the synthesized
    output is within eps of the reduced Galerkin solution of the encoded coefficient,
    in the energy norm. Each step has tolerance (1 - contraction)
    eps_iterator on the box |A_ij| <= Z_ij,
    |x_j| <= Z~ = 2 + max(1, ||g||_2)/(1 - contraction), which bounds the
    iterates whether or not the source is normalized, so the accumulated
    geometric error stays below eps_iterator. The per-entry bounds Z_ij are
    interval_entry_bounds of the input net over the channel box
    [alpha - beta_eff, alpha + beta_eff]^M; step_net sizes each product
    gadget to its entry and the sawtooth levels to the row sums of Z. Their
    maximum Z_A is the report's matrix_bound.
    """
    for name, value in (("alpha", alpha), ("f_dual_norm", f_dual_norm)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    if not (0.0 < beta_eff < alpha):
        raise ValueError("effective beta must lie in (0, alpha)")
    if np.ndim(shift) != 1 or not np.all(np.isfinite(shift)):
        raise ValueError(f"the shift must be a finite 1-D vector, got {np.asarray(shift)!r}")
    n = len(shift)
    if encoder_input.n_outputs != n * n:
        raise ValueError(
            f"the input net gives {encoder_input.n_outputs} matrix entries, "
            f"but a shift of length {n} needs {n * n}"
        )
    k_steps = choose_step_count(alpha, beta_eff, f_dual_norm, epsilon)
    eps_iter = (alpha - beta_eff) / (2.0 * math.sqrt(n) * f_dual_norm) * epsilon
    contraction = beta_eff / alpha
    eps_step = (1.0 - contraction) * eps_iter
    z_tilde = 2.0 + max(1.0, float(np.linalg.norm(shift))) / (1.0 - contraction)
    z = interval_entry_bounds(encoder_input, alpha, beta_eff)
    step = step_net(n, z_tilde, eps_step, shift, matrix_bound=z.reshape(n, n, order="F"))
    step_counts = _layer_counts(step)
    carry_counts = [(w + 2 * n * n, b) for w, b in step_counts]
    inject_counts = [(n * n, 1)]  # _layer_counts(_entry_net(n)), without building it
    input_counts = _layer_counts(encoder_input)
    net = _unroll(input_counts, step_counts, carry_counts, k_steps, inject_counts, _concat_counts)
    report = BuildReport(
        depth=len(net), size=sum(map(sum, net)), tolerance=epsilon, input_bound=z_tilde,
        alpha=alpha, beta_eff=beta_eff, f_dual_norm=f_dual_norm, k_steps=k_steps,
        eps_iterator=eps_iter, eps_step=eps_step, contraction=contraction,
        matrix_bound=float(np.max(z)),
    )
    return ApproximatorBundle(encoder_input, step, report)


def build_approximator(
    basis: ReducedBasis,
    space: FemSpace,
    config: ProblemConfig,
    encoder: Encoder,
    epsilon: float,
    beta_eff: float | None = None,
) -> ApproximatorBundle:
    """certified_approximator on input_net(basis, encoder) and the basis's nominal form.

    space and config must be the basis's own (basis.space, basis.config),
    or ValueError is raised: alpha and beta are read from config, the shift
    and the dual norm ||f|| from basis.nominal.

    The certificate holds exactly for encodings y whose reconstruction lies
    in the band alpha +- beta_eff: the iteration then contracts by
    beta_eff / alpha, its iterates stay in ||x|| <= Z~, and y, being point
    values of the reconstruction, lies in the channel box.
    """
    if space is not basis.space or config != basis.config:
        raise ValueError("space and config must be the basis's own")
    beta = config.beta if beta_eff is None else beta_eff
    nominal = basis.nominal
    return certified_approximator(
        input_net(basis, encoder), nominal.shift, config.alpha, beta, nominal.f_dual, epsilon
    )

