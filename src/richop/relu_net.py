"""Feedforward ReLU network calculus with exact size and depth accounting.

Networks are lists of (sparse weight, bias) layers with ReLU between them.
The module provides sparse concatenation with certified depth/size bounds,
identity channels, a sawtooth product network, and the constructions that
turn the reduced fixed-point iteration into an unrolled approximator: an
exact affine net assembling the iteration matrix from encoder channels, a
tolerance-certified step net, its K-fold unrolling, and the composed
approximator with its build report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .encoder import Encoder
from .fem import (
    FemSpace,
    ProblemConfig,
    assemble_load,
    assemble_stiffness_samples,
    dual_norm,
    quadrature_points,
)
from .reduced_basis import ReducedBasis
from .richardson import choose_step_count

__all__ = [
    "NeuralNet",
    "BuildReport",
    "ApproximatorBundle",
    "realize",
    "affine_net",
    "identity_net",
    "sparse_concat",
    "product_net",
    "step_net",
    "iterator_net",
    "input_net",
    "build_approximator",
    "net_to_json",
    "net_from_json",
    "vec_index",
]


def _csr(rows, cols, vals, shape) -> sp.csr_matrix:
    vals = np.asarray(vals, dtype=float)
    keep = vals != 0.0
    m = sp.csr_matrix(
        (vals[keep], (np.asarray(rows)[keep], np.asarray(cols)[keep])), shape=shape
    )
    m.sum_duplicates()
    return m


class NeuralNet:
    """Weight/bias list; realization applies ReLU after every layer but the last."""

    def __init__(self, layers):
        self.layers = [(w.tocsr(), np.asarray(b, dtype=float)) for w, b in layers]
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
        total = 0
        for w, b in self.layers:
            total += int(np.count_nonzero(w.data)) + int(np.count_nonzero(b))
        return total


def realize(net: NeuralNet, x: np.ndarray) -> np.ndarray:
    """Exact forward evaluation of a single input (1-D) or a batch (rows).

    Activations are carried as columns, so a single input costs one sparse
    mat-vec per layer and a batch one sparse mat-mat.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != net.n_inputs:
        raise ValueError(
            f"expected input of width {net.n_inputs} with 1 or 2 dimensions, "
            f"got shape {x.shape}"
        )
    y = x.T
    last = len(net.layers) - 1
    for ell, (w, b) in enumerate(net.layers):
        y = w @ y
        y += b if x.ndim == 1 else b[:, None]
        if ell != last:
            np.maximum(y, 0.0, out=y)
    return y.T


def affine_net(weights, bias) -> NeuralNet:
    w = sp.csr_matrix(weights)
    w.eliminate_zeros()
    return NeuralNet([(w, np.asarray(bias, dtype=float))])


def identity_net(width: int, depth: int = 1) -> NeuralNet:
    """Exact identity map; uses x = relu(x) - relu(-x) channel pairs for depth > 1."""
    eye = sp.eye(width, format="csr")
    if depth == 1:
        return NeuralNet([(eye, np.zeros(width))])
    up = sp.vstack([eye, -eye]).tocsr()
    down = sp.hstack([eye, -eye]).tocsr()
    pass_through = sp.eye(2 * width, format="csr")
    layers = [(up, np.zeros(2 * width))]
    for _ in range(depth - 2):
        layers.append((pass_through, np.zeros(2 * width)))
    layers.append((down, np.zeros(width)))
    return NeuralNet(layers)


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


class _LayerBuilder:
    """Row-wise accumulator for one sparse layer."""

    def __init__(self):
        self.rows: list = []
        self.cols: list = []
        self.vals: list = []
        self.bias: list = []
        self.n_rows = 0

    def row(self, entries, bias: float = 0.0) -> int:
        idx = self.n_rows
        for col, val in entries:
            self.rows.append(idx)
            self.cols.append(col)
            self.vals.append(val)
        self.bias.append(bias)
        self.n_rows += 1
        return idx

    def build(self, n_in: int):
        w = _csr(self.rows, self.cols, self.vals, (self.n_rows, n_in))
        return w, np.asarray(self.bias, dtype=float)


def _stack_layers(builders, n_in: int) -> NeuralNet:
    """Net whose layers are the builders in order, each fed by the previous one."""
    layers = []
    for b in builders:
        layers.append(b.build(n_in))
        n_in = b.n_rows
    return NeuralNet(layers)


def _sawtooth_levels(epsilon: float, bound: float) -> int:
    # on [0, 1], f_m(t) - t^2 lies in [0, 4^-(m+1)] (Yarotsky 2017); a*b is
    # (2Z)^2 / 4 times the difference of two such squares, so the product
    # error is at most (2Z)^2 / 4 * 4^-(m+1) <= 2 Z^2 4^-(m+1) <= eps
    return max(1, math.ceil(0.5 * math.log2(2.0 * bound * bound / epsilon)) - 1)


def _emit_product(builders, col_a: int, col_b: int, bound: float, m: int):
    """Append channels approximating a*b to shared layers.

    Uses a*b = ((a+b)^2 - (a-b)^2) / 4 with each square realized by m
    sawtooth levels on [0, 1] after rescaling by the pair bound. Returns the
    output-layer entries expressing the product value. When one factor is
    zero the two squaring chains carry identical values and the output
    cancels to rounding level, but not to an exact zero: the certified
    tolerance is the only guarantee.
    """
    zp = 2.0 * bound
    b0 = builders[0]
    c = [
        b0.row([(col_a, 1.0 / zp), (col_b, 1.0 / zp)]),
        b0.row([(col_a, -1.0 / zp), (col_b, -1.0 / zp)]),
        b0.row([(col_a, 1.0 / zp), (col_b, -1.0 / zp)]),
        b0.row([(col_a, -1.0 / zp), (col_b, 1.0 / zp)]),
    ]
    chains = []
    for i0, i1 in ((0, 1), (2, 3)):
        h1 = builders[1].row([(c[i0], 1.0), (c[i1], 1.0)], bias=-0.5)
        h2 = builders[1].row([(c[i0], 1.0), (c[i1], 1.0)])
        h3 = builders[1].row([(c[i0], 1.0), (c[i1], 1.0)])
        for s in range(2, m + 1):
            f = 4.0 ** (s - 1)
            nh1 = builders[s].row([(h2, 2.0), (h1, -4.0)], bias=-0.5)
            nh2 = builders[s].row([(h2, 2.0), (h1, -4.0)])
            nh3 = builders[s].row([(h3, 1.0), (h2, -2.0 / f), (h1, 4.0 / f)])
            h1, h2, h3 = nh1, nh2, nh3
        chains.append((h1, h2, h3))
    scale = zp * zp / 4.0
    f = 4.0**m
    (h1p, h2p, h3p), (h1m, h2m, h3m) = chains
    return [
        (h3p, scale),
        (h2p, -2.0 * scale / f),
        (h1p, 4.0 * scale / f),
        (h3m, -scale),
        (h2m, 2.0 * scale / f),
        (h1m, -4.0 * scale / f),
    ]


def product_net(epsilon: float, bound: float) -> NeuralNet:
    """Two-input net with |net(x, y) - x y| <= epsilon on |x|, |y| <= bound."""
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    if bound < 1.0:
        raise ValueError("bound must be at least 1")
    m = _sawtooth_levels(epsilon, bound)
    builders = [_LayerBuilder() for _ in range(m + 1)]
    out = _LayerBuilder()
    out.row(_emit_product(builders, 0, 1, bound, m))
    return _stack_layers(builders + [out], 2)


def vec_index(i: int, j: int, n: int) -> int:
    """Column-major position of matrix entry (i, j) in the flattened input."""
    return i + n * j


def step_net(
    n: int, bound: float, epsilon: float, shift: np.ndarray, carry: bool = True
) -> NeuralNet:
    """One approximate iteration step (vec(A), x) -> (vec(A), A x + g).

    Valid for entrywise |A| <= 1 and ||x||_l2 <= bound; the per-entry product
    tolerance is epsilon / n^{3/2}, so the row sums meet the l2 budget
    epsilon. The shifted load g enters as an output-layer bias; with
    carry=True the flattened matrix rides along through identity channel
    pairs so steps can be chained, the final step drops it.
    """
    shift = np.asarray(shift, dtype=float)
    if len(shift) != n:
        raise ValueError("shift length must match the reduced dimension")
    eps_entry = epsilon / n**1.5
    zp = max(bound, 1.0)
    m = _sawtooth_levels(eps_entry, zp)
    builders = [_LayerBuilder() for _ in range(m + 1)]
    rows = []
    for i in range(n):
        entries = []
        for j in range(n):
            entries.extend(
                _emit_product(builders, vec_index(i, j, n), n * n + j, zp, m)
            )
        rows.append(entries)
    carry_pairs = []
    if carry:
        for c in range(n * n):
            rp = builders[0].row([(c, 1.0)])
            rm = builders[0].row([(c, -1.0)])
            for b in builders[1:]:
                rp_next = b.row([(rp, 1.0)])
                rm_next = b.row([(rm, 1.0)])
                rp, rm = rp_next, rm_next
            carry_pairs.append((rp, rm))
    out = _LayerBuilder()
    if carry:
        for rp, rm in carry_pairs:
            out.row([(rp, 1.0), (rm, -1.0)])
    for i, entries in enumerate(rows):
        out.row(entries, bias=float(shift[i]))
    return _stack_layers(builders + [out], n * n + n)


def iterator_net(
    n: int,
    k_steps: int,
    epsilon: float,
    shift: np.ndarray,
    contraction: float,
) -> NeuralNet:
    """K-fold unrolled iteration mapping vec(A) to the K-th iterate.

    The first layer injects the starting vector e1 exactly; each step runs
    the certified step net with tolerance (1 - contraction) * epsilon on the
    box 2 + 1/(1 - contraction), so the accumulated geometric error stays
    below epsilon.
    """
    return _unroll(n, k_steps, epsilon, shift, contraction)[0]


def _unroll(
    n: int, k_steps: int, epsilon: float, shift: np.ndarray, contraction: float
) -> tuple[NeuralNet, NeuralNet]:
    """The net of iterator_net and its final (carry-free) step net."""
    if not (0.0 <= contraction < 1.0):
        raise ValueError("contraction must lie in [0, 1)")
    eps_step = (1.0 - contraction) * epsilon
    z_tilde = 2.0 + 1.0 / (1.0 - contraction)
    last_step = step_net(n, z_tilde, eps_step, shift, carry=False)
    if k_steps == 0:
        bias = np.zeros(n)
        bias[0] = 1.0
        return affine_net(sp.csr_matrix((n, n * n)), bias), last_step
    inject_w = sp.vstack(
        [sp.eye(n * n, format="csr"), sp.csr_matrix((n, n * n))]
    ).tocsr()
    inject_b = np.zeros(n * n + n)
    inject_b[n * n] = 1.0
    inject = NeuralNet([(inject_w, inject_b)])
    carry_step = step_net(n, z_tilde, eps_step, shift, carry=True)
    net = last_step
    for _ in range(k_steps - 1):
        net = sparse_concat(net, carry_step)
    return sparse_concat(net, inject), last_step


def input_net(
    basis: ReducedBasis,
    space: FemSpace,
    config: ProblemConfig,
    encoder: Encoder,
    frame: str = "ortho",
    order: int = 4,
) -> NeuralNet:
    """Depth-one affine net: encoder channels y -> vec(Id - (alpha B0)^{-1} B_v).

    Per-channel reduced matrices use the same quadrature as assemble_reduced,
    so the realization matches direct assembly of the reconstruction up to
    solve reassociation.
    """
    p = basis.frame(frame)
    n = basis.size
    b0 = p.T @ (basis.nominal_stiffness @ p)
    chol = la.cho_factor(b0, lower=True)
    pts = quadrature_points(space, order)
    channels = encoder.channel_matrix(pts)
    cols = []
    for k in range(encoder.m):
        k_mode = assemble_stiffness_samples(space, channels[:, k], order)
        b_mode = p.T @ (k_mode @ p)
        cols.append(-la.cho_solve(chol, b_mode).flatten(order="F") / config.alpha)
    weights = np.column_stack(cols)
    bias = np.eye(n).flatten(order="F")
    return affine_net(weights, bias)


@dataclass(frozen=True)
class BuildReport:
    """Depth/size bookkeeping and certificates for a built network."""

    depth: int
    size: int
    tolerance: float
    input_bound: float
    sections: tuple
    certificates: dict = field(default_factory=dict)


@dataclass
class ApproximatorBundle:
    """Unrolled approximator with the pieces needed for recurrent evaluation."""

    net: NeuralNet
    report: BuildReport
    encoder_input: NeuralNet
    step: NeuralNet
    k_steps: int
    shift: np.ndarray
    eps_iterator: float
    eps_step: float
    contraction: float

    def realize(self, y: np.ndarray) -> np.ndarray:
        return realize(self.net, y)

    def realize_recurrent(self, y: np.ndarray) -> np.ndarray:
        """Reuse one step net K times instead of the unrolled weight list."""
        flat = realize(self.encoder_input, y)
        state = np.zeros(flat.shape[:-1] + (len(self.shift),))
        state[..., 0] = 1.0
        for _ in range(self.k_steps):
            state = realize(self.step, np.concatenate([flat, state], axis=-1))
        return state


def build_approximator(
    basis: ReducedBasis,
    space: FemSpace,
    config: ProblemConfig,
    encoder: Encoder,
    epsilon: float,
    beta_eff: float | None = None,
    frame: str = "ortho",
    order: int = 4,
    f_dual: float | None = None,
) -> ApproximatorBundle:
    """Compose the unrolled iterator with the affine input assembly.

    The step count comes from the geometric tail rule and the iterator
    tolerance from the synthesis budget (alpha - beta) eps / (2 sqrt(N+1)
    ||f||), so the synthesized output is within eps of the reduced Galerkin
    solution of the encoded coefficient, in the energy norm.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    alpha = config.alpha
    beta = config.beta if beta_eff is None else beta_eff
    if not (0.0 < beta < alpha):
        raise ValueError("effective beta must lie in (0, alpha)")
    if f_dual is None:
        f_dual = dual_norm(space, config, k0=basis.nominal_stiffness, order=order)
    n = basis.size
    k_steps = choose_step_count(alpha, beta, f_dual, epsilon)
    eps_iter = (alpha - beta) / (2.0 * math.sqrt(n) * f_dual) * epsilon
    contraction = beta / alpha
    p = basis.frame(frame)
    b0 = p.T @ (basis.nominal_stiffness @ p)
    load = p.T @ assemble_load(space, config.f, order)
    shift = la.cho_solve(la.cho_factor(b0, lower=True), load) / alpha
    iterator, step = _unroll(n, k_steps, eps_iter, shift, contraction)
    encoder_input = input_net(basis, space, config, encoder, frame, order)
    net = sparse_concat(iterator, encoder_input)
    eps_step = (1.0 - contraction) * eps_iter
    z_tilde = 2.0 + 1.0 / (1.0 - contraction)
    sections = (
        ("input_assembly", encoder_input.size),
        ("unrolled_iterator", iterator.size),
        ("splice_overhead", net.size - encoder_input.size - iterator.size),
    )
    report = BuildReport(
        depth=net.depth,
        size=net.size,
        tolerance=epsilon,
        input_bound=z_tilde,
        sections=sections,
        certificates={
            "k_steps": k_steps,
            "eps_iterator": eps_iter,
            "eps_step": eps_step,
            "contraction": contraction,
            "f_dual_norm": f_dual,
            "beta_eff": beta,
        },
    )
    return ApproximatorBundle(
        net,
        report,
        encoder_input,
        step,
        k_steps,
        shift,
        eps_iter,
        eps_step,
        contraction,
    )


def net_to_json(net: NeuralNet, report: BuildReport | None = None) -> str:
    layers = []
    last = net.depth - 1
    for ell, (w, b) in enumerate(net.layers):
        coo = w.tocoo()
        layers.append(
            {
                "shape": list(w.shape),
                "rows": coo.row.tolist(),
                "cols": coo.col.tolist(),
                "vals": coo.data.tolist(),
                "bias_rows": np.flatnonzero(b).tolist(),
                "bias_vals": b[np.flatnonzero(b)].tolist(),
                "activation": "linear" if ell == last else "relu",
            }
        )
    doc = {"layers": layers}
    if report is not None:
        doc["report"] = {
            "depth": report.depth,
            "size": report.size,
            "tolerance": report.tolerance,
            "input_bound": report.input_bound,
            "sections": [list(s) for s in report.sections],
            "certificates": report.certificates,
        }
    return json.dumps(doc)


def net_from_json(text: str):
    doc = json.loads(text)
    layers = []
    for spec in doc["layers"]:
        shape = tuple(spec["shape"])
        w = _csr(spec["rows"], spec["cols"], spec["vals"], shape)
        b = np.zeros(shape[0])
        b[np.asarray(spec["bias_rows"], dtype=int)] = spec["bias_vals"]
        layers.append((w, b))
    net = NeuralNet(layers)
    report = None
    if "report" in doc:
        r = doc["report"]
        report = BuildReport(
            depth=r["depth"],
            size=r["size"],
            tolerance=r["tolerance"],
            input_bound=r["input_bound"],
            sections=tuple(tuple(s) for s in r["sections"]),
            certificates=r["certificates"],
        )
    return net, report
