"""Full neural operator: encoder, recurrent approximator, exact synthesis.

The decoder is exact linear synthesis in the FEM space, so the decoder term
of the error decomposition is identically zero. The decomposition measures
the reduced-basis truncation, the encoder perturbation propagated through
the reduced Galerkin map, and the approximator network error, each
independently, and checks the triangle inequality against the total.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .coeff import CoefficientField, DataFamily
from .encoder import (
    Encoder,
    encoder_from_json,
    encoder_to_json,
    reconstruction_envelope,
)
from .fem import (
    FemSpace,
    ProblemConfig,
    energy_norm,
    galerkin_solve,
    quadrature_points,
)
from .mesh import Mesh, MeshError, _build_mesh, _mesh_arrays
from .reduced_basis import ReducedBasis, generate_snapshots, weak_greedy
from .relu_net import (
    ApproximatorBundle,
    NeuralNet,
    affine_net,
    build_approximator,
    certified_approximator,
    sparse_concat,
)
from .richardson import direct_solve

__all__ = [
    "NeuralOperator",
    "ErrorReport",
    "OperatorBuildError",
    "effective_beta",
    "build_operator",
    "evaluate",
    "network_solutions",
    "error_decomposition",
    "nonsmooth_operator",
    "save_bundle",
    "load_bundle",
]


BUNDLE_FORMAT = 8  # written to certificates.json; load_bundle accepts only this
BAND_TOL = 1e-9  # how far beta_tilde may exceed beta, in effective_beta and load_bundle


class OperatorBuildError(ValueError):
    """The inputs admit no certified operator: the encoded reconstructions
    left the admissible cone, or the basis size exceeds the training count."""


@dataclass
class NeuralOperator:
    """Composed operator G = R o A o E: a -> synthesis @ approximator.realize(encoder.encode(a)).

    build_operator gives it its reduced basis; load_bundle rebuilds one without a basis, whose
    evaluate and certificates are those of the built operator, but which network_solutions,
    error_decomposition and save_bundle refuse with ValueError: they need the basis's space,
    config or nominal form.
    """

    frame = "ortho"  # a class constant, not a field; only bench/run.py:243 reads it (ROADMAP 1a)
    encoder: Encoder
    approximator: ApproximatorBundle
    synthesis: np.ndarray  # the linear decoder R: the ortho frame, (n_free, N + 1)
    beta_tilde: float  # effective_beta's envelope; approximator.report holds the rest of the chain
    basis: ReducedBasis | None = None  # its space and config are the operator's

    def evaluate(self, a: CoefficientField) -> np.ndarray:
        """Apply the operator: encode, run the recurrent approximator, synthesize."""
        return self.synthesis @ self.approximator.realize(self.encoder.encode(a))

    @property
    def certificates(self) -> dict:
        """A new dict of the chain in certificates.json's key order (save_bundle appends two).

        beta reads the report's beta_eff, which is config.beta on every operator: build_operator
        passes build_approximator no beta_eff, and load_bundle refuses a bundle whose beta and
        beta_eff differ.
        """
        rep = self.approximator.report
        fields = ("k_steps", "eps_iterator", "eps_step", "contraction", "f_dual_norm",
                  "matrix_bound")
        return {"epsilon": rep.tolerance, "beta_tilde": self.beta_tilde, "beta_eff": rep.beta_eff,
                "alpha": rep.alpha, "beta": rep.beta_eff, "n_basis": self.synthesis.shape[1] - 1,
                "m_channels": self.encoder.m, **{key: getattr(rep, key) for key in fields}}

    @property
    def quadrature_channels(self) -> sp.csr_matrix:
        """The encoder's cached channel matrix at quadrature_points(space): encoding to samples."""
        space = _basis(self, "quadrature_channels").space
        return self.encoder.channel_matrix(quadrature_points(space))


def _basis(op: NeuralOperator, task: str) -> ReducedBasis:
    """op.basis; ValueError naming task for a loaded operator, which has none."""
    if op.basis is None:
        raise ValueError(f"{task} needs the operator's reduced basis; a loaded operator has none")
    return op.basis


@dataclass
class ErrorReport:
    """Per-coefficient energy errors and the three decomposition terms."""

    totals: list = field(default_factory=list)
    reduced_truncation: list = field(default_factory=list)
    encoder_perturbation: list = field(default_factory=list)
    network: list = field(default_factory=list)

    def rows(self):
        return list(
            zip(
                self.totals,
                self.reduced_truncation,
                self.encoder_perturbation,
                self.network,
            )
        )


def effective_beta(encoder: Encoder, config: ProblemConfig, coefficients) -> float:
    """Envelope beta_tilde of the encoded reconstructions, checked against the band.

    beta_tilde is the Bernstein bound of reconstruction_envelope, an upper
    bound of the envelope over the whole domain (exact for P1). Aborts
    when it reaches alpha, since the reduced iteration then has no
    contraction guarantee, and when it exceeds the configured beta by more
    than BAND_TOL: the certificate holds in the band alpha +- beta only.
    """
    values = np.stack([encoder.encode(a) for a in coefficients])
    beta_tilde = reconstruction_envelope(encoder, values, config.alpha)
    if beta_tilde >= config.alpha:
        raise OperatorBuildError(
            f"encoded reconstructions have envelope beta_tilde={beta_tilde:.6g} "
            f">= alpha={config.alpha:.6g}; refine the encoder"
        )
    if beta_tilde > config.beta + BAND_TOL:
        raise OperatorBuildError(
            f"encoded reconstructions have envelope beta_tilde={beta_tilde:.6g} "
            f"> beta={config.beta:.6g}; refine the encoder or raise beta"
        )
    return beta_tilde


def build_operator(
    family: DataFamily,
    config: ProblemConfig,
    space: FemSpace,
    training_count: int,
    n_basis: int,
    encoder: Encoder,
    epsilon: float,
    seed: int,
    gamma: float = 1.0,
    beta_mode: str = "paper",
) -> NeuralOperator:
    """Snapshots, weak greedy, network assembly, certificate recording.

    The network is certified in the configured band alpha +- beta, which effective_beta
    checks the encoded training reconstructions against; it may abort the build. beta_mode
    must be "paper", the only mode, or ValueError is raised.
    """
    if beta_mode != "paper":
        raise ValueError(f"beta_mode must be 'paper', got {beta_mode!r}")
    if n_basis > training_count:
        raise OperatorBuildError("basis size cannot exceed the training count")
    snapshots = generate_snapshots(family, training_count, seed, space, config)
    basis, _ = weak_greedy(snapshots, n_basis, gamma)
    beta_tilde = effective_beta(encoder, config, snapshots.coefficients)
    approximator = build_approximator(basis, space, config, encoder, epsilon)
    return NeuralOperator(encoder, approximator, basis.ortho, beta_tilde, basis)


evaluate = NeuralOperator.evaluate  # evaluate(op, a) is op.evaluate(a), for built and loaded ops


def _reduced_solutions(op: NeuralOperator, block, weights) -> list:
    """Synthesized dense reduced Galerkin solution of each weighted sum of the block's columns."""
    return [op.synthesis @ c for c in direct_solve(op.basis, block, weights)]


def network_solutions(op: NeuralOperator, coefficients) -> tuple[list, list]:
    """Per coefficient, encoded once: the reduced Galerkin solution of its encoded reconstruction
    (channel weights y on op.quadrature_channels; no network) and the operator's output. The
    encodings go as one block to one direct_solve and one ApproximatorBundle.realize, whose
    rows equal evaluate's single calls bit for bit. ValueError for a loaded operator."""
    _basis(op, "network_solutions")
    ys = np.reshape([op.encoder.encode(a) for a in coefficients], (-1, op.encoder.m))
    recon = _reduced_solutions(op, op.quadrature_channels, ys)
    return recon, [op.synthesis @ c for c in op.approximator.realize(ys)]


def error_decomposition(op: NeuralOperator, test_coefficients) -> ErrorReport:
    """Measure the truncation, encoder, and network error terms independently.

    Terms: (I) fine solution vs dense reduced solve, (II) reduced solves of
    the coefficient and of its reconstruction, (III) reduced solve of the
    reconstruction vs the synthesized network output. A family member with
    a point table (coeff meta "table" and "weights") is reduced as its
    weights on the table at the quadrature points; any other field as its
    samples, one column of weight 1. Both are richardson.direct_solve calls, and the
    fine solve starts from that u_N; network_solutions gives the rest. ValueError for a
    loaded operator.
    """
    basis = _basis(op, "error_decomposition")
    space, config, points = basis.space, basis.config, quadrature_points(basis.space)
    coefficients = list(test_coefficients)
    report = ErrorReport()
    for a, u_recon, u_net in zip(coefficients, *network_solutions(op, coefficients)):
        s = a(points)
        table = a.meta.get("table") if a.kind == "affine" else None
        block, weights = (s[:, None], [[1.0]]) if table is None else (table(points), [a.meta["weights"]])
        (u_reduced,) = _reduced_solutions(op, block, weights)
        u_fine = galerkin_solve(space, config, s, start=u_reduced)
        report.totals.append(energy_norm(space, config, u_fine - u_net))
        report.reduced_truncation.append(energy_norm(space, config, u_fine - u_reduced))
        report.encoder_perturbation.append(energy_norm(space, config, u_reduced - u_recon))
        report.network.append(energy_norm(space, config, u_recon - u_net))
    return report


def _abs_shift_net(m: int, a_min: float) -> NeuralNet:
    """Exact channelwise map y -> a_min + |y| as a two-layer ReLU net."""
    eye = sp.eye(m, format="csr")
    up = sp.vstack([eye, -eye]).tocsr()
    down = sp.hstack([eye, eye]).tocsr()
    return NeuralNet([(up, np.zeros(2 * m)), (down, a_min * np.ones(m))])


def nonsmooth_operator(op: NeuralOperator, a_min: float) -> NeuralOperator:
    """Prepend the exact a_min + |.| subnet to handle sign-changing inputs.

    The base operator must have been built for the shifted coefficient
    family; outputs are exactly invariant under a -> -a. The subnet goes in
    front of the input net; the report still counts the base network.
    """
    if not 0.0 < a_min < np.inf:
        raise ValueError(f"a_min must be finite and positive, got {a_min!r}")
    app = op.approximator
    shift_net = _abs_shift_net(op.encoder.m, a_min)
    app = replace(app, encoder_input=sparse_concat(app.encoder_input, shift_net))
    return replace(op, approximator=app)


def save_bundle(op: NeuralOperator, directory: str) -> None:
    """Operator bundle: seven .npy arrays, encoder JSON, certificates JSON.

    np.save without pickles writes the bits exactly, the same bytes on every save: basis.npy is
    op.synthesis, input.npy the input net's one layer, its dense (N^2, M) weights then the
    bias column, shift.npy the shift g, and <mesh>_nodes.npy (float64 (n, 2)) and
    <mesh>_triangles.npy (int64 (t, 3)) the nodes and triangles of the output mesh ("mesh") and
    of the encoder's ("encoder_mesh"); load_bundle re-derives the rest. The two mesh_*.npy files
    record the output space: the rows of basis.npy are the free dofs of build_space(mesh,
    fem_degree) on the mesh _build_mesh makes of them. certificates.json is op.certificates and
    bundle_format and fem_degree. An input net of depth other than 1 (a nonsmooth operator's)
    is refused: interval_entry_bounds cannot re-derive the box Z from it. So is a loaded
    operator, which has no basis to give the shift and the output space.
    """
    basis = _basis(op, "save_bundle")
    depth = op.approximator.encoder_input.depth
    if depth != 1:
        raise ValueError(f"a nonsmooth operator cannot be saved: its input net has depth {depth}")
    os.makedirs(directory, exist_ok=True)
    [(w, b)] = op.approximator.encoder_input.layers
    arrays = {"basis.npy": op.synthesis, "shift.npy": basis.nominal.shift,
              "input.npy": np.column_stack([w.toarray(), b])}
    for name, array in arrays.items():
        np.save(os.path.join(directory, name), array, allow_pickle=False)
    _write_mesh(directory, "mesh", basis.space.mesh)
    _write_mesh(directory, "encoder_mesh", op.encoder.mesh)
    with open(os.path.join(directory, "encoder.json"), "w") as fh:
        fh.write(encoder_to_json(op.encoder))
    meta = {**op.certificates, "bundle_format": BUNDLE_FORMAT, "fem_degree": basis.space.degree}
    with open(os.path.join(directory, "certificates.json"), "w") as fh:
        fh.write(json.dumps(meta, indent=1))


def _read_npy(directory: str, name: str, ndim: int, dtype=np.float64) -> np.ndarray:
    """np.load of the file name without pickles; ValueError naming it if np.load refuses it, if
    it is an .npz archive, or if the array is empty, not finite, not of dtype (native byte
    order) or not ndim-D."""
    with open(os.path.join(directory, name), "rb") as fh:
        try:  # an empty, truncated, pickled or text file
            array = np.load(fh, allow_pickle=False)
        except (EOFError, ValueError) as exc:
            raise ValueError(f"{name} is malformed: {exc}") from exc
    if not (isinstance(array, np.ndarray) and array.dtype == dtype and array.ndim == ndim
            and array.size and np.isfinite(array).all()):
        raise ValueError(f"{name} holds {getattr(array, 'dtype', type(array))!r} "
                         f"{np.shape(array)}, not a non-empty finite {ndim}-D "
                         f"{np.dtype(dtype).name} array")
    return array


def _write_mesh(directory: str, prefix: str, mesh: Mesh) -> None:
    """The mesh's nodes and triangles as prefix_nodes.npy and prefix_triangles.npy, saved
    without pickles: the one on-disk mesh format, which _read_mesh reads."""
    for part, array in (("nodes", mesh.nodes), ("triangles", mesh.triangles)):
        np.save(os.path.join(directory, f"{prefix}_{part}.npy"), array, allow_pickle=False)


def _read_mesh(directory: str, prefix: str, make=_build_mesh):
    """make(nodes, triangles) of prefix_nodes.npy (float64) and prefix_triangles.npy (int64),
    each read by _read_npy; a MeshError is re-raised as a ValueError naming both files."""
    names = (f"{prefix}_nodes.npy", f"{prefix}_triangles.npy")
    nodes = _read_npy(directory, names[0], 2)
    triangles = _read_npy(directory, names[1], 2, np.int64)
    try:
        return make(nodes, triangles)
    except MeshError as exc:
        raise ValueError(f"{names[0]} and {names[1]} do not form a mesh: {exc}") from exc


def load_bundle(directory: str) -> NeuralOperator:
    """Rebuild an operator, without a basis, from a bundle through the build's certificate chain.

    encoder_from_json rebuilds the encoder from encoder.json on the mesh _build_mesh makes of
    encoder_mesh_nodes.npy and encoder_mesh_triangles.npy. The output mesh's two files are
    only checked (_mesh_arrays: finite (n, 2) nodes, (t, 3) indices in [0, n)), not built.
    certified_approximator re-derives K, the budgets, Z_A, the step net and the report from
    input.npy's input net, shift.npy and the stored alpha, beta_eff, ||f|| and epsilon. Raises
    ValueError, naming the file or key, for another bundle format, a malformed document or .npy
    file (see _read_npy), mesh files that do not form a mesh, widths that do not fit, a band no
    build certifies (other than 0 < beta = beta_eff < alpha and 0 <= beta_tilde <= beta +
    BAND_TOL), a fem_degree other than the int 1 or 2, and a certificates.json key missing,
    unknown or not the re-derived value: certificates.json must be the loaded operator's
    certificates, bundle_format and fem_degree, as save_bundle writes them. The operator's
    synthesis is basis.npy, so evaluate returns free-dof values of the space that
    mesh_nodes.npy and mesh_triangles.npy record. This checks consistency, not provenance: the
    bundle stores neither a0 nor f, so input.npy, shift.npy, ||f|| and basis.npy are taken as
    given, and edits that keep them consistent with each other load.
    """
    with open(os.path.join(directory, "certificates.json")) as fh:
        meta = json.load(fh)
    if not isinstance(meta, dict):
        raise ValueError("certificates.json is not a JSON object")
    if meta.get("bundle_format") != BUNDLE_FORMAT:
        raise ValueError(f"bundle format {meta.get('bundle_format')!r} is not {BUNDLE_FORMAT}")
    for key in ("alpha", "beta", "beta_tilde", "beta_eff", "f_dual_norm", "epsilon"):
        if type(meta.get(key)) not in (int, float):  # a JSON bool, string or null is refused
            raise ValueError(f"bundle has {key} {meta.get(key)!r}, not a number")
    if type(meta.get("fem_degree")) is not int or meta["fem_degree"] not in (1, 2):
        raise ValueError(f"bundle has fem_degree {meta.get('fem_degree')!r}, not the int 1 or 2")
    alpha, beta, beta_tilde, beta_eff = map(meta.get, ("alpha", "beta", "beta_tilde", "beta_eff"))
    if not (0 < beta < alpha and 0 <= beta_tilde < alpha and beta_eff == beta
            and beta_tilde <= beta + BAND_TOL):
        raise ValueError(f"bundle has beta {beta!r}, beta_tilde {beta_tilde!r} and beta_eff "
                         f"{beta_eff!r}, which no build at alpha {alpha!r} gives")
    _read_mesh(directory, "mesh", _mesh_arrays)
    with open(os.path.join(directory, "encoder.json")) as fh:
        enc = encoder_from_json(fh.read(), _read_mesh(directory, "encoder_mesh"))
    layer = _read_npy(directory, "input.npy", 2)
    encoder_input = affine_net(layer[:, :-1], layer[:, -1])
    synthesis = _read_npy(directory, "basis.npy", 2)
    n = synthesis.shape[1]
    app = certified_approximator(encoder_input, _read_npy(directory, "shift.npy", 1), alpha,
                                 beta_eff, meta["f_dual_norm"], meta["epsilon"])
    widths = (encoder_input.n_inputs, encoder_input.n_outputs)
    if widths != (enc.m, n * n):
        raise ValueError(f"input net widths {widths} do not fit {enc.m} encoder channels "
                         f"and the {n} columns of basis.npy")
    op = NeuralOperator(enc, app, synthesis, beta_tilde)
    derived = {**op.certificates, "bundle_format": BUNDLE_FORMAT, "fem_degree": meta["fem_degree"]}
    for key in {**derived, **meta}:  # a missing or unknown key is refused like a wrong value
        if key not in meta or key not in derived or meta[key] != derived[key]:
            raise ValueError(
                f"bundle has {key} {meta.get(key, 'missing')!r}, but {n} basis columns, {enc.m} "
                f"encoder channels, the input net, the shift and epsilon {meta['epsilon']!r} give "
                f"{derived.get(key, 'no such key')!r}"
            )
    return op
