import dataclasses
import io
import json
import os
import pickle

import numpy as np
import pytest
import scipy.linalg as la

from richop import coeff as C
from richop import encoder as E
from richop import fem as F
from richop import mesh as M
from richop import pipeline as P
from richop import reduced_basis as RB
from richop import relu_net as NN
from richop import richardson as R


# certificates.json values that load_bundle feeds to certified_approximator
_CHAIN_INPUTS = ("alpha", "beta_eff", "f_dual_norm", "epsilon")


def _npy(array, allow_pickle=False):
    """The bytes np.save writes for the array."""
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=allow_pickle)
    return buf.getvalue()


def _npz(array):
    """The bytes of an .npz archive holding the array."""
    buf = io.BytesIO()
    np.savez(buf, basis=array)
    return buf.getvalue()


def _with_entry(array, value):
    """A copy of the array with its second entry, in C order, set to value."""
    out = array.copy()
    out.flat[1] = value
    return out


_NPY_TAMPERS = {  # any array: np.load or _read_npy refuses each
    "empty": lambda p, raw: b"",
    "data_truncated": lambda p, raw: raw[:-8],
    "object_array": lambda p, raw: _npy(np.array([p], dtype=object), allow_pickle=True),
    "npz_archive": lambda p, raw: _npz(p),
    "text": lambda p, raw: "".join(f"{x:.17g}\n" for x in p.ravel()).encode(),
    "wrong_ndim": lambda p, raw: _npy(p[..., None]),
}
_FLOAT_TAMPERS = {
    **_NPY_TAMPERS,
    "int_dtype": lambda p, raw: _npy(p.astype(np.int64)),
    "nan_entry": lambda p, raw: _npy(_with_entry(p, np.nan)),
    "infinite_entry": lambda p, raw: _npy(_with_entry(p, np.inf)),
}
_TRIANGLE_TAMPERS = {
    **_NPY_TAMPERS,
    "float64_dtype": lambda p, raw: _npy(p.astype(np.float64)),
    "int32_dtype": lambda p, raw: _npy(p.astype(np.int32)),
    "big_endian": lambda p, raw: _npy(p.astype(">i8")),
    "two_columns": lambda p, raw: _npy(p[:, :2]),
    "index_minus_one": lambda p, raw: _npy(_with_entry(p, -1)),
    "index_n": lambda p, raw: _npy(_with_entry(p, p.max() + 1)),  # every node is a vertex
}
_MALFORMED_NPY = [
    *[pytest.param(name, tamper, id=f"{name}-{key}")
      for name in ("input.npy", "shift.npy", "basis.npy")
      for key, tamper in _FLOAT_TAMPERS.items()],
    *[pytest.param(f"{mesh}_nodes.npy", tamper, id=f"{mesh}_nodes.npy-{key}")
      for mesh in ("mesh", "encoder_mesh")
      for key, tamper in {**_FLOAT_TAMPERS, "one_column": lambda p, raw: _npy(p[:, :1])}.items()],
    *[pytest.param(f"{mesh}_triangles.npy", tamper, id=f"{mesh}_triangles.npy-{key}")
      for mesh in ("mesh", "encoder_mesh")
      for key, tamper in _TRIANGLE_TAMPERS.items()],
]


class _Stub:
    """Test stub base: Stub(base, ...) is a copy of the encoder base, with its own channel
    cache, whose class puts Stub in front of base's own encoder class."""

    def __new__(cls, base, *args):
        stub = object.__new__(type(cls.__name__, (cls, type(base)), {}))
        vars(stub).update(vars(base), _channels={})
        return stub


class _AmplifyingEncoder(_Stub):
    """Test stub: encodings, and so reconstructions, scaled by a gain."""

    def __init__(self, base, gain):
        self._gain = gain

    def encode(self, a):
        return self._gain * super().encode(a)


class _CountingEncoder(_Stub):
    """Test stub: records the points of each channel_matrix call and of each build,
    and each encoded coefficient.

    channel_matrix caches per read-only point array, so builds count cache misses.
    """

    def __init__(self, base):
        self.queried = []
        self.built = []
        self.encoded = []

    def encode(self, a):
        self.encoded.append(a)
        return super().encode(a)

    def channel_matrix(self, pts):
        self.queried.append(pts)
        return super().channel_matrix(pts)

    def _build_channel_matrix(self, pts):
        self.built.append(pts)
        return super()._build_channel_matrix(pts)


class TestEffectiveBeta:
    def test_no_channel_matrix_per_call(self, nodal_encoder, family, config):
        enc = _CountingEncoder(nodal_encoder)
        P.effective_beta(enc, config, C.sample_family(family, 8, 5))
        assert enc.queried == [] and enc.built == []

    @pytest.mark.parametrize("kind", ["nodal", "gll"])
    def test_envelope_queries_only_the_encoder_nodes(self, kind, square, family, config):
        # the coefficients are read at the encoder's nodes and nowhere else:
        # the envelope reads the channel values, with no channel matrix
        coarse = M.triangulate(square, 0.5)
        if kind == "nodal":
            base = E.build_nodal_encoder(F.build_space(coarse, 2))
        else:
            base = E.build_gll_encoder(M.quad_split(coarse), 2)
        enc, queried = _CountingEncoder(base), []

        def recording(a):
            return C.CoefficientField(lambda pts: queried.append(pts) or a(pts))

        members = C.sample_family(family, 4, 61)
        beta_tilde = P.effective_beta(enc, config, [recording(a) for a in members])
        assert enc.queried == [] and enc.built == []
        assert len(queried) == 4 and all(np.array_equal(q, base.query_points) for q in queried)
        values = np.stack([base.encode(a) for a in members])
        assert beta_tilde == E.reconstruction_envelope(base, values, config.alpha)


class TestBuildOperator:
    def test_geometry_built_once_per_space_and_order(
        self, square_mesh, config, family, nodal_encoder, monkeypatch
    ):
        space = F.build_space(square_mesh, 1)
        geometry, assemblies = [], []
        real_geometry, real_assembly = F._geometry, F.assembly

        def counting_geometry(s):
            geometry.append(s)
            return real_geometry(s)

        def counting_assembly(s):
            assemblies.append(s)
            return real_assembly(s)

        monkeypatch.setattr(F, "_geometry", counting_geometry)
        monkeypatch.setattr(F, "assembly", counting_assembly)
        P.build_operator(family, config, space, 8, 3, nodal_encoder, 1e-1, seed=2)
        # every training snapshot's Galerkin solve reads the Assembly at least once
        assert len(assemblies) >= 8 and all(s is space for s in assemblies)
        assert len(geometry) == 1 and geometry[0] is space  # one Assembly per space

    def test_nominal_only_family_reproduces_anchor(self, space, config, nodal_encoder):
        fam = C.AffineFamily(
            alpha=config.alpha, beta=config.beta, modes=[C.constant(1.0)], domain=M.unit_square(),
            fill=0.3,
        )
        op = P.build_operator(fam, config, space, 8, 2, nodal_encoder, 1e-2, seed=1)
        anchor = F.galerkin_solve(space, config, config.scaled_nominal())
        out = P.evaluate(op, config.scaled_nominal())
        err = F.energy_norm(space, config, anchor - out)
        assert err <= 1e-2

    def test_certificates_recorded(self, operator):
        certs = operator.certificates
        for key in ("epsilon", "k_steps", "eps_iterator", "beta_tilde", "beta_eff"):
            assert key in certs
        assert certs["beta_tilde"] < certs["alpha"]

    def test_width_consistency(self, operator):
        net = operator.approximator.net
        assert net.n_inputs == operator.encoder.m
        assert net.n_outputs == operator.basis.size

    def test_deterministic_given_seed(self, family, config, space, nodal_encoder, tmp_path):
        ops = [
            P.build_operator(family, config, space, 10, 4, nodal_encoder, 1e-1, seed=3)
            for _ in range(2)
        ]
        for name, op in zip("ab", ops):
            P.save_bundle(op, str(tmp_path / name))
        files = sorted(os.listdir(tmp_path / "a"))
        assert files == sorted(os.listdir(tmp_path / "b"))
        for f in files:
            assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
        assert np.array_equal(ops[0].basis.ortho, ops[1].basis.ortho)
        assert ops[0].basis.selection_indices == ops[1].basis.selection_indices

    def test_basis_larger_than_training_rejected(self, family, config, space, nodal_encoder):
        with pytest.raises(ValueError):
            P.build_operator(family, config, space, 4, 8, nodal_encoder, 1e-1, seed=0)

    def test_paper_mode_rejects_band_leaving_reconstructions(
        self, family, space, config, nodal_encoder
    ):
        # stub encoder whose reconstructions leave the beta band but stay in the cone:
        # the certificate holds in the band alpha +- beta only, so the build is refused
        enc = _AmplifyingEncoder(nodal_encoder, 1.5)
        with pytest.raises(P.OperatorBuildError, match="> beta"):
            P.build_operator(family, config, space, 8, 3, enc, 1e-1, seed=2)

    def test_build_aborts_when_cone_is_left(self, family, space, config, nodal_encoder):
        enc = _AmplifyingEncoder(nodal_encoder, 4.0)
        with pytest.raises(P.OperatorBuildError, match=">= alpha"):
            P.build_operator(family, config, space, 8, 3, enc, 1e-1, seed=2)

    def test_refuses_any_mode_but_paper(self, family, space, config, nodal_encoder):
        # the configured band is the only certified one: the sample-maximum mode is gone
        with pytest.raises(ValueError, match="beta_mode"):
            P.build_operator(
                family, config, space, 8, 3, nodal_encoder, 1e-1, seed=2, beta_mode="measured"
            )


class TestEvaluate:
    def test_composition_is_bitwise_identical(self, operator, family):
        a = C.sample_family(family, 1, 8)[0]
        y = operator.encoder.encode(a)
        manual = RB.synthesize(
            operator.basis, NN.realize(operator.approximator.net, y), frame="ortho"
        )
        assert np.array_equal(manual, P.evaluate(operator, a))

    def test_in_family_error_budget(self, operator, family, space, config):
        report = P.error_decomposition(operator, C.sample_family(family, 5, 13))
        eps = operator.certificates["epsilon"]
        for tot, t1, t2, t3 in report.rows():
            assert tot <= t1 + t2 + eps + 1e-8

    def test_out_of_family_member_still_evaluates(self, operator, space, config):
        rogue = C.CoefficientField(
            lambda p: 1.0 + 0.45 * np.cos(5 * p[:, 0]) * np.cos(4 * p[:, 1])
        )
        out = P.evaluate(operator, rogue)
        u = F.galerkin_solve(space, config, rogue)
        err = F.energy_norm(space, config, u - out)
        assert np.isfinite(err)


class TestErrorDecomposition:
    def test_triangle_inequality(self, operator, family):
        report = P.error_decomposition(operator, C.sample_family(family, 8, 29))
        for tot, t1, t2, t3 in report.rows():
            assert tot <= t1 + t2 + t3 + 1e-8

    def test_batch_equals_single_calls(self, operator, family):
        members = C.sample_family(family, 3, 37)
        batch = P.error_decomposition(operator, members).rows()
        singles = [P.error_decomposition(operator, [a]).rows()[0] for a in members]
        assert batch == singles

    def test_in_span_member_with_exact_encoding(self, space, config, nodal_encoder):
        # family of P1 fields on the encoder mesh: encoding is exact, and a
        # selected snapshot's coefficient leaves only the network term
        enc_mesh = nodal_encoder.mesh
        modes = [
            C.mesh_field(enc_mesh, C.trig_mode(1, 0)(enc_mesh.nodes), 1),
            C.mesh_field(enc_mesh, C.trig_mode(0, 1)(enc_mesh.nodes), 1),
            C.mesh_field(enc_mesh, C.trig_mode(1, 1)(enc_mesh.nodes), 1),
        ]
        fam = C.AffineFamily(alpha=1.0, beta=0.5, modes=modes, domain=M.unit_square(), fill=0.9)
        op = P.build_operator(fam, config, space, 12, 5, nodal_encoder, 1e-2, seed=4)
        picked = op.basis.selection_indices[0]
        member = C.sample_family(fam, 12, 4)[picked]
        report = P.error_decomposition(op, [member])
        tot, t1, t2, t3 = report.rows()[0]
        assert t1 <= 1e-9
        assert t2 <= 1e-9
        assert t3 <= op.certificates["epsilon"]
        assert abs(tot - t3) <= 2e-9

    def test_truncation_tracks_projection_curve(self, operator, snapshots, family, space, config):
        # worst reduced-truncation error per prefix obeys the quasi-optimality
        # factor (alpha + beta) / (alpha - beta) against the projection curve; the
        # greedy is hierarchical, so a shorter run on the operator's snapshots is a prefix
        tests = C.sample_family(family, 10, 47)
        sols = np.column_stack([F.galerkin_solve(space, config, a) for a in tests])
        curve = dict(RB.projection_error_curve(operator.basis, sols))
        factor = (config.alpha + config.beta) / (config.alpha - config.beta)
        for n_plus_1 in (2, 4, operator.basis.size):
            prefix, _ = RB.weak_greedy(snapshots, n_plus_1 - 1)
            worst = 0.0
            for j, a in enumerate(tests):
                u_n = RB.synthesize(prefix, R.direct_solve(prefix, a), frame="ortho")
                worst = max(
                    worst,
                    F.energy_norm(space, config, sols[:, j] - u_n),
                )
            assert worst <= factor * curve[n_plus_1 - 1] + 1e-8

    def test_nominal_form_computed_once_per_basis(
        self, family, config, space, nodal_encoder, monkeypatch
    ):
        # on a fresh space, K(a0) and the load of f are assembled once and B0
        # is factored once, for the build and every decomposition: every fine
        # solve and norm reads the space's cached form
        fresh = F.build_space(space.mesh, space.degree)
        factored, loads, nominal_stiffness = [], [], []
        real_factor, real_load = la.cho_factor, F.assemble_load
        real_stiffness = F.assemble_stiffness

        def counting_factor(*args, **kwargs):
            factored.append(1)
            return real_factor(*args, **kwargs)

        def counting_load(*args, **kwargs):
            loads.append(1)
            return real_load(*args, **kwargs)

        def counting_stiffness(space_, a, *args, **kwargs):
            if a is config.a0:
                nominal_stiffness.append(1)
            return real_stiffness(space_, a, *args, **kwargs)

        monkeypatch.setattr(la, "cho_factor", counting_factor)
        for module in (F, RB, R, NN, P):
            if getattr(module, "assemble_load", None) is real_load:
                monkeypatch.setattr(module, "assemble_load", counting_load)
            if getattr(module, "assemble_stiffness", None) is real_stiffness:
                monkeypatch.setattr(module, "assemble_stiffness", counting_stiffness)
        op = P.build_operator(family, config, fresh, 8, 3, nodal_encoder, 1e-1, seed=2)
        members = C.sample_family(family, 2, 41)
        P.error_decomposition(op, members)
        P.error_decomposition(op, members)
        assert (len(factored), len(loads), len(nominal_stiffness)) == (1, 1, 1)

    def test_each_prefix_has_its_own_nominal_form(self, operator, snapshots):
        basis, k0 = operator.basis, operator.basis.nominal_stiffness
        for n_plus_1 in (2, 4, basis.size):
            prefix, _ = RB.weak_greedy(snapshots, n_plus_1 - 1)
            form = prefix.nominal
            assert form is not basis.nominal and prefix.nominal is form
            assert np.array_equal(form.b0, prefix.ortho.T @ (k0 @ prefix.ortho))
            e1 = np.eye(n_plus_1)[0]
            assert np.max(np.abs(form.shift - e1)) < 1e-10

    def test_build_and_decompositions_make_one_channel_matrix(
        self, family, config, space, nodal_encoder
    ):
        # none for the envelope; one at the quadrature points, cached on the
        # encoder and shared by the input net and every decomposition
        enc = _CountingEncoder(nodal_encoder)
        op = P.build_operator(family, config, space, 8, 3, enc, 1e-1, seed=2)
        members = C.sample_family(family, 2, 41)
        P.error_decomposition(op, members)
        P.error_decomposition(op, members)
        assert len(enc.built) == 1 and enc.built[0] is F.quadrature_points(space)
        assert all(q is F.quadrature_points(space) for q in enc.queried)

    def test_quadrature_channel_matrix_built_once_per_operator(self, operator, family):
        op = dataclasses.replace(operator, encoder=_CountingEncoder(operator.encoder))
        members = C.sample_family(family, 2, 41)
        P.error_decomposition(op, members)
        P.error_decomposition(op, members)
        assert len(op.encoder.built) == 1
        assert op.quadrature_channels is op.encoder.channel_matrix(
            F.quadrature_points(op.basis.space)
        )

    def test_matches_dense_channel_computation(self, operator, family, space, config):
        op, frame = operator, operator.frame
        dense = op.encoder.channel_matrix(F.quadrature_points(space)).toarray()

        def reduced(v):
            return RB.synthesize(op.basis, R.direct_solve(op.basis, v), frame=frame)

        members = C.sample_family(family, 4, 43)
        report = P.error_decomposition(op, members)
        for a, row in zip(members, report.rows()):
            u_fine = F.galerkin_solve(space, config, a)
            u_reduced = reduced(a)
            u_recon = reduced(dense @ op.encoder.encode(a))
            u_net = P.evaluate(op, a)
            expected = [
                F.energy_norm(space, config, u - v)
                for u, v in ((u_fine, u_net), (u_fine, u_reduced),
                             (u_reduced, u_recon), (u_recon, u_net))
            ]
            assert np.max(np.abs(np.subtract(row, expected))) <= 1e-13

    def test_decoder_is_exact(self, operator, rng):
        # the synthesis stage adds no error: analyze(synthesize(c)) = c
        c = rng.standard_normal(operator.basis.size)
        v = RB.synthesize(operator.basis, c, frame="ortho")
        back = operator.basis.ortho.T @ (operator.basis.nominal_stiffness @ v)
        assert np.max(np.abs(back - c)) < 1e-10


class TestVerifyPath:
    def test_decomposition_never_calls_the_dense_front_end(
        self, operator, family, sampled_fields, monkeypatch
    ):
        # the reduced solves run LAPACK directly, so a scipy.linalg.solve that refuses
        # every call changes nothing: the path cannot drift back onto the front end
        members = [*C.sample_family(family, 2, 149), sampled_fields["from_callable"]]
        expected = P.error_decomposition(operator, members).rows()

        def refuse(*args, **kwargs):
            raise AssertionError("scipy.linalg.solve on the verification path")

        monkeypatch.setattr(la, "solve", refuse)
        assert P.error_decomposition(operator, members).rows() == expected


class TestNetworkSolutions:
    def test_one_encoding_per_coefficient_and_one_kernel_call_per_block(
        self, family, config, space, nodal_encoder, stack_builds
    ):
        # the build's input net makes the basis's channel stack and every reconstruction
        # reads it; the members' point table makes one stack, shared by later decompositions
        enc, blocks = _CountingEncoder(nodal_encoder), stack_builds
        op = P.build_operator(family, config, space, 8, 3, enc, 1e-1, seed=2)
        n_qp = len(F.quadrature_points(op.basis.space))
        assert blocks == [(n_qp, enc.m)]
        members = C.sample_family(family, 3, 53)
        enc.encoded.clear(), blocks.clear()
        recon, nets = P.network_solutions(op, members)
        assert len(recon) == len(nets) == 3
        assert enc.encoded == members and blocks == []
        for expected in ([(n_qp, len(family.modes) + 1)], []):
            enc.encoded.clear(), blocks.clear()
            P.error_decomposition(op, members)
            assert enc.encoded == members and blocks == expected

    def test_matches_the_per_coefficient_solves(self, operator, family):
        # one block realize and one weighted solve give each member's single calls' bits
        for count in (1, 3):
            members = C.sample_family(family, count, 59)
            recon, nets = P.network_solutions(operator, members)
            assert len(recon) == len(nets) == count
            for a, u_recon, u_net in zip(members, recon, nets):
                y = operator.encoder.encode(a)
                (c,) = R.direct_solve(operator.basis, operator.quadrature_channels, y[None])
                for got, want in ((u_recon, RB.synthesize(operator.basis, c, frame="ortho")),
                                  (u_net, P.evaluate(operator, a))):
                    assert np.array_equal(got, want)
                    assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_reference_does_not_read_the_input_net(self, operator, family):
        (w, b), = operator.approximator.encoder_input.layers
        app = dataclasses.replace(operator.approximator,
                                  encoder_input=NN.NeuralNet([(w, b + 1e-6)]))
        perturbed = dataclasses.replace(operator, approximator=app)
        members = C.sample_family(family, 2, 67)
        recon, nets = P.network_solutions(operator, members)
        recon_p, nets_p = P.network_solutions(perturbed, members)
        assert all(np.array_equal(u, v) for u, v in zip(recon, recon_p))
        assert not any(np.array_equal(u, v) for u, v in zip(nets, nets_p))

    def test_no_coefficients(self, operator):
        assert P.network_solutions(operator, []) == ([], [])
        assert P.error_decomposition(operator, []).rows() == []


@pytest.fixture(scope="module")
def sampled_fields(square, shifted_setup):
    """Fields without a point table, which the decomposition reduces from their samples."""
    sobolev = C.SobolevBall(alpha=1.0, beta=0.5, domain=M.triangulate(square, 0.5))
    return {
        "sobolev_ball": C.sample_family(sobolev, 1, 113)[0],
        "abs_shift": C.sample_family(shifted_setup[0], 1, 127)[0],
        "from_callable": C.CoefficientField(
            lambda pts: 1.0 + 0.3 * np.sin(3 * pts[:, 0]) * pts[:, 1]),
        "affine_combination": C.affine_combination([C.constant(1.0), C.trig_mode(2, 1)], [1.0, 0.3]),
    }


class TestSampledFields:
    @pytest.mark.parametrize("name", ["sobolev_ball", "abs_shift", "from_callable",
                                      "affine_combination"])
    def test_truncation_and_total_are_the_field_solves(self, operator, sampled_fields, name):
        # a one-column sample block of weight 1 makes the kernel call and the solve
        # of direct_solve(basis, a), and the fine solve starts from its synthesis,
        # so these terms keep their bits
        op, a = operator, sampled_fields[name]
        assert "table" not in a.meta
        space, config = op.basis.space, op.basis.config
        u_reduced = RB.synthesize(op.basis, R.direct_solve(op.basis, a), frame="ortho")
        u_fine = F.galerkin_solve(space, config, a, start=u_reduced)
        tot, t1, _, _ = P.error_decomposition(op, [a]).rows()[0]
        assert tot == F.energy_norm(space, config, u_fine - P.evaluate(op, a))
        assert t1 == F.energy_norm(space, config, u_fine - u_reduced)

    def test_warm_solves_agree_with_cold_ones_in_fewer_applications(
        self, operator, family, sampled_fields, cg_applications
    ):
        # the decomposition starts the fine solve from the reduced solution u_N, which is
        # within the truncation error of u_h, so CG has less residual to remove
        op, space, config = operator, operator.basis.space, operator.basis.config
        members = [*C.sample_family(family, 4, 137), *sampled_fields.values()]
        cold, warm = [], []
        for a in members:
            start = RB.synthesize(op.basis, R.direct_solve(op.basis, a), frame="ortho")
            u_cold = F.galerkin_solve(space, config, a)
            cold.append(cg_applications[-1])
            u_warm = F.galerkin_solve(space, config, a, start=start)
            warm.append(cg_applications[-1])
            norm = F.energy_norm(space, config, u_cold)
            assert F.energy_norm(space, config, u_warm - u_cold) <= 1e-12 * norm
        assert sum(warm) < sum(cold)

    def test_mixed_list_rows_equal_single_calls(self, operator, family, sampled_fields):
        members = C.sample_family(family, 2, 131)
        mixed = [members[0], *sampled_fields.values(), members[1]]
        batch = P.error_decomposition(operator, mixed).rows()
        assert batch == [P.error_decomposition(operator, [a]).rows()[0] for a in mixed]


@pytest.fixture(scope="module")
def shifted_setup(square, space, config, nodal_encoder):
    modes = [C.trig_mode(1, 0), C.trig_mode(0, 1), C.trig_mode(1, 1)]
    fam = C.AbsShiftFamily(alpha=1.0, beta=0.5, modes=modes, domain=square, a_min=0.6,
                           amplitude=0.8)
    base = P.build_operator(fam, config, space, 20, 6, nodal_encoder, 1e-2, seed=6)
    wrapped = P.nonsmooth_operator(base, 0.6)
    return fam, base, wrapped


class TestNonsmooth:
    def test_sign_invariance_exact(self, shifted_setup, square):
        fam, base, wrapped = shifted_setup
        for a in C.sample_family(fam, 5, 71):
            raw = a.meta["raw"]
            neg = C.affine_combination([raw], [-1.0])
            assert np.array_equal(P.evaluate(wrapped, raw), P.evaluate(wrapped, neg))

    def test_nonnegative_branch_matches_base(self, shifted_setup):
        fam, base, wrapped = shifted_setup
        a = C.sample_family(fam, 1, 72)[0]
        raw = a.meta["raw"]
        shifted = C.abs_shift(raw, 0.6)
        v1 = P.evaluate(wrapped, raw)
        v2 = P.evaluate(base, shifted)
        assert np.max(np.abs(v1 - v2)) <= 1e-12 * max(1.0, np.max(np.abs(v2)))

    def test_error_within_certificate_plus_encoder_terms(
        self, shifted_setup, space, config
    ):
        fam, base, wrapped = shifted_setup
        eps = base.certificates["epsilon"]
        members = C.sample_family(fam, 20, 73)
        report = P.error_decomposition(base, members)
        for a, (tot, t1, t2, t3) in zip(members, report.rows()):
            raw = a.meta["raw"]
            u_fine = F.galerkin_solve(space, config, a)
            err = F.energy_norm(
                space, config, u_fine - P.evaluate(wrapped, raw)
            )
            assert err <= t1 + t2 + eps + 1e-8

    def test_invalid_shift(self, shifted_setup):
        _, base, _ = shifted_setup
        for a_min in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="a_min"):
                P.nonsmooth_operator(base, a_min)


def _moved_query_point(doc):
    """encoder.json's doc with its largest query point coordinate moved by 5e-6: far more than
    the 1e-12 the loader allows, but within a relative tolerance of 1e-5 of a unit coordinate."""
    points = np.array(doc["query_points"])
    points.flat[np.argmax(np.abs(points))] += 5e-6
    return {**doc, "query_points": points.tolist()}


class TestBundle:
    def test_round_trip(self, operator, family, tmp_path):
        P.save_bundle(operator, str(tmp_path))
        expected = {
            "mesh_nodes.npy",
            "mesh_triangles.npy",
            "encoder_mesh_nodes.npy",
            "encoder_mesh_triangles.npy",
            "basis.npy",
            "encoder.json",
            "input.npy",
            "shift.npy",
            "certificates.json",
        }
        assert set(os.listdir(tmp_path)) == expected
        loaded = P.load_bundle(str(tmp_path))
        a = C.sample_family(family, 1, 99)[0]
        assert np.array_equal(loaded.evaluate(a), P.evaluate(operator, a))
        assert loaded.certificates["epsilon"] == operator.certificates["epsilon"]

    def test_certificates_json_is_the_certificates_view(self, operator, tmp_path):
        # certificates.json holds op.certificates in its key order, then the bundle's two
        # keys; load_bundle reads it back whole and re-derives the built report
        P.save_bundle(operator, str(tmp_path))
        with open(tmp_path / "certificates.json") as fh:
            meta = json.load(fh)
        assert list(meta) == [
            "epsilon", "beta_tilde", "beta_eff", "alpha", "beta", "n_basis", "m_channels",
            "k_steps", "eps_iterator", "eps_step", "contraction", "f_dual_norm",
            "matrix_bound", "bundle_format", "fem_degree",
        ]
        loaded = P.load_bundle(str(tmp_path))
        degree = operator.basis.space.degree
        assert meta == {**loaded.certificates, "bundle_format": 8, "fem_degree": degree}
        assert loaded.certificates == operator.certificates
        assert loaded.approximator.report == operator.approximator.report

    def test_mesh_file_records_the_output_space(self, operator, family, tmp_path):
        P.save_bundle(operator, str(tmp_path))
        loaded = P.load_bundle(str(tmp_path))
        nodes, triangles = (np.load(tmp_path / f"mesh_{part}.npy", allow_pickle=False)
                            for part in ("nodes", "triangles"))
        degree = json.loads((tmp_path / "certificates.json").read_text())["fem_degree"]
        space = F.build_space(M._build_mesh(nodes, triangles), degree)
        assert np.array_equal(space.free_dofs, operator.basis.space.free_dofs)
        assert np.array_equal(space.dof_coords, operator.basis.space.dof_coords)
        assert space.n_free == loaded.synthesis.shape[0]
        assert len(loaded.evaluate(C.sample_family(family, 1, 97)[0])) == space.n_free

    def test_gll_round_trip_rebuilds_the_same_operator(
        self, family, config, space, square, tmp_path
    ):
        gll = E.build_gll_encoder(M.quad_split(M.triangulate(square, 0.5)), 2)
        op = P.build_operator(family, config, space, 12, 4, gll, 1e-2, seed=5)
        P.save_bundle(op, str(tmp_path))
        loaded = P.load_bundle(str(tmp_path))
        built, got = op.approximator, loaded.approximator
        for net, want in ((got.step, built.step), (got.net, built.net)):
            assert net.widths == want.widths
            for (w, b), (w0, b0) in zip(net.layers, want.layers):
                pairs = zip((w.indptr, w.indices, w.data, b), (w0.indptr, w0.indices, w0.data, b0))
                assert all(np.array_equal(x, y) for x, y in pairs)
        for a in C.sample_family(family, 3, 98):
            assert np.array_equal(loaded.evaluate(a), P.evaluate(op, a))

    @pytest.mark.parametrize("fmt", [None, 1, 2, 3, 4, 5, 6, 7])
    def test_rejects_other_bundle_format(self, operator, tmp_path, fmt):
        # format 2 step nets were built on the symmetric box max(Z~, 1) and
        # its reports lack matrix_bound; format 3 stored the step net, K and
        # the report in net.json; format 4 stored the input net as sparse entry
        # lists; format 5 stored the basis as %.17g text in basis.csv; format 6
        # stored the input net and the shift as JSON floats in net.json; format 7
        # stored both meshes as %.17g/%d text in mesh.txt and encoder_mesh.txt: all
        # are refused like format 1
        P.save_bundle(operator, str(tmp_path))
        path = tmp_path / "certificates.json"
        meta = json.loads(path.read_text())
        assert meta["bundle_format"] == 8
        if fmt is None:
            del meta["bundle_format"]
        else:
            meta["bundle_format"] = fmt
        path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="bundle format"):
            P.load_bundle(str(tmp_path))

    def test_rejects_basis_missing_a_column(self, operator, tmp_path):
        P.save_bundle(operator, str(tmp_path))
        np.save(tmp_path / "basis.npy", operator.basis.ortho[:, :-1])
        with pytest.raises(ValueError, match="columns of basis.npy"):
            P.load_bundle(str(tmp_path))

    def test_basis_npy_is_the_ortho_frame_bit_for_bit(self, operator, tmp_path):
        # np.save stores the float64 bits and a fixed header: two saves write the same bytes
        for name in ("a", "b"):
            P.save_bundle(operator, str(tmp_path / name))
        first, second = (tmp_path / name / "basis.npy" for name in ("a", "b"))
        saved = np.load(first, allow_pickle=False)
        assert saved.dtype == np.float64 and saved.flags.c_contiguous
        assert np.array_equal(saved, operator.basis.ortho)
        assert first.read_bytes() == second.read_bytes()

    def test_mesh_npy_files_are_both_meshes_bit_for_bit(self, operator, tmp_path):
        # the output mesh's and the encoder mesh's own arrays, the same bytes on every save,
        # and the loader's encoder is built on the very mesh the operator's was
        for name in ("a", "b"):
            P.save_bundle(operator, str(tmp_path / name))
        meshes = {"mesh": operator.basis.space.mesh, "encoder_mesh": operator.encoder.mesh}
        for prefix, mesh in meshes.items():
            for part, dtype in (("nodes", np.float64), ("triangles", np.int64)):
                first, second = (tmp_path / name / f"{prefix}_{part}.npy" for name in ("a", "b"))
                assert first.read_bytes() == second.read_bytes()
                saved = np.load(first, allow_pickle=False)
                want = getattr(mesh, part)
                assert saved.dtype == dtype and saved.shape == want.shape
                assert saved.tobytes() == want.tobytes()
        loaded = P.load_bundle(str(tmp_path / "a")).encoder.mesh
        for part in ("nodes", "triangles", "boundary_nodes", "boundary_edges"):
            assert np.array_equal(getattr(loaded, part), getattr(operator.encoder.mesh, part))

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda p, raw: raw[:60],
            lambda p, raw: raw[:-8],
            lambda p, raw: b"",
            lambda p, raw: pickle.dumps(p),
            lambda p, raw: "".join(",".join(f"{x:.17g}" for x in row) + "\n" for row in p).encode(),
            lambda p, raw: _npy(np.array([p], dtype=object), allow_pickle=True),
            lambda p, raw: _npz(p),
            lambda p, raw: _npy(p.astype(np.float32)),
            lambda p, raw: _npy(p.astype(">f8")),
            lambda p, raw: _npy(p.ravel()),
            lambda p, raw: _npy(p[None]),
            lambda p, raw: _npy(np.where(p == p[1, 2], np.nan, p)),
            lambda p, raw: _npy(np.where(p == p[1, 2], -np.inf, p)),
        ],
        ids=["header_truncated", "data_truncated", "empty", "pickle", "csv_text", "object_array",
             "npz_archive", "float32", "big_endian", "one_dimensional", "three_dimensional",
             "nan_entry", "infinite_entry"],
    )
    def test_rejects_malformed_basis(self, operator, tmp_path, tamper):
        # np.load without pickles refuses the first six; the loader refuses the rest
        P.save_bundle(operator, str(tmp_path))
        path = tmp_path / "basis.npy"
        path.write_bytes(tamper(operator.basis.ortho, path.read_bytes()))
        with pytest.raises(ValueError, match="basis.npy"):
            P.load_bundle(str(tmp_path))

    @pytest.mark.parametrize("name, tamper", _MALFORMED_NPY)
    def test_rejects_malformed_npy(self, operator, tmp_path, name, tamper):
        # the loader reads the seven arrays through one reader, which refuses each case alike;
        # the mesh arrays then go to _mesh_arrays, which refuses a column too few and a
        # triangle index outside [0, n)
        P.save_bundle(operator, str(tmp_path))
        path = tmp_path / name
        path.write_bytes(tamper(np.load(path, allow_pickle=False), path.read_bytes()))
        with pytest.raises(ValueError, match=name):
            P.load_bundle(str(tmp_path))

    @pytest.mark.parametrize(
        "edit",
        [
            {"beta_tilde": 5.0},
            {"beta": "x"},
            {"beta_tilde": 0.45, "beta": 0.3},
            {"nonsmooth_a_min": 0.5},
            {"beta": 1.0},
            {"beta": 0.0, "beta_eff": 0.0},
            {"beta_tilde": -0.1},
            {"beta_tilde": 0.6},
            {"beta_tilde": None},
            {"beta_tilde": True},
            {"beta_eff": 0.3345, "beta_tilde": 0.3345},
        ],
        ids=["beta_tilde_above_alpha", "beta_string", "beta_eff_neither_mode", "unknown_key",
             "beta_at_alpha", "beta_zero", "beta_tilde_negative", "beta_tilde_above_beta",
             "beta_tilde_null", "beta_tilde_bool", "beta_eff_sample_maximum"],
    )
    def test_rejects_edited_band(self, operator, tmp_path, edit):
        # the operator is certified in the band beta = beta_eff = 0.5 on alpha = 1; an edit
        # to the band that effective_beta would not give, or a key no build writes, is refused.
        # beta_eff_sample_maximum is a network sized to a training-sample envelope below beta
        P.save_bundle(operator, str(tmp_path))
        path = tmp_path / "certificates.json"
        meta = json.loads(path.read_text())
        assert (meta["alpha"], meta["beta"], meta["beta_eff"]) == (1.0, 0.5, 0.5)
        path.write_text(json.dumps({**meta, **edit}))
        with pytest.raises(ValueError, match="|".join(edit)):
            P.load_bundle(str(tmp_path))

    @pytest.mark.parametrize("key", ["fem_degree", "n_basis", "beta_tilde", "matrix_bound"])
    def test_rejects_a_missing_key(self, operator, tmp_path, key):
        P.save_bundle(operator, str(tmp_path))
        path = tmp_path / "certificates.json"
        meta = json.loads(path.read_text())
        del meta[key]
        path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=key):
            P.load_bundle(str(tmp_path))

    @pytest.mark.parametrize("degree", [3, 0, "x", 2.0, True, None],
                             ids=["three", "zero", "string", "float", "bool", "null"])
    def test_rejects_an_edited_fem_degree(self, operator, tmp_path, degree):
        # build_space knows degrees 1 and 2; a bool or a float equal to one of them is refused
        P.save_bundle(operator, str(tmp_path))
        path = tmp_path / "certificates.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "fem_degree": degree}))
        with pytest.raises(ValueError, match="fem_degree"):
            P.load_bundle(str(tmp_path))

    def test_input_and_shift_npy_hold_the_input_net_and_shift_bit_for_bit(
        self, operator, tmp_path
    ):
        for name in ("a", "b"):
            P.save_bundle(operator, str(tmp_path / name))
        for name in ("input.npy", "shift.npy"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        layer, shift = (np.load(tmp_path / "a" / name, allow_pickle=False)
                        for name in ("input.npy", "shift.npy"))
        assert layer.dtype == shift.dtype == np.float64
        [(w, b)] = operator.approximator.encoder_input.layers
        pairs = ((layer[:, :-1], w.toarray()), (layer[:, -1], b),
                 (shift, operator.basis.nominal.shift))
        # the bits, -0.0 and all: the weights, then the bias column, and the shift
        assert all(x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in pairs)
        # the loader's affine_net drops the exact zeros: the built CSR layer, array for array
        [(w1, b1)] = P.load_bundle(str(tmp_path / "a")).approximator.encoder_input.layers
        pairs = zip((w1.indptr, w1.indices, w1.data, b1), (w.indptr, w.indices, w.data, b))
        assert all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in pairs)
        meta = json.loads((tmp_path / "a" / "certificates.json").read_text())
        assert meta["k_steps"] == operator.approximator.k_steps
        assert "frame" not in meta

    @pytest.mark.parametrize(
        "key, tamper, named",
        [
            ("k_steps", lambda v: -1, "k_steps"),
            ("k_steps", lambda v: 2.5, "k_steps"),
            ("k_steps", lambda v: v + 5, "k_steps"),
            ("epsilon", lambda v: 1e-9, "k_steps"),
            ("matrix_bound", lambda v: 2 * v, "matrix_bound"),
            ("n_basis", lambda v: v + 1, "n_basis"),
            ("m_channels", lambda v: v + 1, "m_channels"),
            *[(key, None, key) for key in _CHAIN_INPUTS],
            *[(key, lambda v: str(v), key) for key in _CHAIN_INPUTS],
            ("f_dual_norm", lambda v: float("inf"), "f_dual_norm"),
            ("f_dual_norm", lambda v: float("nan"), "f_dual_norm"),
            ("alpha", lambda v: float("inf"), "alpha"),
        ],
        ids=["negative_k_steps", "fractional_k_steps", "k_steps_plus_five", "epsilon_1e-9",
             "matrix_bound_doubled", "n_basis_plus_one", "m_channels_plus_one",
             *[f"{key}_deleted" for key in _CHAIN_INPUTS],
             *[f"{key}_string" for key in _CHAIN_INPUTS],
             "f_dual_norm_infinite", "f_dual_norm_nan", "alpha_infinite"],
    )
    def test_rejects_inconsistent_net(self, operator, tmp_path, key, tamper, named):
        # load_bundle re-derives the certificate chain from the input net and
        # the shift; a stored value that differs is named in the error (an
        # edited epsilon shows first as the K it no longer gives), and so is
        # a chain input that is missing (tamper None), not a number or not
        # finite (json writes Infinity and NaN, and reads them back)
        P.save_bundle(operator, str(tmp_path))
        path = tmp_path / "certificates.json"
        meta = json.loads(path.read_text())
        if tamper is None:
            del meta[key]
        else:
            meta[key] = tamper(meta[key])
        path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=named):
            P.load_bundle(str(tmp_path))

    @pytest.mark.parametrize(
        "name, tamper, named",
        [
            ("encoder.json", lambda doc: [doc], "kind"),
            ("encoder.json", lambda doc: {k: v for k, v in doc.items() if k != "kind"}, "kind"),
            ("encoder.json", lambda doc: {**doc, "kind": "spectral"}, "kind"),
            ("encoder.json", lambda doc: {k: v for k, v in doc.items() if k != "degree"}, "degree"),
            ("encoder.json", lambda doc: {**doc, "degree": "1"}, "degree"),
            ("encoder.json", lambda doc: {**doc, "kind": "gll"}, "p"),
            ("encoder.json", lambda doc: {**doc, "kind": "gll", "p": 2.0}, "p"),
            ("encoder.json", lambda doc: {**doc, "query_points": doc["query_points"][1:]},
             "query points"),
            ("encoder.json", _moved_query_point, "query points"),
            ("encoder.json", lambda doc: {**doc, "m": doc["m"] + 1}, "has m"),
            ("encoder.json", lambda doc: {k: v for k, v in doc.items() if k != "m"}, "has m"),
            ("input.npy", lambda p: p[:0], "input.npy"),
            ("input.npy", lambda p: p[:, :0], "input.npy"),
            ("shift.npy", lambda p: p[:0], "shift.npy"),
            ("shift.npy", lambda p: np.append(p, 0.0), "shift"),
            ("shift.npy", lambda p: p[:-1], "shift"),
            ("shift.npy", lambda p: np.r_[np.nan, p[1:]], "shift.npy"),
            ("input.npy", lambda p: p[:, -1:], "input net widths"),
            ("input.npy", lambda p: p[None], "input.npy"),
            ("input.npy", lambda p: np.array("weights"), "input.npy"),
            ("input.npy", lambda p: p[:-1], "input net"),
            ("input.npy", lambda p: np.delete(p, 0, axis=1), "input net widths"),
            ("certificates.json", lambda doc: [doc], "certificates.json"),
        ],
        ids=["encoder_list", "kind_deleted", "kind_unknown", "degree_deleted", "degree_string",
             "gll_without_p", "gll_p_float", "query_point_dropped", "query_point_moved",
             "m_one_more", "m_deleted", "input_net_empty",
             "input_net_without_columns", "shift_empty", "shift_one_longer", "shift_one_shorter", "shift_nan",
             "weights_deleted", "net_list", "weights_string", "weights_row_dropped",
             "weights_column_dropped", "certificates_list"],
    )
    def test_rejects_malformed_document(self, operator, tmp_path, name, tamper, named):
        # a document or array that lacks a key or an entry, or has one of the wrong type or
        # shape, is refused with ValueError, not KeyError, TypeError or IndexError, and a kind
        # is never guessed; input.npy is the input net's weights followed by its bias column
        P.save_bundle(operator, str(tmp_path))
        path = tmp_path / name
        if name.endswith(".npy"):
            np.save(path, tamper(np.load(path, allow_pickle=False)))
        else:
            path.write_text(json.dumps(tamper(json.loads(path.read_text()))))
        with pytest.raises(ValueError, match=named):
            P.load_bundle(str(tmp_path))

    def test_refuses_nonsmooth_operator(self, shifted_setup, tmp_path):
        # its depth-3 input net admits no interval bound to re-derive Z_A from
        _, _, wrapped = shifted_setup
        with pytest.raises(ValueError, match="nonsmooth"):
            P.save_bundle(wrapped, str(tmp_path))
        assert not os.listdir(tmp_path)


@pytest.fixture(scope="module", params=["nodal", "gll"])
def built_and_loaded(request, operator, family, config, space, square, tmp_path_factory):
    """A built operator of each encoder kind and the operator load_bundle rebuilds of it."""
    op = operator
    if request.param == "gll":
        gll = E.build_gll_encoder(M.quad_split(M.triangulate(square, 0.5)), 2)
        op = P.build_operator(family, config, space, 12, 4, gll, 1e-2, seed=5)
    path = str(tmp_path_factory.mktemp(request.param))
    P.save_bundle(op, path)
    return op, P.load_bundle(path)


class TestOneOperator:
    def test_module_evaluate_is_the_method(self):
        assert P.evaluate is P.NeuralOperator.evaluate

    def test_built_and_loaded_evaluate_agree_bit_for_bit(self, built_and_loaded, family):
        op, loaded = built_and_loaded
        assert type(loaded) is P.NeuralOperator and loaded.basis is None
        assert op.synthesis is op.basis.ortho
        for a in C.sample_family(family, 3, 31):
            u = P.evaluate(op, a)
            assert np.array_equal(op.evaluate(a), u)
            assert np.array_equal(loaded.evaluate(a), u)
        assert loaded.certificates == op.certificates

    @pytest.mark.parametrize("task", ["network_solutions", "error_decomposition", "save_bundle"])
    def test_loaded_operator_has_no_basis(self, built_and_loaded, family, task, tmp_path):
        # these need the basis's space, config or nominal shift, which a bundle does not hold
        _, loaded = built_and_loaded
        members = C.sample_family(family, 1, 3)
        target = str(tmp_path / "bundle") if task == "save_bundle" else members
        with pytest.raises(ValueError, match=f"^{task} needs the operator's reduced basis"):
            getattr(P, task)(loaded, target)
        assert not os.listdir(tmp_path)

    def test_loaded_operator_has_no_quadrature_channels(self, built_and_loaded):
        with pytest.raises(ValueError, match="^quadrature_channels needs the operator's"):
            built_and_loaded[1].quadrature_channels
