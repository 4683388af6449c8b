import itertools

import numpy as np
import pytest

from richop import coeff as C
from richop import fem as F
from richop import mesh as M
from richop import reduced_basis as RB


def exhaustive_best_subset(snapshots, basis, n_select):
    """Oracle: minimize over all subsets of n_select snapshots the worst
    best-approximation error, spans always containing the anchor."""
    k0 = basis.nominal_stiffness
    sols = snapshots.solutions
    anchor = F.galerkin_solve(basis.space, basis.config, basis.config.scaled_nominal())
    best = np.inf
    for subset in itertools.combinations(range(snapshots.count), n_select):
        cols = np.column_stack([anchor] + [sols[:, j] for j in subset])
        q, _ = np.linalg.qr(_k_sqrt(k0) @ cols)
        proj = q @ (q.T @ (_k_sqrt(k0) @ sols))
        resid = _k_sqrt(k0) @ sols - proj
        worst = np.sqrt(np.maximum(np.sum(resid**2, axis=0), 0.0)).max()
        best = min(best, worst)
    return best


_sqrt_cache = {}


def _k_sqrt(k0):
    key = id(k0)
    if key not in _sqrt_cache:
        import scipy.linalg as la

        _sqrt_cache[key] = la.cholesky(k0.toarray(), lower=True).T
    return _sqrt_cache[key]


class TestSnapshots:
    def test_single_nominal_snapshot_is_anchor(self, space, config):
        fam = C.AffineFamily(
            alpha=config.alpha, beta=config.beta, modes=[C.constant(1.0)], domain=M.unit_square(),
            fill=1e-9,
        )
        snaps = RB.generate_snapshots(fam, 1, 0, space, config)
        anchor = F.galerkin_solve(space, config, config.scaled_nominal())
        assert np.max(np.abs(snaps.solutions[:, 0] - anchor)) < 1e-10

    def test_deterministic_parameters(self, family, space, config):
        s1 = RB.generate_snapshots(family, 5, 9, space, config)
        s2 = RB.generate_snapshots(family, 5, 9, space, config)
        for a, b in zip(s1.coefficients, s2.coefficients):
            assert np.array_equal(a.meta["params"], b.meta["params"])
        assert np.array_equal(s1.solutions, s2.solutions)

    def test_energy_bound_holds(self, snapshots, space, config):
        bound = F.nominal(space, config).f_dual / (config.alpha - config.beta)
        for j in range(snapshots.count):
            nrm = F.energy_norm(space, config, snapshots.solutions[:, j])
            assert nrm <= bound + 1e-8


class TestWeakGreedy:
    def test_degenerate_training_terminates_immediately(self, space, config):
        # constant-coefficient members scale the anchor, so the training set
        # lies in its span and the first residual is already at the floor
        fam = C.AffineFamily(
            alpha=config.alpha, beta=config.beta, modes=[C.constant(1.0)], domain=M.unit_square(),
            fill=0.5,
        )
        snaps = RB.generate_snapshots(fam, 6, 1, space, config)
        basis, trace = RB.weak_greedy(snaps, 5)
        assert basis.size == 1
        assert trace.residuals[-1] <= 1e-12

    def test_greedy_cannot_beat_exhaustive(self, space, config, family):
        snaps = RB.generate_snapshots(family, 6, 77, space, config)
        basis, trace = RB.weak_greedy(snaps, 6)
        for n in range(1, min(4, basis.size)):
            oracle = exhaustive_best_subset(snaps, basis, n)
            assert trace.residuals[n] >= oracle - 1e-10

    def test_weak_parameter_admissible_choice(self, snapshots):
        strong, _ = RB.weak_greedy(snapshots, 5, gamma=1.0)
        weak, trace = RB.weak_greedy(snapshots, 5, gamma=0.5)
        # weak greedy still drives the residual down monotonically
        assert all(
            trace.residuals[i + 1] <= trace.residuals[i] + 1e-14
            for i in range(len(trace.residuals) - 1)
        )
        assert weak.size == strong.size

    def test_two_parameter_analytic_decay_shape(self, space, config):
        fam = C.analytic_family(1.0, 0.5, M.unit_square(), n_modes=2, decay=1.0)
        snaps = RB.generate_snapshots(fam, 100, 7, space, config)
        basis, trace = RB.weak_greedy(snaps, 20)
        d = np.asarray(trace.residuals)
        assert all(d[i + 1] < d[i] for i in range(len(d) - 1))
        # decay-law shape: log delta is affine in sqrt(N) to good accuracy
        ns = np.arange(len(d))
        a = np.column_stack([np.sqrt(ns), np.ones(len(ns))])
        coefs, *_ = np.linalg.lstsq(a, np.log(d), rcond=None)
        pred = a @ coefs
        r2 = 1 - np.sum((np.log(d) - pred) ** 2) / np.sum(
            (np.log(d) - np.log(d).mean()) ** 2
        )
        assert coefs[0] < 0
        assert r2 >= 0.9

    def test_gamma_validation(self, snapshots):
        with pytest.raises(ValueError):
            RB.weak_greedy(snapshots, 3, gamma=0.0)

    def test_residual_trace_nonincreasing(self, basis_and_trace):
        _, trace = basis_and_trace
        r = trace.residuals
        assert all(r[i + 1] <= r[i] + 1e-14 for i in range(len(r) - 1))


class TestFrames:
    def test_ortho_gram_is_identity(self, basis):
        g = basis.ortho.T @ (basis.nominal_stiffness @ basis.ortho)
        assert np.max(np.abs(g - np.eye(basis.size))) < 1e-10

    def test_spans_agree(self, basis, snapshots, space, config):
        # the anchor and the selected snapshots project exactly onto the ortho span, which has
        # one column for each of them
        k0 = basis.nominal_stiffness
        q = basis.ortho
        anchor = F.galerkin_solve(space, config, config.scaled_nominal())
        spanned = np.column_stack([anchor, snapshots.solutions[:, basis.selection_indices]])
        assert spanned.shape == q.shape
        for v in spanned.T:
            resid = v - q @ (q.T @ (k0 @ v))
            assert np.sqrt(max(resid @ (k0 @ resid), 0)) < 1e-10

    def test_hierarchical_prefix(self, snapshots):
        big, _ = RB.weak_greedy(snapshots, 6)
        small, _ = RB.weak_greedy(snapshots, 4)
        assert np.array_equal(big.ortho[:, :5], small.ortho)
        assert big.selection_indices[:4] == small.selection_indices

    def test_anchor_first(self, basis, space, config):
        # the first column is the anchor scaled to unit energy norm
        anchor = F.galerkin_solve(space, config, config.scaled_nominal())
        unit = anchor / F.energy_norm(space, config, anchor)
        assert np.max(np.abs(basis.ortho[:, 0] - unit)) < 1e-12


class TestAnalyzeSynthesize:
    def test_synthesize_zero_and_units(self, basis):
        assert np.all(RB.synthesize(basis, np.zeros(basis.size), frame="ortho") == 0.0)
        for j in (0, 1):
            e = np.zeros(basis.size)
            e[j] = 1.0
            assert np.array_equal(RB.synthesize(basis, e, frame="ortho"), basis.ortho[:, j])

    def test_synthesis_norm_bound(self, basis, space, config, rng):
        # Cauchy-Schwarz chain: |sum c_i psi_i| <= |c|_2 sqrt(N+1) max |psi_i|
        c = rng.standard_normal(basis.size)
        val = F.energy_norm(space, config, RB.synthesize(basis, c, frame="ortho"))
        max_norm = max(
            F.energy_norm(space, config, basis.ortho[:, j])
            for j in range(basis.size)
        )
        assert val <= np.linalg.norm(c) * np.sqrt(basis.size) * max_norm + 1e-12

    def test_length_mismatch(self, basis):
        with pytest.raises(ValueError):
            RB.synthesize(basis, np.zeros(basis.size + 1), frame="ortho")

    @pytest.mark.parametrize("frame", ["raw", "Ortho", ""])
    def test_only_the_ortho_frame(self, basis, frame):
        # network and reduced-solve coefficients are ortho; any other frame is refused
        with pytest.raises(ValueError, match="frame"):
            RB.synthesize(basis, np.zeros(basis.size), frame=frame)


class TestProjectionCurve:
    def test_training_set_fully_resolved(self, snapshots):
        _, trace = RB.weak_greedy(snapshots, snapshots.count)
        assert trace.final <= 1e-10

    def test_monotone_nonincreasing(self, basis_and_trace):
        _, trace = basis_and_trace
        vals = trace.residuals + [trace.final]
        assert all(vals[i + 1] <= vals[i] + 1e-14 for i in range(len(vals) - 1))


def test_snapshot_above_energy_bound_is_a_solver_error(family, space, config, monkeypatch):
    monkeypatch.setattr(RB, "energy_norm", lambda *args, **kwargs: 1e6)
    with pytest.raises(F.SolverError, match="a priori energy bound"):
        RB.generate_snapshots(family, 2, 0, space, config)


def test_weak_greedy_refuses_an_empty_snapshot_set(space, config):
    empty = RB.SnapshotSet([], np.zeros((space.n_free, 0)), space, config)
    with pytest.raises(ValueError, match="empty snapshot set"):
        RB.weak_greedy(empty, 3)


def test_weak_greedy_refuses_a_vanished_anchor(family, space):
    # an unnormalized zero source: every snapshot and the anchor are zero
    zero = F.ProblemConfig(1.0, 0.5, f=C.constant(0.0))
    snaps = RB.generate_snapshots(family, 3, 0, space, zero)
    with pytest.raises(RB.IllConditionedBasisError, match="anchor solution vanished"):
        RB.weak_greedy(snaps, 2)
