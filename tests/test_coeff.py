
import hashlib
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from richop import coeff as C
from richop import encoder as E
from richop import fem as F
from richop import mesh as M


@dataclass(frozen=True)
class MembershipResult:
    ok: bool
    min_value: float
    min_point: np.ndarray
    max_value: float
    max_point: np.ndarray

    def __bool__(self) -> bool:
        return self.ok


def membership(a, alpha, beta, grid_n, domain) -> MembershipResult:
    """Sampled essinf/esssup test for membership in the admissible cone.

    True iff min sample >= alpha - beta - 1e-12 and max sample
    <= alpha + beta + 1e-12 over a grid_n x grid_n sampling of the domain
    (C.domain_grid). A sample only bounds the range from inside, so the
    library certifies members in closed form; this is the sampled reference
    the tests compare against.
    """
    pts = C.domain_grid(domain, grid_n)
    vals = a(pts)
    if not np.all(np.isfinite(vals)):
        raise ValueError("coefficient evaluated to a non-finite value")
    imin, imax = int(np.argmin(vals)), int(np.argmax(vals))
    ok = bool(vals[imin] >= alpha - beta - 1e-12 and vals[imax] <= alpha + beta + 1e-12)
    return MembershipResult(ok, float(vals[imin]), pts[imin], float(vals[imax]), pts[imax])


class TestMembership:
    def test_constant_at_center(self, square):
        assert membership(C.constant(1.0), 1.0, 0.25, 16, square).ok

    def test_boundary_cases(self, square):
        inside = C.CoefficientField(
            lambda p: 1.0 + 0.5 * np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])
        )
        assert membership(inside, 1.0, 0.5, 32, square).ok
        assert not membership(C.constant(2.0), 1.0, 0.5, 8, square).ok

    def test_witness_matches_dense_oracle(self, square):
        a = C.CoefficientField(lambda p: 1.0 + 0.4 * np.cos(3 * p[:, 0]) * np.cos(2 * p[:, 1]))
        res = membership(a, 1.0, 0.5, 200, square)
        assert res.ok
        pts = C.domain_grid(square, 1000)
        vals = a(pts)
        j = int(np.argmin(vals))
        assert abs(res.min_value - vals[j]) < 1e-4
        assert np.linalg.norm(res.min_point - pts[j]) < 2.0 / 200 * np.sqrt(2) + 2e-3

    @settings(max_examples=20, deadline=None)
    @given(
        beta1=st.floats(min_value=0.05, max_value=0.45),
        extra=st.floats(min_value=0.01, max_value=0.5),
    )
    def test_monotone_in_beta(self, square, beta1, extra):
        a = C.CoefficientField(lambda p: 1.0 + 0.04 * np.sin(7 * p[:, 0]))
        first = membership(a, 1.0, beta1, 16, square).ok
        if first:
            assert membership(a, 1.0, beta1 + extra, 16, square).ok

    def test_nonfinite_raises(self, square):
        bad = C.CoefficientField(lambda p: np.where(p[:, 0] > 0.5, np.inf, 1.0))
        with pytest.raises(ValueError):
            membership(bad, 1.0, 0.5, 16, square)

    def test_grid_n_validation(self, square):
        with pytest.raises(ValueError):
            C.domain_grid(square, 1)


class TestAbsShift:
    def test_nonnegative_branch(self, square, rng):
        base = C.CoefficientField(lambda p: 0.3 + 0.2 * p[:, 0])
        shifted = C.abs_shift(base, 0.1)
        pts = rng.uniform(0, 1, (50, 2))
        assert np.max(np.abs(shifted(pts) - (0.1 + base(pts)))) == 0.0

    def test_evenness(self, square, rng):
        base = C.CoefficientField(lambda p: np.sin(5 * p[:, 0]) - 0.2)
        neg = C.affine_combination([base], [-1.0])
        s1 = C.abs_shift(base, 0.3)
        s2 = C.abs_shift(neg, 0.3)
        pts = rng.uniform(0, 1, (100, 2))
        assert np.array_equal(s1(pts), s2(pts))

    def test_sine_range_scan(self, square):
        a = C.CoefficientField(lambda p: np.sin(2 * np.pi * p[:, 0]))
        shifted = C.abs_shift(a, 0.1)
        vals = shifted(C.domain_grid(square, 400))
        assert abs(vals.min() - 0.1) < 1e-4
        assert abs(vals.max() - 1.1) < 1e-4

    def test_essinf_above_shift(self, square, rng):
        # any abs-shifted field sits in a cone with essinf >= a_min
        a = C.CoefficientField(lambda p: np.cos(4 * p[:, 0] + p[:, 1]))
        shifted = C.abs_shift(a, 0.25)
        vals = shifted(C.domain_grid(square, 300))
        alpha_eff = 0.5 * (vals.min() + vals.max())
        beta_eff = 0.5 * (vals.max() - vals.min())
        assert alpha_eff - beta_eff >= 0.25 - 1e-12
        assert membership(shifted, alpha_eff, beta_eff + 1e-9, 100, square).ok

    def test_invalid_shift(self):
        with pytest.raises(ValueError):
            C.abs_shift(C.constant(1.0), 0.0)


class TestAffineFields:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-3, max_value=3, allow_nan=False),
            min_size=3,
            max_size=3,
        )
    )
    def test_linearity(self, weights):
        fields = [
            C.constant(1.0),
            C.trig_mode(1, 0),
            C.trig_mode(2, 1),
        ]
        combo = C.affine_combination(fields, weights)
        pts = np.array([[0.3, 0.7], [0.1, 0.9], [0.55, 0.25]])
        stacked = np.stack([f(pts) for f in fields], axis=1)
        expected = stacked @ np.asarray(weights)
        assert np.max(np.abs(combo(pts) - expected)) <= 1e-14

    def test_weight_count_mismatch(self):
        with pytest.raises(ValueError):
            C.affine_combination([C.constant(1.0)], [1.0, 2.0])

    def test_scalar_point_evaluation(self):
        a = C.constant(2.5)
        assert a(np.array([0.5, 0.5])) == 2.5


class TestFamilies:
    def test_parametric_determinism(self, square):
        modes = [C.trig_mode(k + 1, 1) for k in range(4)]
        fam = C.AffineFamily(alpha=1.0, beta=0.5, modes=modes, domain=square)
        s1 = C.sample_family(fam, 10, 42)
        s2 = C.sample_family(fam, 10, 42)
        pts = C.domain_grid(square, 40)
        for a, b in zip(s1, s2):
            assert np.array_equal(a(pts), b(pts))
            assert np.array_equal(a.meta["params"], b.meta["params"])

    def test_analytic_family_membership(self, square):
        fam = C.analytic_family(1.0, 0.5, square, n_modes=5, decay=0.6)
        for a in C.sample_family(fam, 50, 7):
            assert membership(a, 1.0, 0.5, 48, square).ok

    @pytest.mark.parametrize("n_modes", [0, -1, 9, 12])
    def test_analytic_family_refuses_mode_count_out_of_range(self, square, n_modes):
        # the family has eight stored wavenumbers; a slice would silently
        # give 8 modes for n_modes=12 and 7 for n_modes=-1
        with pytest.raises(ValueError, match="1 to 8 modes"):
            C.analytic_family(1.0, 0.5, square, n_modes=n_modes)

    def test_analytic_family_takes_one_to_eight_modes(self, square):
        for n_modes in range(1, 9):
            fam = C.analytic_family(1.0, 0.5, square, n_modes=n_modes)
            assert len(fam.modes) == n_modes

    def test_analytic_family_derivative_envelope_low_orders(self, square):
        # factorially controlled derivatives are verified for orders <= 4
        # via the analytic per-mode bound |d^nu mode| <= (k pi)^{|nu|}
        fam = C.analytic_family(1.0, 0.5, square, n_modes=4, decay=0.7)
        a_bound = C.ANALYTIC_BOUND
        scale = fam.beta * fam.fill / fam.normalizer
        import math

        for m in range(5):
            total = fam.alpha if m == 0 else 0.0
            for amp, mode in zip(fam.amplitudes, fam.modes):
                k = max(mode.meta["kx"], mode.meta["ky"]) * np.pi
                total += scale * amp * k**m
            assert total <= a_bound ** (m + 1) * math.factorial(m)

    def test_normalizer_is_neither_passed_nor_set(self, square):
        # a normalizer below the certified bound of the modes would let members
        # overshoot the band: the constructor computes it, and nothing else can
        with pytest.raises(TypeError, match="normalizer"):
            C.AffineFamily(alpha=1.0, beta=0.3, domain=square, modes=(C.trig_mode(1, 0),),
                           normalizer=0.2)
        fam = C.AffineFamily(alpha=1.0, beta=0.3, modes=[C.trig_mode(1, 0)], domain=square,
                             fill=1.0)
        with pytest.raises(AttributeError):
            fam.normalizer = 0.2
        assert fam.normalizer == 1.0

    def test_sobolev_seminorm_estimate(self, square):
        # piecewise-P2 fields have gradient kinks on element interfaces, so
        # the finite-difference stencil must stay inside one element, where
        # second derivatives are constant and the estimate is exact
        coarse = M.triangulate(square, 0.5)
        fam = C.SobolevBall(alpha=1.0, beta=0.5, domain=coarse, order=2, radius=60.0)
        members = C.sample_family(fam, 5, 3)
        bary = coarse.nodes[coarse.triangles].mean(axis=1)
        g = 0.02
        offsets = g * np.array(
            [[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [1, -1], [-1, 1], [-1, -1]]
        )
        for a in members:
            est = 0.0
            for center in bary:
                v = a(center[None, :] + offsets)
                dxx = (v[1] - 2 * v[0] + v[2]) / g**2
                dyy = (v[3] - 2 * v[0] + v[4]) / g**2
                dxy = (v[5] - v[6] - v[7] + v[8]) / (4 * g**2)
                est = max(est, abs(dxx), abs(dyy), abs(dxy))
            assert est <= fam.radius

    def test_abs_family_members(self, square):
        fam = C.AbsShiftFamily(
            alpha=1.0, beta=0.5, modes=[C.trig_mode(1, 0), C.trig_mode(1, 1)], domain=square,
            a_min=0.6, amplitude=0.8,
        )
        for a in C.sample_family(fam, 10, 5):
            vals = a(C.domain_grid(square, 64))
            assert vals.min() >= 0.6 - 1e-12
            assert vals.max() <= 1.4 + 1e-12

    def test_abs_family_band_validation(self, square):
        with pytest.raises(ValueError):
            C.AbsShiftFamily(alpha=1.0, beta=0.2, modes=[C.trig_mode(1, 0)], domain=square,
                             a_min=0.6, amplitude=0.8)

    def test_inadmissible_family_detected(self, square):
        # fill > 1 is rejected up front, for every kind that has a fill
        for kind, own in [
            (C.AffineFamily, {"modes": (C.trig_mode(1, 0),)}),
            (C.SobolevBall, {"domain": M.triangulate(square, 0.5)}),
        ]:
            with pytest.raises(ValueError, match="fill"):
                kind(**{"alpha": 1.0, "beta": 0.5, "domain": square, **own, "fill": 1.5})

    def test_abs_family_has_no_fill(self, square):
        # an abs-shift member lies in [a_min, a_min + amplitude]: no fill applies,
        # so the family neither shows one nor accepts one
        fam = C.AbsShiftFamily(alpha=1.0, beta=0.5, modes=[C.trig_mode(1, 0)], domain=square,
                               a_min=0.6, amplitude=0.8)
        assert "fill" not in repr(fam)
        assert not hasattr(fam, "fill")
        own = {"modes": (C.trig_mode(1, 0),), "a_min": 0.6, "amplitude": 0.8}
        for fill in (0.5, 1.5):
            with pytest.raises(TypeError, match="fill"):
                C.AbsShiftFamily(alpha=1.0, beta=0.5, domain=square, **own, fill=fill)

    def test_count_validation(self, square, family):
        with pytest.raises(ValueError):
            C.sample_family(family, 0, 1)


class TestMeshField:
    def test_p1_reproduces_nodal_values(self, square):
        mesh = M.triangulate(square, 0.5)
        vals = np.cos(mesh.nodes[:, 0] * 2 + mesh.nodes[:, 1])
        field = C.mesh_field(mesh, vals, 1)
        assert np.max(np.abs(field(mesh.nodes) - vals)) < 1e-13

    def test_p1_linear_between_nodes(self, square):
        mesh = M.triangulate(square, 0.5)
        lin = 0.7 * mesh.nodes[:, 0] - 0.4 * mesh.nodes[:, 1] + 2.0
        field = C.mesh_field(mesh, lin, 1)
        pts = C.domain_grid(square, 55)
        expected = 0.7 * pts[:, 0] - 0.4 * pts[:, 1] + 2.0
        assert np.max(np.abs(field(pts) - expected)) < 1e-13

    def test_outside_point_raises(self, square):
        mesh = M.triangulate(square, 0.5)
        field = C.mesh_field(mesh, np.ones(mesh.n_nodes), 1)
        with pytest.raises(ValueError):
            field(np.array([[2.0, 2.0]]))


def _p1_trig_modes(mesh):
    """The P1 mesh_field modes of acceptance criterion 12."""
    waves = [(1, 0), (0, 1), (1, 1), (2, 1)]
    return [C.mesh_field(mesh, C.trig_mode(kx, ky)(mesh.nodes), 1) for kx, ky in waves]


# one family of each kind; members must lie in the band of their kind
_CERTIFIED_KINDS = {
    "analytic": lambda sq: C.analytic_family(1.0, 0.5, sq, n_modes=8, decay=0.8),
    "trig_parametric": lambda sq: C.AffineFamily(
        alpha=1.0, beta=0.5, modes=[C.trig_mode(k + 1, k % 2 + 1) for k in range(4)], domain=sq,
        fill=1.0,
    ),
    "p1_mesh_field": lambda sq: C.AffineFamily(
        alpha=1.0, beta=0.5, modes=_p1_trig_modes(M.triangulate(sq, 0.5)), domain=sq,
        amplitudes=[1.0, -0.5, 0.7, 0.2],
    ),
    "constant": lambda sq: C.AffineFamily(alpha=1.0, beta=0.5, modes=[C.constant(-2.0)], domain=sq),
    "abs_shift": lambda sq: C.AbsShiftFamily(
        alpha=1.0, beta=0.5, modes=[C.trig_mode(1, 0), C.trig_mode(1, 1)], domain=sq, a_min=0.6,
        amplitude=0.8,
    ),
    "sobolev_p1": lambda sq: C.SobolevBall(alpha=1.0, beta=0.5, domain=M.triangulate(sq, 0.4),
                                           degree=1),
    "sobolev_p2": lambda sq: C.SobolevBall(alpha=1.0, beta=0.5, domain=M.triangulate(sq, 0.4),
                                           degree=2),
}


# the affine families the repo builds: analytic in src, tests and bench, the
# CLI parametric kind, criterion 12's P1 modes, the constant mode, abs_family
_REPO_FAMILIES = {
    **{
        f"analytic{n}_{dom.__name__}": (
            lambda n=n, d=d, dom=dom: C.analytic_family(1.0, 0.5, dom(), n_modes=n, decay=d)
        )
        for n, d in [(2, 1.0), (4, 0.7), (5, 0.6), (8, 0.8)]
        for dom in (M.unit_square, M.lshape)
    },
    "cli_parametric": lambda: C.AffineFamily(
        alpha=1.0, beta=0.5, modes=[C.trig_mode(k + 1, k % 2 + 1) for k in range(4)],
        domain=M.unit_square(),
    ),
    "p1_mesh_field": lambda: C.AffineFamily(
        alpha=1.0, beta=0.5, modes=_p1_trig_modes(M.triangulate(M.unit_square(), 0.35)),
        domain=M.unit_square(),
    ),
    "constant": lambda: C.AffineFamily(alpha=1.0, beta=0.5, modes=[C.constant(1.0)],
                                       domain=M.unit_square()),
    "abs_family": lambda: C.AbsShiftFamily(
        alpha=1.0, beta=0.5, modes=[C.trig_mode(1, 0), C.trig_mode(1, 1)], domain=M.unit_square(),
        a_min=0.6, amplitude=0.8,
    ),
}


def _old_grid_normalizer(family):
    """The 200 x 200 grid maximum of sum_k |c_k xi_k| that the closed form replaced."""
    pts = C.domain_grid(family.domain, 200)
    total = np.zeros(len(pts))
    for amp, mode in zip(family.amplitudes, family.modes):
        total += abs(amp) * np.abs(mode(pts))
    return float(total.max())


class TestCertifiedFamilies:
    @pytest.mark.parametrize("kind", sorted(_CERTIFIED_KINDS))
    def test_members_lie_in_band_on_dense_lattice(self, square, kind):
        fam = _CERTIFIED_KINDS[kind](square)
        if isinstance(fam, C.AbsShiftFamily):
            lo, hi = fam.a_min, fam.a_min + fam.amplitude
        else:
            lo, hi = fam.alpha - fam.beta * fam.fill, fam.alpha + fam.beta * fam.fill
        pts = C.domain_grid(square, 400)
        # random draws, and the corners y = +-sign(c) of the parameter box,
        # where an affine member reaches its band at the origin
        affine = isinstance(fam, C.AffineFamily)
        corner = np.sign(fam.amplitudes) if affine else np.ones(fam.n_params)
        extremes = [fam.member(sign * corner) for sign in (1.0, -1.0)]
        for a in C.sample_family(fam, 4, 17) + extremes:
            vals = a(pts)
            assert vals.min() >= lo - 1e-12
            assert vals.max() <= hi + 1e-12

    @pytest.mark.parametrize("name", sorted(_REPO_FAMILIES))
    def test_normalizer_equals_old_grid_maximum(self, name):
        fam = _REPO_FAMILIES[name]()
        assert fam.normalizer == _old_grid_normalizer(fam)

    def test_callable_mode_refused(self, square):
        mode = C.CoefficientField(lambda p: np.cos(np.pi * p[:, 0]))
        with pytest.raises(ValueError, match="closed-form"):
            C.AffineFamily(alpha=1.0, beta=0.5, modes=[mode], domain=square)

    def test_empty_mode_list_refused(self, square):
        with pytest.raises(ValueError, match="at least one mode"):
            C.AffineFamily(alpha=1.0, beta=0.5, modes=[], domain=square)

    def test_hand_made_abs_family_outside_band_refused(self, square):
        with pytest.raises(ValueError, match="band"):
            C.AbsShiftFamily(alpha=1.0, beta=0.2, modes=(C.trig_mode(1, 0),),
                             amplitudes=(1.0,), domain=square, a_min=0.6, amplitude=0.8)

    def test_bernstein_range_exact_for_p1(self, square):
        mesh = M.triangulate(square, 0.3)
        vals = np.sin(3 * mesh.nodes[:, 0]) - np.cos(2 * mesh.nodes[:, 1])
        lo, hi = C._bernstein_range(vals, mesh.triangles, 1)
        assert (lo, hi) == (vals.min(), vals.max())
        sampled = C.mesh_field(mesh, vals, 1)(C.domain_grid(square, 400))
        assert lo - 1e-12 <= sampled.min() and sampled.max() <= hi + 1e-12

    def test_bernstein_range_encloses_p2_sample(self, square):
        mesh = M.triangulate(square, 0.4)
        coords, cell_dofs = M._lagrange_dofs(mesh, 2)[:2]
        rng = np.random.default_rng(5)
        for _ in range(5):
            vals = rng.uniform(-1.0, 1.0, len(coords))
            lo, hi = C._bernstein_range(vals, cell_dofs, 2)
            sampled = C.mesh_field(mesh, vals, 2)(C.domain_grid(square, 400))
            assert lo - 1e-12 <= sampled.min() and sampled.max() <= hi + 1e-12


class TestSobolevParameters:
    def test_order_zero_is_not_order_two(self, square):
        coarse = M.triangulate(square, 0.5)
        pts = C.domain_grid(square, 30)
        zero = C.sample_family(C.SobolevBall(alpha=1.0, beta=0.5, domain=coarse, order=0), 4, 3)
        two = C.sample_family(C.SobolevBall(alpha=1.0, beta=0.5, domain=coarse, order=2), 4, 3)
        for a, b in zip(zero, two):
            assert not np.array_equal(a(pts), b(pts))

    def test_negative_order_refused(self, square):
        with pytest.raises(ValueError, match="order"):
            C.SobolevBall(alpha=1.0, beta=0.5, domain=M.triangulate(square, 0.5), order=-1)

    @pytest.mark.parametrize("radius", [0.0, -1.0])
    def test_nonpositive_radius_refused(self, square, radius):
        with pytest.raises(ValueError, match="radius"):
            C.SobolevBall(alpha=1.0, beta=0.5, domain=M.triangulate(square, 0.5), radius=radius)


def _uncached(fam, a, pts):
    """A family member's values through affine_combination or mesh_field, no table."""
    if isinstance(fam, C.AbsShiftFamily):
        raw = C.affine_combination(fam.modes, a.meta["raw"].meta["weights"])
        return fam.a_min + np.abs(raw(pts))
    if isinstance(fam, C.SobolevBall):
        return C.mesh_field(fam.domain, a.meta["values"], fam.degree)(pts)
    return C.affine_combination([C.constant(1.0), *fam.modes], a.meta["weights"])(pts)


def _point_entries(fam):
    """The keys of a family's per-point-set tables."""
    return list(fam._tables)


def _read_only(pts):
    pts = np.array(pts)
    pts.flags.writeable = False
    return pts


_TABLE_KINDS = ("analytic", "trig_parametric", "p1_mesh_field", "abs_shift", "sobolev_p1",
                "sobolev_p2")


class TestMemberTables:
    @pytest.fixture(scope="class")
    def point_sets(self, square):
        # read-only quadrature points, and the same points reversed: one shape, other values
        quad = F.quadrature_points(F.build_space(M.triangulate(square, 0.25), 1))
        return quad, _read_only(quad[::-1])

    @pytest.mark.parametrize("kind", _TABLE_KINDS)
    def test_members_equal_the_uncached_fields(self, square, point_sets, kind):
        fam = _CERTIFIED_KINDS[kind](square)
        for a in C.sample_family(fam, 5, 11):
            for pts in point_sets + point_sets:
                assert np.array_equal(a(pts), _uncached(fam, a, pts))
        assert len(_point_entries(fam)) == 2

    @pytest.mark.parametrize("kind", ["analytic", "p1_mesh_field", "abs_shift"])
    def test_each_mode_runs_once_per_point_set(self, square, point_sets, kind, monkeypatch):
        fam = _CERTIFIED_KINDS[kind](square)
        calls = []
        for k, mode in enumerate(fam.modes):
            monkeypatch.setattr(mode, "_fn", lambda p, fn=mode._fn, k=k: calls.append(k) or fn(p))
        members = C.sample_family(fam, 40, 3)
        for pts in point_sets:
            for a in members:
                a(pts)
        assert sorted(calls) == sorted(2 * list(range(len(fam.modes))))

    @pytest.mark.parametrize("degree", [1, 2])
    def test_sobolev_locates_once_per_point_set(self, square, point_sets, degree, monkeypatch):
        fam = C.SobolevBall(alpha=1.0, beta=0.5, domain=M.triangulate(square, 0.4),
                            degree=degree)
        located = []
        real = C.locate_points
        monkeypatch.setattr(C, "locate_points", lambda *a, **k: located.append(1) or real(*a, **k))
        members = C.sample_family(fam, 40, 3)
        for pts in point_sets:
            for a in members:
                a(pts)
        assert len(located) == 2

    @pytest.mark.parametrize("degree", [1, 2])
    def test_sobolev_dof_table_built_once(self, square, point_sets, degree, monkeypatch):
        mesh = M.triangulate(square, 0.4)
        fam = C.SobolevBall(alpha=1.0, beta=0.5, domain=mesh, degree=degree)
        built, real = [], M._lagrange_dofs
        monkeypatch.setattr(C, "_lagrange_dofs", lambda *a: built.append(1) or real(*a))
        members = C.sample_family(fam, 40, 3)
        for a in members:
            a(point_sets[0])
        assert len(built) == 1
        # each member's nodal values, by the per-member formula
        coords, cell_dofs, _ = real(mesh, degree)
        amps = C._sobolev_amplitudes(fam.order)
        k2 = np.array([kx * kx + ky * ky for kx, ky in C._SOBOLEV_WAVES])
        draw = np.random.default_rng(3).uniform(-1.0, 1.0, (40, len(C._SOBOLEV_WAVES)))
        for y, a in zip(draw, members):
            raw = np.zeros(len(coords))
            for y_k, amp, (kx, ky) in zip(y, amps, C._SOBOLEV_WAVES):
                raw += y_k * amp * np.cos(kx * np.pi * coords[:, 0]) * np.cos(ky * np.pi * coords[:, 1])
            lo, hi = C._bernstein_range(raw, cell_dofs, degree)
            scale = fam.beta * fam.fill / max(0.5 * (hi - lo), 1e-12)
            curvature = scale * float(np.sum(np.abs(y) * amps * k2)) * np.pi**2
            if curvature > 0.8 * fam.radius:
                scale *= 0.8 * fam.radius / curvature
            assert np.array_equal(a.meta["values"], fam.alpha + scale * (raw - 0.5 * (lo + hi)))

    @pytest.mark.parametrize("kind", _TABLE_KINDS)
    def test_writable_points_are_never_cached(self, square, point_sets, kind):
        fam = _CERTIFIED_KINDS[kind](square)
        a = C.sample_family(fam, 1, 4)[0]
        pts = np.array(point_sets[0])
        first = a(pts)
        pts[:] = pts[::-1].copy()
        assert np.array_equal(a(pts), first[::-1])
        assert np.array_equal(a(pts), _uncached(fam, a, pts))
        assert not _point_entries(fam)

    def test_dead_point_arrays_leave_no_entries(self, square, point_sets):
        fam = _CERTIFIED_KINDS["analytic"](square)
        a = C.sample_family(fam, 1, 4)[0]
        kept = point_sets[0]
        a(kept)
        rng = np.random.default_rng(8)
        for _ in range(100):
            # a new array may take a dead one's id; it must not find that one's table
            pts = _read_only(kept[rng.permutation(len(kept))])
            assert np.array_equal(a(pts), _uncached(fam, a, pts))
            del pts
        assert list(fam._tables) == [id(kept)]

    def test_encoder_query_points_are_read_only(self, square, monkeypatch):
        space = F.build_space(M.triangulate(square, 0.3), 1)
        enc = E.build_nodal_encoder(space)
        with pytest.raises(ValueError):
            enc.query_points[0, 0] = 0.5
        fam = _CERTIFIED_KINDS["analytic"](square)
        calls = []
        mode = fam.modes[0]
        monkeypatch.setattr(mode, "_fn", lambda p, fn=mode._fn: calls.append(1) or fn(p))
        for a in C.sample_family(fam, 40, 3):
            assert np.array_equal(enc.encode(a), _uncached(fam, a, enc.query_points))
        assert len(calls) == 1 + 40  # the table once, and the 40 uncached references


# the families whose members are pinned bit for bit: one per kind, and both Sobolev degrees
_GOLDEN_FAMILIES = {
    "analytic": lambda sq: C.analytic_family(1.0, 0.5, sq, n_modes=4, decay=0.7),
    "parametric": lambda sq: C.AffineFamily(
        alpha=1.0, beta=0.5, modes=[C.trig_mode(k + 1, k % 2 + 1) for k in range(4)], domain=sq
    ),
    "abs_family": lambda sq: C.AbsShiftFamily(
        alpha=1.0, beta=0.5, modes=[C.trig_mode(1, 0), C.trig_mode(1, 1)], domain=sq, a_min=0.6,
        amplitude=0.8,
    ),
    "sobolev_p1": lambda sq: C.SobolevBall(alpha=1.0, beta=0.5, domain=M.triangulate(sq, 0.4),
                                           degree=1),
    "sobolev_p2": lambda sq: C.SobolevBall(alpha=1.0, beta=0.5, domain=M.triangulate(sq, 0.4),
                                           degree=2),
}


class TestGoldenMembers:
    # the first 16 hex digits of sha256 over the values ("<f8") of the 7 members of
    # sample_family(fam, 7, 3) on a read-only 17 x 17 grid, member by member
    @pytest.mark.parametrize(
        "name, digest",
        [
            ("analytic", "e1d3695ca70ba640"),
            ("parametric", "6f2c0eab57ebe5e9"),
            ("abs_family", "4c361f62224c42d0"),
            ("sobolev_p1", "f49638d99e587fee"),
            ("sobolev_p2", "dbc4bfb350532d96"),
        ],
    )
    def test_member_values_pinned(self, square, name, digest):
        fam = _GOLDEN_FAMILIES[name](square)
        pts = _read_only(C.domain_grid(square, 17))
        writable = np.array(pts)
        for points in (pts, writable):  # through the cached table, and without it
            h = hashlib.sha256()
            for a in C.sample_family(fam, 7, 3):
                h.update(np.ascontiguousarray(a(points), dtype="<f8").tobytes())
            assert h.hexdigest()[:16] == digest


@pytest.mark.parametrize("beta", [1.0, 1.5], ids=["beta_alpha", "beta_above_alpha"])
def test_family_outside_the_band_is_refused(square, beta):
    with pytest.raises(ValueError, match="0 < beta < alpha"):
        C.analytic_family(1.0, beta, square)


def test_domain_grid_of_a_non_domain_is_a_type_error():
    with pytest.raises(TypeError, match="Polygon or Mesh"):
        C.domain_grid(np.array([[0.0, 0.0], [1.0, 1.0]]), 10)
