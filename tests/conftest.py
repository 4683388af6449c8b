import copy

import numpy as np
import pytest

from richop import coeff as C
from richop import encoder as E
from richop import fem as F
from richop import mesh as M
from richop import pipeline as P
from richop import reduced_basis as RB
from richop import richardson as R


@pytest.fixture(scope="session")
def square():
    return M.unit_square()


@pytest.fixture(scope="session")
def square_mesh(square):
    return M.triangulate(square, 0.12)


@pytest.fixture(scope="session")
def space(square_mesh):
    return F.build_space(square_mesh, 1)


@pytest.fixture(scope="session")
def config(space):
    return F.normalize_source(space, F.ProblemConfig(1.0, 0.5))


@pytest.fixture(scope="session")
def k0(space, config):
    return F.nominal(space, config).stiffness


@pytest.fixture(scope="session")
def family(square):
    return C.analytic_family(1.0, 0.5, square, n_modes=4, decay=0.7, fill=0.9)


@pytest.fixture(scope="session")
def snapshots(family, space, config):
    return RB.generate_snapshots(family, 30, 123, space, config)


@pytest.fixture(scope="session")
def basis_and_trace(snapshots):
    return RB.weak_greedy(snapshots, 8)


@pytest.fixture(scope="session")
def basis(basis_and_trace):
    return basis_and_trace[0]


@pytest.fixture(scope="session")
def nodal_encoder(square):
    return E.build_nodal_encoder(F.build_space(M.triangulate(square, 0.3), 1))


@pytest.fixture(scope="session")
def operator(family, config, space, nodal_encoder):
    return P.build_operator(
        family, config, space, 30, 8, nodal_encoder, 1e-2, seed=123
    )


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def stack_builds(monkeypatch):
    """From now on, the shape of each block whose stack richardson.reduced_stiffness
    builds: a cached stack that is read again is not built again."""
    built, real = [], R._per_points

    def counting(cache, block, build):
        def recorded(block):
            built.append(np.shape(block))
            return build(block)

        return real(cache, block, recorded)

    monkeypatch.setattr(R, "_per_points", counting)
    return built


@pytest.fixture
def cg_applications(monkeypatch):
    """From now on, the preconditioner applications of each fem._cg run, one entry per run:
    each run sees a copy of its Assembly whose factor counts its solves."""
    counts, real = [], F._cg

    class Counting:
        def __init__(self, factor):
            self.factor = factor

        def solve(self, r):
            counts[-1] += 1
            return self.factor.solve(r)

    def cg(asm, data, rhs, start=None):
        counts.append(0)
        counted = copy.copy(asm)
        vars(counted)["laplace"] = Counting(asm.laplace)
        return real(counted, data, rhs, start)

    monkeypatch.setattr(F, "_cg", cg)
    return counts
