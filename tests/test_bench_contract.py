"""The library names that the benchmark under bench/ binds.

The benchmark is versioned apart from the library, so a rename or a removed
parameter in src/ breaks it without failing any other test. These tests run
its tracer, its workload set-up and its untraced phases on a tiny problem.
"""

import inspect
import os
import pathlib
import re
import sys

import pytest

import richop

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        import spans
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return spans, workloads


def test_tracer_binds_every_traced_name(bench):
    spans, _ = bench
    tracer = spans.Tracer()
    try:
        tracer.install()  # getattr of every name in __all__ and _EXTRA
    finally:
        tracer.uninstall()
    assert tracer._patched == []


def test_counted_arguments_are_parameters(bench):
    spans, _ = bench
    for name, argument in spans._ITEMS.items():
        obj = richop
        for part in name.split("."):
            obj = getattr(obj, part)
        assert argument in inspect.signature(obj).parameters, name


# The richop functions that bench/workloads.py calls to set a workload up. The traced
# set-up gate compares the traced set-up time with the sum of the layers' self times,
# so each must be a traced function: a class, or a class bound to a build_* name, is not.
_WORKLOAD_CALLS = (
    "mesh.unit_square", "mesh.triangulate", "mesh.quad_split", "fem.build_space",
    "fem.normalize_source", "coeff.constant", "coeff.analytic_family",
    "encoder.build_nodal_encoder", "encoder.build_gll_encoder", "pipeline.build_operator",
)


def test_workload_set_up_calls_are_traced(bench):
    spans, _ = bench
    source = (BENCH / "workloads.py").read_text()
    called = set(re.findall(r"\b((?:mesh|fem|coeff|encoder|pipeline)\.[a-z_]+)\(", source))
    assert called == set(_WORKLOAD_CALLS)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for name in _WORKLOAD_CALLS:
            module, attr = name.split(".")
            assert hasattr(getattr(getattr(richop, module), attr), "__wrapped__"), name
    finally:
        tracer.uninstall()


@pytest.fixture(scope="module")
def tiny_cfg(bench):
    _, workloads = bench
    return workloads._variant(mesh={"h": 0.3}, encoder={"h": 0.5},
                              reduction={"training_count": 6, "n_basis": 3})


@pytest.fixture(scope="module")
def tiny(bench, tiny_cfg):
    _, workloads = bench
    return workloads.setup(tiny_cfg, 1)


def test_workload_setup_and_swept_build(tiny):
    op = tiny.op
    # the positional call of the benchmark's epsilon sweep
    swept = richop.relu_net.build_approximator(op.basis, tiny.space, tiny.config, op.encoder,
                                               1e-3, beta_eff=op.certificates["beta_eff"])
    assert swept.report.depth >= op.approximator.report.depth


def test_verify_phase_counts_the_dense_reduced_solves(bench, tiny):
    # the verify phase's dense reduced solves reach richardson.direct_solve_s
    spans, _ = bench
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.root("verify"):
            richop.pipeline.error_decomposition(
                tiny.op, richop.coeff.sample_family(tiny.family, 1, 5))
    finally:
        tracer.uninstall()
    assert tracer.total("richardson.direct_solve", 0) >= 1


@pytest.fixture(scope="module")
def bench_run(bench):
    """bench/run.py as a module; its import sets the BLAS thread variables, which are put
    back as they were so that later subprocesses do not inherit them."""
    saved = dict(os.environ)
    sys.path.insert(0, str(BENCH))
    try:
        import run
    finally:
        sys.path.remove(str(BENCH))
        for var in run.THREAD_VARS:
            if var in saved:
                os.environ[var] = saved[var]
            else:
                os.environ.pop(var, None)
    return run


def test_untraced_phases_pass_the_gate(bench_run, tiny_cfg, tmp_path, monkeypatch):
    # every phase of an untraced run reads the library: op.frame, the net's unrolled form,
    # synthesize(..., frame=), error_decomposition and the loaded NeuralOperator's evaluate
    run = bench_run
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    gate = run.Gate()
    session = run.Session(richop, tiny_cfg, 1, gate)
    session.prepare(session.setup())
    session.evaluate(0)
    session.batch()
    _, ratio = session.verify(0)
    _, size = session.bundle()
    counts = run.net_counts(session.op.approximator.net)
    assert gate.failed == 0 and gate.attempted == 12, gate.messages  # 8 of them are bundle checks
    assert 0 <= ratio <= 1 and size > 0 and os.listdir(tmp_path) == []
    assert all(value > 0 for value, _ in counts.values())
