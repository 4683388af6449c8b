"""The library names that the benchmark under bench/ binds.

The benchmark is versioned apart from the library, so a rename or a removed
parameter in src/ breaks it without failing any other test. These tests run
its tracer and its workload set-up on a tiny problem.
"""

import inspect
import pathlib
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


def test_workload_setup_and_swept_build(bench):
    _, workloads = bench
    cfg = workloads._variant(mesh={"h": 0.3}, encoder={"h": 0.5},
                             reduction={"training_count": 6, "n_basis": 3})
    prob = workloads.setup(cfg, 1)
    op = prob.op
    # the positional call of the benchmark's epsilon sweep
    swept = richop.relu_net.build_approximator(op.basis, prob.space, prob.config, op.encoder,
                                               1e-3, beta_eff=op.certificates["beta_eff"])
    assert swept.report.depth >= op.approximator.report.depth
