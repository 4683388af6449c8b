"""richop benchmark: certified build, evaluation and verification on one workload.

    python3 bench/run.py --workload smoke --seed 1 --seconds 8 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.

Untraced run (``--trace 0``), end-to-end metrics:
  setup     three full set-ups (mesh, spaces, family, encoder,
            ``pipeline.build_operator``), one before the rounds and two
            within them; ``setup_s`` is their median, not host-scaled.
  single    closed loop, one caller, one ``pipeline.evaluate`` at a time.
  batch     batches of BATCH: encode each, ``relu_net.realize`` once,
            ``reduced_basis.synthesize`` once.
  verify    ``pipeline.error_decomposition`` one coefficient at a time.
  bundle    ``save_bundle`` + ``load_bundle``, one round trip per round.
The single, batch and verify phases take 40/20/40 % of each of ROUNDS
rounds, which together last ``--seconds``. ``eval_single_per_s`` is the
closed-loop rate, median over rounds; the batch and verify rates are the
inverse of the median time per operation. All times but ``setup_s`` are
scaled to a reference host speed (see ``HostSpeed``); a set-up lasts longer
than the host keeps one speed, so no kernel run next to it measures the
speed it ran at.

Traced run (``--trace 1``), per-layer metrics: the same phases with a fixed
amount of work, so that call and item counts are exact, with spans recorded
around every public function of the layer modules (see ``spans.py``). The
spans go to ``.bench_out/trace-<workload>-s<seed>.json``. Tracing overhead
is traced minus untraced set-up time (one set-up each, raw) and traced minus
untraced evaluation p50 (alternating host-scaled blocks).

Correctness gate (``attempted``/``failed``): every build either succeeds or
raises ``OperatorBuildError`` (counted as failed); the network term of the
error decomposition is at most epsilon for every verified coefficient; batch
output matches single ``evaluate`` to 1e-12; ``load_bundle(...).evaluate``
matches ``evaluate`` to 1e-12; repeated evaluation of a coefficient gives
the same output; in traced runs the layer self times of set-up add up to the
traced set-up time.

The process pins itself to the last CPU of its allowed set and runs one BLAS
thread; the thread variables are set here, before numpy is imported.
Seeds 1-10 were used while the benchmark was written; seed 9001 was not,
and a performance claim must also hold on it.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.sparse as sp  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")
BATCH = 64
ROUNDS = 8
ROUND_EVALS = 100  # single evaluations per round at least, so p90 has 10 beyond it
EVAL_BLOCK = 10  # single evaluations between two reference-kernel runs
SETUP_ROUNDS = (2, 5)  # rounds that start with one more set-up
REF_KERNEL_S = 1.8e-3  # its median on the reference host (2-core Xeon sandbox), fast state
TOL = 1e-12
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
# Fixed work of a traced run.
TRACE_EVALS, TRACE_BATCHES, TRACE_VERIFY = 300, 3, 10
EPS_SWEEP = (1e-3, 1e-4)


class Gate:
    """Counts correctness checks and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


def pin_cpu() -> tuple[list, int]:
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[-1]})
    return allowed, allowed[-1]


def import_library():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "richop", "__init__.py")):
        sys.exit(f"bench: no richop sources under {src}")
    sys.path.insert(0, src)
    import richop

    if not os.path.abspath(richop.__file__).startswith(src + os.sep):
        sys.exit(f"bench: imported richop from {richop.__file__}, not from {src}")
    return richop


def environment(allowed: list, cpu: int) -> dict:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "allowed_cpus": allowed, "cpu": cpu,
            "threads": {v: os.environ[v] for v in THREAD_VARS}, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas, "cpu_model": model}


def close(u, v) -> bool:
    return bool(np.shape(u) == np.shape(v) and np.max(np.abs(np.asarray(u) - v)) <= TOL)


def round_rate(rounds: list) -> float:
    """Median over rounds of operations per busy second."""
    return statistics.median(len(rnd) / sum(rnd) for rnd in rounds)


def median_of(rounds: list) -> float:
    return statistics.median(dt for rnd in rounds for dt in rnd)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten of n samples beyond it."""
    return next((p for p in TAIL_LADDER if n * (100 - p) >= 1000 - 1e-9), 0.0)


class HostSpeed:
    """Duration of a fixed reference kernel, run between timed operations.

    The host this benchmark was written on switches, within seconds, between
    a fast state and one up to about 1.8x slower (load from other machines
    sharing it); the slowdown hits this process on whichever CPU it runs.
    Every reported time but setup_s is therefore scaled by REF_KERNEL_S over
    the kernel's duration measured just before and just after it, which
    expresses it in seconds of the reference host in its fast state. The
    kernel mixes interpreted loops, sparse products and small dense products,
    as the library does, and does not depend on it. Raw times go to the
    result file.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = sp.random(3000, 3000, density=0.005, random_state=rng, format="csr")
        self._x = rng.random((3000, 4))
        self._d = rng.random((80, 80))
        self.samples = [self._kernel()]

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(2000):
            total += i
        for _ in range(10):
            self._a @ self._x
        for _ in range(4):
            self._d @ self._d
        return time.perf_counter() - t0

    def bracket(self, op) -> tuple[list, list]:
        """Run op (which returns raw seconds) between two kernel runs: raw, scaled."""
        raw = op()
        self.samples.append(self._kernel())
        factor = REF_KERNEL_S / (0.5 * (self.samples[-2] + self.samples[-1]))
        return raw, [dt * factor for dt in raw]


class Session:
    """One workload: its problem, coefficient pools and reference outputs."""

    def __init__(self, lib, cfg: dict, seed: int, gate: Gate):
        import workloads  # imports richop, so only after import_library()

        self.lib, self.cfg, self.gate = lib, cfg, gate
        self.workloads = workloads
        rng = np.random.default_rng(seed)
        self.build_seed, self.eval_seed, self.verify_seed = (
            int(s) for s in rng.integers(0, 2**31 - 1, size=3))
        self.certificates = None
        self.details = {}

    def setup(self):
        """One full set-up; None when the build is refused."""
        try:
            prob = self.workloads.setup(self.cfg, self.build_seed)
        except self.lib.pipeline.OperatorBuildError as exc:
            self.gate.check(False, f"build refused: {exc}")
            return None
        if self.certificates is None:
            self.certificates = prob.op.certificates
        self.gate.check(prob.op.certificates == self.certificates, "rebuild changed certificates")
        return prob

    def prepare(self, prob) -> None:
        """Draw the coefficient pools and evaluate the reference outputs (untimed)."""
        sample = self.lib.coeff.sample_family
        self.op = prob.op
        self.pool = sample(prob.family, BATCH, self.eval_seed)
        self.verify_pool = sample(prob.family, 32, self.verify_seed)
        self.ref = [self.lib.pipeline.evaluate(self.op, a) for a in self.pool]

    def evaluate(self, i: int) -> float:
        t0 = time.perf_counter()
        u = self.lib.pipeline.evaluate(self.op, self.pool[i % BATCH])
        dt = time.perf_counter() - t0
        self.gate.check(close(u, self.ref[i % BATCH]), "evaluate is not repeatable")
        return dt

    def batch(self, _i: int = 0) -> float:
        lib, op = self.lib, self.op
        t0 = time.perf_counter()
        y = np.stack([op.encoder.encode(a) for a in self.pool])
        c = lib.relu_net.realize(op.approximator.net, y)
        u = lib.reduced_basis.synthesize(op.basis, c.T, frame=op.frame)
        dt = time.perf_counter() - t0
        self.gate.check(close(u.T, np.stack(self.ref)), "batch differs from evaluate")
        return dt

    def verify(self, i: int) -> tuple[float, float]:
        """Seconds and network-term/epsilon ratio of one error decomposition."""
        eps = self.op.certificates["epsilon"]
        t0 = time.perf_counter()
        report = self.lib.pipeline.error_decomposition(
            self.op, [self.verify_pool[i % len(self.verify_pool)]])
        dt = time.perf_counter() - t0
        self.gate.check(report.network[0] <= eps, f"network term {report.network[0]:.3e} > {eps}")
        return dt, report.network[0] / eps

    def bundle(self) -> tuple[float, int]:
        """Seconds and bytes of one save/load round trip."""
        pipe = self.lib.pipeline
        path = os.path.join(OUT, f"bundle-{os.getpid()}")
        shutil.rmtree(path, ignore_errors=True)
        try:
            t0 = time.perf_counter()
            pipe.save_bundle(self.op, path)
            loaded = pipe.load_bundle(path)
            dt = time.perf_counter() - t0
            size = sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))
        finally:
            shutil.rmtree(path, ignore_errors=True)
        for a, ref in list(zip(self.pool, self.ref))[:8]:
            self.gate.check(close(loaded.evaluate(a), ref), "loaded bundle differs from evaluate")
        return dt, size


def run_untraced(s: Session, seconds: float) -> dict:
    host = HostSpeed()
    setups = []  # raw seconds; set-ups are spread over the rounds

    def setup():
        t0 = time.perf_counter()
        built = s.setup()
        if built is not None:
            setups.append(time.perf_counter() - t0)
        return built

    prob = setup()
    if prob is None:
        return {}
    s.prepare(prob)

    # Rounds interleave the phases so that a burst of host load slows a few
    # rounds of every phase rather than all of one phase; figures are medians.
    def evaluations(i):
        return lambda: [s.evaluate(i + k) for k in range(EVAL_BLOCK)]

    phases = {"single": (0.4, ROUND_EVALS // EVAL_BLOCK, evaluations),
              "batch": (0.2, 1, lambda i: lambda: [s.batch()]),
              "verify": (0.4, 1, lambda i: lambda: [s.verify(i)[0]])}
    raw = {name: [] for name in phases}  # per phase: one list of seconds per round
    norm = {name: [] for name in phases}
    bundles = []
    for r in range(ROUNDS):
        if r in SETUP_ROUNDS:
            setup()
        bundles.append(host.bracket(lambda: [s.bundle()[0]]))
        left = seconds / ROUNDS
        for name, (share, least, block) in phases.items():
            done = sum(map(len, raw[name]))
            rnd_raw, rnd_norm = [], []
            end = time.perf_counter() + share * left
            blocks = 0
            while blocks < least or time.perf_counter() < end:
                got_raw, got_norm = host.bracket(block(done + len(rnd_raw)))
                rnd_raw += got_raw
                rnd_norm += got_norm
                blocks += 1
            raw[name].append(rnd_raw)
            norm[name].append(rnd_norm)

    pct = tail_percentile(min(map(len, norm["single"])))
    round_tails = [float(np.percentile(rnd, pct)) for rnd in norm["single"]]
    counts = {name: sum(map(len, rounds)) for name, rounds in raw.items()}
    details = {
        "setup_s": setups, "host_ref_kernel_s": host.samples, "counts": counts,
        "eval_p50_raw_ms": 1e3 * median_of(raw["single"]),
        "eval_tail_percentile": pct,
        "bundle_raw_s": [r[0] for r, _ in bundles],
        "bundle_s": [n[0] for _, n in bundles],
        "batch_s": norm["batch"], "verify_s": norm["verify"],
    }
    s.details.update(details)
    print(f"bench: {counts} operations in {ROUNDS} rounds; eval_tail_ms is the median over rounds "
          f"of p{pct:g}; setups {['%.3f' % x for x in setups]} s, raw eval p50 "
          f"{details['eval_p50_raw_ms']:.4f} ms; reference kernel median "
          f"{1e3 * statistics.median(host.samples):.3f} ms, "
          f"{1e3 * min(host.samples):.3f}-{1e3 * max(host.samples):.3f} ms")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "eval_single_per_s": (round_rate(norm["single"]), "coeff/s"),
        "eval_p50_ms": (1e3 * median_of(norm["single"]), "ms"),
        "eval_tail_ms": (1e3 * statistics.median(round_tails), "ms"),
        "eval_batch_per_s": (BATCH / median_of(norm["batch"]), "coeff/s"),
        "verify_per_s": (1.0 / median_of(norm["verify"]), "coeff/s"),
        "bundle_s": (statistics.median(n[0] for _, n in bundles), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "pass_frac": (1.0 - s.gate.failed / max(s.gate.attempted, 1), "ratio"),
    }


# Per-layer metric -> traced name; "_s" is busy time over the traced run.
# Every stiffness assembly, through either public entry point, ends in
# fem.assemble_stiffness_samples, so that name stands for both.
BUSY = {
    "mesh.triangulate": "mesh.triangulate",
    "mesh.locate_points": "mesh.locate_points",
    "coeff.sample_family": "coeff.sample_family",
    "coeff.domain_grid": "coeff.domain_grid",
    "fem.galerkin_solve": "fem.galerkin_solve",
    "fem.assemble_stiffness": "fem.assemble_stiffness_samples",
    "fem.solve_spd": "fem.solve_spd",
    "fem.energy_norm": "fem.energy_norm",
    "fem.dual_norm": "fem.dual_norm",
    "encoder.encode": "encoder.Encoder.encode",
    "encoder.channel_matrix": "encoder.Encoder.channel_matrix",
    "encoder.reconstruction_envelope": "encoder.reconstruction_envelope",
    "reduced_basis.generate_snapshots": "reduced_basis.generate_snapshots",
    "reduced_basis.weak_greedy": "reduced_basis.weak_greedy",
    "reduced_basis.synthesize": "reduced_basis.synthesize",
    "richardson.assemble_reduced": "richardson.assemble_reduced",
    "richardson.direct_solve": "richardson.direct_solve",
    "relu_net.build_approximator": "relu_net.build_approximator",
    "relu_net.input_net": "relu_net.input_net",
    "relu_net.iterator_net": "relu_net.iterator_net",
    "relu_net.realize": "relu_net.realize",
    "pipeline.build_operator": "pipeline.build_operator",
    "pipeline.evaluate": "pipeline.evaluate",
    "pipeline.error_decomposition": "pipeline.error_decomposition",
    "pipeline.save_bundle": "pipeline.save_bundle",
    "pipeline.load_bundle": "pipeline.load_bundle",
}
CALLS = ("mesh.locate_points", "fem.galerkin_solve", "fem.assemble_stiffness",
         "encoder.channel_matrix", "richardson.assemble_reduced")
ITEMS = {"mesh.located_pts": "mesh.locate_points",
         "encoder.channel_matrix_pts": "encoder.Encoder.channel_matrix",
         "relu_net.realize_rows": "relu_net.realize"}
# Layers whose self time each traced phase reports; a layer that does no
# work in a phase would report a constant 0.
SELF_LAYERS = {
    "setup": LAYERS,
    "eval": ("coeff", "encoder", "reduced_basis", "relu_net", "pipeline"),
    "verify": LAYERS,
}


def net_counts(net) -> dict:
    """Depth, size, width and the computed work of one single-input realize."""
    return {
        "relu_net.depth": (net.depth, "count"),
        "relu_net.size": (net.size, "count"),
        "relu_net.max_width": (max(net.widths), "count"),
        "relu_net.flops_per_coeff": (sum(2 * w.nnz + len(b) for w, b in net.layers), "flop"),
        "relu_net.bytes_per_coeff": (
            sum(w.data.nbytes + w.indices.nbytes + w.indptr.nbytes for w, _ in net.layers), "B"),
    }


def run_traced(s: Session, seed: int, workload: str) -> dict:
    s.setup()  # warm-up, untimed
    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter()
    with tracer.root("setup"):
        prob = s.setup()
    traced_setup = time.perf_counter() - t0
    tracer.uninstall()
    t0 = time.perf_counter()
    untraced = s.setup()
    untraced_setup = time.perf_counter() - t0
    if prob is None or untraced is None:
        return {}
    s.prepare(prob)
    op = prob.op

    # Untraced and traced blocks alternate, and are host-scaled, so that the
    # difference of their medians is the tracing overhead, not host drift.
    host = HostSpeed()
    lat = {False: [], True: []}

    def evaluations(first, traced):
        def block():
            out = []
            for i in range(first, first + EVAL_BLOCK):
                with tracer.root("eval") if traced else contextlib.nullcontext():
                    out.append(s.evaluate(i))
            return out
        return block

    for first in range(0, TRACE_EVALS, EVAL_BLOCK):
        lat[False] += host.bracket(evaluations(first, False))[1]
        tracer.install()
        lat[True] += host.bracket(evaluations(first, True))[1]
        tracer.uninstall()
    traced_p50, untraced_p50 = statistics.median(lat[True]), statistics.median(lat[False])

    tracer.install()
    for _ in range(TRACE_BATCHES):
        with tracer.root("batch"):
            s.batch()
    ratios = []
    for i in range(TRACE_VERIFY):
        with tracer.root("verify"):
            ratios.append(s.verify(i)[1])
    with tracer.root("bundle"):
        bundle_bytes = s.bundle()[1]
    tracer.uninstall()
    spans_path = os.path.join(OUT, f"trace-{workload}-s{seed}.json")
    tracer.write(spans_path)

    layer_setup = sum(tracer.self_seconds("setup", layer) for layer in LAYERS)
    s.gate.check(abs(layer_setup - traced_setup) <= 0.01 * traced_setup,
                 f"layer self times {layer_setup:.4f} s != traced setup {traced_setup:.4f} s")
    print(f"bench: {len(tracer.spans)} spans written to {os.path.relpath(spans_path, ROOT)}; "
          f"layer self times of set-up sum to {layer_setup:.4f} s of {traced_setup:.4f} s")

    m = {f"{k}_s": (tracer.total(name, 3), "s") for k, name in BUSY.items()}
    m.update({f"{k}_calls": (tracer.total(BUSY[k], 0), "count") for k in CALLS})
    m.update({k: (tracer.total(name, 2), "count") for k, name in ITEMS.items()})
    for phase, layers in SELF_LAYERS.items():
        m.update({f"{layer}.{phase}_self_s": (tracer.self_seconds(phase, layer), "s")
                  for layer in layers})
    m.update({
        "fem.n_free": (prob.space.n_free, "count"),
        "fem.stiffness_nnz": (op.basis.nominal_stiffness.nnz, "count"),
        "encoder.m": (op.encoder.m, "count"),
        "reduced_basis.n_basis": (op.certificates["n_basis"], "count"),
        "richardson.k_steps": (op.certificates["k_steps"], "count"),
        "relu_net.net_err_ratio": (max(ratios), "ratio"),
        "pipeline.bundle_bytes": (bundle_bytes, "B"),
        "trace.setup_s": (traced_setup, "s"),
        "trace.overhead_setup_s": (traced_setup - untraced_setup, "s"),
        "trace.eval_p50_ms": (1e3 * traced_p50, "ms"),
        "trace.overhead_eval_p50_ms": (1e3 * (traced_p50 - untraced_p50), "ms"),
    })
    m.update(net_counts(op.approximator.net))
    for label, eps in zip(("1e-3", "1e-4"), EPS_SWEEP):
        swept = s.lib.relu_net.build_approximator(op.basis, prob.space, prob.config, op.encoder,
                                                  eps, beta_eff=op.certificates["beta_eff"])
        m[f"relu_net.depth_eps{label}"] = (swept.report.depth, "count")
        m[f"relu_net.size_eps{label}"] = (swept.report.size, "count")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("smoke", "gll", "fine"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    allowed, cpu = pin_cpu()
    lib = import_library()
    from workloads import WORKLOADS

    env = environment(allowed, cpu)
    print("bench: env " + json.dumps(env))
    os.makedirs(OUT, exist_ok=True)
    gate = Gate()
    session = Session(lib, WORKLOADS[args.workload], args.seed, gate)
    if args.trace:
        metrics = run_traced(session, args.seed, args.workload)
    else:
        metrics = run_untraced(session, args.seconds)
    result = {
        "correct": gate.failed == 0 and bool(metrics),
        "attempted": max(gate.attempted, 1),
        "failed": gate.failed if metrics else max(gate.failed, 1),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{args.workload}-s{args.seed}-t{args.trace}.json"),
              "w") as fh:
        json.dump({"args": vars(args), "env": env, "failures": gate.messages,
                   "details": session.details, **result}, fh, indent=1)
    for message in gate.messages:
        print("bench: FAILED " + message)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
