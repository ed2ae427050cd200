"""Benchmark of sfwg: two convergence studies and a perturbed-mesh sweep.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tri-k2-study --seed 1 --seconds 15 --trace 0

It measures set-up from fresh interpreters, then repeats whole rounds of
the workload for at least ``--seconds`` seconds, checks every output, and
prints as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Result, table and
trace files go to ``perfbench/out``.  See ``perfbench/README.md``.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("tri-k2-study", "poly-k3-study", "perturbed-sweep")
SETUP_SAMPLES = 9
PROBE_TIMEOUT_S = 120
# One BLAS thread: the machine has two cores, and one thread keeps runs of a
# closed loop from contending with themselves.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

LAYER_SPANS = (
    "mesh.build", "mesh.stacks", "weakop.operators",
    "system.dof_map", "system.assemble", "system.solve", "system.expand",
    "errors.triple", "errors.2h", "errors.l2",
)
LAYER_COUNTS = ("mesh.cells", "system.n_free", "system.nnz")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure_setup(workload):
    """Median wall time of SETUP_SAMPLES fresh interpreters, each importing
    the package and making the workload's warm-up solve, with the medians of
    the two parts as the probes report them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    walls, imports, warmups = [], [], []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=PROBE_TIMEOUT_S, check=True,
        )
        walls.append(time.perf_counter() - t0)
        probe = json.loads(proc.stdout.splitlines()[-1])
        imports.append(probe["import_s"])
        warmups.append(probe["warmup_s"])
    return tuple(statistics.median(v) for v in (walls, imports, warmups))


def per_operation_latency(rounds):
    """Each operation's median latency over the rounds that completed it."""
    samples = {}
    for r in rounds:
        for key, seconds in r.latencies.items():
            samples.setdefault(key, []).append(seconds)
    return [statistics.median(v) for v in samples.values()]


def source_digest():
    """A digest of every file under ``src/``: runs of the same code share it."""
    h = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_tables(rounds, path, may_store):
    """Violations: rounds of the run that disagree, or a table that differs
    from the one an earlier run of the same code stored for the same seed.
    The table is stored only when ``may_store``, so that a run that failed
    a check or an operation never becomes the reference."""
    tables = ["\n".join(r.table) + "\n" for r in rounds]
    violations = []
    if len(set(tables)) > 1:
        violations.append("rounds of this run emitted different tables")
    if path.exists():
        if path.read_text() != tables[0]:
            violations.append(f"table differs from the one stored in {path.name}")
    elif may_store and not violations:
        path.write_text(tables[0])
    return violations


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "sfwg" / "__init__.py").is_file():
        print(f"perfbench: no sfwg package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(HERE)]
    # Imported here: numpy reads the thread limits when it is first imported.
    import numpy as np
    import spans
    import workloads

    setup_s, import_s, warmup_s = measure_setup(args.workload)
    workload = workloads.WORKLOADS[args.workload]
    workload.warmup()
    inputs = workload.prepare(args.seed)

    tracer = None
    rounds = []
    t0 = time.perf_counter()
    if args.trace:
        tracer = spans.Tracer()
        rounds = [workload.run(inputs), workload.run(inputs, tracer)]
    else:
        while not rounds or time.perf_counter() - t0 < args.seconds:
            rounds.append(workload.run(inputs))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    violations = [v for r in rounds for v in r.violations]
    failed = sum(r.failed for r in rounds)
    violations += check_tables(rounds, OUT / f"table-{stem}-src{source_digest()}.txt",
                               may_store=not violations and not failed)
    for v in violations:
        print(f"check failed: {v}", file=sys.stderr)

    if args.trace:
        tracer.write(OUT / f"trace-{stem}.json")
        metrics = {
            "setup.import_s": metric(import_s, "s"),
            "setup.warmup_s": metric(warmup_s, "s"),
            **{f"{name}_s": metric(tracer.seconds(name), "s") for name in LAYER_SPANS},
            **{name: metric(tracer.counts[name], "count") for name in LAYER_COUNTS},
            "weakop.operators_peak_mb": metric(tracer.peaks["weakop.operators"], "MiB"),
            "trace.overhead_s": metric(rounds[1].wall - rounds[0].wall, "s"),
        }
    else:
        latency_ms = 1e3 * np.array(per_operation_latency(rounds))
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "wall_s": metric(statistics.median(r.wall for r in rounds), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MiB"),
            "solve_p50_ms": metric(np.percentile(latency_ms, 50), "ms"),
            "solve_p90_ms": metric(np.percentile(latency_ms, 90), "ms"),
        }
    result = {
        "correct": not violations,
        "attempted": sum(r.attempted for r in rounds),
        "failed": failed,
        "metrics": metrics,
    }
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(rounds)} rounds "
          f"in {time.perf_counter() - t0:.1f} s")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    line = json.dumps(result)
    (OUT / f"result-{stem}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
