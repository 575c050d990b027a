"""Benchmark of reeblab: run one named workload and print its metrics.

    python3 perfbench/run.py --workload {audit,spectra,figures} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from `src/`.  The
workload runs in this process as a closed loop with one client: each
operation starts when the previous one has ended, and whole rounds repeat
while another round of the same length still fits in S seconds (at least
one round).  Every output is checked
after its round, outside the timed region.  The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and `metrics`,
the end-to-end metrics with `--trace 0` and the per-layer metrics with
`--trace 1`.  A traced run makes one untraced round and one traced round and
reports the tracing overhead between them; its spans go to
`perfbench/out/trace-<workload>-seed<N>.json`.
"""

import os

# One thread in every BLAS and OpenMP pool, set before numpy is first
# imported.  On two cores the default OpenBLAS pool competes with the
# program's own Python thread and pass times wander; reeblab's work is
# single-threaded apart from that pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# fresh processes timed per run for setup_s; one start-up varies by about a
# quarter on a shared two-core host, the median of three much less
SETUP_PROBES = 3


def cpu_seconds() -> float:
    """User and system CPU time of this process and its finished children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def time_setup(n: int) -> float:
    """Median wall time of n fresh processes that import reeblab and build
    the validated model (setup_probe.py)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py")], env=env,
                       check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["audit", "spectra", "figures"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "reeblab" / "__init__.py").is_file():
        print(f"perfbench: no reeblab package under {SRC}; run from the root "
              f"of a reeblab checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be non-negative", file=sys.stderr)
        return 2

    setup_s = None if args.trace else time_setup(SETUP_PROBES)

    sys.path.insert(0, str(SRC))
    import reeblab  # noqa: F401  (the tracer wraps its modules)
    from reeblab.errors import ReebLabError

    import setup_probe
    import workloads
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    if tracer:
        with tracer.installed(), tracer.span("setup"):
            params, trio = setup_probe.build()
        # counters describe the traced pass; set-up keeps only its spans
        tracer.counts.clear()
        tracer.peak.clear()
    else:
        params, trio = setup_probe.build()

    workload = workloads.WORKLOADS[args.workload]
    state = workloads.RunState(args.seed, params, trio)
    run_dir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    tally = {"attempted": 0, "failed": 0, "wrong": 0}
    walls, cpus = [], []

    def one_round(traced: bool) -> None:
        out = run_dir / f"pass{len(walls)}"
        out.mkdir(parents=True)
        ops = workload.operations(state, out)
        results = []
        t0, c0 = time.perf_counter(), cpu_seconds()
        with (tracer.installed() if traced else nullcontext()), \
                (tracer.span("pass") if traced else nullcontext()):
            for name, op in ops:
                try:
                    results.append((name, op(), None))
                except (ReebLabError, workloads.OpFailed) as exc:
                    results.append((name, None, exc))
        walls.append(time.perf_counter() - t0)
        cpus.append(cpu_seconds() - c0)
        for name, output, exc in results:
            tally["attempted"] += 1
            problems = ([f"{name}: {type(exc).__name__}: {exc}"] if exc
                        else workload.check(name, output, state))
            if problems:
                tally["failed"] += 1
                tally["wrong"] += exc is None
                for p in problems:
                    print(f"perfbench: FAILED {p}", file=sys.stderr)
        shutil.rmtree(out)

    try:
        if tracer:
            one_round(traced=False)
            one_round(traced=True)
        else:
            # whole rounds, as many as fit in --seconds, and at least one
            start = time.perf_counter()
            one_round(traced=False)
            while time.perf_counter() - start + walls[-1] <= args.seconds:
                one_round(traced=False)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if tracer:
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        metrics = tracer.layer_metrics()
        metrics["trace.untraced_pass_s"] = (walls[0], "s")
        metrics["trace.pass_s"] = (walls[1], "s")
        metrics["trace.overhead"] = (walls[1] / walls[0] - 1.0, "ratio")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "pass_s": (statistics.median(walls), "s"),
            "pass_cpu_s": (statistics.median(cpus), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MiB"),
        }
    print(json.dumps({
        "correct": tally["wrong"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
