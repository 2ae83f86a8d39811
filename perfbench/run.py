"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload epidemic-query --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the library is imported from ``src/`` next
to this directory, never from an installed copy. A run repeats a set-up
followed by one whole pass until ``--seconds`` have gone by, and checks every
expansion and every operation of every pass against values computed apart
from the library.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (imports plus the
median set-up), ``pass_s`` (the median pass) and ``peak_rss_mb``.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics instead, writing the spans to ``perfbench/out/``.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MIN_SETUPS = 3  # a run sets up at least this often; setup_s takes the median


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library() -> None:
    """Put the checkout's ``src/`` first on the path; refuse to run without it."""
    if not (SRC / "liftworlds" / "__init__.py").is_file():
        sys.exit(f"run.py: no liftworlds sources at {SRC}; run from a checkout of the repository")
    # one thread: numpy's BLAS would otherwise start a pool the size of the machine
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import liftworlds

    if Path(liftworlds.__file__).resolve().parent != SRC / "liftworlds":
        sys.exit(f"run.py: imported liftworlds from {liftworlds.__file__}, not {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"run.py: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    imported_s = time.perf_counter() - STARTED
    directory = OUT / f"inputs-{args.workload}-{args.seed}"
    tracer = tracing.Tracer() if args.trace else None

    # a set-up before every pass, until the time is up: set-ups then sample the
    # machine's speed over the whole run, as the passes do; each pass uses the
    # state of the set-up just before it
    setup_tally, tally = workloads.Tally(), workloads.Tally()
    setup_times, untraced, traced = [], [], []
    begin = time.perf_counter()
    while (len(setup_times) < MIN_SETUPS or (tracer and not traced)
           or time.perf_counter() - begin < args.seconds):
        state = result = None
        gc.collect()
        started = time.perf_counter()
        if tracer:
            tracer.install()
            root = tracer.open("setup")
        state = workloads.setup(workload.make, args.seed, directory)
        if tracer:
            tracer.close(root)
            tracer.uninstall()
        setup_times.append(time.perf_counter() - started)
        workloads.check_expand(state, state.models, setup_tally)

        # traced runs alternate untraced and traced passes
        with_trace = tracer is not None and len(traced) < len(untraced)
        gc.collect()
        if with_trace:
            tracer.install()
            root = tracer.open("pass")
        started = time.perf_counter()
        result = workloads.run_safely(workload, state)
        elapsed = time.perf_counter() - started
        if with_trace:
            tracer.close(root)
            tracer.uninstall()
        (traced if with_trace else untraced).append(elapsed)
        workload.check(state, result, tally)

    problems = setup_tally.problems + tally.problems
    for p in problems[:20]:
        print(f"check: {p}", file=sys.stderr)
    if tracer:
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")
        layers = tracing.layer_metrics(tracer.spans, statistics.median(untraced))
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        metrics = {
            "setup_s": {"value": imported_s + statistics.median(setup_times), "unit": "s"},
            "pass_s": {"value": statistics.median(untraced), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    print(f"{args.workload} seed {args.seed}: {len(untraced)} untraced and {len(traced)} traced "
          f"passes, {tally.attempted} operations, {tally.failed} failed", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
