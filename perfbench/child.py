"""One repetition of one workload in a fresh process.

``run.py`` starts this script once per repetition, because ``intlinalg`` and
``exactlin`` keep unbounded value-keyed caches at module level: a second
repetition in the same process would time cache lookups.  The script prints
one JSON object as its last line.

``--spawned-at`` is the parent's ``time.monotonic()`` just before it started
this process.  On Linux that clock is system-wide, so ``setup_s`` covers
interpreter start, importing mackeybox and generating the seeded inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Exit code for a refused environment; run.py reports it without a result.
REFUSED = 3


def environment_problem():
    """Why this interpreter cannot give a valid measurement, or None."""
    if "MACKEYBOX_PURE" in os.environ:
        return "MACKEYBOX_PURE is set; the benchmark measures the default backend selection"
    if sys.flags.optimize:
        return "python -O strips the asserts that verify box products and simplicial identities"
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default=None, help="gzip TSV file for the traced spans")
    args = parser.parse_args(argv)

    problem = environment_problem()
    if problem:
        print(f"refusing to run: {problem}", file=sys.stderr)
        return REFUSED

    sys.path.insert(0, SRC)
    import mackeybox
    # set-up covers importing every layer, not only the ones a workload calls first
    from mackeybox import boxtensor, exactlin, grading, green, intlinalg, mackey, simplicial  # noqa: F401

    if os.path.dirname(os.path.abspath(mackeybox.__file__)) != os.path.join(SRC, "mackeybox"):
        print(f"mackeybox imported from {mackeybox.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed, args.size)
    setup_s = time.monotonic() - args.spawned_at
    out = {
        "setup_s": setup_s,
        "env": {
            "python": sys.version.split()[0],
            "compiled_kernel": intlinalg.compiled_kernel_available(),
            "nproc": len(os.sched_getaffinity(0)),
            "seed": args.seed,
        },
    }
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    items = workloads.ITEMS[args.workload](inputs)

    import calibration

    # a traced repetition is not calibrated: the reference would run inside spans
    calibrator = None if tracer else calibration.Calibrator()
    attempted = 0
    failures = []
    t0 = time.perf_counter()
    with calibrator or contextlib.nullcontext():
        for label, check in items:
            attempted += 1
            try:
                problem = check()
            except Exception as exc:  # a raised exception is a failed answer, not a crash
                problem = f"raised {type(exc).__name__}: {exc}"
            if problem:
                failures.append(f"{label}: {problem}")
    wall_s = time.perf_counter() - t0

    if calibrator is not None:
        wall_s = calibrator.wall_s
        out.update(
            calibrated_wall_s=calibrator.calibrated_wall_s,
            speed=calibrator.speed,
            speed_samples=len(calibrator.samples),
        )
    out.update(
        wall_s=wall_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=attempted,
        failed=len(failures),
        failures=failures,
    )
    if tracer is not None:
        out["layers"] = tracer.metrics(wall_s)
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
