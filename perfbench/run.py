"""Benchmark of mackeybox on three fixed workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload box_construct --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0
    python3 perfbench/run.py --self-test

Each repetition of a workload runs in a fresh single-threaded process
(``child.py``), one after another, never side by side: a closed loop with one
caller.  A run repeats its workload until ``--seconds`` have passed, and at
least twice, then reports medians.  ``--trace 0`` reports the end-to-end
metrics, with the wall time calibrated to the machine's speed during each
repetition (``calibration.py``); ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics of the traced repetition with
the median wall time.
The last line of standard output is one JSON object; the exit code is 1 when
an answer was wrong or raised, and 2 or 3 when the benchmark cannot run here.
See README.md in this directory for the workloads and the metric table.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from child import REFUSED, ROOT, SRC, environment_problem
from workloads import ITEMS

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

WORKLOADS = tuple(ITEMS)
MIN_REPS = 2
# Setup-only processes per untraced run, on top of one setup per repetition.
SETUP_ONLY = 10
# No repetition starts when it could end after this many seconds of the run;
# one run must end within 180 s.
RUN_CAP_S = 150.0

LAYER_METRICS = {
    "intlinalg": (
        "snf_calls", "snf_s", "snf_max_cells", "snf_compiled_share", "solve_calls", "solve_s",
        "hermite_calls", "hermite_s", "matrix_builds", "self_s",
    ),
    "exactlin": (
        "hom_checks", "hom_check_s", "membership_tests", "membership_s", "solve_membership_calls",
        "solve_membership_s", "finite_models", "finite_model_s", "subgroups_found",
        "subgroup_enum_s", "self_s",
    ),
    "mackey": (
        "validate_calls", "validate_s", "map_composes", "map_equals", "subfunctors_found",
        "subfunctor_enum_s", "self_s",
    ),
    "boxtensor": (
        "box_calls", "box_s", "max_top_generators", "max_top_relations", "label_maps",
        "label_map_s", "self_s",
    ),
    "green": ("ideal_checks", "ideal_check_s", "commutativity_s", "validate_s", "self_s"),
    "grading": ("window_checks", "window_check_s", "tower_pieces", "self_s"),
    "simplicial": ("tensor_s", "identity_check_s", "self_s"),
    "trace": ("overhead_s", "wall_s", "unattributed_s"),
}
PER_LAYER = tuple(f"{layer}.{m}" for layer, names in LAYER_METRICS.items() for m in names)
END_TO_END = ("calibrated_wall_s", "setup_s", "peak_rss_mb")


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_share"):
        return "ratio"
    return "count"


class ChildFailed(Exception):
    pass


def spawn(workload, seed, size, trace, deadline, setup_only=False):
    """Run one child process to completion and return its JSON result."""
    cmd = [
        sys.executable, CHILD, "--workload", workload, "--seed", str(seed), "--size", size,
        "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        cmd += ["--spans-out", os.path.join(SPANS_DIR, f"{workload}-seed{seed}.spans.tsv.gz")]
    cmd += ["--spawned-at", repr(time.monotonic())]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        raise ChildFailed(f"{workload} repetition exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise ChildFailed(
            f"{workload} child exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repeat(workload, seed, seconds, size, traced):
    """Fresh-process repetitions for about ``seconds`` (and at least two).

    Untraced runs also start SETUP_ONLY setup-only processes first.  Traced
    runs alternate an untraced and a traced repetition.
    """
    start = time.monotonic()
    deadline = start + RUN_CAP_S + 20.0
    setups = []
    if not traced:
        for _ in range(SETUP_ONLY):
            setups.append(spawn(workload, seed, size, 0, deadline, setup_only=True)["setup_s"])
    plain, traced_reps = [], []
    longest = 0.0
    while True:
        for trace in (0, 1) if traced else (0,):
            t0 = time.monotonic()
            result = spawn(workload, seed, size, trace, deadline)
            longest = max(longest, time.monotonic() - t0)
            (traced_reps if trace else plain).append(result)
        elapsed = time.monotonic() - start
        step = longest * (2 if traced else 1)
        # stop when less than half of another repetition fits in ``seconds``
        done = elapsed + step / 2 >= seconds and (traced or len(plain) >= MIN_REPS)
        if done or elapsed + step > RUN_CAP_S:
            break
    setups += [r["setup_s"] for r in plain]
    return setups, plain, traced_reps


def end_to_end(setups, plain):
    return {
        "calibrated_wall_s": statistics.median(r["calibrated_wall_s"] for r in plain),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }


def per_layer(plain, traced_reps):
    """Layer metrics of the traced repetition with the median traced wall time."""
    chosen = sorted(traced_reps, key=lambda r: r["wall_s"])[(len(traced_reps) - 1) // 2]
    out = dict(chosen["layers"])
    out["trace.overhead_s"] = chosen["wall_s"] - statistics.median(r["wall_s"] for r in plain)
    return out


def count_mismatches(traced_reps):
    """Count metrics must repeat exactly across traced repetitions."""
    first = traced_reps[0]["layers"]
    return [
        f"{name} differs between traced repetitions: {first[name]} vs {rep['layers'][name]}"
        for rep in traced_reps[1:]
        for name in PER_LAYER
        if name in first and unit_of(name) == "count" and rep["layers"][name] != first[name]
    ]


def measure(workload, seed, seconds, trace):
    """(metrics, attempted, failures, env) of one run."""
    setups, plain, traced_reps = repeat(workload, seed, seconds, "full", bool(trace))
    reps = plain + traced_reps
    failures = [f for r in reps for f in r["failures"]]
    attempted = sum(r["attempted"] for r in reps)
    if trace:
        metrics = per_layer(plain, traced_reps)
        failures += count_mismatches(traced_reps)
    else:
        metrics = end_to_end(setups, plain)
    env = dict(reps[0]["env"], workload=workload, repetitions=len(reps))
    env["raw_wall_s"] = statistics.median(r["wall_s"] for r in plain)
    env["speed"] = statistics.median(r["speed"] for r in plain)
    return metrics, attempted, failures, env


def result_line(metrics, attempted, failures):
    return json.dumps(
        {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        }
    )


def report(metrics, attempted, failures, env):
    print(f"env: {json.dumps(env, sort_keys=True)}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {unit_of(name)}")
    print(f"  error_rate = {len(failures) / attempted:.6g} ({len(failures)} of {attempted} answers)")
    for failure in failures:
        print(f"  FAILED {failure}")


def self_test():
    """Smallest sizes: oracles, the environment guard, and every metric name."""
    problems = []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    for key, emitted in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        want = {(m["name"], m["unit"]) for m in declared[key]}
        have = {(name, unit_of(name)) for name in emitted}
        if want != have:
            problems.append(f"{key} in BENCHMARK.json differs from the emitted metrics: {want ^ have}")

    sys.path.insert(0, SRC)
    import workloads
    from mackeybox.green import f4_frobenius_green

    if workloads.build_galois_green(workloads.galois_data("F4/C2", 0)) != f4_frobenius_green():
        problems.append("seed 0 does not present F_4/C_2 in the library's basis")
    if workloads.galois_data("F16/C2", 1)["action"] == workloads.galois_data("F16/C2", 0)["action"]:
        problems.append("seed 1 does not change the basis of (Z/2)^4")

    for env, flags in (({"MACKEYBOX_PURE": "1"}, []), ({}, ["-O"])):
        proc = subprocess.run(
            [sys.executable, *flags, CHILD, "--workload", "graded_window", "--seed", "0",
             "--spawned-at", "0"],
            cwd=ROOT, capture_output=True, text=True, env=dict(os.environ, **env), timeout=60,
        )
        if proc.returncode != REFUSED or proc.stdout.strip():
            problems.append(f"child ran under {env or flags} (exit {proc.returncode})")

    deadline = time.monotonic() + 170.0
    for workload in WORKLOADS:
        before = len(problems)
        for seed in (0, 1):
            plain = spawn(workload, seed, "small", 0, deadline)
            problems += plain["failures"]
        traced = [spawn(workload, 0, "small", 1, deadline) for _ in range(2)]
        problems += [f for r in traced for f in r["failures"]] + count_mismatches(traced)
        for rep in traced:
            layers = rep["layers"]
            covered = sum(layers[f"{layer}.self_s"] for layer in LAYER_METRICS if layer != "trace")
            gap = covered + layers["trace.unattributed_s"] - layers["trace.wall_s"]
            if abs(gap) > 1e-6:
                problems.append(f"{workload}: self times miss the traced wall time by {gap:.3g} s")
        emitted = set(end_to_end([plain["setup_s"]], [plain])) | set(per_layer([plain], traced))
        if emitted != set(END_TO_END) | set(PER_LAYER):
            problems.append(f"{workload}: emitted metrics differ: {emitted ^ (set(END_TO_END) | set(PER_LAYER))}")
        print(f"self-test {workload}: {'ok' if len(problems) == before else 'FAILED'}")
    for p in problems:
        print(f"  PROBLEM {p}")
    print("self-test passed" if not problems else "self-test FAILED")
    return 0 if not problems else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    problem = environment_problem()
    if problem:
        print(f"refusing to run: {problem}", file=sys.stderr)
        return REFUSED
    if not os.path.isfile(os.path.join(SRC, "mackeybox", "__init__.py")):
        print(f"no mackeybox source under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined, attempted, failures = {}, 0, []
    for workload in names:
        try:
            metrics, n, fails, env = measure(workload, args.seed, args.seconds, args.trace)
        except ChildFailed as exc:
            print(f"benchmark could not run: {exc}", file=sys.stderr)
            return 2
        report(metrics, n, fails, env)
        prefix = f"{workload}." if args.workload == "all" else ""
        combined.update({prefix + k: v for k, v in metrics.items()})
        attempted += n
        failures += fails
    print(result_line(combined, attempted, failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
