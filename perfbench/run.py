"""Run one isingkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  With ``--trace 0`` the workload's pass is
repeated while the next one still fits in ``--seconds`` (at least once) and
the end-to-end metrics are printed; with ``--trace 1`` one plain pass and
one traced pass are run and the per-layer metrics are printed.  Every line
before the last is for people; the last line is one JSON object with the
keys correct, attempted, failed and metrics.  The exit code is 1 when an
output check fails.  Results and spans are also written to
``.perfbench_out/``.
"""

import os

# pin BLAS/OpenMP pools before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from clock import RefClock  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# (name, unit, better, bound); the bound is the share of the parent's
# median by which a metric may worsen
E2E_METRICS = (("wall_s", "s", "lower", 0.25),
               ("setup_s", "s", "lower", 0.25),
               ("peak_rss_mb", "MB", "lower", 0.1))
SETUP_SAMPLES = 7
MAX_PASSES = 100


def import_package():
    """Import isingkit from this checkout's sources and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "isingkit", "__init__.py")):
        sys.exit(f"error: no isingkit sources under {SRC}")
    sys.path.insert(0, SRC)
    import isingkit
    if not os.path.abspath(isingkit.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: isingkit imported from {isingkit.__file__}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="minimal inputs, for the benchmark's own tests")
    p.add_argument("--setup-probe", action="store_true",
                   help="only import and build inputs (a setup_s sample)")
    p.add_argument("--record-pins", action="store_true",
                   help="rewrite pins.json from the current package")
    args = p.parse_args(argv)
    if not args.record_pins and args.workload is None:
        p.error("--workload is required")
    return args


def setup_seconds(args):
    """Median reference seconds of fresh processes that import isingkit
    and build the workload's inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(2 if args.smoke else SETUP_SAMPLES):
        clock = RefClock()
        clock.start()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        samples.append((clock.stop(), clock.wall_s))
    return statistics.median(ref for ref, _ in samples), samples


def timed_pass(workload, inputs, per_call=()):
    """One pass on a fresh RefClock, which may also calibrate after each
    call of the ``per_call`` functions; returns (outputs, clock, seconds).

    ``seconds`` is the clock's reference seconds, scaled to the workload's
    ``reference_work`` when it counts its work per call.
    """
    clock = RefClock()
    work_of = getattr(workload, "work_of", None)
    work = []

    def after_call(result):
        clock.tick()
        if work_of is not None:
            work.append(work_of(result))

    hooks = Tracer()
    for owner, attr in per_call:
        if work_of is not None or hasattr(owner, attr):
            hooks.tap(owner, attr, after_call)
    clock.start()
    with hooks:
        outputs = workload.run_pass(inputs, clock.tick)
    clock.stop()
    seconds = clock.reference_s
    if work:
        seconds *= workload.reference_work / sum(work)
    return outputs, clock, seconds


def timed_passes(workload, inputs, seconds):
    """Repeat the pass while the next one fits; check the first pass."""
    passes, checks = [], None
    start = time.perf_counter()
    while True:
        outputs, clock, scaled = timed_pass(workload, inputs,
                                            workload.per_call_ticks)
        passes.append((scaled, clock))
        if checks is None:
            checks = workload.check(inputs, outputs)
        del outputs
        if time.perf_counter() - start + clock.wall_s > seconds \
                or len(passes) >= MAX_PASSES:
            return passes, checks


def traced_run(workload, args, work_dir):
    """One plain pass, then one traced pass; per-layer metrics."""
    import layers
    from workloads import check, output_bytes

    tracer, windows = Tracer(), {}
    layers.install(tracer, windows)
    with tracer:
        inputs = workload.setup(args.seed, args.smoke, work_dir)
    outputs, plain, _ = timed_pass(workload, inputs)
    checks = workload.check(inputs, outputs)
    del outputs
    with tracer:
        outputs, traced, _ = timed_pass(workload, inputs)
    layers.count_arrivals(tracer, windows)
    checks += [dict(c, check="traced pass: " + c["check"])
               for c in workload.check(inputs, outputs)]
    problems = tracer.sanity_problems()
    checks.append(check("spans nest in their parents, self times >= 0",
                        not problems, "; ".join(problems[:3])))
    metrics = layers.layer_metrics(
        tracer, traced.speed, output_bytes(outputs),
        traced.reference_s / plain.reference_s - 1.0)
    units = {name: unit for name, unit, _ in layers.LAYER_METRICS}
    timings = {"plain_s": plain.reference_s, "plain_wall_s": plain.wall_s,
               "traced_s": traced.reference_s, "traced_wall_s": traced.wall_s}
    return ({name: {"value": metrics[name], "unit": units[name]}
             for name in units}, checks, timings, tracer.dump())


def plain_run(workload, args, work_dir):
    setup_s, samples = setup_seconds(args)
    inputs = workload.setup(args.seed, args.smoke, work_dir)
    passes, checks = timed_passes(workload, inputs, args.seconds)
    values = {"wall_s": statistics.median(scaled for scaled, _ in passes),
              "setup_s": setup_s,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    timings = {"pass_s": [scaled for scaled, _ in passes],
               "pass_reference_s": [c.reference_s for _, c in passes],
               "pass_wall_s": [c.wall_s for _, c in passes],
               "calibration_s": [c.kernels for _, c in passes],
               "setup_samples_s": samples}
    return ({name: {"value": values[name], "unit": unit}
             for name, unit, _, _ in E2E_METRICS}, checks, timings, None)


def git_sha():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def package_version():
    import tomllib
    try:
        with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
            return tomllib.load(fh)["project"]["version"]
    except (OSError, KeyError, tomllib.TOMLDecodeError):
        return None


def provenance(args, workload):
    import numpy
    return {"git_sha": git_sha(), "isingkit_version": package_version(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "workload": workload.name, "why": workload.why,
            "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke}


def main(argv=None):
    args = parse_args(argv)
    import_package()
    import workloads

    if args.record_pins:
        with open(workloads.PINS_PATH, "w") as fh:
            json.dump(workloads.record_pins(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    work_dir = os.path.join(OUT, f"work-{os.getpid()}")
    if args.setup_probe:
        workload.setup(args.seed, args.smoke, work_dir)
        return 0

    try:
        run = traced_run if args.trace else plain_run
        metrics, checks, timings, spans = run(workload, args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    failed = [c for c in checks if not c["ok"]]
    result = {"correct": not failed, "attempted": len(checks),
              "failed": len(failed), "metrics": metrics}

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload.name}-seed{args.seed}-"
                             f"trace{args.trace}")
    prov = provenance(args, workload)
    with open(stem + ".json", "w") as fh:
        json.dump(dict(result, provenance=prov, timings=timings,
                       checks=checks), fh, indent=1)
    if spans is not None:
        with open(stem + "-spans.json", "w") as fh:
            json.dump(spans, fh)

    for c in failed:
        print(f"FAILED {c['check']}: {c['detail']}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(f"failed_frac {len(failed) / len(checks)} ratio "
          f"({len(failed)} of {len(checks)} checks)")
    print("provenance " + json.dumps(prov))
    print(f"record {stem}.json")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
