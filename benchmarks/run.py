"""Benchmark of fiocalc: one workload, one seed, in a fresh process.

    python3 benchmarks/run.py --workload synth-cli --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; fiocalc is imported from its `src/`.

Workloads (bench_workloads.py has the details):
  suite-quick  `fiocalc suite --quick`, 12 verdicts per pass; the 4-D
               phase-space code of gabor, fio and lagdist dominates.
  synth-cli    three d = 2 metaplectic operations at n = 64, whose dense
               free-kernel and linear factor applies take about half the
               time, then a 10-step d = 1 pipeline through the CLI at its
               default grid (n = 128, R = 10), writing artifacts and reading
               them back, where the theta quadrature takes the other half;
               gabor's 4-D code is absent.

The run repeats passes over the workload's operations until --seconds have
passed; a pass is never cut short and there is at least one.  Each operation
is checked; a wrong verdict, exit code or numeric result counts as failed, as
does a pass whose artifact digest differs from the other passes of the run or
from an earlier run of the same seed on the same source tree.

--trace 0 reports the end-to-end metrics: setup_s (median over five set-ups:
the run's own and four in child processes that only set up, two before the
passes and two after), wall_s and cpu_s of a pass as the sum over its
operations of each one's median across the passes, and the peak RSS of the
process.  BLAS runs on one thread.  --trace 1 installs the
tracing wrappers of bench_trace.py, reports per-layer metrics (medians over
passes) and writes the spans to .bench_out/trace-<workload>-<seed>.jsonl.
Tracing overhead is trace.wall_s of a traced run minus wall_s of an untraced
one.

The last line on stdout is the JSON result; the line before it records the
environment, the sample counts and the pass digests.  Seed 4242 is held out:
it was not used while the benchmark was tuned, so later claims can be checked
on it.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from statistics import median
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = ".bench_out"
# one BLAS thread: on a few shared cores a second thread mostly waits for
# the first, which makes pass times swing with host load, and the thread
# count changes floating-point sums and so the artifact digests.  Set before
# numpy is first imported; set-up children inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# set-ups in child processes, half before the passes and half after, so
# that the samples span the run rather than one moment of host load
SETUP_CHILDREN = 4


def _fail(message: str) -> int:
    print(f"benchmark error: {message}", file=sys.stderr)
    return 1


def _import_package():
    """Import fiocalc from this checkout's src/ and the workload module."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import fiocalc

    if not os.path.abspath(fiocalc.__file__).startswith(src + os.sep):
        raise ImportError(f"fiocalc imported from {fiocalc.__file__}, not {src}")
    import bench_workloads

    return bench_workloads


def set_up(workload_name: str, seed: int):
    """Import, one-time initialisation and input generation; returns the
    workload module, the workload, its state and the seconds taken."""
    t0 = perf_counter()
    bw = _import_package()
    bw.warm_up()
    workload = bw.WORKLOADS[workload_name]
    state = workload.setup(seed, os.path.join(WORK, workload_name))
    return bw, workload, state, perf_counter() - t0


def _child_setup(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-400:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _blas_threads():
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(lib, sym, None)
            if func is not None:
                return int(func())
    return None


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                          text=True, cwd=ROOT)
    return proc.stdout.strip() or None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "ram_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
    }


def source_digest() -> str:
    """SHA-256 over the package and benchmark sources, so stored artifact
    digests are only compared between runs of the same code."""
    digest = hashlib.sha256()
    for top in ("src", "benchmarks"):
        for base, dirs, names in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(names):
                if name.endswith(".py"):
                    path = os.path.join(base, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
    return digest.hexdigest()


def stored_digest_matches(workload: str, seed: int, digest: str) -> bool:
    """Compare with the digest an earlier run of this seed and source tree
    left behind, or leave this one for later runs."""
    store = os.path.join(WORK, "digests")
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, f"{workload}-{seed}-{source_digest()[:16]}")
    if os.path.exists(path):
        with open(path) as fh:
            return fh.read().strip() == digest
    with open(path, "w") as fh:
        fh.write(digest + "\n")
    return True


def op_median_sum(passes, attr: str) -> float:
    """Sum over the operations of a pass of each one's median time across
    the passes; every pass runs the same operations in the same order."""
    return sum(median(getattr(p.ops[i], attr) for p in passes)
               for i in range(len(passes[0].ops)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("suite-quick", "synth-cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the seconds taken and exit")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    os.makedirs(WORK, exist_ok=True)

    if args.setup_only:
        try:
            *_, seconds = set_up(args.workload, args.seed)
        except ImportError as exc:
            return _fail(str(exc))
        print(json.dumps({"setup_s": seconds}))
        return 0

    children = 0 if args.trace else SETUP_CHILDREN // 2
    try:
        setups = [_child_setup(args.workload, args.seed) for _ in range(children)]
        bw, workload, state, own = set_up(args.workload, args.seed)
    except (ImportError, RuntimeError, subprocess.TimeoutExpired) as exc:
        return _fail(str(exc))
    setups.append(own)

    import bench_trace

    tracer = bench_trace.Tracer() if args.trace else None
    restore = bench_trace.instrument(tracer) if tracer else None
    runner = bw.Runner(tracer)
    passes, layer_metrics = [], []
    start = perf_counter()
    try:
        while not passes or perf_counter() - start < args.seconds:
            first_op = runner.next_op
            result = workload.run_pass(state, runner)
            passes.append(result)
            if tracer:
                ops = range(first_op, runner.next_op)
                layer_metrics.append(bench_trace.pass_metrics(tracer, ops))
    finally:
        if restore:
            restore()
    try:
        setups += [_child_setup(args.workload, args.seed) for _ in range(children)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return _fail(str(exc))

    digests = [p.digest for p in passes]
    consistent = len(set(digests)) == 1 and \
        stored_digest_matches(args.workload, args.seed, digests[0])
    attempted = sum(p.attempted for p in passes)
    failed = attempted if not consistent else sum(p.failed for p in passes)
    for p in passes:
        for op in p.ops:
            if not op.ok:
                print(f"failed {op.name}: {op.detail}", file=sys.stderr)
    if not consistent:
        print(f"artifact digests differ: {digests}", file=sys.stderr)

    walls = [p.wall for p in passes]
    wall_s, cpu_s = op_median_sum(passes, "wall"), op_median_sum(passes, "cpu")
    env = environment()
    if tracer:
        values = {k: median(m[k] for m in layer_metrics) for k in layer_metrics[0]}
        values["trace.wall_s"] = wall_s
        values["artifact_bytes"] = median(p.artifact_bytes for p in passes)
        metrics = {k: {"value": v, "unit": bench_trace.metric_unit(k)}
                   for k, v in values.items()}
        tracer.write(os.path.join(WORK, f"trace-{args.workload}-{args.seed}.jsonl"),
                     {"workload": args.workload, "seed": args.seed,
                      "environment": env, "metrics": values})
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": median(setups), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "cpu_s": {"value": cpu_s, "unit": "s"},
            "peak_rss_mib": {"value": rss_kib / 1024.0, "unit": "MiB"},
        }
    shutil.rmtree(os.path.join(WORK, args.workload), ignore_errors=True)

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "environment": env,
        "samples": {"setup_s": len(setups), "passes": len(passes)},
        "digests": digests, "artifact_bytes": [p.artifact_bytes for p in passes],
        "pass_wall_s": walls, "pass_cpu_s": [p.cpu for p in passes], "setup_s": setups,
    }, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
