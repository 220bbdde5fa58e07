"""Benchmark of the maximin package: simulate, region-from-CSV and covering.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sim-small --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, named metrics
    python3 perfbench/run.py --smoke                      # toy sizes, checks only

One run prints the environment record, every correctness check and the
workload's descriptive numbers, then, as its last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its
per-layer metrics with ``--trace 1``. The exit code is nonzero when any
correctness check fails.

Every measurement runs in a fresh interpreter (perfbench/worker.py)
with BLAS pinned to one thread, so jobs x BLAS threads <= nproc on the
two-process cell. ``setup_s`` is the median of several fresh set-ups.
"""

import os

# Pinned before numpy loads here or in any child; children inherit it.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
SETUP_REPEATS = 5
CHILD_GRACE_S = 100

# The ten end-to-end numbers the benchmark reports by name, with the
# workloads they belong to; ``run.py --workload all`` prints this table.
NAMED_METRICS = (
    ("setup_s", "s", None),
    ("peak_rss_mb", "MB", None),
    ("failed_ratio", "ratio", None),
    ("replicates_per_s", "1/s", ("sim-small", "sim-wide", "sim-ties")),
    ("replicates_per_s_jobs2", "1/s", ("sim-small",)),
    ("rows_per_s_grouped", "1/s", ("region-csv",)),
    ("rows_per_s_split", "1/s", ("region-csv",)),
    ("covering_build_s", "s", ("covering",)),
    ("membership_query_ms", "ms", ("covering",)),
    ("membership_query_ms_tail", "ms", ("covering",)),
)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def benchmark_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_child(argv, timeout):
    """Run worker.py with argv; return its last stdout line as JSON."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *argv]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"worker {' '.join(argv[:3])} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    """Machine and library record written with every result."""
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    mem_mb = None
    try:
        with open("/proc/meminfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("MemTotal:"):
                    mem_mb = int(line.split()[1]) // 1024
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        vendor = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "mem_total_mb": mem_mb,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": vendor,
        "blas_threads_env": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "blas_threads_reported": _blas_threads(),
    }


def run_workload(workload, seed, seconds, trace):
    """One benchmark run; returns the result record (also saved under _work)."""
    workdir = os.path.join(WORK, f"{workload}-seed{seed}-trace{trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    setups = []
    if not trace:
        for _ in range(SETUP_REPEATS):
            setups.append(run_child(["setup", "--workload", workload, "--seed", str(seed)],
                                    timeout=10))
    import workloads

    cfg = workloads.config(workload)
    if cfg["kind"] == "region":
        workloads.write_region_inputs(cfg, seed, workdir)
    out = run_child(
        ["measure", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--workdir", workdir],
        timeout=seconds + CHILD_GRACE_S,
    )
    for name in os.listdir(workdir):
        if name.endswith(".csv") and name != "spans.csv":
            os.remove(os.path.join(workdir, name))
    if setups:
        out["metrics"]["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        out["detail"]["setup_s"] = out["metrics"]["setup_s"]
        out["detail"]["setup_s_wall"] = statistics.median(s["setup_s_wall"] for s in setups)
    out["environment"] = environment()
    out["workload"] = workload
    out["seed"] = seed
    out["seconds"] = seconds
    out["trace"] = trace
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=2, sort_keys=True)
    return out


def result_line(out, wanted):
    """The result line: correct, attempted, failed and every wanted metric."""
    missing = [name for name, _ in wanted if name not in out["metrics"]]
    if missing:
        fail(f"metrics not produced: {', '.join(missing)}")
    correct = all(check["ok"] for check in out["checks"])
    return correct, {
        "correct": correct,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {
            name: {"value": float(out["metrics"][name]), "unit": unit}
            for name, unit in wanted
        },
    }


def print_report(out):
    print("environment " + json.dumps(out["environment"], sort_keys=True))
    for check in out["checks"]:
        status = "PASS" if check["ok"] else "FAIL"
        print(f"check {status}  {check['name']}  {check['detail']}".rstrip())
    print("detail " + json.dumps(out["detail"], sort_keys=True))


def cmd_single(args, spec):
    key = "per_layer" if args.trace else "end_to_end"
    wanted = [(m["name"], m["unit"]) for m in spec[key]]
    out = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print_report(out)
    correct, line = result_line(out, wanted)
    print(json.dumps(line))
    return 0 if correct else 1


def cmd_all(args, spec):
    """Every workload untraced; the ten named metrics with their units."""
    names = [w["name"] for w in spec["workloads"]]
    results = {}
    ok = True
    for name in names:
        out = run_workload(name, args.seed, args.seconds, 0)
        results[name] = out
        failed_checks = [c["name"] for c in out["checks"] if not c["ok"]]
        ok = ok and not failed_checks
        print(f"{name}: {len(out['checks'])} checks, failed: {failed_checks or 'none'}")
    print("environment " + json.dumps(results[names[0]]["environment"], sort_keys=True))
    print(f"{'metric':<26} {'unit':<6} {'workload':<11} value")
    for metric, unit, owners in NAMED_METRICS:
        for name in owners or names:
            value = results[name]["detail"].get(metric)
            extra = ""
            if metric == "membership_query_ms_tail":
                detail = results[name]["detail"]
                extra = (f"  (p{detail['membership_query_tail_percentile']},"
                         f" {detail['membership_query_samples']} samples)")
            print(f"{metric:<26} {unit:<6} {name:<11} {value:.6g}{extra}")
    return 0 if ok else 1


def cmd_smoke(args, spec):
    """Toy sizes: one fresh set-up per workload, then every workload
    untraced and traced in one child; checks outputs and metric names."""
    workdir = os.path.join(WORK, "smoke")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    wanted = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        setup = run_child(["setup", "--workload", workload, "--smoke"], timeout=60)
        good = setup["setup_s"] > 0
        ok = ok and good
        print(f"smoke {'PASS' if good else 'FAIL'}  {workload}/setup: {setup['setup_s']:.3f} s")
    out = run_child(["smoke", "--seed", str(args.seed), "--workdir", workdir], timeout=170)
    for key, result in out["smoke"].items():
        bad = [c["name"] for c in result["checks"] if not c["ok"]]
        produced = set(result["metrics"]) | ({"setup_s"} if key.endswith("trace0") else set())
        if produced != wanted[int(key[-1])]:
            bad.append("metric names differ from BENCHMARK.json")
        ok = ok and not bad and result["attempted"] >= 1
        print(f"smoke {'PASS' if not bad else 'FAIL'}  {key}: {len(result['checks'])}"
              f" checks, {len(result['metrics'])} metrics"
              + (f", failed: {bad}" if bad else ""))
    shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=None,
                        help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of one run; defaults to run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at toy sizes; checks correctness, not speed")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "maximin", "__init__.py")):
        fail(f"no maximin sources under {os.path.join(ROOT, 'src')}; run from a full checkout")
    sys.path.insert(0, HERE)
    spec = benchmark_spec()
    if args.smoke:
        return cmd_smoke(args, spec)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return cmd_all(args, spec)
    if args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)} or all")
    return cmd_single(args, spec)


if __name__ == "__main__":
    sys.exit(main())
