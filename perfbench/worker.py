"""Child process for one measurement; started by run.py in a fresh interpreter.

    python3 perfbench/worker.py setup   --workload W --seed S [--smoke]
    python3 perfbench/worker.py measure --workload W --seed S --seconds T
                                        --trace 0|1 --workdir DIR [--smoke]
    python3 perfbench/worker.py smoke   --workdir DIR

``setup`` times a fresh invocation up to its first result: importing the
package plus the workload's per-process lazy work. ``measure`` runs the
timed loops (``--trace 0``) or the traced run (``--trace 1``). Both print
one JSON object as their last line. ``smoke`` runs every workload at toy
sizes, untraced and traced, in this one interpreter. The parent sets the
BLAS thread variables before starting this process.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def _check_import():
    import maximin

    expected = os.path.join(ROOT, "src", "maximin")
    if os.path.dirname(os.path.abspath(maximin.__file__)) != expected:
        raise SystemExit(f"maximin imported from {maximin.__file__}, not {expected}")


def do_setup(args):
    cfg = workloads.config(args.workload, args.smoke)
    import maximin  # noqa: F401

    kind = cfg["kind"]
    getattr(workloads, f"{kind}_setup")(cfg, args.seed)
    elapsed = time.perf_counter() - T0
    _check_import()
    return {"setup_s": workloads.calibrated_setup(elapsed), "setup_s_wall": elapsed}


def peak_rss_mb():
    """Peak resident set of this process or of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def do_measure(args):
    _check_import()
    cfg = workloads.config(args.workload, args.smoke)
    kind = cfg["kind"]
    if args.trace:
        return trace(cfg, kind, args)
    if kind == "sim":
        result = workloads.measure_sim(cfg, args.seed, args.seconds, args.smoke)
    elif kind == "region":
        result = workloads.measure_region(cfg, args.seed, args.seconds,
                                          args.workdir, args.smoke)
    else:
        result = workloads.measure_covering(cfg, args.seed, args.seconds, args.smoke)
    main, alt, attempted, failed, checks, detail = result
    detail["peak_rss_mb"] = peak_rss_mb()
    detail["failed_ratio"] = failed / attempted
    return {
        "metrics": {"main_per_s": main, "alt_per_s": alt,
                    "peak_rss_mb": detail["peak_rss_mb"]},
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "detail": detail,
    }


def trace(cfg, kind, args):
    import tracing

    tracer = tracing.Tracer()
    if kind == "sim":
        out = workloads.trace_sim(cfg, args.seed, args.seconds, tracer, args.smoke)
    elif kind == "region":
        out = workloads.trace_region(cfg, args.seed, args.seconds, args.workdir,
                                     tracer, args.smoke)
    else:
        out = workloads.trace_covering(cfg, args.seed, args.seconds, tracer, args.smoke)
    operations, failed, checks, overhead = out
    metrics = tracer.per_layer(operations, overhead)
    spans_path = os.path.join(args.workdir, "spans.csv")
    tracer.write_spans(spans_path)
    _check_import()
    return {
        "metrics": metrics,
        "attempted": operations,
        "failed": failed,
        "checks": checks,
        "detail": {
            "spans": len(tracer.spans),
            "spans_file": os.path.relpath(spans_path, ROOT),
            "missing_layers": tracer.missing,
            "sites": tracer.sites,
        },
    }


def do_smoke(args):
    results = {}
    for name in workloads.WORKLOADS:
        for traced in (0, 1):
            run = argparse.Namespace(workload=name, seed=args.seed, seconds=0.0,
                                     trace=traced, workdir=args.workdir, smoke=True)
            if workloads.WORKLOADS[name]["kind"] == "region":
                workloads.write_region_inputs(workloads.config(name, True),
                                              args.seed, args.workdir)
            out = do_measure(run)
            results[f"{name}/trace{traced}"] = {
                "checks": out["checks"],
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": sorted(out["metrics"]),
            }
    return {"smoke": results}


def main():
    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("mode", choices=("setup", "measure", "smoke"))
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", default=None)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    modes = {"setup": do_setup, "measure": do_measure, "smoke": do_smoke}
    if args.mode != "smoke" and args.workload is None:
        parser.error("--workload is required")
    out = modes[args.mode](args)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
