"""Workloads: inputs made from the seed, timed loops and correctness checks.

Every workload reports the same two rates so that each end-to-end metric
exists on every workload:

* ``main_per_s`` - the workload's primary path;
* ``alt_per_s``  - its second path.

What each rate counts (``detail`` carries the same numbers under the
descriptive names, next to their raw wall-clock medians):

============  ===============================  ==============================
workload      main_per_s                       alt_per_s
============  ===============================  ==============================
sim-*         run_cell replicates/s, jobs=1    the same blocks at jobs=2
region-csv    CSV rows/s, one grouped file     CSV rows/s, one file per group
covering      lattice centres/s in the build   hull-distance tests/s inside
              (group_confidence_boxes +        contains_relaxed over the
              covering_region)                 query set
============  ===============================  ==============================

Inputs come from the benchmark's own Philox streams keyed by the seed,
never from the program's generator, so a change to the program cannot
change what it is given. The program is called through its public
modules (``simulate.run_cell``, ``cli.main``, ``relaxation.*``) and
looked up at call time, so the tracer's wrappers see every call.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import time

import numpy as np

ALPHA = 0.05

WORKLOADS = {
    "sim-small": {"kind": "sim", "table": 1, "p": 3, "n": 100,
                  "block": 100, "ref_reps": 200},
    "sim-wide": {"kind": "sim", "table": 1, "p": 12, "n": 500,
                 "block": 30, "ref_reps": 20},
    "sim-ties": {"kind": "sim", "table": 3, "p": 5, "n": 500,
                 "block": 120, "ref_reps": 100},
    "region-csv": {"kind": "region", "p": 5, "G": 5, "n": 20000},
    "covering": {"kind": "covering", "p": 2, "n": 200, "eps": 0.04,
                 "queries": 40},
}

# Toy sizes for the smoke mode: same code paths, a fraction of a second each.
SMOKE = {
    "sim-small": {"block": 6},
    "sim-wide": {"block": 2},
    "sim-ties": {"block": 6},
    "region-csv": {"n": 200},
    "covering": {"eps": 0.12, "queries": 6},
}

# Shared-plus-noise coefficients (b_g = e_1 + z_g e_2) with mixed signs,
# so the true maximin point is e_1 under the identity metric.
COVERING_B0 = np.array([[1.0, 1.0], [-0.75, 0.85]])
COVERING_M0 = np.array([1.0, 0.0])

# Each covering step is one build plus this fraction of the query set.
QUERY_BATCHES = 5

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

_SLACK = 1e-9


def config(name, smoke=False):
    cfg = dict(WORKLOADS[name], name=name)
    if smoke:
        cfg.update(SMOKE[name])
    return cfg


def derive_seed(*parts):
    """64-bit seed from a tuple of parts; independent of the program's hash."""
    text = "perfbench:" + ":".join(str(part) for part in parts)
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")


def stream(*parts):
    return np.random.Generator(np.random.Philox(derive_seed(*parts)))


def _check(checks, name, ok, detail=""):
    checks.append({"name": name, "ok": bool(ok), "detail": str(detail)})


def _median(values):
    return float(np.median(np.asarray(values, dtype=float)))


def _timed_loop(step, budget_s, min_steps):
    """Call step(k) for k = 0, 1, ... until budget_s passed and min_steps ran."""
    start = time.perf_counter()
    k = 0
    while k < min_steps or time.perf_counter() - start < budget_s:
        step(k)
        k += 1
    return k


def tail_percentile(values_ms, beyond=10):
    """Highest percentile with at least ``beyond`` samples above it.

    Returns (percentile, value, sample_count); the percentile is None
    when there are too few samples for any.
    """
    data = np.sort(np.asarray(values_ms, dtype=float))
    count = data.size
    best = None
    for pct in (50, 75, 90, 95, 99, 99.9):
        if count * (1.0 - pct / 100.0) >= beyond:
            best = pct
    if best is None:
        return None, float("nan"), count
    return best, float(np.percentile(data, best)), count


# ----------------------------------------------------------------------
# Timing against a calibration loop

# Rounds of the calibration loop (about 10 ms on a quiet 2-core Xeon VM)
# and the calibration time that reported rates are scaled to.
CAL_ROUNDS = 2500
CAL_NOMINAL_S = 0.010


def calibration_s():
    """Wall time of a fixed mix of interpreter work and small numpy products.

    Uses no numpy.linalg function, so the tracer's kernel counts never
    see it.
    """
    A = np.full((4, 4), 0.1) + 2.0 * np.eye(4)
    b = np.ones(4)
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(CAL_ROUNDS):
        x = A @ b
        acc += float(x @ x)
        acc += sum({j: j * 1.5 for j in range(20)}.values())
    return time.perf_counter() - t0


class Sampler:
    """Wall times of labelled samples, each between two calibration runs.

    On the shared host the benchmark was defined on, neighbouring load
    slows every process by up to ~45% for seconds at a time, longer than
    a run, so medians of raw wall time move with the neighbours. Dividing
    each sample by the mean of the calibration runs on either side of it
    cancels most of that: rates are medians of these ratios, expressed
    for a host whose calibration run takes CAL_NOMINAL_S. Raw wall times
    are kept and reported next to them.

    A sample that keeps two processes busy (``parallel=2``, the jobs=2
    cell) is calibrated by two calibration runs at once in two helper
    processes, because load on the host slows one busy core and two busy
    cores by different amounts. Use the sampler as a context manager so
    the helpers are stopped.
    """

    def __init__(self):
        self.samples = {}
        self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        return False

    def _calibrate(self, parallel):
        if parallel == 1:
            return calibration_s()
        if self._pool is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(
                parallel, mp_context=multiprocessing.get_context("spawn"))
            self._calibrate(parallel)
        futures = [self._pool.submit(calibration_s) for _ in range(parallel)]
        return _median([future.result() for future in futures])

    def time(self, label, work, fn, *args, parallel=1):
        """Run fn(*args) as one sample of ``work`` units; return its result."""
        before = self._calibrate(parallel)
        t0 = time.perf_counter()
        out = fn(*args)
        elapsed = time.perf_counter() - t0
        after = self._calibrate(parallel)
        ratio = elapsed / (0.5 * (before + after))
        self.samples.setdefault(label, []).append((elapsed, ratio, work))
        return out

    def rate(self, label):
        """Work units per second, calibrated (median over samples)."""
        per_unit = [ratio / work for _, ratio, work in self.samples[label]]
        return 1.0 / (_median(per_unit) * CAL_NOMINAL_S)

    def wall_rate(self, label):
        """Work units per second of raw wall time (median over samples)."""
        return 1.0 / _median([t / work for t, _, work in self.samples[label]])

    def count(self, label):
        return len(self.samples[label])


def calibrated_setup(elapsed):
    """Scale a set-up time by calibration runs made right after it."""
    cal = _median([calibration_s() for _ in range(3)])
    return elapsed / cal * CAL_NOMINAL_S


# ----------------------------------------------------------------------
# sim-*: run_cell on one table-preset cell, blocks of replicates


def sim_spec(cfg, seed, block):
    from dataclasses import replace

    from maximin import simulate

    spec = simulate.scenario_presets(cfg["table"], cfg["p"], cfg["n"])
    return replace(spec, seed=derive_seed("sim", cfg["name"], seed, block))


def _grid_row(cfg, report):
    from maximin import simulate

    text = simulate.grid_to_csv([(cfg["table"], cfg["p"], cfg["n"], report)])
    return text.splitlines()[1]


def sim_setup(cfg, seed):
    """Per-process lazy work: one replicate, which pays the oracle check."""
    from maximin import simulate

    simulate.run_cell(sim_spec(cfg, seed, 0), 1, ALPHA)


def _sim_reference_check(cfg, checks):
    from maximin import simulate

    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        expected = json.load(handle)["sim"][cfg["name"]]
    report = simulate.run_cell(sim_spec(cfg, "reference", 0),
                               expected["replicates"], ALPHA)
    got = {
        "replicates": report.replicates,
        "covered": report.covered,
        "degenerate": report.degenerate_count,
        "vertex": report.vertex_count,
    }
    _check(checks, "reference cell counts match reference.json",
           got == expected, f"got {got}")


def measure_sim(cfg, seed, seconds, smoke=False):
    """Each block runs at jobs=1 and then at jobs=2, so both rates sample
    the same stretch of machine time and every block's rows are compared."""
    from maximin import simulate

    checks = []
    reps = cfg["block"]
    serial, pooled = [], []

    with Sampler() as sampler:

        def step(k):
            spec = sim_spec(cfg, seed, k)
            serial.append(sampler.time("jobs1", reps, simulate.run_cell,
                                       spec, reps, ALPHA, 1))
            pooled.append(sampler.time("jobs2", reps, simulate.run_cell,
                                       spec, reps, ALPHA, 2, parallel=2))

        _timed_loop(step, seconds, 1 if smoke else 3)
    rows1 = [_grid_row(cfg, r) for r in serial]
    rows2 = [_grid_row(cfg, r) for r in pooled]
    _check(checks, "grid rows byte-identical at jobs 1 and 2",
           rows1 == rows2, f"{len(rows1)} blocks compared")
    _check(checks, "covered + degenerate <= replicates",
           all(r.covered + r.degenerate_count <= r.replicates for r in serial))
    if not smoke:
        _sim_reference_check(cfg, checks)
    main, alt = sampler.rate("jobs1"), sampler.rate("jobs2")
    detail = {
        "replicates_per_s": main,
        "replicates_per_s_jobs2": alt,
        "replicates_per_s_wall": sampler.wall_rate("jobs1"),
        "replicates_per_s_jobs2_wall": sampler.wall_rate("jobs2"),
        "blocks": len(serial),
        "block_replicates": reps,
        "covered": sum(r.covered for r in serial),
        "degenerate": sum(r.degenerate_count for r in serial),
        "vertex": sum(r.vertex_count for r in serial),
    }
    attempted = reps * (len(serial) + len(pooled))
    failed = sum(r.degenerate_count for r in serial + pooled)
    return main, alt, attempted, failed, checks, detail


def _traced_pairs(tracer, run, budget_s, min_steps):
    """Call run(k) under the tracer and then without it, for k = 0, 1, ...

    Returns the traced outputs, the untraced outputs and the tracing
    overhead: the median over pairs of traced / untraced time, minus 1.
    Pairs sample the same stretch of machine time, which keeps the
    overhead out of the neighbours' noise.
    """
    traced, plain, ratios = [], [], []

    def step(k):
        with tracer:
            t0 = time.perf_counter()
            traced.append(run(k))
            t_traced = time.perf_counter() - t0
        t0 = time.perf_counter()
        plain.append(run(k))
        ratios.append(t_traced / (time.perf_counter() - t0))

    _timed_loop(step, budget_s, min_steps)
    return traced, plain, _median(ratios) - 1.0


def trace_sim(cfg, seed, seconds, tracer, smoke=False):
    """The one-replicate set-up traced, then blocks at jobs=1 in pairs."""
    from maximin import simulate

    checks = []
    reps = cfg["block"]
    with tracer:
        simulate.run_cell(sim_spec(cfg, seed, 0), 1, ALPHA)
    traced, plain, overhead = _traced_pairs(
        tracer, lambda k: simulate.run_cell(sim_spec(cfg, seed, k), reps, ALPHA),
        seconds, 1 if smoke else 3)
    _check(checks, "traced grid rows byte-identical to untraced",
           [_grid_row(cfg, r) for r in traced] == [_grid_row(cfg, r) for r in plain],
           f"{len(traced)} blocks compared")
    failed = sum(r.degenerate_count for r in traced)
    return 1 + len(traced) * reps, failed, checks, overhead


# ----------------------------------------------------------------------
# region-csv: `maximin region` from file to JSON, grouped and split inputs


def region_groups(cfg, seed):
    """The (X_g, y_g) arrays behind the CSV files; y = X b_g + noise."""
    rng = stream("region", seed)
    p, G, n = cfg["p"], cfg["G"], cfg["n"]
    B0 = rng.standard_normal((p, G))
    groups = []
    for g in range(G):
        X = rng.standard_normal((n, p))
        y = X @ B0[:, g] + rng.standard_normal(n)
        groups.append((X, y))
    return groups


def region_inputs(cfg, workdir):
    """CLI arguments of the two inputs: the grouped file, the per-group files."""
    grouped = [os.path.join(workdir, "grouped.csv")]
    split = [os.path.join(workdir, f"g{g + 1}.csv") for g in range(cfg["G"])]
    return grouped, split


def write_region_inputs(cfg, seed, workdir):
    """Write the grouped file and one file per group, floats as repr.

    Group labels in the grouped file equal the per-group file names, so
    both inputs must produce byte-identical region JSON.
    """
    groups = region_groups(cfg, seed)
    (grouped,), split = region_inputs(cfg, workdir)
    names = [f"x{j + 1}" for j in range(cfg["p"])]
    with open(grouped, "w", encoding="utf-8") as out:
        out.write("group,y," + ",".join(names) + "\n")
        for g, (X, y) in enumerate(groups):
            lines = [",".join(repr(v) for v in [yi, *xi])
                     for yi, xi in zip(y.tolist(), X.tolist())]
            out.write("".join(f"g{g + 1},{line}\n" for line in lines))
            with open(split[g], "w", encoding="utf-8") as one:
                one.write("y," + ",".join(names) + "\n")
                one.write("".join(f"{line}\n" for line in lines))


def _run_region(args, out_path):
    """`maximin region ARGS --out OUT` in-process; (exit code, output text)."""
    from maximin import cli

    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["region", *args, "--out", out_path])
    with open(out_path, encoding="utf-8") as handle:
        return code, handle.read()


def _region_checks(cfg, seed, workdir, texts, checks):
    import maximin
    from maximin import pipeline

    groups = region_groups(cfg, seed)
    (grouped,), split = region_inputs(cfg, workdir)
    labels = tuple(f"g{g + 1}" for g in range(cfg["G"]))
    for name, loaded in (("grouped", maximin.load_grouped_csv(grouped)),
                         ("split", maximin.load_group_csvs(split))):
        same = loaded.labels == labels and all(
            np.array_equal(X, X0) and np.array_equal(y, y0)
            for (X, y), (X0, y0) in zip(loaded.groups, groups)
        )
        _check(checks, f"{name} CSV parses back to the generated arrays", same)
    _check(checks, "grouped and split inputs give byte-identical region JSON",
           len(texts) == 1, f"{len(texts)} distinct outputs")
    payload = json.loads(next(iter(texts)))
    dataset = maximin.GroupedDataset(tuple(groups), labels=labels)
    analysis = pipeline.analyze_dataset(dataset, alpha=ALPHA)
    _check(checks, "region centre equals analyze_dataset in memory",
           payload["region"]["center"] == analysis.region.center.tolist())
    _check(checks, "reported M equals the region centre",
           payload["estimate"]["M"] == payload["region"]["center"])


def region_setup(cfg, seed):
    import maximin.cli  # noqa: F401  (the CLI is the entry this path uses)


def measure_region(cfg, seed, seconds, workdir, smoke=False):
    checks = []
    sampler = Sampler()  # no helper processes: every sample is serial
    rows = cfg["G"] * cfg["n"]
    grouped, split = region_inputs(cfg, workdir)
    out_path = os.path.join(workdir, "region.json")
    codes, texts = [], set()

    def step(k):
        label, args = ("grouped", grouped) if k % 2 == 0 else ("split", split)
        code, text = sampler.time(label, rows, _run_region, args, out_path)
        codes.append(code)
        texts.add(text)

    _timed_loop(step, seconds, 2 if smoke else 6)
    failed = sum(1 for code in codes if code != 0)
    _check(checks, "every region run exits 0", failed == 0, f"codes {sorted(set(codes))}")
    if failed == 0:
        _region_checks(cfg, seed, workdir, texts, checks)
    main, alt = sampler.rate("grouped"), sampler.rate("split")
    detail = {
        "rows_per_s_grouped": main,
        "rows_per_s_split": alt,
        "rows_per_s_grouped_wall": sampler.wall_rate("grouped"),
        "rows_per_s_split_wall": sampler.wall_rate("split"),
        "rows": rows,
        "runs_grouped": sampler.count("grouped"),
        "runs_split": sampler.count("split"),
    }
    return main, alt, len(codes), failed, checks, detail


def trace_region(cfg, seed, seconds, workdir, tracer, smoke=False):
    """Both inputs, traced and then untraced, in pairs; outputs must match."""
    checks = []
    grouped, split = region_inputs(cfg, workdir)
    out_path = os.path.join(workdir, "region.json")
    traced, plain, overhead = _traced_pairs(
        tracer, lambda k: [_run_region(args, out_path) for args in (grouped, split)],
        seconds, 1 if smoke else 2)
    _check(checks, "traced region JSON byte-identical to untraced",
           traced == plain, f"{2 * len(traced)} runs compared")
    failed = sum(1 for pair in traced for code, _ in pair if code != 0)
    return 2 * len(traced), failed, checks, overhead


# ----------------------------------------------------------------------
# covering: per-group boxes, lattice of centres, membership queries


def _chi2_quantile(dof, prob):
    """Chi-squared quantile from scipy's inverse incomplete gamma.

    scipy.special is loaded by the package already; scipy.stats would
    add tens of MB to the measured peak RSS.
    """
    import scipy.special

    return 2.0 * float(scipy.special.gammaincinv(dof / 2.0, prob))


def covering_dataset(cfg):
    """The covering data: one fixed draw whose ellipsoids contain the true B0.

    The same for every seed. The region's geometry sets the cost of each
    hull-distance test, and across draws it moved the hull-test rate by
    +-15%, more than the bound allows; the seed draws the queries.

    Draws are rejected (the next sub-seed is tried) until every column of
    COVERING_B0 sits inside its group's level 1 - alpha/G ellipsoid with
    a 10% margin, computed here independently of the program. On such a
    draw the covering theory guarantees that the true maximin point is
    inside the region, so that check cannot fail by chance.
    """
    from maximin import GroupedDataset

    p, G, n = cfg["p"], COVERING_B0.shape[1], cfg["n"]
    threshold = _chi2_quantile(p, 1.0 - ALPHA / G)
    for attempt in range(1000):
        rng = stream("covering", attempt)
        groups, stats, rss = [], [], 0.0
        for g in range(G):
            X = rng.standard_normal((n, p))
            y = X @ COVERING_B0[:, g] + rng.standard_normal(n)
            b = np.linalg.lstsq(X, y, rcond=None)[0]
            d = b - COVERING_B0[:, g]
            stats.append(float(d @ (X.T @ X) @ d))
            rss += float((y - X @ b) @ (y - X @ b))
            groups.append((X, y))
        sigma2 = rss / (G * (n - p))
        if max(stats) / sigma2 <= 0.9 * threshold:
            return GroupedDataset(tuple(groups))
    raise RuntimeError("no covering draw contains the truth")


def covering_queries(cfg, seed):
    """Fixed mix, interleaved so that every batch holds the same shares:

    * near the truth (mostly inside);
    * on the shell band but turned away from the hulls (outside; each
      solves hull-distance QPs for the pieces whose shell it passes);
    * twice as many on a ray from the truth at steps of eps/4, starting
      at 3.25 eps. The ray crosses the region's boundary (0.15 to 0.32
      from the truth on the draws tried), so answers there depend on
      the exact shell and hull thresholds.
    """
    rng = stream("queries", seed)
    eps = cfg["eps"]
    heading = rng.uniform(-0.4, 0.4) + math.pi * int(rng.integers(2))
    ray = np.array([math.cos(heading), math.sin(heading)])
    out = []
    for i in range(cfg["queries"]):
        if i % 4 == 0:
            phi = rng.uniform(0.0, 2.0 * math.pi)
            r = 0.5 * eps * rng.uniform()
            out.append(COVERING_M0 + r * np.array([math.cos(phi), math.sin(phi)]))
        elif i % 4 == 1:
            theta = rng.choice([-1.0, 1.0]) * rng.uniform(0.8, 1.2)
            r = 1.0 + 0.3 * eps * rng.uniform(-1.0, 1.0)
            out.append(r * np.array([math.cos(theta), math.sin(theta)]))
        else:
            step = (i // 4) * 2 + (i % 4) - 2
            out.append(COVERING_M0 + eps * (3.25 + 0.25 * step) * ray)
    return out


def _segment_distance(a, b, m):
    """Euclidean distance from m to each segment [a_k, b_k]; a, b (K, 2)."""
    d = b - a
    t = np.einsum("ij,ij->i", m - a, d) / np.maximum(np.einsum("ij,ij->i", d, d), 1e-300)
    closest = a + np.clip(t, 0.0, 1.0)[:, None] * d
    return np.sqrt(np.einsum("ij,ij->i", closest - m, closest - m))


def membership_reference(region, queries):
    """Closed-form answers for G = 2 under the identity metric.

    The hull of two columns is a segment, so every shell and hull
    distance has a closed form. Returns, per query, (inside, hull_tests,
    ambiguous): hull_tests counts the pieces that pass the shell test up
    to the first piece passing both, which is the number of hull-distance
    QPs contains_relaxed solves; ambiguous flags answers decided within
    1e-7 of a threshold.
    """
    a = region.centers[:, :, 0]
    b = region.centers[:, :, 1]
    eps = region.radii + _SLACK
    out = []
    for m in queries:
        shell_gap = np.abs(math.hypot(*m) - region.shells) - eps
        hull_gap = _segment_distance(a, b, m) - eps
        hits = np.flatnonzero((shell_gap <= 0) & (hull_gap <= 0))
        stop = hits[0] + 1 if hits.size else len(shell_gap)
        hull_tests = int(np.count_nonzero(shell_gap[:stop] <= 0))
        ambiguous = bool(np.min(np.abs(shell_gap)) < 1e-7
                         or np.min(np.abs(hull_gap[shell_gap <= 0]), initial=1.0) < 1e-7)
        out.append((bool(hits.size), hull_tests, ambiguous))
    return out


def _covering_build(cfg, estimates):
    from maximin import relaxation

    boxes = relaxation.group_confidence_boxes(estimates, ALPHA)
    region = relaxation.covering_region(boxes, np.eye(cfg["p"]), cfg["eps"])
    return boxes, region


def _covering_checks(cfg, estimates, boxes, region, checks):
    from maximin import relaxation

    p, G = boxes.p, boxes.G
    threshold = _chi2_quantile(p, 1.0 - ALPHA / G)
    halfwidths = np.stack([
        np.sqrt(threshold * estimates.sigma2_hat * np.diag(np.linalg.inv(estimates.n * S)))
        for S in estimates.Sigma_g_hat
    ], axis=1)
    _check(checks, "box halfwidths match the chi-squared formula",
           np.allclose(boxes.halfwidths, halfwidths, rtol=1e-9, atol=0.0))
    h = 2.0 * cfg["eps"] / math.sqrt(p)
    expected = math.prod(max(1, math.ceil(2.0 * r / h)) for r in boxes.halfwidths.ravel())
    _check(checks, "piece count matches the lattice formula",
           region.pieces == expected, f"{region.pieces} vs {expected}")
    shells = np.array([
        _segment_distance(c[None, :, 0], c[None, :, 1], np.zeros(2))[0]
        for c in region.centers
    ])
    _check(checks, "piece shells match the closed-form norms",
           np.allclose(region.shells, shells, rtol=0.0, atol=1e-9))
    _check(checks, "true maximin point is inside the region",
           relaxation.contains_relaxed(region, COVERING_M0))


def covering_setup(cfg, seed):
    import maximin.relaxation  # noqa: F401


def _run_queries(region, queries, indices):
    """contains_relaxed on queries[i] for each i; (per-query seconds, answers)."""
    from maximin import relaxation

    times, answers = [], []
    for i in indices:
        t0 = time.perf_counter()
        answers.append(relaxation.contains_relaxed(region, queries[i]))
        times.append(time.perf_counter() - t0)
    return times, answers


def measure_covering(cfg, seed, seconds, smoke=False):
    """Builds alternate with batches of queries, so both rates sample the
    same stretch of machine time; the batches cycle through the query set."""
    from maximin import linmodel

    checks = []
    sampler = Sampler()  # no helper processes: every sample is serial
    estimates = linmodel.fit(covering_dataset(cfg))
    queries = covering_queries(cfg, seed)
    batch = max(1, len(queries) // QUERY_BATCHES)
    built, query_times, answers, reference = [], [], [], []

    def step(k):
        built.append(sampler.time("build", 1, _covering_build, cfg, estimates))
        if not reference:
            reference.extend(membership_reference(built[0][1], queries))
        indices = [(k * batch + j) % len(queries) for j in range(batch)]
        tests = sum(reference[i][1] for i in indices)
        times, got = sampler.time("queries", tests, _run_queries, built[0][1], queries, indices)
        query_times.extend(times)
        answers.extend(zip(indices, got))

    _timed_loop(step, seconds, 1 if smoke else QUERY_BATCHES)
    boxes, region = built[0]
    _check(checks, "repeated builds are identical",
           all(np.array_equal(r.shells, region.shells) for _, r in built))
    _covering_checks(cfg, estimates, boxes, region, checks)
    wrong = [i for i, inside in answers if not reference[i][2] and inside != reference[i][0]]
    _check(checks, "every query answer matches the closed-form reference",
           not wrong, f"{len(wrong)} wrong of {len(answers)}")
    ms = [t * 1e3 for t in query_times]
    pct, tail, count = tail_percentile(ms)
    build_s = 1.0 / sampler.rate("build")
    main, alt = region.pieces / build_s, sampler.rate("queries")
    detail = {
        "covering_build_s": build_s,
        "covering_build_s_wall": 1.0 / sampler.wall_rate("build"),
        "builds": sampler.count("build"),
        "pieces": region.pieces,
        "centres_per_s": main,
        "hull_tests_per_s": alt,
        "membership_query_ms": _median(ms),
        "membership_query_ms_tail": tail,
        "membership_query_tail_percentile": pct,
        "membership_query_samples": count,
        "queries_inside": sum(1 for r in reference if r[0]),
        "queries_ambiguous": sum(1 for r in reference if r[2]),
    }
    return main, alt, sampler.count("build") + len(answers), 0, checks, detail


def trace_covering(cfg, seed, seconds, tracer, smoke=False):
    """One build and one pass over the queries, traced and then untraced,
    in pairs; pieces, shells, centres and answers must match."""
    from maximin import linmodel

    checks = []
    estimates = linmodel.fit(covering_dataset(cfg))
    queries = covering_queries(cfg, seed)

    def run(k):
        _, region = _covering_build(cfg, estimates)
        _, answers = _run_queries(region, queries, range(len(queries)))
        return region, answers

    traced, plain, overhead = _traced_pairs(tracer, run, seconds, 1 if smoke else 2)
    same = all(
        r1.pieces == r2.pieces and np.array_equal(r1.shells, r2.shells)
        and np.array_equal(r1.centers, r2.centers) and a1 == a2
        for (r1, a1), (r2, a2) in zip(traced, plain)
    )
    _check(checks, "traced covering output identical to untraced", same,
           f"{len(traced)} builds compared")
    operations = sum(region.pieces + len(answers) for region, answers in traced)
    return operations, 0, checks, overhead
