"""Outside-in tracing of the maximin layers.

The tracer replaces each layer's public function, at every module
attribute that refers to it, by a wrapper that records one span
(name, start, end, parent) per call. Several modules import layer
functions by name (``simulate.generate``, ``asymvar.dmagging_dB``,
``relaxation.maximin_point``, ``cli.load_grouped_csv`` ...), so patching
only the defining module would miss those calls; the tracer therefore
imports every ``maximin`` submodule and patches each attribute that is
the original function object. Dense-algebra kernels (``numpy.linalg.*``,
``scipy.linalg.cho_factor``) are counted, not spanned.

The tracer is a context manager that can be entered many times, so
traced and untraced runs of the same input can alternate; ``wall``
sums the time spent inside it. Spans stay in memory and are written out
once, when the run ends. A layer's self time is its span time minus the time its child spans
cover. The program's code is never edited; ``uninstall`` restores every
patched attribute.
"""

import functools
import importlib
import os
import pkgutil
import sys
import time

# Canonical layer names, grouped as the per-layer table reports them.
LAYERS = (
    "linmodel.generate",
    "linmodel.fit",
    "linmodel.load_grouped_csv",
    "linmodel.load_group_csvs",
    "magging.maximin_point",
    "magging.brute_force_oracle",
    "geometry.magging_differential",
    "geometry.dmagging_dB",
    "asymvar.empirical_C",
    "asymvar.assemble_W",
    "asymvar.tied_neighbors",
    "confidence.build_region",
    "confidence.chi2_quantile",
    "confidence.contains",
    "confidence.max_eigenvalue",
    "relaxation.group_confidence_boxes",
    "relaxation.covering_region",
    "relaxation.contains_relaxed",
    "pipeline.analyze_dataset",
    "simulate.run_cell",
    "cli.main",
)

# Counted kernels, as (module, function); reported as kernel.<function>.
KERNELS = (
    ("numpy.linalg", "pinv"),
    ("numpy.linalg", "solve"),
    ("numpy.linalg", "lstsq"),
    ("numpy.linalg", "svd"),
    ("numpy.linalg", "eigh"),
    ("scipy.linalg", "cho_factor"),
)


def _resolve(dotted):
    module_name, _, attr = dotted.rpartition(".")
    module = sys.modules.get(module_name)
    return getattr(module, attr, None) if module is not None else None


class Tracer:
    """Span recorder for one traced run: enter, run, exit (repeatable), report."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.errors = dict.fromkeys(LAYERS, 0)
        self.kernels = {attr: 0 for _, attr in KERNELS}
        self.sites = {}
        self.missing = []
        self._patched = []
        self._observations = {
            "iterations": [],
            "kkt": [],
            "vertex": [],
            "tied": [],
            "csv_bytes": 0,
            "shell_pass": [],
        }
        self.wall = 0.0
        self._entered = None

    # -- installation ---------------------------------------------------

    def install(self):
        """Patch every lookup site; safe to repeat after ``uninstall``."""
        import maximin

        # Import every submodule first: a module imported later would bind
        # the wrappers by name and keep them after uninstall.
        for info in pkgutil.iter_modules(maximin.__path__, "maximin."):
            importlib.import_module(info.name)
        self.sites = {layer: [] for layer in LAYERS}
        self.missing = []
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "maximin" or name.startswith("maximin."))
        ]
        for layer in LAYERS:
            original = _resolve("maximin." + layer)
            if original is None:
                self.missing.append(layer)
                continue
            wrapper = self._span_wrapper(layer, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, value, wrapper)
                        self.sites[layer].append(f"{mod.__name__}.{attr}")
        for module_name, attr in KERNELS:
            module = sys.modules[module_name]
            original = getattr(module, attr)
            wrapper = self._count_wrapper(attr, original)
            self._patch(module, attr, original, wrapper)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, value, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def __enter__(self):
        self.install()
        self._entered = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall += time.perf_counter() - self._entered
        self.uninstall()
        return False

    def _patch(self, module, attr, original, wrapper):
        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def _count_wrapper(self, short, fn):
        kernels = self.kernels

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            kernels[short] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, name, fn):
        spans = self.spans
        stack = self._stack
        errors = self.errors
        observe = self._observers().get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    # -- observations from arguments and return values -------------------

    def _observers(self):
        obs = self._observations

        def maximin_point(args, kwargs, solution):
            obs["iterations"].append(solution.iterations)
            obs["kkt"].append(solution.kkt_residual)

        def assemble_W(args, kwargs, cov):
            solution = args[1] if len(args) > 1 else kwargs["solution"]
            obs["vertex"].append(bool(cov.vertex_mode))
            obs["tied"].append(len(cov.active_used) > len(solution.active))

        def load_grouped_csv(args, kwargs, dataset):
            path = args[0] if args else kwargs["path"]
            obs["csv_bytes"] += os.path.getsize(path)

        def contains_relaxed(args, kwargs, inside):
            import numpy as np

            region = args[0] if args else kwargs["region"]
            M = np.asarray(args[1] if len(args) > 1 else kwargs["M"], dtype=float)
            norm = float(np.sqrt(max(M @ region.Sigma0 @ M, 0.0)))
            passing = np.abs(norm - region.shells) <= region.radii + 1e-9
            obs["shell_pass"].append(float(passing.mean()))

        return {
            "magging.maximin_point": maximin_point,
            "asymvar.assemble_W": assemble_W,
            "linmodel.load_grouped_csv": load_grouped_csv,
            "relaxation.contains_relaxed": contains_relaxed,
        }

    # -- reporting -------------------------------------------------------

    def per_layer(self, operations, overhead_ratio):
        """Per-layer metrics as {name: value}.

        ``operations`` is the count the kernel totals are divided by;
        ``overhead_ratio`` is traced over untraced time of the same work,
        minus one, as the caller measured it.
        """
        wall = self.wall
        calls = dict.fromkeys(LAYERS, 0)
        total = dict.fromkeys(LAYERS, 0.0)
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        covered = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            total[name] += (end - start) - child[i]
            if parent < 0:
                covered += end - start
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_ms"] = total[layer] * 1e3
            out[f"{layer}.share"] = total[layer] / wall if wall > 0 else 0.0
            out[f"{layer}.errors"] = self.errors[layer]
        for short, count in self.kernels.items():
            out[f"kernel.{short}"] = count / operations if operations else 0.0
        obs = self._observations
        out["magging.maximin_point.iterations"] = _mean(obs["iterations"])
        out["magging.maximin_point.kkt_max"] = max(obs["kkt"], default=0.0)
        out["asymvar.assemble_W.vertex_ratio"] = _mean(obs["vertex"])
        out["asymvar.assemble_W.tied_ratio"] = _mean(obs["tied"])
        load_s = sum(
            end - start for name, start, end, _ in self.spans
            if name == "linmodel.load_grouped_csv"
        )
        out["linmodel.load_grouped_csv.mb_per_s"] = (
            obs["csv_bytes"] / 1e6 / load_s if load_s > 0 else 0.0
        )
        out["relaxation.contains_relaxed.shell_pass_ratio"] = _mean(obs["shell_pass"])
        out["trace.overhead_ratio"] = overhead_ratio
        out["trace.covered_ratio"] = covered / wall if wall > 0 else 0.0
        return out

    def write_spans(self, path):
        """Write every span as CSV: index, name, start, end, parent."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                handle.write(
                    f"{i},{name},{start - origin:.9f},{end - origin:.9f},{parent}\n"
                )


def _mean(values):
    return float(sum(values)) / len(values) if values else 0.0
