"""Per-layer tracing for the benchmark, done from outside the program.

`Tracer.install()` replaces selected public functions of the motionemu
modules with timing wrappers, everywhere the package holds a reference
to them (module attributes and names imported with `from . import`), and
`uninstall()` puts the originals back.  Each wrapper opens a span; a
span's self time is its duration minus the time of the wrapped spans it
encloses.  Functions that are not wrapped are charged to their nearest
wrapped caller, and the root span around the CLI command (`cli`) takes
whatever no wrapped function covers, so the self times of one command
add up to its traced wall time.

Spans are aggregated in memory by metric name (calls, total and self
time) and written out once, when the run ends.
"""

import functools
import os
import sys
import time
from collections import defaultdict

# metric name -> (module, wrapped functions).  Several functions may
# share one metric; every wrapped function belongs to exactly one.
SPANS = {
    "alignment.optimal_warp": ("alignment", ("optimal_warp",)),
    "alignment.tsrvf": ("alignment", ("tsrvf",)),
    "alignment.warp_sequence": ("alignment", ("warp_sequence",)),
    "geometry.karcher_mean": ("geometry", ("karcher_mean",)),
    "geometry.sphere_exp": ("geometry", ("sphere_exp",)),
    "geometry.sphere_transport": ("geometry", ("sphere_transport",)),
    "geometry.coords_to_tangent": ("geometry", ("coords_to_tangent",)),
    "flatten.flatten_sequence": ("flatten", ("flatten_sequence",)),
    "flatten.unflatten_field": ("flatten", ("unflatten_field",)),
    "dimred.spatial_pca_fit": ("dimred", ("spatial_pca_fit",)),
    "dimred.fpca_fit": ("dimred", ("fpca_fit",)),
    "dimred.project": ("dimred", ("spatial_project", "fpca_project")),
    "dimred.reconstruct": ("dimred", ("spatial_reconstruct", "fpca_reconstruct")),
    "models.fit_emulator": ("models", ("fit_emulator",)),
    "models.fit_pwi": ("models", ("fit_pwi",)),
    "models.simulate_sequence": ("models", ("simulate_sequence",)),
    "models.sample_pwi": ("models", ("sample_pwi",)),
    "models.loglik": ("models", ("loglik",)),
    "evaluate.sequence_distance_matrix": ("evaluate", ("sequence_distance_matrix",)),
    "evaluate.disco_test": ("evaluate", ("disco_test",)),
    "evaluate.posture_distance_matrix": ("evaluate", ("posture_distance_matrix",)),
    "evaluate.cluster_postures": ("evaluate", ("cluster_postures",)),
    "evaluate.mean_label_sequence": ("evaluate", ("mean_label_sequence",)),
    "evaluate.quantize": ("evaluate", ("quantize",)),
    "io.read": ("io", ("read_posture_sequences", "read_flatfields", "read_warps", "read_doc")),
    "io.write": ("io", ("write_posture_sequences", "write_flatfields", "write_warps",
                        "write_doc")),
    "persist.save": ("persist", ("save_bundle", "save_reduction")),
    "persist.load": ("persist", ("load_bundle", "load_reduction")),
}

ROOT = "cli"


def _first_len(args, kwargs, result):
    return len(args[0])


def _square_len(args, kwargs, result):
    return len(args[0]) ** 2


def _result_len(args, kwargs, result):
    return len(result)


def _permutations(args, kwargs, result):
    return result.permutations


def _size_arg(args, kwargs, result):
    return os.path.getsize(args[0])


# counter name -> (metric whose calls feed it, amount per call)
COUNTERS = {
    "geometry.karcher_mean_postures": ("geometry.karcher_mean", _first_len),
    "models.sequences_simulated": ("models.simulate_sequence", _result_len),
    "evaluate.permutations": ("evaluate.disco_test", _permutations),
    "evaluate.posture_pairs": ("evaluate.posture_distance_matrix", _square_len),
    "io.bytes_read": ("io.read", _size_arg),
    "io.bytes_written": ("io.write", _size_arg),
}

# call counts reported as metrics: name -> metrics whose calls it sums
CALL_COUNTS = {
    "alignment.optimal_warp_calls": ("alignment.optimal_warp",),
    "geometry.karcher_mean_calls": ("geometry.karcher_mean",),
    "geometry.kernel_calls": ("geometry.sphere_exp", "geometry.sphere_transport",
                              "geometry.coords_to_tangent"),
    "flatten.flatten_sequence_calls": ("flatten.flatten_sequence",),
    "flatten.unflatten_field_calls": ("flatten.unflatten_field",),
    "models.loglik_calls": ("models.loglik",),
}


class Tracer:
    """Span aggregation plus the patching of the package's functions."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._open = []  # child time accumulated by each open span
        self._patched = []  # (namespace dict, attribute, original)
        self._counters = defaultdict(list)
        for name, (metric, amount) in COUNTERS.items():
            self._counters[metric].append((name, amount))

    def span(self, metric, fn):
        """Wrap fn so that each call records one span under metric."""
        counters = self._counters.get(metric, ())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._open.pop()
                if self._open:
                    self._open[-1] += elapsed
                self.calls[metric] += 1
                self.total_s[metric] += elapsed
                self.self_s[metric] += elapsed - children
            for name, amount in counters:
                self.counts[name] += amount(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Point every reference the package holds at the wrappers."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "motionemu" or name.startswith("motionemu.")}
        for metric, (module, functions) in SPANS.items():
            for fname in functions:
                original = getattr(modules[f"motionemu.{module}"], fname)
                wrapped = self.span(metric, original)
                for mod in modules.values():
                    space = vars(mod)
                    for attr, value in list(space.items()):
                        if value is original:
                            self._patched.append((space, attr, original))
                            space[attr] = wrapped

    def uninstall(self):
        for space, attr, original in reversed(self._patched):
            space[attr] = original
        self._patched.clear()

    def metrics(self, rounds):
        """Per-round self times (`<metric>_s`) and counts."""
        out = {f"{ROOT}.self_s": self.self_s[ROOT] / rounds}
        for metric in SPANS:
            out[f"{metric}_s"] = self.self_s[metric] / rounds
        for name, metrics in CALL_COUNTS.items():
            out[name] = sum(self.calls[m] for m in metrics) / rounds
        for name in COUNTERS:
            out[name] = self.counts[name] / rounds
        return out

    def table(self):
        """Aggregated spans, for the trace file."""
        return {m: {"calls": self.calls[m], "total_s": self.total_s[m], "self_s": self.self_s[m]}
                for m in (ROOT, *SPANS) if self.calls[m]}
