"""Spans around the program's public functions, and per-layer metrics.

``Tracer.install()`` replaces each traced public function, in every
``oemarray`` module that binds it, by a wrapper that records one span:
(name, start, end, parent span, job id, work attributes).  Spans stay in
memory until ``write()``.  Evaluator calls made by ``extract_bandwidth``
are counted by wrapping the spectrum's public ``evaluator`` field for the
duration of that call.  ``uninstall()`` restores the originals.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

import numpy as np

# (module, function) pairs; the layer is the module name.
TRACED = [
    ("core", "materialize_sites"),
    ("core", "config_from_dict"),
    ("core", "config_to_dict"),
    ("transducer", "scattering_full"),
    ("transducer", "scattering_eliminated"),
    ("transducer", "scattering_bogoliubov"),
    ("cascade", "array_transfer"),
    ("cascade", "conversion_spectrum"),
    ("cascade", "eliminated_spectrum"),
    ("cascade", "extract_bandwidth"),
    ("cascade", "spectrum_to_csv"),
    ("cascade", "bandwidth_to_json"),
    ("noise", "noise_coupling_vector"),
    ("noise", "added_noise_spectrum"),
    ("noise", "integrated_added_noise"),
    ("noise", "stokes_noise_spectrum"),
    ("noise", "integrated_stokes_noise"),
    ("noise", "noise_to_csv"),
    ("noise", "stokes_to_csv"),
    ("loss", "scattering_two_sided"),
    ("loss", "scatter_to_transfer"),
    ("loss", "transfer_to_scatter"),
    ("loss", "free_propagation"),
    ("loss", "lossy_array_scattering"),
    ("loss", "envelope_efficiency"),
    ("loss", "efficiency_vs_loss"),
    ("loss", "backscatter_efficiency_table"),
    ("loss", "backscatter_alpha_fit"),
    ("loss", "sweep_to_csv"),
    ("optimize", "optimize_couplings"),
    ("optimize", "eliminated_bandwidth"),
    ("optimize", "fit_tanh_beta"),
    ("optimize", "result_to_json"),
]

def _points(omega) -> int:
    return int(np.size(omega))


def _attrs(name: str, args, result) -> tuple:
    """Work attributes of one call, where the function has them: (sites,
    frequency points), or (sites, evaluations) for the optimizer."""
    if name in ("transducer.scattering_full", "transducer.scattering_eliminated",
                "transducer.scattering_bogoliubov", "loss.scattering_two_sided"):
        return 1, _points(args[1])
    if name in ("loss.scatter_to_transfer", "loss.transfer_to_scatter"):
        m = args[0].matrix if hasattr(args[0], "matrix") else args[0]
        return 1, int(np.prod(np.shape(m)[:-2], dtype=int))
    if name in ("cascade.array_transfer", "loss.lossy_array_scattering"):
        return len(args[0]), _points(args[-1])
    if name == "noise.noise_coupling_vector":
        return 1, _points(args[2])
    if name == "core.materialize_sites":
        return len(result), 0
    if name in ("noise.added_noise_spectrum", "noise.stokes_noise_spectrum"):
        return args[0].n_sites, args[-1].n_points
    if name == "optimize.optimize_couplings":
        return args[0].n_sites, result.evaluations
    return 0, 0


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        # span: [name_id, start, end, parent, job, sites, points]
        self.spans = []
        self.jobs = []
        self.job = None
        self._local = threading.local()
        self._patches = []

    # -- recording --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named ``name``."""
        stack = self._stack()
        span = [self._name_id(name), 0.0, 0.0, stack[-1] if stack else -1,
                self.job, 0, 0]
        index = len(self.spans)
        self.spans.append(span)
        stack.append(index)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()
        span[5], span[6] = _attrs(name, args, result)
        return result

    def begin_job(self, job_id: str, workload: str) -> None:
        self.job = len(self.jobs)
        self.jobs.append({"id": job_id, "workload": workload})

    def end_job(self) -> None:
        self.job = None

    # -- patching ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        if name == "cascade.extract_bandwidth":
            @functools.wraps(fn)
            def wrapper(spectrum, *args, **kwargs):
                evaluator = spectrum.evaluator
                if evaluator is not None:
                    spectrum.evaluator = functools.partial(
                        self.call, "cascade.evaluator", evaluator)
                try:
                    return self.call(name, fn, spectrum, *args, **kwargs)
                finally:
                    spectrum.evaluator = evaluator
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def install(self) -> None:
        package = sys.modules["oemarray"]
        modules = [m for key, m in list(sys.modules.items())
                   if key == "oemarray" or key.startswith("oemarray.")]
        for module_name, func_name in TRACED:
            original = getattr(getattr(package, module_name), func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                if getattr(module, func_name, None) is original:
                    self._patches.append((module, func_name, original))
                    setattr(module, func_name, wrapper)

    def uninstall(self) -> None:
        for module, func_name, original in reversed(self._patches):
            setattr(module, func_name, original)
        self._patches.clear()

    # -- output -----------------------------------------------------------

    def write(self, path: str) -> None:
        """One JSON array per line: name, start_us, end_us, parent, job id."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name_id, start, end, parent, job, sites, points in self.spans:
                job_id = self.jobs[job]["id"] if job is not None else None
                fh.write(json.dumps([self.names[name_id],
                                     round((start - t0) * 1e6, 3),
                                     round((end - t0) * 1e6, 3),
                                     parent, job_id, sites, points]) + "\n")


class SpanTable:
    """Columnar view of a tracer's spans with self times."""

    def __init__(self, tracer: Tracer):
        spans = tracer.spans
        self.names = tracer.names
        self.jobs = tracer.jobs
        n = len(spans)
        self.name = np.array([s[0] for s in spans], dtype=int).reshape(n)
        self.dur = np.array([s[2] - s[1] for s in spans], dtype=float).reshape(n)
        self.parent = np.array([s[3] for s in spans], dtype=int).reshape(n)
        self.job = np.array([-1 if s[4] is None else s[4] for s in spans],
                            dtype=int).reshape(n)
        self.sites = np.array([s[5] for s in spans], dtype=float).reshape(n)
        self.points = np.array([s[6] for s in spans], dtype=float).reshape(n)
        self.child_time = np.zeros(n)
        has_parent = self.parent >= 0
        np.add.at(self.child_time, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - self.child_time

    def select(self, name: str, workload: str):
        """Boolean mask of spans with this name, in jobs of ``workload``."""
        if name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        in_workload = np.array([j["workload"] == workload for j in self.jobs]
                               + [False], dtype=bool)
        return (self.name == self.names.index(name)) & in_workload[self.job]

    def layer_self_ms(self) -> dict:
        """Total self time per layer (module), in ms."""
        out = {}
        for i, name in enumerate(self.names):
            layer = name.split(".")[0]
            out[layer] = out.get(layer, 0.0) + 1e3 * float(self.self_time[self.name == i].sum())
        return out
