"""Call tracing for the benchmark, installed from outside the library.

``Tracer.install`` replaces public fracweyl functions and methods by
wrappers that time each call.  Most calls become a span
``(name, start, end, parent, run, self)``; a span's parent is its nearest
ancestor that is itself a span, and ``run`` numbers the CLI command the
call belongs to.  Leaf calls made about a million times per command
(``laplace_tail``, ``gamma_table``) are instead aggregated per
``(name, parent name)`` into calls, total and self time, so that tracing
them does not need a million records.  Self time is a call's duration
minus the time covered by its traced children.

Everything stays in memory until ``dump`` writes it out; ``uninstall``
puts the original functions back.  The untraced benchmark run never
creates a tracer.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time

import numpy as np

# (module, attribute path, traced name, aggregate per (name, parent))
TARGETS = (
    ("fracweyl.cli", "main", "cli.main", False),
    ("fracweyl.cli", "ReportRecord.write", "cli.write", False),
    ("fracweyl.halfline", "HalfLineModel.__init__", "halfline.model_init", False),
    ("fracweyl.halfline", "HalfLineModel.boundary_layer", "halfline.boundary_layer", False),
    ("fracweyl.halfline", "HalfLineModel.kernel_gap", "halfline.kernel_gap", False),
    ("fracweyl.halfline", "HalfLineModel.phase_vec", "halfline.phase_vec", False),
    ("fracweyl.halfline", "HalfLineModel.energy_shift", "halfline.energy_shift", False),
    ("fracweyl.halfline", "HalfLineModel.t_integrated_gap_density",
     "halfline.t_integrated_gap_density", False),
    ("fracweyl.halfline", "HalfLineModel.gamma_values", "halfline.gamma_values", False),
    ("fracweyl.halfline", "HalfLineModel.laplace_tail", "halfline.laplace_tail", True),
    ("fracweyl.halfline", "HalfLineModel.gamma_table", "halfline.gamma_table", True),
    ("fracweyl.constants", "surface_via_layer", "constants.surface_via_layer", False),
    ("fracweyl.constants", "surface_via_eigenfunctions",
     "constants.surface_via_eigenfunctions", False),
    ("fracweyl.constants", "surface_via_energy_shift",
     "constants.surface_via_energy_shift", False),
    ("fracweyl.constants", "surface_dirichlet_power", "constants.surface_dirichlet_power", False),
    ("fracweyl.constants", "bulk_coefficient_quadrature",
     "constants.bulk_coefficient_quadrature", False),
    ("fracweyl.lattice", "build_restricted_fractional",
     "lattice.build_restricted_fractional", False),
    ("fracweyl.lattice", "build_dirichlet_power", "lattice.build_dirichlet_power", False),
    ("fracweyl.lattice", "eigenvalues_sym", "lattice.eigenvalues_sym", False),
    ("fracweyl.lattice", "riesz_mean", "lattice.riesz_mean", False),
    ("fracweyl.lattice", "two_term_fit", "lattice.two_term_fit", False),
    ("fracweyl.lattice", "operator_order_check", "lattice.operator_order_check", False),
    ("fracweyl.lattice", "halfspace_kernel_check", "lattice.halfspace_kernel_check", False),
    ("fracweyl.localization", "partition_check", "localization.partition_check", False),
    ("fracweyl.localization", "neighborhood_integrals",
     "localization.neighborhood_integrals", False),
    ("fracweyl.quadcore", "integrate", "quadcore.integrate", False),
)

# Golub & Van Loan flop counts of the symmetric QR algorithm: eigenvalues
# only 4n^3/3, eigenvalues and eigenvectors 9n^3.  A model, not a measurement.
EIGENSOLVE_FLOPS = {"eigh": lambda n: 9.0 * n ** 3, "eigvalsh": lambda n: 4.0 * n ** 3 / 3.0}

# counters the hooks below add to, by metric name
COUNTERS = ("halfline.exp_evals_computed", "lattice.eigensolve_gflop_computed",
            "quadcore.integrate.evaluations")


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent span, run, self_s)
        self.span_attrs = {}     # span index -> extra facts, e.g. matrix size
        self.aggregates = {}     # (name, parent name) -> [calls, total_s, self_s]
        self.counters = {}       # computed counts, see the hooks below
        self.run = 0
        self.missing = []
        self._stack = [[0.0, -1, None]]   # frames: [child time, span index, name]
        self._patches = []
        self._spectra = {}       # (run, id(spectrum)) -> [eigenvalues used, computed]
        self._own = [0.0]        # wrapper bookkeeping time, timed inside the wrappers

    # -- wrappers -------------------------------------------------------

    def _span_wrapper(self, fn, name, hook=None):
        stack, spans, own, clock = self._stack, self.spans, self._own, time.perf_counter

        def wrapper(*args, **kwargs):
            a = clock()
            parent = stack[-1]
            index = len(spans)
            spans.append(None)
            frame = [0.0, index, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[index] = (name, t0, t1, parent[1], self.run, t1 - t0 - frame[0])
            if hook is not None:
                hook(self, index, args, result)
            b = clock()
            parent[0] += b - a
            own[0] += b - a - (t1 - t0)
            return result
        return wrapper

    def _aggregate_wrapper(self, fn, name, hook=None):
        stack, aggregates, own, clock = self._stack, self.aggregates, self._own, time.perf_counter

        def wrapper(*args, **kwargs):
            a = clock()
            parent = stack[-1]
            # children are attributed to the nearest span, under this name
            frame = [0.0, parent[1], name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                key = (name, parent[2])
                rec = aggregates.get(key)
                if rec is None:
                    rec = aggregates[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += t1 - t0
                rec[2] += t1 - t0 - frame[0]
            if hook is not None:
                hook(self, None, args, result)
            b = clock()
            parent[0] += b - a
            own[0] += b - a - (t1 - t0)
            return result
        return wrapper

    def _eigensolve_counter(self, fn, kind):
        flops = EIGENSOLVE_FLOPS[kind]

        def wrapper(a, *args, **kwargs):
            caller = self._stack[-1][2]
            if caller is not None and caller.startswith("lattice."):
                self._count("lattice.eigensolve_gflop_computed", flops(np.shape(a)[-1]) / 1e9)
            return fn(a, *args, **kwargs)
        return wrapper

    def _count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- install / uninstall --------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        for module_name, path, name, aggregate in TARGETS:
            module = importlib.import_module(module_name)
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            make = self._aggregate_wrapper if aggregate else self._span_wrapper
            wrapped = make(original, name, HOOKS.get(name))
            if owner_path:
                self._patch(owner, attr, wrapped)
                continue
            # a module-level function may also be bound by name in the
            # modules that imported it
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("fracweyl") and getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapped)
        for kind in EIGENSOLVE_FLOPS:
            self._patch(np.linalg, kind, self._eigensolve_counter(getattr(np.linalg, kind), kind))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def totals(self) -> dict:
        """name -> [calls, total_s, self_s] over spans and aggregates."""
        out = {}
        for name, t0, t1, _, _, self_s in self.spans:
            rec = out.setdefault(name, [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += t1 - t0
            rec[2] += self_s
        for (name, _), (calls, total, self_s) in self.aggregates.items():
            rec = out.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        return out

    def used_eigenvalues(self) -> tuple[int, int]:
        """(eigenvalues inside some Riesz cutoff, eigenvalues computed)."""
        used = sum(u for u, _ in self._spectra.values())
        computed = sum(n for _, n in self._spectra.values())
        return used, computed

    def dump(self) -> dict:
        return {
            "span_fields": ["name", "start", "end", "parent", "run", "self_s"],
            "spans": self.spans,
            "span_attrs": {str(k): v for k, v in self.span_attrs.items()},
            "aggregates": [{"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
                           for (n, p), (c, t, s) in self.aggregates.items()],
            "counters": self.counters,
            "missing_targets": self.missing,
        }

    def overhead_s(self, calls: int = 50000, repeats: int = 3) -> float:
        """Time tracing added: the wrappers' own bookkeeping, timed inside
        every call, plus a calibrated per-call residual for the part a
        wrapper cannot time itself (entering and leaving its frame)."""
        wrapped = len(self.spans) + sum(c for c, _, _ in self.aggregates.values())
        return self._own[0] + wrapped * self._residual(calls, repeats)

    @staticmethod
    def _residual(calls: int, repeats: int) -> float:
        def noop(*args):
            return None

        samples = []
        for _ in range(repeats):
            probe = Tracer()
            wrapped = probe._aggregate_wrapper(noop, "probe")
            t0 = time.perf_counter()
            for _ in range(calls):
                noop(1.0, 0.5)
            t1 = time.perf_counter()
            for _ in range(calls):
                wrapped(1.0, 0.5)
            t2 = time.perf_counter()
            samples.append(((t2 - t1) - (t1 - t0) - probe._own[0]) / calls)
        return max(0.0, statistics.median(samples))


# -- hooks: counts taken from arguments and results ------------------------

def _matrix_size(tracer, index, args, result):
    tracer.span_attrs[index] = {"n": result.n}


def _exp_evals(tracer, index, args, result):
    # laplace_tail(lam, x) forms exp(-x * xi) over every xi node of the table
    model, x = args[0], args[2]
    rows = x.size if isinstance(x, np.ndarray) else 1
    tracer._count("halfline.exp_evals_computed", rows * len(getattr(model, "_xi_nodes", ())))


def _riesz_cutoff(tracer, index, args, result):
    spectrum, h, s = args[:3]
    eig = spectrum.eigenvalues
    used = int(np.count_nonzero(h ** (2.0 * s) * eig < 1.0))
    rec = tracer._spectra.setdefault((tracer.run, id(spectrum)), [0, eig.size])
    rec[0] = max(rec[0], used)


def _evaluations(tracer, index, args, result):
    tracer._count("quadcore.integrate.evaluations", result.evaluations)


HOOKS = {
    "lattice.build_restricted_fractional": _matrix_size,
    "halfline.laplace_tail": _exp_evals,
    "lattice.riesz_mean": _riesz_cutoff,
    "quadcore.integrate": _evaluations,
}
