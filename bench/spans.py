"""Spans and counters recorded around calls into topmonodromy's modules.

Tracing lives entirely in the benchmark: each traced function is replaced,
for the duration of a run, by a wrapper under every module-level name that
is bound to it.  tracking, periods and discriminant import roots,
real_root_count, normalized_discriminant, polygon_periods and
normalized_basis_contours by name, so patching only the defining module
would miss their calls.  Methods are patched on their class, and
Gauss-Legendre nodes on numpy.polynomial.legendre, where the library looks
them up at call time.
"""

from __future__ import annotations

import csv
import functools
import statistics
import sys
from collections import defaultdict
from time import perf_counter

# (span name, module, attribute): one span per call.
SPAN_SITES = (
    ("poly.roots", "poly", "roots"),
    ("poly.real_root_count", "poly", "real_root_count"),
    ("poly.normalized_discriminant", "poly", "normalized_discriminant"),
    ("discriminant.in_component_C", "discriminant", "in_component_C"),
    ("discriminant.g2_branch", "discriminant", "g2_branch"),
    ("homology.build_basis", "homology", "build_basis"),
    ("homology.picard_lefschetz", "homology", "picard_lefschetz"),
    ("periods.polygon_periods", "periods", "polygon_periods"),
    ("periods.normalized_basis_contours", "periods", "normalized_basis_contours"),
    ("periods.action_I1", "periods", "action_I1"),
    ("periods.action_I1_cubic", "periods", "action_I1_cubic"),
    ("periods.residue_check", "periods", "residue_check"),
    ("tracking.parameter_loop", "tracking", "parameter_loop"),
    ("tracking.monodromy_periods", "tracking", "monodromy_periods"),
    ("tracking.picard_lefschetz_route", "tracking", "picard_lefschetz_route"),
    ("topsys.integrate", "topsys", "integrate"),
    ("spectral.spectral_coefficient_drift", "spectral", "spectral_coefficient_drift"),
    ("cli.main", "cli", "main"),
)
METHOD_SITES = (
    ("topsys.max_relative_drift", "Trajectory", "max_relative_drift"),
    ("topsys.to_csv", "Trajectory", "to_csv"),
)
ROUTES = frozenset(("tracking.monodromy_periods", "tracking.picard_lefschetz_route"))

# Per-layer metrics in report order: (name, unit, better).
PER_LAYER = (
    ("poly.roots.calls", "count", "lower"),
    ("poly.roots.s", "s", "lower"),
    ("poly.real_root_count.calls", "count", "lower"),
    ("poly.real_root_count.s", "s", "lower"),
    ("poly.normalized_discriminant.calls", "count", "lower"),
    ("poly.normalized_discriminant.s", "s", "lower"),
    ("discriminant.in_component_C.s", "s", "lower"),
    ("discriminant.g2_branch.s", "s", "lower"),
    ("homology.build_basis.s", "s", "lower"),
    ("homology.picard_lefschetz.calls", "count", "lower"),
    ("periods.polygon_periods.calls", "count", "lower"),
    ("periods.polygon_periods.s", "s", "lower"),
    ("periods.normalized_basis_contours.s", "s", "lower"),
    ("periods.quad_nodes", "count", "lower"),
    ("periods.leggauss.calls", "count", "lower"),
    ("periods.leggauss.s", "s", "lower"),
    ("periods.action_I1.s", "s", "lower"),
    ("periods.action_I1_cubic.s", "s", "lower"),
    ("periods.residue_check.s", "s", "lower"),
    ("tracking.parameter_loop.s", "s", "lower"),
    ("tracking.monodromy_periods.s", "s", "lower"),
    ("tracking.monodromy_periods.self_s", "s", "lower"),
    ("tracking.picard_lefschetz_route.s", "s", "lower"),
    ("tracking.picard_lefschetz_route.self_s", "s", "lower"),
    ("tracking.march_attempts", "count", "lower"),
    ("tracking.steps_used", "count", "lower"),
    ("tracking.accept_ratio", "ratio", "higher"),
    ("topsys.integrate.s", "s", "lower"),
    ("topsys.rk4_steps", "count", "lower"),
    ("topsys.us_per_step", "us", "lower"),
    ("topsys.max_relative_drift.s", "s", "lower"),
    ("topsys.to_csv.s", "s", "lower"),
    ("spectral.spectral_coefficient_drift.s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.csv_bytes", "bytes", "lower"),
)
DERIVED = {
    "tracking.accept_ratio": ("tracking.steps_used", "tracking.march_attempts", 1.0),
    "topsys.us_per_step": ("topsys.integrate.s", "topsys.rk4_steps", 1e6),
}


class Tracer:
    """In-memory spans (id, parent id, name, start, end, phase) and counts.

    The phase is "setup" while inputs are made and validated and the pass
    number while ops run.  With recording off the wrappers call straight
    through, so warm-up and output checks leave no spans.
    """

    def __init__(self):
        self.recording = False
        self.phase = "setup"
        self.spans = []
        self.counts = []  # (name, value, phase)
        self._open = []  # (id, name) of the spans being recorded
        self._next_id = 0
        self._undo = []

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._open[-1][0] if tracer._open else None
            tracer._open.append((sid, name))
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._open.pop()
                tracer.spans.append((sid, parent, name, start, end, tracer.phase))

        return wrapper

    def count(self, name, value, phase=None):
        """Add to a counter; phase defaults to the current one while recording."""
        if phase is not None:
            self.counts.append((name, value, phase))
        elif self.recording:
            self.counts.append((name, value, self.phase))

    def _rebind(self, orig, replacement):
        """Bind replacement under every topmonodromy module name bound to orig."""
        for modname, mod in list(sys.modules.items()):
            if modname == "topmonodromy" or modname.startswith("topmonodromy."):
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, replacement)
                        self._undo.append((mod, attr, orig))

    def _patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        import numpy.polynomial.legendre as legendre

        import topmonodromy.cli  # noqa: F401  (cli is not imported by the package)
        from topmonodromy import periods, topsys, tracking

        for name, modname, attr in SPAN_SITES:
            orig = getattr(sys.modules[f"topmonodromy.{modname}"], attr)
            self._rebind(orig, self._wrap(name, orig))
        self._patch(legendre, "leggauss", self._wrap("periods.leggauss", legendre.leggauss))
        for name, cls, attr in METHOD_SITES:
            owner = getattr(topsys, cls)
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr)))

        tracer = self
        nodes = periods.ContourSpec.nodes

        def counted_nodes(spec, n):
            tracer.count("periods.quad_nodes", n)
            return nodes(spec, n)

        self._patch(periods.ContourSpec, "nodes", counted_nodes)

        fiber = tracking.fiber_polynomial

        def counted_fiber(g, point):
            if any(name in ROUTES for _, name in tracer._open):
                tracer.count("tracking.march_attempts", 1)
            return fiber(g, point)

        self._rebind(fiber, counted_fiber)

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results ---------------------------------------------------------

    def _phase_totals(self):
        """Per phase: name -> summed value (calls, s, self_s and counts)."""
        child = defaultdict(float)
        for _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = defaultdict(lambda: defaultdict(float))
        for sid, _, name, start, end, phase in self.spans:
            t = totals[phase]
            t[name + ".calls"] += 1
            t[name + ".s"] += end - start
            t[name + ".self_s"] += end - start - child[sid]
        for name, value, phase in self.counts:
            totals[phase][name] += value
        return totals

    def per_layer(self):
        """Each metric for one set-up plus one pass (median over passes)."""
        totals = self._phase_totals()
        passes = [p for p in totals if p != "setup"]
        setup = totals.get("setup", {})
        combined = {}
        for name in {k for t in totals.values() for k in t}:
            per_pass = [totals[p].get(name, 0.0) for p in passes]
            combined[name] = setup.get(name, 0.0) + (
                statistics.median(per_pass) if per_pass else 0.0
            )
        out = {}
        for name, unit, _ in PER_LAYER:
            if name in DERIVED:
                num, den, scale = DERIVED[name]
                d = combined.get(den, 0.0)
                value = scale * combined.get(num, 0.0) / d if d else 0.0
            else:
                value = combined.get(name, 0.0)
                if unit in ("count", "bytes"):
                    value = int(round(value))
            out[name] = {"value": value, "unit": unit}
        return out

    def covered_s(self, phase):
        """Time under top-level spans of a phase (= the sum of all self times)."""
        return sum(
            end - start
            for _, parent, _, start, end, ph in self.spans
            if ph == phase and parent is None
        )

    def write(self, path, t0):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "name", "start_s", "end_s", "phase"])
            for sid, parent, name, start, end, phase in self.spans:
                writer.writerow(
                    [sid, "" if parent is None else parent, name,
                     f"{start - t0:.7f}", f"{end - t0:.7f}", phase]
                )
