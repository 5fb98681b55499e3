"""Spans at the library's public boundaries, for the traced run only.

The tracer replaces public functions on the modules that call them and
restores them afterwards.  Spans are aggregated as they close, not stored:
the integrand alone is called millions of times per pass.  For every span
the time its child spans cover is subtracted from the span's layer, so the
self times of all layers add up to the root span's duration.

Worker processes of a ``jobs > 1`` sweep inherit the wrappers but not the
tallies, so counts come from in-process work only and a parallel sweep shows
up as the parent's waiting time in ``scenarios``.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

LAYERS = ("bench", "cli", "scenarios", "lifshitz", "lifshitz.kernel", "quadrature", "dispersion", "special")


class Tracer:
    """Per-layer self time, per-key inclusive time and counts."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # [key, seconds covered by child spans]
        self._saved = []

    def span(self, layer, key, fn, on_result=None):
        """Wrap fn in a span; ``key`` may be a function of fn's arguments."""
        stack, self_s, incl_s, counts = self._stack, self.self_s, self.incl_s, self.counts

        def wrapped(*args, **kwargs):
            k = key(*args, **kwargs) if callable(key) else key
            outermost = all(f[0] != k for f in stack)
            frame = [k, 0.0]
            stack.append(frame)
            counts[k + ".calls"] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[k + ".errors"] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self_s[layer] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if outermost:
                    incl_s[k] += dt
            if on_result is not None:
                on_result(result)
            return result

        return wrapped

    def quadrature_span(self, fn):
        """Span for adaptive_pair_quadrature that also times its integrand.

        The integrand is the callable the solver passes in; its time is a
        child of the quadrature span and is charged to ``lifshitz.kernel``.
        """
        counts, self_s, stack = self.counts, self.self_s, self._stack

        def kernel_timed(f, breaks, tol=1e-10):
            kernel_ns = 0
            evals = 0

            def kernel(y):
                nonlocal kernel_ns, evals
                t = time.perf_counter_ns()
                r = f(y)
                kernel_ns += time.perf_counter_ns() - t
                evals += 1
                return r

            try:
                return fn(kernel, breaks, tol)
            finally:
                stack[-1][1] += kernel_ns * 1e-9  # the quadrature frame
                self_s["lifshitz.kernel"] += kernel_ns * 1e-9
                counts["quadrature.evals"] += evals

        return self.span("quadrature", "quadrature", kernel_timed)

    def install(self, cp) -> None:
        """Wrap the public boundaries of the package modules in ``cp``."""
        L, S, D, C = cp.lifshitz, cp.scenarios, cp.dispersion, cp.cli

        def count_terms(result):
            self.counts["lifshitz.terms"] += result.m_used

        def count_points(result):
            self.counts["dispersion.eps_points"] += int(np.size(result))

        def sweep_key(spec, opts=None, jobs=1):
            return "scenarios.sweep" if jobs <= 1 else "scenarios.sweep_jobs2"

        pressure = self.span("lifshitz", "lifshitz", L.casimir_pressure, count_terms)
        table_load = self.span("dispersion", "dispersion.table_load", D.load_permittivity_table)
        sweep = self.span("scenarios", sweep_key, S.sweep)
        curve = self.span("scenarios", "scenarios.diff", S.relative_correction_curve)
        tdiff = self.span("scenarios", "scenarios.diff", S.temperature_difference)
        rows_csv = self.span("scenarios", "scenarios.csv", S.sweep_rows_to_csv)
        diff_csv = self.span("scenarios", "scenarios.csv", S.diff_results_to_csv)
        targets = [
            (C, "run", self.span("cli", "cli.run", C.run)),
            (C, "load_permittivity_table", table_load),
            (D, "load_permittivity_table", table_load),
            (C, "sweep", sweep),
            (S, "sweep", sweep),
            (C, "relative_correction_curve", curve),
            (S, "relative_correction_curve", curve),
            (S, "temperature_difference", tdiff),
            (C, "sweep_rows_to_csv", rows_csv),
            (S, "sweep_rows_to_csv", rows_csv),
            (C, "diff_results_to_csv", diff_csv),
            (S, "diff_results_to_csv", diff_csv),
            (L, "casimir_pressure", pressure),
            (S, "casimir_pressure", pressure),
            (L, "adaptive_pair_quadrature", self.quadrature_span(L.adaptive_pair_quadrature)),
            (L, "polylog3", self.span("special", "special.polylog3", L.polylog3)),
            (D.Material, "eps", self.span("dispersion", "dispersion.eps", D.Material.eps, count_points)),
        ]
        for owner, name, new in targets:
            self._saved.append((owner, name, getattr(owner, name)))
            setattr(owner, name, new)

    def uninstall(self) -> None:
        for owner, name, old in reversed(self._saved):
            setattr(owner, name, old)
        self._saved.clear()

    def root(self, fn):
        """Run fn as the root span; returns its wall time in seconds."""
        self.span("bench", "bench", fn)()
        return self.incl_s["bench"]
