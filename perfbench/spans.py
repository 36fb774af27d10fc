"""Per-layer tracing by wrapping the package's module-global names.

Every module of ``thomae`` that binds a traced function gets a wrapper in
its place, so calls made inside the package (``build_Qhat`` calling
``build_G``, ``verify_transform`` calling ``eval_numeric``) are seen as well
as the benchmark's own.  ``thomae.series.mp`` is replaced by a proxy that
counts the module's ``zeta`` and ``lu_solve`` calls.  The package's source
is not touched, and ``uninstall`` puts everything back.

Spans nest on a stack; a span's self time is its duration minus the
durations of the spans it directly contains.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

import thomae.series


def _zero_iterations(outcome) -> int:
    """Iterations of a ZeroSet, or of the best one a NonConvergenceError carries."""
    return getattr(getattr(outcome, "best", outcome), "iterations", 0)


# wrapped name -> (defining module, span name, optional (counter, reader of
# the return value or exception))
SPANS = {
    "main": ("thomae.cli", "cli.main", None),
    "euler1": ("thomae.transforms", "transforms.construct", None),
    "euler2": ("thomae.transforms", "transforms.construct", None),
    "thomae": ("thomae.transforms", "transforms.construct", None),
    "thomae_terminating": ("thomae.transforms", "transforms.construct", None),
    "verify_transform": ("thomae.verification", "verification.verify", None),
    "beta_integral_oracle": ("thomae.verification", "verification.oracle", None),
    "eval_terminating": ("thomae.series", "series.eval_terminating", None),
    "gamma_ratio": ("thomae.series", "series.gamma_ratio", None),
    "c_coefficients": ("thomae.exact", "exact.c_coefficients", None),
    "build_Q": ("thomae.polynomials", "polynomials.build_Q", None),
    "build_Qhat": ("thomae.polynomials", "polynomials.build_Qhat", None),
    "build_G": ("thomae.polynomials", "polynomials.build_G",
                ("polynomials.build_G_calls", lambda outcome: 1)),
    "find_zeros": ("thomae.polynomials", "polynomials.find_zeros",
                   ("polynomials.find_zeros_iterations", _zero_iterations)),
}
# wrapped name -> defining module; only the calls are counted, since a span
# around each of these many small calls would cost more than the call
COUNTED = {"rising_factorial_poly": "thomae.polynomials"}


def _eval_kind(spec) -> tuple[str, str | None]:
    """Span name and term counter of one eval_numeric call."""
    if spec.termination_index() is not None:
        return "series.eval_numeric_terminating", None
    if spec.argument == 1:
        return "series.unit_eval", "series.unit_terms"
    return "series.disk_eval", "series.disk_terms"


class _CountingMP:
    """Stands in for ``mp`` inside ``thomae.series``; counts two routines."""

    def __init__(self, real, counts: Counter) -> None:
        self._real = real
        self._counts = counts

    def __getattr__(self, name):
        return getattr(self._real, name)

    def zeta(self, *args, **kwargs):
        self._counts["series.zeta_calls"] += 1
        return self._real.zeta(*args, **kwargs)

    def lu_solve(self, *args, **kwargs):
        self._counts["series.lu_solve_calls"] += 1
        return self._real.lu_solve(*args, **kwargs)


class Tracer:
    def __init__(self) -> None:
        self.self_time: Counter = Counter()  # span name -> seconds
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []  # [start, time inside child spans]
        self._saved: list[tuple[object, str, object]] = []

    def _enter(self) -> None:
        self._stack.append([time.perf_counter(), 0.0])

    def _exit(self, name: str) -> None:
        start, inside = self._stack.pop()
        duration = time.perf_counter() - start
        self.self_time[name] += duration - inside
        if self._stack:
            self._stack[-1][1] += duration

    def _span(self, fn, name: str, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outcome = None
            tracer._enter()
            try:
                outcome = fn(*args, **kwargs)
            except Exception as exc:
                outcome = exc
                raise
            finally:
                tracer._exit(name)
                if count:
                    tracer.counts[count[0]] += count[1](outcome)
            return outcome

        return wrapper

    def _eval_span(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(spec, *args, **kwargs):
            name, counter = _eval_kind(spec)
            tracer._enter()
            try:
                result = fn(spec, *args, **kwargs)
            finally:
                tracer._exit(name)
            if counter:
                tracer.counts[counter] += result.terms_used
            return result

        return wrapper

    def _counter(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        wrappers = {}  # id of the original function -> (original, wrapper)
        for fname, modname in COUNTED.items():
            original = getattr(sys.modules[modname], fname)
            wrappers[id(original)] = original, self._counter(original, f"polynomials.{fname}_calls")
        for fname, (modname, name, count) in SPANS.items():
            original = getattr(sys.modules[modname], fname)
            wrappers[id(original)] = original, self._span(original, name, count)
        series_eval = thomae.series.eval_numeric
        wrappers[id(series_eval)] = series_eval, self._eval_span(series_eval)
        for modname, module in list(sys.modules.items()):
            if modname != "thomae" and not modname.startswith("thomae."):
                continue
            for fname, value in list(vars(module).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    self._saved.append((module, fname, value))
                    setattr(module, fname, wrapper)
        self._saved.append((thomae.series, "mp", thomae.series.mp))
        thomae.series.mp = _CountingMP(thomae.series.mp, self.counts)

    def uninstall(self) -> None:
        for module, fname, original in reversed(self._saved):
            setattr(module, fname, original)
        self._saved.clear()
