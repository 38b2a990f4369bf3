"""Timing wrappers that the traced run installs on triladder's module attributes.

The wrappers live here, in the benchmark, and leave the package unchanged.
Every wrapped call records a span ``[name, start, end, parent]`` in memory;
a layer's self time is its span minus the time its direct child spans
cover. Counters that cost nothing to read (calls, grid sizes, bytes
written, non-finite returns) are recorded at the same boundaries.
"""

import math
import time
import tracemalloc
from collections import defaultdict
from functools import wraps
from pathlib import Path


class Tracer:
    """Spans, summed counters and per-call peaks of one process."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.peaks = defaultdict(float)
        # tracemalloc slows allocation-heavy calls (density_fock threefold),
        # so a caller repeating identical work measures peaks only once.
        self.measure_peaks = True
        self._stack = []
        self._restore = []

    def reset(self):
        """Forget the spans and counters; peaks and installed wrappers stay."""
        self.spans = []
        self.counters = defaultdict(float)

    def parent_name(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def span_on(self, owner, attr, name, after=None, peak=False):
        """Wrap ``owner.attr`` so each call records a span named ``name``.

        ``after(tracer, args, result)`` runs once the span has closed, so
        counting costs nothing to the span. With ``peak`` the call runs
        under tracemalloc, while ``measure_peaks`` is set, and its peak
        allocation is kept as ``<name>.peak_mb`` (the largest over the calls).
        """
        fn = owner.__dict__[attr]

        @wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            measure = peak and self.measure_peaks and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if measure:
                    used = tracemalloc.get_traced_memory()[1] / 1e6
                    tracemalloc.stop()
                    self.peaks[name + ".peak_mb"] = max(self.peaks[name + ".peak_mb"], used)
            if after is not None:
                after(self, args, result)
            return result

        self._patch(owner, attr, wrapper)

    def count_on(self, owner, attr, name, after=None):
        """Wrap ``owner.attr`` with a call counter only (no span)."""
        fn = owner.__dict__[attr]

        @wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counters[name + ".calls"] += 1
            if after is not None:
                after(self, args, result)
            return result

        self._patch(owner, attr, wrapper)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def absorb(self, record):
        """Merge the record another process wrote with ``to_record``."""
        offset = len(self.spans)
        for name, start, end, parent in record["spans"]:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1])
        for key, value in record["counters"].items():
            self.counters[key] += value
        for key, value in record["peaks"].items():
            self.peaks[key] = max(self.peaks[key], value)

    def to_record(self):
        return {"spans": self.spans, "counters": dict(self.counters), "peaks": dict(self.peaks)}

    def summary(self):
        """Calls and self time per span name, plus the counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child_time):
            out[name + ".calls"] += 1
            out[name + ".self_s"] += (end - start) - covered
        out.update(self.counters)
        return out


def _hermite_rows(tracer, args, result):
    rows_x_points = result.shape[0] * result.shape[1]
    tracer.counters["wavepacket.hermite_basis.rows_x_points"] += rows_x_points
    if tracer.parent_name() == "wavepacket.rho_fock":
        # Computed, not measured: the float64 basis rho_fock asks for.
        tracer.counters["wavepacket.rho_fock.basis_bytes"] += 8 * rows_x_points


def _scan_points(tracer, args, result):
    tracer.counters["painleve.residual_scan.points"] += len(result)


def _nonfinite(tracer, args, result):
    tracer.counters["coherent.a_norm_squared.nonfinite"] += not math.isfinite(result)


def _dense_elements(tracer, args, result):
    ops = result if isinstance(result, tuple) else (result,)
    tracer.counters["fock.dense_elements"] += sum(op.matrix.size for op in ops)


def _csv_bytes(tracer, args, result):
    command = tracer.parent_name()
    if command is not None:
        tracer.counters[command + ".bytes_written"] += Path(result).stat().st_size


def install(tracer):
    """Wrap the package's public layer boundaries; undo with ``uninstall``."""
    from triladder import cli, coherent, fock, painleve, wavepacket

    for command in ("verify", "density", "piv", "uncertainty"):
        tracer.span_on(cli, "cmd_" + command, "cli." + command)
    tracer.count_on(cli, "_write_csv", "cli.write_csv", after=_csv_bytes)
    tracer.span_on(wavepacket, "rho_fock", "wavepacket.rho_fock", peak=True)
    tracer.span_on(wavepacket, "density_fock", "wavepacket.density_fock", peak=True)
    tracer.span_on(wavepacket, "hermite_basis", "wavepacket.hermite_basis", after=_hermite_rows)
    for name in ("rho_gaussian", "density_gaussian", "period_check"):
        tracer.span_on(wavepacket, name, "wavepacket." + name)
    tracer.span_on(painleve, "residual_scan", "painleve.residual_scan", after=_scan_points)
    tracer.count_on(painleve, "piv_residual", "painleve.piv_residual")
    tracer.span_on(coherent.CoherentSpec, "__init__", "coherent.CoherentSpec")
    for name in ("adequate_truncation", "build_cs", "statistics", "eigen_residual"):
        tracer.span_on(coherent, name, "coherent." + name)
    tracer.span_on(coherent, "a_norm_squared", "coherent.a_norm_squared", after=_nonfinite)
    for name in [n for n in vars(fock) if n.startswith("build_")]:
        tracer.span_on(fock, name, "fock.build_ops", after=_dense_elements)
