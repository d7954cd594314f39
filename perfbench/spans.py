"""Span and counter recorder for the traced benchmark run.

:meth:`Recorder.install` wraps each layer entry point of the package in every
``blaschkeops`` module that binds it (modules import names with
``from .x import name``, so ``verify._matrix_norm`` and
``tmbasis._matrix_norm`` are separate bindings of one function).  Each call
records a span ``[name, start, end, parent]`` in memory plus counters;
:meth:`Recorder.restore` puts the original objects back.  A call made while
the innermost open span has the same name (``_matrix_norm`` calling
``_power_iteration``) is passed through unrecorded, so one logical operation
is one span.  An entry point the package no longer has stops the traced
run, so a renamed layer is fixed in ``ENTRY_POINTS`` instead of reading as 0.

Per-layer metrics are named ``<module>.<function>.<stat>``; ``self_s`` is a
span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

_COMPLEX_BYTES = 16


# Counters receive the call's (args, kwargs, result, exception).  Methods and
# preimage_grid take their array argument second.
def _points(args, kwargs, result, exc):
    return {"points": np.size(args[1])}


def _targets(args, kwargs, result, exc):
    return {"targets": np.size(args[1]), "failed": exc is not None}


def _fft(args, kwargs, result, exc):
    x = np.asarray(args[0])
    n = x.shape[-1] if x.ndim else 1
    # 5 n log2 n flops per transformed row; bytes are input plus output.
    return {
        "points": x.size,
        "flop_computed": 5.0 * x.size * math.log2(max(n, 1)),
        "bytes_computed": 2.0 * _COMPLEX_BYTES * x.size,
    }


def _matmul(args, kwargs, result, exc):
    a, b = np.shape(args[0].entries), np.shape(args[1].entries)
    # a complex multiply-add is 8 real flops
    return {"flop_computed": 8.0 * a[0] * a[1] * b[-1]}


def _norm(args, kwargs, result, exc):
    stalled = isinstance(result, tuple) and not result[1]
    return {"unconverged": stalled or (exc is not None and type(exc).__name__ == "ConvergenceError")}


def _conjugacy(args, kwargs, result, exc):
    return {"iterations": getattr(result, "iterations", 0), "failed": exc is not None}


# (span name, defining module, attribute or Class.attribute, counter)
ENTRY_POINTS = (
    ("blaschke.preimage_grid", "blaschke", "preimage_grid", _targets),
    ("blaschke.evaluate", "blaschke", "BlaschkeProduct.evaluate", _points),
    ("blaschke.log_derivative", "blaschke", "BlaschkeProduct._log_derivative_at", _points),
    ("circle.fft", "circle", "fft", _fft),
    ("circle.fourier_coefficients", "circle", "fourier_coefficients", None),
    ("circle.symbol_evaluate", "circle", "FourierSymbol.evaluate", None),
    ("transfer.preimage_table", "transfer", "_preimage_table", None),
    ("transfer.transfer_matrix", "transfer", "transfer_matrix", None),
    ("transfer.apply_samples", "transfer", "TransferOperator.apply_samples", None),
    ("transfer.symbol_image", "transfer", "TransferOperator.symbol_image", None),
    ("transfer.bimodule_inner_samples", "transfer", "bimodule_inner_samples", None),
    ("hardy.power_spectra", "hardy", "_power_spectra", None),
    ("hardy.composition_matrix", "hardy", "composition_matrix", None),
    ("hardy.toeplitz_matrix", "hardy", "toeplitz_matrix", None),
    ("hardy.matmul", "hardy", "TruncatedOperator.__matmul__", _matmul),
    ("hardy.norm", "hardy", "operator_norm", _norm),
    ("hardy.norm", "hardy", "_matrix_norm", _norm),
    ("hardy.norm", "hardy", "_power_iteration", _norm),
    ("hardy.isometry_residual", "hardy", "isometry_residual", None),
    ("hardy.covariance_residual", "hardy", "covariance_residual", None),
    ("hardy.commutation_residual", "hardy", "commutation_residual", None),
    ("tmbasis.tm_element", "tmbasis", "tm_element", None),
    ("tmbasis.gram_residual", "tmbasis", "gram_residual", None),
    ("tmbasis.cuntz_family", "tmbasis", "cuntz_family", None),
    ("tmbasis.cons_residual", "tmbasis", "cons_residual", None),
    ("tmbasis.factorization_residual", "tmbasis", "factorization_residual", None),
    ("dynamics.build_lift", "dynamics", "build_lift", None),
    ("dynamics.branch_inverse", "dynamics", "branch_inverse", None),
    ("dynamics.conjugacy", "dynamics", "conjugacy_to_power", _conjugacy),
)

# The 19 checks of the verify manifest, one runtime metric each.
CHECK_IDS = (
    "derivative_identity",
    "weight_positivity",
    "weight_sum",
    "transfer_unit",
    "transfer_covariance",
    "adjoint_transfer",
    "composition_isometry",
    "toeplitz_covariance",
    "analytic_commutation",
    "basis_orthonormality",
    "basis_factorization",
    "cuntz_relations",
    "module_inner_tails",
    "monomial_shift_relations",
    "lift_expanding",
    "lift_winding",
    "branch_inverses",
    "power_conjugacy",
    "k_group_formula",
)

# (metric, unit, better); the metrics every traced run reports, per pass.
PER_LAYER = (
    ("blaschke.preimage_grid.calls", "count", "lower"),
    ("blaschke.preimage_grid.targets", "count", "lower"),
    ("blaschke.preimage_grid.self_s", "s", "lower"),
    ("blaschke.preimage_grid.failed", "count", "lower"),
    ("blaschke.evaluate.calls", "count", "lower"),
    ("blaschke.evaluate.points", "count", "lower"),
    ("blaschke.evaluate.self_s", "s", "lower"),
    ("blaschke.log_derivative.points", "count", "lower"),
    ("blaschke.log_derivative.self_s", "s", "lower"),
    ("circle.fft.calls", "count", "lower"),
    ("circle.fft.points", "count", "lower"),
    ("circle.fft.self_s", "s", "lower"),
    ("circle.fft.flop_computed", "flop", "lower"),
    ("circle.fft.bytes_computed", "B", "lower"),
    ("circle.fourier_coefficients.calls", "count", "lower"),
    ("circle.fourier_coefficients.self_s", "s", "lower"),
    ("circle.symbol_evaluate.self_s", "s", "lower"),
    ("transfer.preimage_table.hits", "count", "higher"),
    ("transfer.preimage_table.misses", "count", "lower"),
    ("transfer.preimage_table.hit_ratio", "ratio", "higher"),
    ("transfer.preimage_table.self_s", "s", "lower"),
    ("transfer.transfer_matrix.self_s", "s", "lower"),
    ("transfer.apply_samples.self_s", "s", "lower"),
    ("transfer.symbol_image.self_s", "s", "lower"),
    ("transfer.bimodule_inner_samples.self_s", "s", "lower"),
    ("hardy.power_spectra.hits", "count", "higher"),
    ("hardy.power_spectra.misses", "count", "lower"),
    ("hardy.power_spectra.self_s", "s", "lower"),
    ("hardy.power_spectra.bytes_resident", "B", "lower"),
    ("hardy.composition_matrix.calls", "count", "lower"),
    ("hardy.composition_matrix.self_s", "s", "lower"),
    ("hardy.toeplitz_matrix.calls", "count", "lower"),
    ("hardy.toeplitz_matrix.self_s", "s", "lower"),
    ("hardy.matmul.calls", "count", "lower"),
    ("hardy.matmul.self_s", "s", "lower"),
    ("hardy.matmul.flop_computed", "flop", "lower"),
    ("hardy.norm.calls", "count", "lower"),
    ("hardy.norm.self_s", "s", "lower"),
    ("hardy.norm.unconverged", "count", "lower"),
    ("hardy.norm.converged_ratio", "ratio", "higher"),
    ("hardy.isometry_residual.self_s", "s", "lower"),
    ("hardy.covariance_residual.self_s", "s", "lower"),
    ("hardy.commutation_residual.self_s", "s", "lower"),
    ("tmbasis.tm_element.calls", "count", "lower"),
    ("tmbasis.tm_element.self_s", "s", "lower"),
    ("tmbasis.gram_residual.self_s", "s", "lower"),
    ("tmbasis.cuntz_family.self_s", "s", "lower"),
    ("tmbasis.cons_residual.self_s", "s", "lower"),
    ("tmbasis.factorization_residual.self_s", "s", "lower"),
    ("dynamics.build_lift.calls", "count", "lower"),
    ("dynamics.build_lift.self_s", "s", "lower"),
    ("dynamics.branch_inverse.calls", "count", "lower"),
    ("dynamics.branch_inverse.self_s", "s", "lower"),
    ("dynamics.conjugacy.self_s", "s", "lower"),
    ("dynamics.conjugacy.iterations", "count", "lower"),
    ("dynamics.conjugacy.failed", "count", "lower"),
    *((f"verify.check.{check}.s", "s", "lower") for check in CHECK_IDS),
    ("verify.self_s", "s", "lower"),
    ("trace.untraced_pass_s", "s", "lower"),
    ("trace.traced_pass_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


class Recorder:
    """In-memory spans and counters of one traced process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.counts = defaultdict(float)
        self.resident = defaultdict(float)  # cache name -> largest bytes held
        self.paused = False
        self._stack = []
        self._patches = []

    def wrap(self, name: str, fn, counter=None):
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused or (self._stack and self.spans[self._stack[-1]][0] == name):
                return fn(*args, **kwargs)
            misses = cache_info().misses if cache_info else 0
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None])
            self._stack.append(index)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                raise
            finally:
                self.spans[index][2] = time.perf_counter()
                self._stack.pop()
                self.counts[f"{name}.calls"] += 1
                if counter is not None:
                    for key, value in counter(args, kwargs, result, exc).items():
                        self.counts[f"{name}.{key}"] += float(value)
                if cache_info is not None:
                    info = cache_info()
                    missed = info.misses > misses
                    self.counts[f"{name}.misses" if missed else f"{name}.hits"] += 1
                    if missed and result is not None:
                        held = sum(np.asarray(r).nbytes for r in (result if isinstance(result, tuple) else (result,)))
                        self.resident[name] = max(self.resident[name], info.currsize * held)

        return traced

    def install(self, package: str = "blaschkeops") -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == package or key.startswith(package + ".")]
        for name, module_name, attr, counter in ENTRY_POINTS:
            home = sys.modules.get(f"{package}.{module_name}")
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            if owner is None or method not in vars(owner):
                self.restore()
                raise LookupError(f"layer entry point {package}.{module_name}.{attr} not found; update ENTRY_POINTS")
            if owner_name:
                original = vars(owner)[method]
                self._patches.append((owner, method, original))
                setattr(owner, method, self.wrap(name, original, counter))
                continue
            original = getattr(home, attr)
            wrapped = self.wrap(name, original, counter)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self) -> dict:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals = defaultdict(float)
        for (name, start, end, _), child_time in zip(self.spans, covered):
            totals[name] += (end - start) - child_time
        return totals

    def layer_metrics(self) -> dict:
        """Raw per-layer totals of this process (not yet divided per pass)."""
        out = dict(self.counts)
        for name, value in self.self_times().items():
            out[f"{name}.self_s"] = value
        for name, value in self.resident.items():
            out[f"{name}.bytes_resident"] = value
        return out

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines ``[name, start, end, parent]``."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def per_pass(raw: dict, passes: int) -> dict:
    """Every reported per-layer metric, divided per pass where additive."""
    out = {}
    for metric, _, _ in PER_LAYER:
        if metric.startswith("trace."):
            continue
        value = raw.get(metric, 0.0)
        out[metric] = value if metric.endswith("bytes_resident") else value / passes

    def ratio(part, whole):
        return part / whole if whole else 0.0

    hits, misses = raw.get("transfer.preimage_table.hits", 0.0), raw.get("transfer.preimage_table.misses", 0.0)
    out["transfer.preimage_table.hit_ratio"] = ratio(hits, hits + misses)
    calls = raw.get("hardy.norm.calls", 0.0)
    out["hardy.norm.converged_ratio"] = ratio(calls - raw.get("hardy.norm.unconverged", 0.0), calls)
    return out
