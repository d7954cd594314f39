"""Configuration-driven verification runs.

Each check pairs one operator identity (or dynamical property) with a
quantitative residual and a tolerance; a run executes every enabled check,
never aborts on a single failure, and reports results in a deterministic,
machine-readable form.  Identical configuration and seed produce a
byte-identical canonical report.
"""

from __future__ import annotations

import csv
import io
import json
import platform
import random
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .blaschke import _SEPARATION_TOL, make_blaschke
from .circle import CircleGrid, FourierSymbol
from .dynamics import _MIN_LIFT_GRID, build_lift, branch_inverse, conjugacy_to_power, k_groups
from .hardy import _certified_norms, _matrix_norm, _power_spectra, commutation_residual, covariance_residual
from .hardy import isometry_residual
from .tmbasis import _MAX_COEFFICIENTS, _MAX_GRAM_COUNT, TMBasis, _frame_sides, _needed_length, _Unresolved
from .tmbasis import cons_residual, cuntz_columns, factorization_residual, gram_residual
from .transfer import TransferOperator, _preimage_table, transfer_grid, transfer_matrix

_VERSION = "0.1.0"


class ConfigError(ValueError):
    """Invalid run configuration (maps to exit code 2 in the CLI)."""


@dataclass(frozen=True)
class RunConfig:
    """Run parameters: the product, sizes and per-check tolerances; the ``truncation`` N decides no verdict.

    Invariants: integer sizes and seed, ``seed >= 0``, ``1 <= corner <= truncation/4``, grid a power of two of at
    least 256 samples, every tolerance finite, positive and attached to a known check.  N is only the least length
    of the columns of C that ``composition_isometry`` reads and the width ``min(N, K)`` of the frame-pair symbols.
    """

    lambda_angle: float = 0.0
    zeros: tuple = (0j, 0.5 + 0j)
    truncation: int = 256
    corner: int = 32
    grid: int = 4096
    basis_count: int = 32
    tolerances: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        for name in ("truncation", "corner", "grid", "basis_count", "seed"):
            if type(getattr(self, name)) is not int:  # not a float, a string or a bool
                raise ConfigError(f"{name} must be an integer")
        if self.seed < 0:  # the seed keys each check's stdlib generator; a negative one stays a configuration error
            raise ConfigError("seed must be non-negative")
        object.__setattr__(self, "zeros", tuple(complex(z) for z in self.zeros))
        try:
            self.product()
        except ValueError as exc:
            raise ConfigError(f"invalid product: {exc}") from None
        if self.corner < 1:
            raise ConfigError("corner must be at least 1")
        if self.corner * 4 > self.truncation:
            raise ConfigError("corner must not exceed a quarter of the truncation")
        if self.grid < _MIN_LIFT_GRID:
            raise ConfigError(f"grid must have at least {_MIN_LIFT_GRID} samples (the lift checks sample it)")
        try:
            CircleGrid(self.grid)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not 1 <= self.basis_count <= _MAX_GRAM_COUNT:
            raise ConfigError(f"basis count must lie in [1, {_MAX_GRAM_COUNT}]")
        known = {spec.check_id for spec in MANIFEST}
        merged = dict(DEFAULT_TOLERANCES)
        for key, value in dict(self.tolerances).items():
            if key not in known:
                raise ConfigError(f"tolerance override for unknown check {key!r}")
            merged[key] = float(value)
        if not all(0.0 < v < np.inf for v in merged.values()):
            raise ConfigError("tolerances must be finite and positive")
        object.__setattr__(self, "tolerances", merged)

    def product(self) -> BlaschkeProduct:
        return make_blaschke(np.exp(1j * self.lambda_angle), self.zeros)

    @property
    def is_monomial(self) -> bool:
        return all(z == 0 for z in self.zeros)

    def to_dict(self) -> dict:
        return {
            "lambda_angle": float(self.lambda_angle),
            "zeros": [[z.real, z.imag] for z in self.zeros],
            "truncation": self.truncation,
            "corner": self.corner,
            "grid": self.grid,
            "basis_count": self.basis_count,
            "tolerances": {k: self.tolerances[k] for k in sorted(self.tolerances)},
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("configuration must be a JSON object")
        unknown = set(data) - {f.name for f in fields(RunConfig)}
        if unknown:
            raise ConfigError(f"unknown configuration fields: {sorted(unknown)}")
        kwargs = dict(data)
        if "zeros" in kwargs:
            try:
                kwargs["zeros"] = tuple(complex(re, im) for re, im in kwargs["zeros"])
            except (TypeError, ValueError):
                raise ConfigError("zeros must be a list of [re, im] pairs") from None
        try:
            return RunConfig(**kwargs)
        except (TypeError, ValueError) as exc:  # ConfigError included: it is a ValueError
            raise ConfigError(str(exc)) from None


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification check."""

    check_id: str
    statement: str
    residual: float | None
    tolerance: float
    passed: bool
    errored: bool = False
    error: str = ""
    details: dict = field(default_factory=dict)
    runtime: float = field(default=0.0, compare=False)


@dataclass(frozen=True)
class VerificationReport:
    """All check results for one configuration, plus environment metadata."""

    config: RunConfig
    checks: tuple
    metadata: dict

    @property
    def overall_pass(self) -> bool:
        return all(c.passed and not c.errored for c in self.checks)

    @property
    def any_errored(self) -> bool:
        return any(c.errored for c in self.checks)


# ---------------------------------------------------------------------------
# Individual checks.  Each receives (config, product, rng), rng a stdlib random.Random, and
# returns (residual, details); residuals are nonnegative and compared to tolerance.
# ---------------------------------------------------------------------------


def _check_derivative_identity(cfg, product, rng):
    grid = CircleGrid(1024)
    z = grid.points
    quotient = z * product.derivative(z) / product.evaluate(z)
    return float(np.max(np.abs(quotient - product.log_derivative(grid.nodes)))), {"points": grid.size}


def _check_weight_positivity(cfg, product, rng):
    # through R', not the closed-form sum, which is at least 1 by construction
    z = CircleGrid(1024).points
    h = (product.degree * product.evaluate(z) / (z * product.derivative(z))).real
    min_h = float(np.min(h))
    return max(0.0, -min_h), {"min_weight": min_h, "max_weight": float(np.max(h))}


def _check_weight_sum(cfg, product, rng):
    # the residues R/(z R') from R', not the cached weights that transfer_unit sums
    small = CircleGrid(256)
    points, _ = _preimage_table(product, small)
    images = product.evaluate(points)
    sums = np.sum(images / (points * product.derivative(points)), axis=0)
    details = {"targets": int(points.shape[1]), "preimage_residual": float(np.max(np.abs(images - small.points)))}
    return float(np.max(np.abs(sums - 1.0))), details


def _check_transfer_unit(cfg, product, rng):
    op = TransferOperator(product)
    values = op.apply_samples(lambda z: np.ones_like(z), CircleGrid(256))
    return float(np.max(np.abs(values - 1.0))), {"targets": int(values.shape[0])}


def _check_transfer_covariance(cfg, product, rng):
    band = 8
    small = CircleGrid(256)
    points, weights = _preimage_table(product, small)
    targets = small.points
    images = product.evaluate(points)
    # weighted[q] = weights * z^q over the (n, M) table, |q| <= band
    weighted = weights * points ** np.arange(-band, band + 1)[:, None, None]
    transferred = np.sum(weighted, axis=1)  # L(z^q) at the targets
    worst = 0.0
    for p in range(-band, band + 1):
        lhs = np.sum(weighted * images**p, axis=1)
        worst = max(worst, float(np.max(np.abs(lhs - targets**p * transferred))))
    return worst, {"band": band, "targets": int(targets.shape[0])}


def _check_adjoint_transfer(cfg, product, rng):
    # column j of either truncation holds the first coefficients of L(z^j) or R^j
    m = cfg.corner
    lmat = transfer_matrix(TransferOperator(product), m, transfer_grid(4 * m))
    comp = _power_spectra(product, m, m)  # C is lower triangular: the m x m corner needs m rows
    return _matrix_norm(lmat - comp.conj().T), {"corner": m}


def _check_composition_isometry(cfg, product, rng):
    # column j < m holds R^j, whose coefficients past the length sized for R^(m-1), N its floor, are below
    # rounding; ||R^j|| = 1, so column_tail_mass is the exact mass the columns lose past that length
    m = cfg.corner
    rows = _needed_length(product, m - 1, cfg.truncation, _MAX_COEFFICIENTS // max(m, 64), "column_length")
    cols = _power_spectra(product, rows, m)
    tail = float(np.max(1.0 - np.sum(np.abs(cols) ** 2, axis=0)))
    return isometry_residual(cols, m), {"corner": m, "column_length": rows, "column_tail_mass": tail}


def _random_symbol(rng, band: int, analytic: bool) -> FourierSymbol:
    low = 0 if analytic else -band
    coeffs = {}
    for k in range(low, band + 1):
        coeffs[k] = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) / (2.0 * (1 + abs(k)))
    return FourierSymbol(coeffs)


def _check_toeplitz_covariance(cfg, product, rng):
    symbols = [_random_symbol(rng, band=8, analytic=False) for _ in range(10)]
    # a symbol's bound within tolerance is a sound PASS on H^2; above it, its sampled peak is a sound FAIL
    residuals = covariance_residual(product, symbols, tol=cfg.tolerances["toeplitz_covariance"])
    return max(residuals), {"symbols": 10, "per_symbol": residuals}


def _check_analytic_commutation(cfg, product, rng):
    symbols = [FourierSymbol({j: 1.0}) for j in range(5)]
    symbols += [_random_symbol(rng, band=4, analytic=True) for _ in range(5)]
    # b o R has the poles of R^B, B the symbols' largest band, and the corner reads its coefficients k < m
    grid = _needed_length(product, max(s.low + s.values.size - 1 for s in symbols), max(256, cfg.corner))
    residuals = commutation_residual(product, symbols, cfg.corner, CircleGrid(grid))
    return float(max(residuals)), {"symbols": len(symbols), "grid": grid}


def _check_basis_orthonormality(cfg, product, rng):
    # every Gram entry has at most the poles of element count - 1, which carries each zero ceil(count / n) times
    count = cfg.basis_count
    grid = _needed_length(product, -(-count // product.degree), max(256, count))
    return gram_residual(TMBasis(product, count=count), count, CircleGrid(grid)), {"count": count, "grid": grid}


def _check_basis_factorization(cfg, product, rng):
    basis = TMBasis(product, count=max(cfg.basis_count, 9 * product.degree))
    return float(np.max(factorization_residual(basis, 8, CircleGrid(cfg.grid)))), {"max_power": 8}


def _check_cuntz_relations(cfg, product, rng):
    # completeness reads the first m rows of the lower triangular W_k, so only C[:m, :m]; isometry and
    # orthogonality read the symbols of n W_i* W_j, the left side that module_inner_tails shares
    corners = cuntz_columns(product, _power_spectra(product, cfg.corner, cfg.corner))
    gram, *_ = _frame_sides(product, cfg.truncation)
    parts = cons_residual(corners, gram, tol=cfg.tolerances["cuntz_relations"])
    return max(parts.values()), parts


def _check_module_inner_tails(cfg, product, rng):
    # T_conj(p) T_q = T_(conj(p) q) for analytic p, so V_p* V_q - T_<p,q> is the Toeplitz operator of the
    # residual symbol on H^2, valued by the rule of the other symbol checks; a pair above tolerance reads its peak
    left, right, size = _frame_sides(product, cfg.truncation)
    tol, bounds, peaks = cfg.tolerances["module_inner_tails"], {}, {}
    for i, row in enumerate(left - right):  # one FFT per row: the samples of P symbols, not P^2, at once
        for j, (bound, value) in enumerate(zip(*_certified_norms(row, tol))):
            bounds[f"v{i + 1},v{j + 1}"] = bound
            if bound > tol:
                peaks[f"v{i + 1},v{j + 1}"] = value
    details = {"taylor_length": size, "sup_bounds": bounds, "peaks": peaks}
    return max(peaks.get(pair, bound) for pair, bound in bounds.items()), details


def _check_monomial_shift_relations(cfg, product, rng):
    # the first m columns of U W_k - W_(k+1), k = 1..n, with W_(n+1) = conj(lambda) W_1 U: U moves rows down
    # by one and, on the right, columns left by one, so the wrap reads column m; for a monomial W_k e_j is a
    # multiple of z^(jn+k-1), so n (m + 1) rows hold every entry, and one exact norm per relation decides it
    m = cfg.corner
    family = list(cuntz_columns(product, _power_spectra(product, product.degree * (m + 1), m + 1)))
    shifted = [np.vstack((np.zeros((1, m)), w[:-1, :m])) for w in family]
    wrap = np.conj(product.phase) * family[0][:, 1:]
    norms = [_matrix_norm(s - t[:, :m]) for s, t in zip(shifted, family[1:] + [wrap])]
    return max(norms), {"relations": product.degree}


def _check_lift_expanding(cfg, product, rng):
    # |R'| = psi' on the circle, read through R' rather than the lift's own closed-form samples
    lift = build_lift(product, cfg.grid)
    margin = float(np.min(np.abs(product.derivative(np.exp(1j * lift.thetas)))) - 1.0)
    return max(0.0, -margin), {"margin": margin, "theta0": float(lift.theta0)}


def _check_lift_winding(cfg, product, rng):
    lift = build_lift(product, cfg.grid)
    total = float(lift.psi[-1] - lift.psi[0])
    # the closed form climbs by 2 pi n by construction; following R is the independent route
    follow = float(np.max(np.abs(np.exp(1j * lift.psi) - product.evaluate(np.exp(1j * lift.thetas)))))
    return max(abs(total - 2.0 * np.pi * product.degree), follow), {
        "total_increase": total,
        "follow_defect": follow,
    }


def _check_branch_inverses(cfg, product, rng):
    # a certificate through R, not a second solve: sigma[k - 1, t] = sigma_k(t), one solve per branch
    lift = build_lift(product, cfg.grid)
    ts = 2.0 * np.pi * np.arange(64) / 64
    sigma = np.array([branch_inverse(lift, k, ts) for k in range(1, product.degree + 1)])
    worst = float(np.max(np.abs(product.evaluate(np.exp(1j * sigma)) - np.exp(1j * ts))))
    angles = np.sort(sigma % (2.0 * np.pi), axis=0)
    min_gap = float(np.min(np.diff(angles, axis=0, append=angles[:1] + 2.0 * np.pi)))
    # two branches on one point leave a preimage out, which no residual through R shows
    residual = worst if min_gap > _SEPARATION_TOL else max(worst, 1.0)
    return residual, {"targets": 64, "min_gap": min_gap}


def _check_power_conjugacy(cfg, product, rng):
    result = conjugacy_to_power(product, grid_size=cfg.grid)
    return result.residual, {"levels": result.levels, "min_gap": result.min_gap}


def _check_k_group_formula(cfg, product, rng):
    n = product.degree
    k0, k1 = k_groups(n)
    expected0 = "Z" if n == 2 else f"Z ⊕ Z/{n - 1}Z"
    match = (k0 == expected0) and (k1 == "Z")
    return (0.0 if match else 1.0), {"K0": k0, "K1": k1}


@dataclass(frozen=True)
class CheckSpec:
    check_id: str
    statement: str
    tolerance: float
    runner: object
    monomial_only: bool = False

    def enabled_for(self, cfg: RunConfig) -> bool:
        return cfg.is_monomial or not self.monomial_only


MANIFEST = (
    CheckSpec(
        "derivative_identity",
        "circle log-derivative closed form agrees with z R'/R",
        1e-10,
        _check_derivative_identity,
    ),
    CheckSpec(
        "weight_positivity",
        "transfer weight h = n R/(z R') is strictly positive on the circle",
        1e-12,
        _check_weight_positivity,
    ),
    CheckSpec(
        "weight_sum",
        "partial-fraction weights over each preimage set sum to one",
        1e-10,
        _check_weight_sum,
    ),
    CheckSpec(
        "transfer_unit",
        "transfer operator fixes the constant function",
        1e-10,
        _check_transfer_unit,
    ),
    CheckSpec(
        "transfer_covariance",
        "transfer operator satisfies L((a o R) b) = a L(b)",
        1e-10,
        _check_transfer_covariance,
    ),
    CheckSpec(
        "adjoint_transfer",
        "truncated transfer operator equals the adjoint of the composition matrix",
        1e-8,
        _check_adjoint_transfer,
    ),
    CheckSpec(
        "composition_isometry",
        "composition matrix is isometric on its first m columns",
        1e-8,
        _check_composition_isometry,
    ),
    CheckSpec(
        "toeplitz_covariance",
        "C* T_a C equals T_(L a)",
        1e-6,
        _check_toeplitz_covariance,
    ),
    CheckSpec(
        "analytic_commutation",
        "C T_b equals T_(b o R) C for analytic symbols",
        1e-8,
        _check_analytic_commutation,
    ),
    CheckSpec(
        "basis_orthonormality",
        "adapted rational basis is orthonormal in quadrature",
        1e-8,
        _check_basis_orthonormality,
    ),
    CheckSpec(
        "basis_factorization",
        "basis elements factor as Q_l R_l R^k",
        1e-10,
        _check_basis_factorization,
    ),
    CheckSpec(
        "cuntz_relations",
        "isometry family satisfies the Cuntz relations",
        1e-6,
        _check_cuntz_relations,
    ),
    CheckSpec(
        "module_inner_tails",
        "V_p* V_q equals T_<p,q> on H^2",
        1e-6,
        _check_module_inner_tails,
    ),
    CheckSpec(
        "monomial_shift_relations",
        "shift relations U W_k = W_(k+1) and U W_n = conj(lambda) W_1 U hold exactly",
        1e-12,
        _check_monomial_shift_relations,
        monomial_only=True,
    ),
    CheckSpec(
        "lift_expanding",
        "lift derivative exceeds one everywhere (expanding map)",
        1e-12,
        _check_lift_expanding,
    ),
    CheckSpec(
        "lift_winding",
        "lift climbs by exactly 2 pi n over one revolution and follows R on the circle",
        1e-8,
        _check_lift_winding,
    ),
    CheckSpec(
        "branch_inverses",
        "lift branch inverses solve R(z) = e^(it) at n distinct angles",
        1e-8,
        _check_branch_inverses,
    ),
    CheckSpec(
        "power_conjugacy",
        "circle restriction is conjugate to the monomial map of equal degree",
        1e-6,
        _check_power_conjugacy,
    ),
    CheckSpec(
        "k_group_formula",
        "K-groups match Z + Z/(n-1)Z and Z",
        0.5,
        _check_k_group_formula,
    ),
)

DEFAULT_TOLERANCES = {spec.check_id: spec.tolerance for spec in MANIFEST}


def _run_one(spec: CheckSpec, cfg: RunConfig, product, index: int) -> CheckResult:
    rng = random.Random(f"{cfg.seed}:{index}")  # keyed by seed and check; a run never imports numpy.random
    tolerance = cfg.tolerances[spec.check_id]
    started = time.perf_counter()
    try:
        residual, details = spec.runner(cfg, product, rng)
        residual = float(residual)
        outcome = {"residual": residual, "passed": residual <= tolerance, "details": _jsonable(details)}
    except _Unresolved as exc:  # a length past its cap is never formed: under-resolved, a FAIL at any tolerance
        outcome = {"residual": 1.0, "passed": False, "details": exc.args[0]}
    except Exception as exc:  # noqa: BLE001 - captured per check by design
        outcome = {"residual": None, "passed": False, "errored": True, "error": f"{type(exc).__name__}: {exc}"}
    return CheckResult(
        check_id=spec.check_id,
        statement=spec.statement,
        tolerance=tolerance,
        runtime=time.perf_counter() - started,
        **outcome,
    )


def run_verify(cfg: RunConfig, parallel: bool = False) -> VerificationReport:
    """Execute every enabled check and collect a report.

    Check failures and captured errors never abort the run; results follow
    manifest order, so output is deterministic.  ``parallel`` is accepted
    for compatibility and ignored: checks always run serially, because a
    thread pool only contends with numpy's own BLAS threads and was slower
    and larger than a serial run.
    """
    product = cfg.product()
    results = [_run_one(spec, cfg, product, index) for index, spec in enumerate(MANIFEST) if spec.enabled_for(cfg)]
    metadata = {
        "package": f"blaschkeops {_VERSION}",
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    return VerificationReport(config=cfg, checks=tuple(results), metadata=metadata)


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def _canonical_dict(report: VerificationReport) -> dict:
    # Every compared field of a check; the runtime is not compared, so the
    # canonical form is byte-stable for a fixed configuration and seed.
    return {
        "config": report.config.to_dict(),
        "metadata": dict(report.metadata),
        "checks": [{f.name: getattr(c, f.name) for f in fields(CheckResult) if f.compare} for c in report.checks],
        "overall_pass": report.overall_pass,
    }


def emit_report(report: VerificationReport, fmt: str) -> str:
    """Render the report as ``human``, ``canonical`` (JSON) or ``table`` (CSV)."""
    if fmt == "canonical":
        text = json.dumps(_canonical_dict(report), indent=2, sort_keys=True) + "\n"
    elif fmt == "table":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["check_id", "statement", "residual", "tolerance", "passed", "errored", "runtime_s"])
        for c in report.checks:
            writer.writerow(
                [
                    c.check_id,
                    c.statement,
                    "" if c.residual is None else repr(c.residual),
                    repr(c.tolerance),
                    c.passed,
                    c.errored,
                    f"{c.runtime:.3f}",
                ]
            )
        text = buffer.getvalue()
    elif fmt == "human":
        lines = [
            "verification report",
            f"  product: lambda_angle={report.config.lambda_angle}, zeros={list(report.config.zeros)}",
            f"  sizes: N={report.config.truncation} m={report.config.corner} "
            f"M={report.config.grid} L={report.config.basis_count} seed={report.config.seed}",
            "",
        ]
        for c in report.checks:
            if c.errored:
                status, value = "ERROR", c.error
            else:
                status = "PASS" if c.passed else "FAIL"
                value = f"residual={c.residual:.3e} tol={c.tolerance:.1e}"
            lines.append(f"  [{status}] {c.check_id:<26} {value} ({c.runtime:.2f}s)")
        lines.append("")
        lines.append(f"overall: {'PASS' if report.overall_pass else 'FAIL'}")
        text = "\n".join(lines) + "\n"
    else:
        raise ConfigError(f"unknown report format {fmt!r}")
    return text
