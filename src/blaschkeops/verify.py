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
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .blaschke import make_blaschke, preimage_grid
from .circle import CircleGrid, FourierSymbol
from .dynamics import _MIN_LIFT_GRID, build_lift, branch_inverse, conjugacy_to_power, k_groups
from .hardy import (
    commutation_residual,
    covariance_residual,
    isometry_residual,
    tail_compactness_profile,
    _matrix_norm,
    _power_spectra,
    _symbol_sup_bound,
)
from .tmbasis import (
    TMBasis,
    cons_residual,
    cuntz_columns,
    factor_parts,
    factorization_residual,
    gram_residual,
    inner_product_residual,
)
from .transfer import TransferOperator, _preimage_table, transfer_matrix

_VERSION = "0.1.0"


class ConfigError(ValueError):
    """Invalid run configuration (maps to exit code 2 in the CLI)."""


@dataclass(frozen=True)
class RunConfig:
    """Run parameters: the product, truncation sizes and per-check tolerances.

    Invariants: ``1 <= corner <= truncation/4``, ``truncation <= grid/4``,
    grid a power of two of at least 256 samples, every tolerance positive and
    attached to a known check.
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
        object.__setattr__(self, "zeros", tuple(complex(z) for z in self.zeros))
        try:
            self.product()
        except ValueError as exc:
            raise ConfigError(f"invalid product: {exc}") from None
        if self.corner < 1:
            raise ConfigError("corner must be at least 1")
        if self.corner * 4 > self.truncation:
            raise ConfigError("corner must not exceed a quarter of the truncation")
        if self.truncation * 4 > self.grid:
            raise ConfigError("truncation must not exceed a quarter of the grid")
        if self.grid < _MIN_LIFT_GRID:
            raise ConfigError(f"grid must have at least {_MIN_LIFT_GRID} samples (the lift checks sample it)")
        try:
            CircleGrid(self.grid)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not 1 <= self.basis_count <= 64:
            raise ConfigError("basis count must lie in [1, 64]")
        known = {spec.check_id for spec in MANIFEST}
        merged = dict(DEFAULT_TOLERANCES)
        for key, value in dict(self.tolerances).items():
            if key not in known:
                raise ConfigError(f"tolerance override for unknown check {key!r}")
            merged[key] = float(value)
        if any(v <= 0 for v in merged.values()):
            raise ConfigError("tolerances must be positive")
        object.__setattr__(self, "tolerances", merged)
        object.__setattr__(self, "seed", int(self.seed))

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
        except TypeError as exc:
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
# Individual checks.  Each receives (config, product, grid, rng) and returns
# (residual, details); residuals are nonnegative and compared to tolerance.
# ---------------------------------------------------------------------------


def _check_derivative_identity(cfg, product, grid, rng):
    thetas = 2.0 * np.pi * np.arange(1024) / 1024
    z = np.exp(1j * thetas)
    closed_form = product.log_derivative(thetas)
    value = product.evaluate(z)
    deviations = {
        "log_sum_deviation": float(np.max(np.abs(z * product.derivative(z) / value - closed_form))),
        "product_rule_deviation": float(
            np.max(np.abs(z * product._derivative_product_rule(z) / value - closed_form))
        ),
    }
    return max(deviations.values()), {"points": 1024, **deviations}


def _check_weight_positivity(cfg, product, grid, rng):
    thetas = 2.0 * np.pi * np.arange(1024) / 1024
    h = product.weight(thetas)
    min_h = float(np.min(h))
    return max(0.0, -min_h), {"min_weight": min_h, "max_weight": float(np.max(h))}


def _small_grid(cfg) -> CircleGrid:
    return CircleGrid(256)


def _check_weight_sum(cfg, product, grid, rng):
    _, weights = _preimage_table(product, _small_grid(cfg))
    sums = np.sum(weights, axis=1)
    return float(np.max(np.abs(sums - 1.0))), {"targets": int(weights.shape[0])}


def _check_transfer_unit(cfg, product, grid, rng):
    op = TransferOperator(product)
    values = op.apply_samples(lambda z: np.ones_like(z), _small_grid(cfg))
    return float(np.max(np.abs(values - 1.0))), {"targets": int(values.shape[0])}


def _check_transfer_covariance(cfg, product, grid, rng):
    band = 8
    small = _small_grid(cfg)
    points, weights = _preimage_table(product, small)
    targets = small.points
    images = product.evaluate(points)
    worst = 0.0
    for p in range(-band, band + 1):
        lhs_factor = weights * images**p
        for q in range(-band, band + 1):
            lhs = np.sum(lhs_factor * points**q, axis=1)
            rhs = targets**p * np.sum(weights * points**q, axis=1)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst, {"band": band, "targets": int(targets.shape[0])}


def _max_expansion(product) -> float:
    thetas = 2.0 * np.pi * np.arange(512) / 512
    return float(np.max(product.log_derivative(thetas)))


def _truncation_quality(cfg, product) -> dict:
    # Columns of the composition matrix carry frequencies up to roughly
    # index * max(psi'); the guard records how far the corner stays from
    # the truncation boundary.
    edge = cfg.corner * _max_expansion(product)
    return {"corner_band_edge": edge, "guard": float(cfg.truncation) - edge}


def _check_adjoint_transfer(cfg, product, grid, rng):
    # Column j of either truncation holds the first coefficients of L(z^j)
    # or R^j, so the m x m corner of the N x N matrix is the m x m
    # truncation (built at dimension >= 2 for TruncatedOperator).
    m = cfg.corner
    lmat = transfer_matrix(TransferOperator(product), max(m, 2), grid).corner(m)
    comp = _power_spectra(product, cfg.truncation, m)[:m]
    return _matrix_norm(lmat - comp.conj().T), {"corner": m}


def _check_composition_isometry(cfg, product, grid, rng):
    cols = _power_spectra(product, cfg.truncation, cfg.corner)
    details = {
        "corner": cfg.corner,
        # ||R^j|| = 1, so this is the exact mass the corner columns lose past N
        "column_tail_mass": float(np.max(1.0 - np.sum(np.abs(cols) ** 2, axis=0))),
        **_truncation_quality(cfg, product),
    }
    return isometry_residual(cols, cfg.corner), details


def _random_symbol(rng, band: int, analytic: bool) -> FourierSymbol:
    low = 0 if analytic else -band
    coeffs = {}
    for k in range(low, band + 1):
        coeffs[k] = complex(rng.standard_normal(), rng.standard_normal()) / (2.0 * (1 + abs(k)))
    return FourierSymbol(coeffs)


def _check_toeplitz_covariance(cfg, product, grid, rng):
    residuals = []
    for _ in range(10):
        symbol = _random_symbol(rng, band=8, analytic=False)
        residuals.append(covariance_residual(product, symbol, cfg.truncation, cfg.corner, grid))
    details = {
        "symbols": 10,
        "per_symbol": [float(r) for r in residuals],
        **_truncation_quality(cfg, product),
    }
    return float(max(residuals)), details


def _check_analytic_commutation(cfg, product, grid, rng):
    symbols = [FourierSymbol({j: 1.0}) for j in range(5)]
    symbols += [_random_symbol(rng, band=4, analytic=True) for _ in range(5)]
    residuals = [
        commutation_residual(product, b, cfg.truncation, cfg.corner, grid) for b in symbols
    ]
    return float(max(residuals)), {"symbols": len(symbols)}


def _check_basis_orthonormality(cfg, product, grid, rng):
    basis = TMBasis(product, count=cfg.basis_count)
    return gram_residual(basis, cfg.basis_count, grid), {"count": cfg.basis_count}


def _check_basis_factorization(cfg, product, grid, rng):
    n = product.degree
    basis = TMBasis(product, count=max(cfg.basis_count, 9 * n))
    worst = 0.0
    for k in range(9):
        for l in range(n):
            worst = max(worst, factorization_residual(basis, k, l, grid))
    return worst, {"max_power": 8}


def _check_cuntz_relations(cfg, product, grid, rng):
    columns = cuntz_columns(product, cfg.truncation, cfg.corner, grid)
    result = cons_residual(columns, cfg.corner)
    details = {
        "completeness": result.completeness,
        "isometry": result.isometry,
        "orthogonality": result.orthogonality,
    }
    return result.worst, details


def _frame_functions(product):
    basis = TMBasis(product)
    n = product.degree

    def make(k):
        def func(z):
            q, r = factor_parts(basis, k, z)
            return q * r

        return func

    return [make(k) for k in range(n)]


def _check_module_inner_tails(cfg, product, grid, rng):
    # sup |d| bounds the corner at every cut, so a bound within tolerance is a
    # sound PASS; a pair above it takes the exact SVD of its corner at the last
    # cut, so a FAIL value is exact
    funcs = _frame_functions(product)
    cut, tol = 64, cfg.tolerances["module_inner_tails"]
    bounds, corners = {}, {}
    for i, p in enumerate(funcs):
        for j, q in enumerate(funcs):
            pair = f"v{i + 1},v{j + 1}"
            residual = inner_product_residual(product, p, q, cfg.truncation, grid)
            bounds[pair] = _symbol_sup_bound(residual)
            if bounds[pair] > tol:
                corners[pair] = tail_compactness_profile(residual, cfg.truncation, [cut])[0]
    worst = max(corners.get(pair, bound) for pair, bound in bounds.items())
    return worst, {"cut": cut, "sup_bounds": bounds, "corner_norms": corners}


def _check_monomial_shift_relations(cfg, product, grid, rng):
    family = list(cuntz_columns(product, cfg.truncation, cfg.truncation, grid))
    zero_row = np.zeros((1, cfg.truncation))

    def shift(w):  # T_z w: every row moves down by one
        return np.vstack((zero_row, w[:-1]))

    def norm(block):
        # the Frobenius norm bounds the spectral norm of an N x N block at a
        # fraction of an SVD's cost; only a block it cannot pass takes the SVD
        bound = float(np.linalg.norm(block))
        return bound if bound <= cfg.tolerances["monomial_shift_relations"] else _matrix_norm(block)

    worst = max(norm(shift(w) - w_next) for w, w_next in zip(family, family[1:]))
    # W_1 T_z: every column moves left by one
    wrap = shift(family[-1]) - np.hstack((family[0][:, 1:], zero_row.T))
    return float(max(worst, norm(wrap))), {"relations": product.degree}


def _check_lift_expanding(cfg, product, grid, rng):
    lift = build_lift(product, cfg.grid)
    margin = float(np.min(lift.dpsi) - 1.0)
    return max(0.0, -margin), {"margin": margin, "theta0": float(lift.theta0)}


def _check_lift_winding(cfg, product, grid, rng):
    lift = build_lift(product, cfg.grid)
    total = float(lift.psi[-1] - lift.psi[0])
    # the closed form climbs by 2 pi n by construction; following R is the independent route
    follow = float(np.max(np.abs(np.exp(1j * lift.psi) - product.evaluate(np.exp(1j * lift.thetas)))))
    return max(abs(total - 2.0 * np.pi * product.degree), follow), {
        "total_increase": total,
        "follow_defect": follow,
    }


def _check_branch_inverses(cfg, product, grid, rng):
    lift = build_lift(product, cfg.grid)
    n = product.degree
    worst = 0.0
    ts = 2.0 * np.pi * np.arange(64) / 64
    reference, _ = preimage_grid(product, np.exp(1j * ts))
    for row, t in enumerate(ts):
        branch_pts = np.array(
            [np.exp(1j * branch_inverse(lift, k, float(t))) for k in range(1, n + 1)]
        )
        dist = np.abs(branch_pts[:, None] - reference[row][None, :])
        worst = max(worst, float(np.max(np.min(dist, axis=1))), float(np.max(np.min(dist, axis=0))))
    return worst, {"targets": 64}


def _check_power_conjugacy(cfg, product, grid, rng):
    result = conjugacy_to_power(product, grid_size=cfg.grid)
    return result.residual, {"levels": result.levels, "min_gap": result.min_gap}


def _check_k_group_formula(cfg, product, grid, rng):
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
    condition: str = "always"  # "always" or "monomial"

    def enabled_for(self, cfg: RunConfig) -> bool:
        return self.condition == "always" or (self.condition == "monomial" and cfg.is_monomial)


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
        "composition matrix is isometric on the guarded corner",
        1e-8,
        _check_composition_isometry,
    ),
    CheckSpec(
        "toeplitz_covariance",
        "C* T_a C equals T_(L a) on the guarded corner",
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
        "isometry family satisfies the Cuntz relations on the corner",
        1e-6,
        _check_cuntz_relations,
    ),
    CheckSpec(
        "module_inner_tails",
        "V_p* V_q - T_<p,q> has a decaying corner-norm profile",
        1e-6,
        _check_module_inner_tails,
    ),
    CheckSpec(
        "monomial_shift_relations",
        "shift relations U W_k = W_(k+1) and U W_n = W_1 U hold exactly",
        1e-12,
        _check_monomial_shift_relations,
        condition="monomial",
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
        "lift branch inverses reproduce the preimage sets",
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


def enabled_check_ids(cfg: RunConfig):
    return [spec.check_id for spec in MANIFEST if spec.enabled_for(cfg)]


def _run_one(spec: CheckSpec, cfg: RunConfig, product, grid, index: int) -> CheckResult:
    rng = np.random.default_rng([cfg.seed, index])
    tolerance = cfg.tolerances[spec.check_id]
    started = time.perf_counter()
    try:
        residual, details = spec.runner(cfg, product, grid, rng)
    except Exception as exc:  # noqa: BLE001 - captured per check by design
        return CheckResult(
            check_id=spec.check_id,
            statement=spec.statement,
            residual=None,
            tolerance=tolerance,
            passed=False,
            errored=True,
            error=f"{type(exc).__name__}: {exc}",
            runtime=time.perf_counter() - started,
        )
    return CheckResult(
        check_id=spec.check_id,
        statement=spec.statement,
        residual=float(residual),
        tolerance=tolerance,
        passed=float(residual) <= tolerance,
        details=_jsonable(details),
        runtime=time.perf_counter() - started,
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
    grid = CircleGrid(cfg.grid)
    results = [
        _run_one(spec, cfg, product, grid, index)
        for index, spec in enumerate(MANIFEST)
        if spec.enabled_for(cfg)
    ]
    largest_zero = max((abs(z) for z in cfg.zeros), default=0.0)
    metadata = {
        "package": f"blaschkeops {_VERSION}",
        "python": platform.python_version(),
        "numpy": np.__version__,
        # zeros close to the circle condition the preimage solves badly
        "ill_conditioned_zeros": bool(largest_zero > 0.95),
        # geometric tail mass folded back by the finite grid
        "aliasing_bound": float(largest_zero ** (cfg.grid // 2) / (1.0 - largest_zero))
        if largest_zero > 0
        else 0.0,
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
    # Runtimes are deliberately excluded: the canonical form is byte-stable
    # for a fixed configuration and seed.
    return {
        "config": report.config.to_dict(),
        "metadata": dict(report.metadata),
        "checks": [
            {
                "check_id": c.check_id,
                "statement": c.statement,
                "residual": c.residual,
                "tolerance": c.tolerance,
                "passed": c.passed,
                "errored": c.errored,
                "error": c.error,
                "details": c.details,
            }
            for c in report.checks
        ],
        "overall_pass": report.overall_pass,
    }


def emit_report(report: VerificationReport, fmt: str, path: str | None = None) -> str:
    """Render the report as ``human``, ``canonical`` (JSON) or ``table`` (CSV).

    Returns the rendered text and, when ``path`` is given, also writes it.
    """
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
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text


def parse_report(text: str) -> VerificationReport:
    """Rebuild a report from its canonical JSON rendering."""
    data = json.loads(text)
    config = RunConfig.from_dict(data["config"])
    checks = tuple(
        CheckResult(
            check_id=c["check_id"],
            statement=c["statement"],
            residual=c["residual"],
            tolerance=c["tolerance"],
            passed=c["passed"],
            errored=c["errored"],
            error=c["error"],
            details=c["details"],
        )
        for c in data["checks"]
    )
    return VerificationReport(config=config, checks=checks, metadata=data["metadata"])
