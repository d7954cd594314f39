"""Command-line entry points for the verification suite and single queries.

Subcommands: ``verify`` (full residual suite), ``preimage`` (solve one
circle target), ``transfer`` (apply the preimage-averaging operator to a
symbol), ``basis`` (adapted basis table), ``lift`` (export lift samples) and
``kgroups`` (K-theory formula).  Exit codes: 0 all checks pass, 1 some check
failed, 2 configuration error, 3 internal numerical error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .blaschke import ConvergenceError
from .circle import CircleGrid, FourierSymbol
from .dynamics import build_lift, k_groups
from .tmbasis import TMBasis, tm_element
from .transfer import TransferOperator, preimage_weights
from .verify import MANIFEST, ConfigError, RunConfig, _run_one, emit_report, run_verify

_FORMATS = ("human", "canonical", "table")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON configuration file")
    common.add_argument("--truncation", type=int, metavar="N", help="least column length and frame-pair symbol width")
    common.add_argument("--corner", type=int, metavar="M", help="corner size")
    common.add_argument("--grid", type=int, metavar="SIZE", help="circle grid size (power of two)")
    common.add_argument(
        "--tol-override",
        action="append",
        metavar="CHECK=VALUE",
        help="override one check tolerance (repeatable)",
    )
    common.add_argument("--report", metavar="PATH", help="write output to PATH instead of stdout")
    common.add_argument("--format", choices=_FORMATS, default="human", help="report format")
    common.add_argument("--seed", type=int, metavar="INT", help="seed for randomized symbols")
    common.add_argument("--parallel", action="store_true", help="ignored; checks always run serially")

    parser = argparse.ArgumentParser(
        prog="blaschkeops",
        description="Verification suite for operator identities of finite Blaschke products.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("verify", parents=[common], help="run the full verification suite")
    pre = sub.add_parser("preimage", parents=[common], help="solve R(z) = e^(i angle) on the circle")
    pre.add_argument("--angle", type=float, default=0.0, help="target angle in radians")
    tr = sub.add_parser("transfer", parents=[common], help="apply the transfer operator to a symbol")
    tr.add_argument(
        "--symbol",
        default='{"1": [1.0, 0.0]}',
        help="JSON map of Fourier index to [re, im] coefficient",
    )
    sub.add_parser("basis", parents=[common], help="print the adapted basis table")
    sub.add_parser("lift", parents=[common], help="export lift samples (theta, psi)")
    sub.add_parser("kgroups", parents=[common], help="print the K-group formula")
    return parser


def _load_config(args) -> RunConfig:
    data = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read configuration: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"configuration is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a JSON object")
    for name in ("truncation", "corner", "grid", "seed"):
        value = getattr(args, name)
        if value is not None:
            data[name] = value
    overrides = {}
    for item in args.tol_override or []:
        check, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"bad --tol-override {item!r}; expected CHECK=VALUE")
        try:
            overrides[check] = float(value)
        except ValueError:
            raise ConfigError(f"bad tolerance value in {item!r}") from None
    if overrides:
        merged = dict(data.get("tolerances", {}))
        merged.update(overrides)
        data["tolerances"] = merged
    return RunConfig.from_dict(data)


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _cmd_verify(args) -> int:
    cfg = _load_config(args)
    report = run_verify(cfg, parallel=args.parallel)
    text = emit_report(report, args.format)
    _emit(text, args.report)
    if args.report:
        status = "PASS" if report.overall_pass else "FAIL"
        sys.stdout.write(f"report written to {args.report} ({status})\n")
    if report.any_errored:
        return 3
    return 0 if report.overall_pass else 1


def _cmd_preimage(args) -> int:
    cfg = _load_config(args)
    if not math.isfinite(args.angle):
        raise ConfigError("--angle must be finite")
    product = cfg.product()
    target = complex(np.exp(1j * args.angle))
    result = product.preimages(target)
    weights = preimage_weights(product, result.points)
    lines = [f"target e^(i {args.angle}) = {target:.15g}"]
    for point, res, weight in zip(result.points, result.residuals, weights):
        lines.append(f"  z = {point:.15g}   |R(z)-w| = {res:.2e}   weight = {weight:.15g}")
    lines.append(f"weight sum = {float(np.sum(weights)):.15g}")
    _emit("\n".join(lines) + "\n", args.report)
    return 0


def _cmd_transfer(args) -> int:
    cfg = _load_config(args)
    try:
        coeffs = {int(k): v for k, v in json.loads(args.symbol).items()}
        for k, v in coeffs.items():
            pair = isinstance(v, list) and len(v) == 2 and all(type(x) in (int, float) for x in v)
            if abs(k) > cfg.grid // 2 or not pair or not all(map(math.isfinite, v)):
                raise ValueError
            coeffs[k] = complex(*v)
    except (ValueError, AttributeError, OverflowError):
        raise ConfigError(f"--symbol must map each index |k| <= {cfg.grid // 2} to a finite [re, im]") from None
    op = TransferOperator(cfg.product())
    image = op.symbol_image(FourierSymbol(coeffs).evaluate, CircleGrid(cfg.grid)).truncated(1e-12)
    lines = ["transfer image coefficients:"]
    for k in image.indices():
        v = image.coefficient(k)
        lines.append(f"  {k:+d}: {v.real:.15g} {v.imag:+.15g}i")
    if len(lines) == 1:
        lines.append("  (all below 1e-12)")
    _emit("\n".join(lines) + "\n", args.report)
    return 0


def _cmd_basis(args) -> int:
    cfg = _load_config(args)
    product = cfg.product()
    basis = TMBasis(product, count=cfg.basis_count)
    n = product.degree
    lines = [f"adapted basis, degree {n}, first {cfg.basis_count} elements:"]
    sample_points = np.exp(1j * np.array([0.0, np.pi / 2, np.pi]))
    for l in range(cfg.basis_count):
        k, r = divmod(l, n)
        vals = tm_element(basis, l, sample_points)
        rendered = ", ".join(f"{v:.6g}" for v in vals)
        lines.append(f"  e_{l:<3d} = Q_{r} R_{r} R^{k}   at 1, i, -1: {rendered}")
    # verify's basis_orthonormality: the Gram on the grid sized from the zeros, under-resolved past its cap
    gram = next(_run_one(s, cfg, product, i) for i, s in enumerate(MANIFEST) if s.check_id == "basis_orthonormality")
    needed = gram.details.get("grid_needed")
    lines.append(f"gram residual (count {cfg.basis_count}): {gram.residual:.3e}")
    lines += [f"under-resolved: the Gram needs a grid of {needed} points"] if needed else []
    _emit("\n".join(lines) + "\n", args.report)
    return 0 if gram.passed else 1


def _cmd_lift(args) -> int:
    cfg = _load_config(args)
    lift = build_lift(cfg.product(), cfg.grid)
    rows = [f"{theta:.17g}\t{value:.17g}" for theta, value in zip(lift.thetas, lift.psi)]
    _emit("\n".join(rows) + "\n", args.report)
    return 0


def _cmd_kgroups(args) -> int:
    cfg = _load_config(args)
    k0, k1 = k_groups(cfg.product().degree)
    _emit(f"K0 = {k0}\nK1 = {k1}\n", args.report)
    return 0


_COMMANDS = {
    "verify": _cmd_verify,
    "preimage": _cmd_preimage,
    "transfer": _cmd_transfer,
    "basis": _cmd_basis,
    "lift": _cmd_lift,
    "kgroups": _cmd_kgroups,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 2
    except (ConvergenceError, ArithmeticError) as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
