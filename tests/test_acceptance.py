"""Acceptance suite: one test per criterion, at its stated tolerance.

Test set: z^2, z^3, zeros [0, 0.5], zeros [0, 0.3+0.4i], and a seed-fixed
random degree-3 product with |z_k| <= 0.6.  Sizes are the defaults
N=256, m=32, M=4096, L=32.  Each test prints one summary line (visible
with ``pytest -s``).
"""

import numpy as np
import pytest

from blaschkeops import (
    CircleGrid,
    FourierSymbol,
    TMBasis,
    TransferOperator,
    branch_inverse,
    build_lift,
    commutation_residual,
    composition_matrix,
    cons_residual,
    conjugacy_to_power,
    covariance_residual,
    cuntz_family,
    factorization_residual,
    gram_residual,
    inner_product_residual,
    isometry_residual,
    k_groups,
    make_blaschke,
    toeplitz_matrix,
    transfer_matrix,
)
from blaschkeops.hardy import _certified_norms, _matrix_norm, _toeplitz_block
from blaschkeops.tmbasis import frame
from blaschkeops.transfer import _preimage_table
from conftest import polynomial_roots, random_product

N, CORNER, GRID_SIZE, BASIS_COUNT = 256, 32, 4096, 32
# Machine-noise ceiling standing in for "exactly zero": monomial cases have
# no truncation residual, only float roundoff from the FFT/solver pipeline.
EXACT = 1e-12


@pytest.fixture(scope="module")
def grid():
    return CircleGrid(GRID_SIZE)


@pytest.fixture(scope="module")
def products():
    return {
        "z2": make_blaschke(1.0, [0, 0]),
        "z3": make_blaschke(1.0, [0, 0, 0]),
        "half": make_blaschke(1.0, [0, 0.5]),
        "spiral": make_blaschke(1.0, [0, 0.3 + 0.4j]),
        "random3": random_product(0, degree=3, max_radius=0.6),
    }


def _report(criterion: str, worst: float, tolerance: float, note: str = ""):
    status = "PASS" if worst <= tolerance else "FAIL"
    extra = f"  ({note})" if note else ""
    print(f"[{criterion}] {status}: worst residual {worst:.3e} <= {tolerance:.1e}{extra}")
    assert worst <= tolerance


def test_criterion_1_log_derivative_identity(products):
    thetas = 2 * np.pi * np.arange(1024) / 1024
    z = np.exp(1j * thetas)
    worst = 0.0
    for product in products.values():
        closed = product.log_derivative(thetas)
        quotient = z * product.derivative(z) / product.evaluate(z)
        worst = max(worst, float(np.max(np.abs(quotient - closed))))
    _report("criterion 1: derivative identity", worst, 1e-10, "1024 points, 5 products")


def test_criterion_2_transfer_lemma(products):
    small = CircleGrid(256)
    worst_sum = worst_unit = worst_cov = 0.0
    for product in products.values():
        points, weights = _preimage_table(product, small)
        worst_sum = max(worst_sum, float(np.max(np.abs(np.sum(weights, axis=0) - 1.0))))
        unit = TransferOperator(product).apply_samples(lambda z: np.ones_like(z), small)
        worst_unit = max(worst_unit, float(np.max(np.abs(unit - 1.0))))
        images = product.evaluate(points)
        targets = small.points
        for p in range(-8, 9):
            lhs_factor = weights * images**p
            for q in range(-8, 9):
                lhs = np.sum(lhs_factor * points**q, axis=0)
                rhs = targets**p * np.sum(weights * points**q, axis=0)
                worst_cov = max(worst_cov, float(np.max(np.abs(lhs - rhs))))
    _report("criterion 2a: weights sum to one", worst_sum, 1e-10, "256 targets")
    _report("criterion 2b: unit is fixed", worst_unit, 1e-10)
    _report("criterion 2c: transfer covariance", worst_cov, 1e-10, "degrees <= 8")


def test_criterion_3_adjoint_lemma(products, grid):
    worst = 0.0
    for product in products.values():
        lmat = transfer_matrix(TransferOperator(product), N, grid)
        comp = composition_matrix(product, N)
        diff = (lmat - comp.entries.conj().T)[:CORNER, :CORNER]
        worst = max(worst, _matrix_norm(diff))
    _report("criterion 3: adjoint equals transfer truncation", worst, 1e-8, "32x32 corner")


def test_criterion_4_isometry(products):
    worst = 0.0
    for product in products.values():
        worst = max(worst, isometry_residual(composition_matrix(product, N).entries, CORNER))
    _report("criterion 4: composition isometry", worst, 1e-8, f"corner {CORNER}")


def test_criterion_5_covariance_identity(products):
    rng = np.random.default_rng(2026)
    worst = 0.0
    for product in products.values():
        for _ in range(10):
            coeffs = {
                k: complex(rng.standard_normal(), rng.standard_normal()) / (2.0 * (1 + abs(k)))
                for k in range(-8, 9)
            }
            res = covariance_residual(product, [FourierSymbol(coeffs)])[0]
            worst = max(worst, res)
    _report("criterion 5a: covariance identity", worst, 1e-6, "10 seeded symbols x 5 products")

    worst_exact = 0.0
    for name in ("z2", "z3"):
        for j in range(9):
            res = covariance_residual(products[name], [FourierSymbol({j: 1.0})])[0]
            worst_exact = max(worst_exact, res)
    _report("criterion 5b: monomial covariance exact", worst_exact, EXACT, "machine zero")


def test_criterion_6_cuntz_relations(products):
    worst = 0.0
    worst_monomial = 0.0
    for name, product in products.items():
        # completeness on the corner of the full family; isometry and orthogonality on H^2, from the
        # symbols of n W_i* W_j
        gram, *_ = inner_product_residual(product, frame(product), N)
        result = cons_residual([w.entries[:CORNER, :CORNER] for w in cuntz_family(product, N)], gram)
        worst = max(worst, *result.values())
        if name in ("z2", "z3"):
            worst_monomial = max(worst_monomial, *result.values())
    _report("criterion 6a: Cuntz relations", worst, 1e-6, "completeness/isometry/orthogonality")
    _report("criterion 6b: monomial relations exact", worst_monomial, EXACT, "machine zero")


def test_criterion_7_basis(products, grid):
    worst_gram = 0.0
    worst_fact = 0.0
    for product in products.values():
        basis = TMBasis(product, count=max(BASIS_COUNT, 9 * product.degree))
        worst_gram = max(worst_gram, gram_residual(basis, BASIS_COUNT, grid))
        worst_fact = max(worst_fact, float(np.max(factorization_residual(basis, 8, grid))))
    _report("criterion 7a: basis orthonormality", worst_gram, 1e-8, f"L={BASIS_COUNT}")
    _report("criterion 7b: basis factorization", worst_fact, 1e-10, "k <= 8")


def test_criterion_8_module_inner_tails(products):
    # module_inner_tails' reading: V_p* V_q - T_<p,q> is the Toeplitz operator of each pair's residual
    # symbol on H^2, read as its certified bound or, past 1e-6, its sampled peak; the m x m section of
    # that operator, built here, is a compression of it and lies within the bound
    worst = 0.0
    for product in products.values():
        left, right, _ = inner_product_residual(product, frame(product), N)
        low = 1 - (left.shape[-1] + 1) // 2
        for row in left - right:
            bounds, values = _certified_norms(row, 1e-6)
            worst = max(worst, *values)
            for d, bound in zip(row, bounds):
                assert _matrix_norm(_toeplitz_block(FourierSymbol._dense(low, d), CORNER, CORNER)) <= bound
    _report("criterion 8: module inner-product tails", worst, 1e-6, "on H^2")


def test_criterion_9_dynamics(products):
    worst_wind = worst_branch = worst_conj = 0.0
    margins = {}
    for name, product in products.items():
        lift = build_lift(product, GRID_SIZE)
        margins[name] = float(np.min(product.log_derivative(lift.thetas)) - 1.0)
        assert margins[name] > 0, f"{name} must be expanding"
        worst_wind = max(
            worst_wind, abs(float(lift.psi[-1] - lift.psi[0]) - 2 * np.pi * product.degree)
        )
        n = product.degree
        for t in 2 * np.pi * np.arange(64) / 64:
            branch = np.array(
                [np.exp(1j * branch_inverse(lift, k, float(t))) for k in range(1, n + 1)]
            )
            dist = np.abs(branch[:, None] - polynomial_roots(product, np.exp(1j * t))[None, :])
            worst_branch = max(
                worst_branch,
                float(np.max(np.min(dist, axis=1))),
                float(np.max(np.min(dist, axis=0))),
            )
        worst_conj = max(worst_conj, conjugacy_to_power(product, GRID_SIZE).residual)
    _report("criterion 9a: expanding lift", 0.0, 1.0, f"margins {margins}")
    _report("criterion 9b: winding total 2 pi n", worst_wind, 1e-8)
    _report("criterion 9c: branches match preimages", worst_branch, 1e-8, "64 targets")
    _report("criterion 9d: conjugacy residual", worst_conj, 1e-6)
    assert k_groups(2) == ("Z", "Z")
    assert k_groups(3) == ("Z ⊕ Z/2Z", "Z")
    assert k_groups(5) == ("Z ⊕ Z/4Z", "Z")
    print("[criterion 9e: K-groups] PASS: verbatim match for n in {2, 3, 5}")


def test_criterion_10_monomial_example_relations(products, grid):
    worst_shift = 0.0
    u = toeplitz_matrix(FourierSymbol({1: 1.0}), N)
    for name in ("z2", "z3"):
        product = products[name]
        family = cuntz_family(product, N)
        for k in range(product.degree - 1):
            worst_shift = max(worst_shift, _matrix_norm((u @ family[k]).entries - family[k + 1].entries))
        wrap = (u @ family[-1]).entries - (family[0] @ u).entries
        worst_shift = max(worst_shift, _matrix_norm(wrap))
    _report("criterion 10a: monomial shift relations", worst_shift, EXACT, "machine zero")

    rng = np.random.default_rng(424242)
    worst_comm = 0.0
    for product in products.values():
        symbols = [FourierSymbol({j: 1.0}) for j in range(5)]
        symbols.append(
            FourierSymbol({k: complex(rng.standard_normal(), rng.standard_normal()) for k in range(5)})
        )
        worst_comm = max(worst_comm, *commutation_residual(product, symbols, CORNER, grid))
    _report("criterion 10b: analytic commutation", worst_comm, 1e-8, "degree <= 4")
