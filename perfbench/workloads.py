"""Inputs of the benchmark workloads, generated from the workload seed alone.

The verify workloads are fixed configurations (plus one seeded product on
verify-default).  The query stream is an unbounded seeded sequence of
distinct random products; item ``i`` depends only on the seed and ``i``, so
a block of the stream is the same whichever process generates it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import blaschkeops as bo
from blaschkeops.verify import RunConfig

_TWO_PI = 2.0 * np.pi

# Query parameters: the four single-query paths of the CLI.
QUERY_TARGETS = 8
SYMBOL_BAND = 8
SYMBOL_GRID = 1024
LIFT_GRID = 4096
BASIS_COUNT = 32
BASIS_GRID = 4096
QUERY_DEGREES = np.arange(2, 17)
QUERY_BLOCK = len(QUERY_DEGREES)  # products per query pass: 60 queries
QUERY_MAX_RADIUS = 0.98


# Small configuration that reaches every verify check in well under a second.
WARMUP_CONFIG = RunConfig(zeros=(0j, 0.5), truncation=64, corner=16, grid=256, basis_count=8)


def _random_zeros(rng, degree: int, max_radius: float) -> tuple:
    """``0`` followed by ``degree - 1`` zeros uniform in the disk of the radius."""
    radius = max_radius * np.sqrt(rng.uniform(size=degree - 1))
    angle = rng.uniform(0.0, _TWO_PI, size=degree - 1)
    return (0j, *(complex(z) for z in radius * np.exp(1j * angle)))


def verify_configs(workload: str, seed: int) -> list:
    """``(label, RunConfig)`` pairs; each RunConfig validates itself on construction."""
    if workload == "verify-default":
        rng = np.random.default_rng(seed)
        zeros = _random_zeros(rng, 3, 0.6)
        angle = float(rng.uniform(0.0, _TWO_PI))
        sizes = dict(truncation=256, corner=32, grid=4096, basis_count=32)
        items = [
            ("z^2", 0.0, (0j, 0j)),
            ("z^3", 0.0, (0j, 0j, 0j)),
            ("[0,0.5]", 0.0, (0j, 0.5)),
            ("[0,0.3+0.4i]", 0.0, (0j, 0.3 + 0.4j)),
            ("random3", angle, zeros),
        ]
    elif workload == "verify-large":
        sizes = dict(truncation=1024, corner=64, grid=16384, basis_count=32)
        items = [("[0,0.5]", 0.0, (0j, 0.5))]
    elif workload == "verify-nearcircle":
        # The documented failing cases; kept as they are so the defects show.
        sizes = dict(truncation=256, corner=4, grid=16384, basis_count=32)
        items = [("[0,0.9]", 1.3, (0j, 0.9)), ("[0,0.95]", 1.3, (0j, 0.95)), ("[0,0.99i]", 1.3, (0j, 0.99j))]
    else:
        raise ValueError(f"not a verify workload: {workload!r}")
    return [
        (label, RunConfig(lambda_angle=angle, zeros=zeros, seed=seed, **sizes))
        for label, angle, zeros in items
    ]


@dataclass(frozen=True)
class QueryItem:
    """One product of the query stream with the arguments of its four queries."""

    index: int
    product: bo.BlaschkeProduct
    targets: np.ndarray
    symbol: bo.FourierSymbol


def query_item(seed: int, index: int) -> QueryItem:
    """Item ``index`` of the stream: degree 2-16, ``|z_k| <= 0.98``, random phase.

    Each block of ``QUERY_BLOCK`` consecutive items holds every degree once,
    in a seeded order, so blocks cost alike and ``pass_s`` does not swing
    with the degrees one seed happens to draw.
    """
    block, slot = divmod(index, QUERY_BLOCK)
    degree = int(QUERY_DEGREES[np.random.default_rng([seed, 0, block]).permutation(QUERY_BLOCK)[slot]])
    rng = np.random.default_rng([seed, 1, index])
    zeros = _random_zeros(rng, degree, QUERY_MAX_RADIUS)
    product = bo.make_blaschke(np.exp(1j * rng.uniform(0.0, _TWO_PI)), zeros)
    targets = np.exp(1j * rng.uniform(0.0, _TWO_PI, size=QUERY_TARGETS))
    band = np.arange(-SYMBOL_BAND, SYMBOL_BAND + 1)
    coeffs = rng.standard_normal((band.size, 2)) @ np.array([1.0, 1j]) / (2.0 * (1 + np.abs(band)))
    symbol = bo.FourierSymbol(dict(zip(band.tolist(), coeffs.tolist())))
    return QueryItem(index=index, product=product, targets=targets, symbol=symbol)


def query_block(seed: int, block: int) -> list:
    return [query_item(seed, block * QUERY_BLOCK + i) for i in range(QUERY_BLOCK)]
