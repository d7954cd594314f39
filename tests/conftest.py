import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from blaschkeops import CircleGrid, make_blaschke

# Property tests draw the same examples on every run and leave no database.
settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")


def random_product(seed, degree=3, max_radius=0.6):
    """Seeded product: zeros uniform in the disk of the given radius, random phase."""
    rng = np.random.default_rng(seed)
    zeros = [0j]
    for _ in range(degree - 1):
        radius = max_radius * np.sqrt(rng.uniform())
        angle = rng.uniform(0.0, 2.0 * np.pi)
        zeros.append(radius * np.exp(1j * angle))
    lam = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return make_blaschke(lam, zeros)


def wide_product(index):
    """Item ``index`` of a seeded stream of wide products: each block of 15 items holds every
    degree 2-16 once, in a seeded order; ``0`` and ``degree - 1`` zeros uniform in the disk of
    radius 0.98, and a random phase."""
    block, slot = divmod(index, 15)
    degree = 2 + int(np.random.default_rng([7, 0, block]).permutation(15)[slot])
    rng = np.random.default_rng([7, 1, index])
    radius = 0.98 * np.sqrt(rng.uniform(size=degree - 1))
    angle = rng.uniform(0.0, 2.0 * np.pi, size=degree - 1)
    return make_blaschke(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)), [0j, *(radius * np.exp(1j * angle))])


def closed_form_element(basis, l, z):
    """Basis element written out as its closed-form product, one factor at a time:
    ``alpha_l sqrt(1 - |beta_l|^2) / (1 - conj(beta_l) z) * prod_(k < l) (z - beta_k) / (1 - conj(beta_k) z)``."""
    z = np.asarray(z, dtype=complex)
    beta = basis.beta(l)
    out = basis.alpha(l) * np.sqrt(1.0 - abs(beta) ** 2) / (1.0 - np.conj(beta) * z)
    for k in range(l):
        out = out * (z - basis.beta(k)) / (1.0 - np.conj(basis.beta(k)) * z)
    return out


def polynomial_roots(product, w, polish=0):
    """Independent oracle for the preimages of w: companion-matrix roots of ``num - w den``.

    ``R = num/den`` with ``num = phase prod (z - z_k)`` and
    ``den = prod (1 - conj(z_k) z)``; coefficients highest order first.
    ``polish`` Newton steps on ``R - w`` itself, through ``evaluate`` and the
    product-rule ``derivative``, restore the digits that the coefficient form
    loses next to a repeated zero near the circle.
    """
    num = product.phase * np.poly(product.zeros)
    den = np.array([1.0 + 0j])
    for zk in product.zeros:
        den = np.polymul(den, [-np.conj(zk), 1.0])
    roots = np.roots(np.polysub(num, w * den))
    for _ in range(polish):
        roots = roots - (product.evaluate(roots) - w) / product.derivative(roots)
    return roots


@st.composite
def blaschke_products(draw, max_degree=16):
    """Degree 2 to ``max_degree`` (16 unless given), zeros in the closed disk of radius 0.98, random phase."""
    degree = draw(st.integers(2, max_degree))
    unit = st.floats(0.0, 1.0)
    zeros = [0j] + [
        0.98 * draw(unit) * np.exp(2j * np.pi * draw(unit)) for _ in range(degree - 1)
    ]
    return make_blaschke(np.exp(2j * np.pi * draw(unit)), zeros)


@pytest.fixture(scope="session")
def grid_big():
    return CircleGrid(4096)


@pytest.fixture(scope="session")
def grid_small():
    return CircleGrid(256)


@pytest.fixture(scope="session")
def square():
    return make_blaschke(1.0, [0, 0])


@pytest.fixture(scope="session")
def cube():
    return make_blaschke(1.0, [0, 0, 0])


@pytest.fixture(scope="session")
def half():
    # zeros [0, 0.5]: the worked example threaded through most tests
    return make_blaschke(1.0, [0, 0.5])


@pytest.fixture(scope="session")
def spiral():
    return make_blaschke(1.0, [0, 0.3 + 0.4j])
