"""Numerical operator models for finite Blaschke products on the circle.

Evaluation and circle geometry of the products themselves, the weighted
preimage-sum (transfer) operator, truncated Toeplitz/composition matrices
with residual checks for their identities on the Hardy space, the
adapted rational orthonormal basis with its Cuntz isometry family, the
expanding circle dynamics with its conjugacy to a monomial map, and a
configuration-driven verification suite tying it all together.
"""

from .blaschke import BlaschkeProduct, ConvergenceError, PreimageSet, make_blaschke
from .circle import CircleGrid, FourierSymbol, fft, fourier_coefficients
from .dynamics import CircleLift, ConjugacyMap, branch_inverse, build_lift, conjugacy_to_power, k_groups
from .hardy import (
    TruncatedOperator,
    commutation_residual,
    composition_matrix,
    covariance_residual,
    isometry_residual,
    operator_norm,
    toeplitz_matrix,
)
from .tmbasis import (
    TMBasis,
    cons_residual,
    cuntz_family,
    factorization_residual,
    gram_residual,
    inner_product_residual,
    tm_element,
)
from .transfer import TransferOperator, partial_fraction_weights, transfer_matrix

__version__ = "0.1.0"
