"""bellkit: exact-arithmetic partial Bell polynomials and their identities.

Everything is computed over arbitrary-precision rationals; every identity
check is an exact equality.  See the README for a tour.
"""

from .bell import (
    bell_eval,
    bell_recursive,
    bell_symbolic,
    bell_table,
    stirling1_unsigned,
    stirling2,
)
from .egf import TruncatedEGF, egf_apply_poly, egf_log, egf_polyval, egf_pow
from .identities import (
    DEFAULT_ALPHAS,
    AffineForm,
    GridResult,
    IdentityReport,
    PoleError,
    certify_th1_grid,
    check_alpha_constant,
    check_bell_convolution,
    check_general_binomial,
    check_hagen_rothe,
    check_negative_one,
    check_stirling_recurrence,
    check_th1,
    check_th1c,
    check_vanishing_sum,
    check_zerosum,
    th1a_weight,
)
from .partitions import IndexVector, enumerate_pi, strip_trailing_zeros, w_coefficient
from .rationals import Rational, binomial_general, factorial, multinomial, rat, rat_str
from .sequences import (
    SequenceSpec,
    SequenceTooShort,
    factorials,
    named_sequence,
    naturals,
    ones,
    random_rationals,
)
from .sparsepoly import SparsePoly
from .transforms import (
    TransformParams,
    forward_transform,
    inverse_transform,
    inverse_value,
    lambda_identity_check,
    log_polynomials,
    potential_polynomials,
    q_function,
    q_product_check,
    q_recurrence_check,
)

__version__ = "0.1.0"
