"""bellkit: exact-arithmetic partial Bell polynomials and their identities.

Everything is computed over arbitrary-precision rationals; every identity
check is an exact equality.  See the README for a tour.
"""

from .bell import bell_symbolic, bell_value, stirling1_unsigned, stirling2
from .egf import TruncatedEGF, egf_log, egf_pow
from .identities import (
    DEFAULT_ALPHAS,
    AffineForm,
    certify_double_sums,
    check_alpha_constant,
    check_bell_convolution,
    check_general_binomial,
    check_hagen_rothe,
    check_negative_one,
    check_stirling_recurrence,
    check_th1,
    check_vanishing_sum,
    check_zerosum,
    th1_plan,
    th1a_weight,
)
from .partitions import IndexVector, enumerate_pi, strip_trailing_zeros
from .rationals import binomial_general, rat, rat_str
from .reports import GridResult, IdentityReport, InputError, PoleError, ReportRun
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
    egf_apply_poly,
    forward_transform,
    inverse_transform,
    lambda_identity_check,
    q_function,
    q_product_check,
    q_recurrence_check,
)

__version__ = "0.1.0"
