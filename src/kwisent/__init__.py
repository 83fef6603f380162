"""k-wise independent sample spaces from binary linear codes, with
numerically certified entropy lower bounds.

The package builds bounded-independence distributions on {0,1}^n out of
small GF(2) codes, measures their Shannon and collision entropies, and
certifies the entropy lower bounds numerically: a fast Walsh-Hadamard
kernel supplies spectra and convolutions, exact Hamming-ball eigenvalues
replace asymptotic estimates, and every inequality in the two proof chains
is evaluated at finite n with explicit slack.
"""

from .balls import (
    BallSpectrum,
    asymptotic_lambda,
    lambda_ball,
    lambda_ball_dense_oracle,
    min_radius,
    predicted_radius,
)
from .bounds import (
    asymptotic_entropy_leading_term,
    binary_entropy,
    binomial_entropy_bound,
    bound_row,
    certified_slacks,
    evaluate,
    halfwise_applies,
    halfwise_entropy_bound,
    renyi2_entropy,
    renyi2_from_density,
    shannon_entropy,
    shannon_from_density,
    smoothed_entropy_bound,
)
from .codes import (
    BinaryMatrix,
    LinearCode,
    SampleSpace,
    hamming_code,
    hamming_parity_check,
    parity_sampler_space,
    point_space,
    simplex_code,
    uniform_code_space,
    uniform_space,
)
from .cube import (
    CubeFunction,
    Density,
    Spectrum,
    adjacency_apply,
    convolve,
    convolve_direct,
    inner_product,
    inverse_wht,
    level_max_abs,
    level_profile,
    point_mass_density,
    uniform_density,
    weight_one_indicator,
    wht,
)
from .errors import (
    DimensionError,
    FormatError,
    IndependenceError,
    KwisentError,
    ResourceLimitError,
)
from .kwise import (
    Distribution,
    density_from_space,
    independence_order,
    is_kwise,
    marginal_check,
    marginal_order,
)
from .smoothing import (
    ChainReport,
    CheckLine,
    SmoothingReport,
    certify_order,
    halfwise_chain,
    smooth,
    smoothing_chain,
    verify_smoothing,
)

__version__ = "0.1.0"
