"""Every float tolerance of the package, one name per quantity.

Each constant bounds one quantity.  Its docstring gives the value, the
functions and check lines that use it, and why the value is safe: a rounding
bound where there is one; otherwise it says that the value is a modelling
threshold or a stopping rule.  No command-line option or function parameter
overrides these values: no library function takes a tolerance.

Notation (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
ch. 3-4): u = 2^-53 is the unit roundoff of a double and
gamma_m = m u / (1 - m u).  A sum of terms x_i evaluated by a tree of depth
h is off by at most gamma_h * sum |x_i| (section 4.2): h = m - 1 for a
left-to-right sum of m terms, about log2 m for numpy's pairwise sum, and
h = n for each output of the length-2^n Walsh-Hadamard butterfly.  Dense
vectors exist only for n <= 26 (cube.DIMENSION_CAP, checked by
cube.check_dimension).  The figures below are stated at n = 32, where
gamma_n <= 3.6e-15, so they are upper bounds for every dense vector.
"""

COEFF_ZERO = 1e-9
"""Largest |f^(S)| read as zero, for a Fourier coefficient of a mean-1 density.

Used by kwise.order_from_levels, the one order rule: kwise.independence_order
(the `order` that bounds.evaluate and `analyze` report) and the chain
precondition smoothing.certify_order read the order through it.  Also the
right-hand side of the check lines middle_band_vanishes and order_preserved.

Rounding: wht evaluates f^(S) = 2^-n sum_x f(x) chi_S(x) with the butterfly,
a depth-n tree, and scales by the exact power 2^-n.  So a coefficient is off
by at most gamma_n E|f| = gamma_n (f >= 0, mean 1), plus about 2u from the
rounding of f itself: under 4e-15 at n = 32.  A coefficient that vanishes in
exact arithmetic reads far below 1e-9; measured, at most 0.08 n u on random
densities at n = 10..20.  The other side is a modelling threshold: a true
coefficient in (0, 1e-9] reads as zero.  For the uniform distribution on a
linear code every coefficient is exactly 0 or 1.
"""

MARGINAL_ZERO = 1e-9
"""Largest |P(X_T = a) - 2^-|T|| read as zero, for one marginal's deviation.

Used by kwise.marginal_order (the `marginal_order` that `analyze` reports)
and by verify_smoothing in tests/oracles.py, which reads a smoothed space's
largest marginal deviation (marginal_check there) against it.

Rounding: kwise.marginal_order reads each P(X_T = a) from a lattice of
partial marginals.  For m support points, 2^r is the least power of two at
or above 4m (2^n at most) and j0 = n - r.  Each partial sum starts as one
bincount bin, a left-to-right sum over the support points that share its
bits: at most m terms, and at most min(m, 2^j0) <= 2^((n-2)/2) where the
bin holds the last r coordinates too, as it does unless T lies within the
first j0.  Those r coordinates are then summed out, each by one add of two
halves, or, for the last ones of a subset at the lattice's top level, by
numpy's pairwise sum over at most 2^r values, whose tree is at most r + 18
adds deep.  So a uniform marginal is off by at most about
(m + 2r + 18) u 2^-|T|.  The runs `analyze` admits have m <= 2^n and
n m <= kwise.MARGINAL_WORK_LIMIT (level 1's price), so m < 4.4e6 and the
bound is below 2.5e-10 at every n.  marginal_check in tests/oracles.py sums
each bin over all m points, off by at most about m u / 2 (below 1e-9 up to
m = 1.8e7).  Reading a true deviation in (0, 1e-9] as zero is a modelling
threshold, as for COEFF_ZERO.  Spaces of linear codes have dyadic
probabilities, whose marginal sums are exact.
"""

ENTROPY_SLACK = 1e-9
"""Allowed error, in bits, when an entropy is compared with another entropy
or with a cap.

Used by `analyze`'s exit status (a certified bound whose slack is below
-1e-9 fails), by the check lines shannon_above_collision,
smoothed_shannon_above_collision, entropy_subadditivity,
perturbation_entropy_cap and ball_volume_vs_binary_cap, and by
the subadditivity test of verify_smoothing in tests/oracles.py.

Rounding: a Shannon entropy -sum p log2 p has each term off by a few u
relative and a pairwise sum of them off by about gamma_(log2 m + 8) times
sum |p log2 p| = H <= n, so by at most about 50 u n = 1.8e-13 at n = 32.
The collision entropy n - log2 E[f^2], log2 of an exact integer ball volume
and n H(r/n) are a few elementary operations, each off by a few u times n.
The slack is over a thousand times either side's error.
"""

MOMENT_SLACK = 1e-8
"""Allowed error of a second moment E[g^2] or a quadratic form <Ag, g> in a
chain line.

Used by the check lines rayleigh_nonnegative, rayleigh_tail_bound and
second_moment_bound (half-independence chain), and rayleigh_lower_bound,
rayleigh_upper_bound, combined_second_moment and second_moment_vs_n
(smoothing chain).

Rounding: E[g^2] and <Ag, g> are each one sum of 2^n nonnegative products
(cube.inner_product, in numpy's einsum loop, not BLAS, so the order of the
sum does not follow the thread count), off by at most gamma_(2^n) relative
in any order; adjacency_apply adds n nonnegative neighbours per point
before the second sum, another gamma_n.  On the inputs the chains certify
these numbers are at most n(n + 1): E[g^2] <= n + 1 is what the chains
prove, and |<Ag, g>| <= n E[g^2].  So each is off by at most about
(2^n + n) u n(n + 1): 2e-9 at n = 16 and 1e-8 at n = 18.  Above that the
worst case exceeds the slack, though such errors grow about as
sqrt(2^n) u in practice (Higham, section 4.2): 6.4e-10 at n = 26, the
dense cap.  The eigenvalue lam is the lower end of
the bracket balls.lambda_ball returns, within about 2 r u relative of the
top eigenvalue, on either side (balls module docstring); over n = 1..40 it
is one ulp above it in 50 of 747 cases.  A low lam only loosens
rayleigh_lower_bound and combined_second_moment; a high one moves their
left sides, lam E[g^2] and (lam - (n - 2k)) E[g^2], by at most
2 r u lam E[g^2] <= 2 u n^2 (n + 1), since r <= n, lam <= n and
E[g^2] <= n + 1: 7.5e-12 at n = 32, over a thousand times inside the slack.
The lines are evaluated on the vectors the chain computed, which they
certify as given.
"""

CHAIN_ENTROPY_SLACK = 1e-8
"""Allowed error, in bits, of a chain line that carries moment lines into bits.

Used by the check lines collision_entropy_bound and
smoothed_collision_entropy, which take n - log2 of a second moment, and by
entropy_bound, the conclusion of both chains.

Propagation: a second moment M that passes its line within MOMENT_SLACK
moves n - log2 M by at most MOMENT_SLACK / (M ln 2), at most 0.73
MOMENT_SLACK for the bounds M = n + 1 >= 2 and M = n >= 2 these lines use.
entropy_bound adds the ENTROPY_SLACK lines it rests on: one in the
half-independence chain (8.2e-9 in all), four in the smoothing chain
(under 1e-8 for n >= 3; 1.12e-8 at n = 2).  So, at those n, a chain whose
premises pass does not fail its conclusion for want of slack.  Rounding of
the entropies themselves is as for ENTROPY_SLACK.
"""

RAYLEIGH_MATCH = 1e-7
"""Allowed |<Af, f> - sum_j (n - 2j) L_j|, with L_j the Fourier mass of f at
level j: the space-domain and the spectral Rayleigh quotient.

Used by the check line rayleigh_spectral_match (half-independence chain).

Rounding: as for MOMENT_SLACK, each side is off by at most about
(2^n + n) u n(n + 1), since an input that passes the chain's precondition
has E[f^2] <= n + 1; the spectral side sums each level's squared
coefficients left to right (np.bincount).  The two together stay under
1e-7 for n <= 20; above that the value rests on the typical error, as for
MOMENT_SLACK.  The value 1e-7 is ten times MOMENT_SLACK; it is not derived
from a tighter bound.
"""

ASSOCIATIVITY = 1e-10
"""Allowed |<K * (d * f), g> - <(K * d) * f, g>|, with K the weight-one indicator.

Used by the check line convolution_associativity (smoothing chain).

What it checks: a convolution keeps its spectral product, so each side is
one product of spectra, K^ (D^ F^) or (K^ D^) F^, paired with g by Plancherel
(cube.spectral_inner_product, a sum over S with G^); no butterfly runs in the
line.  It checks the two product orders.  The butterfly round trip is checked
by acceptance criterion 7 and tests/test_cube.py.

Rounding: K has mean n 2^-n, so both sides equal 2^-n <Ag, g>.  K^ and D^
are level sums, correctly rounded (K^ exactly, |K^(S)| <= n 2^-n); F^ and G^
are transforms of mean-1 densities, each at most 1 in size, and the two
sides share them.  Each side sums 2^n terms of total size at most n, in
numpy's einsum loop (not BLAS, so the order does not follow the thread
count).  The two product orders differ by at most 2 u n in all, and each
sum, in any order, is off by at most gamma_(2^n) n: together under 1e-10
for n <= 14.  Above that the value is a threshold resting on measurement,
not a bound: both sides run the same loop on products that differ only in
their last bits, and the measured |lhs - rhs| is 0 on the Hamming code of
length 15 and a random n = 20 code, at k = 3 and 4.
"""

CONVOLUTION_POINTWISE = 1e-10
"""Allowed pointwise error of an FWHT convolution of two mean-1 densities.

Used by smoothing._smoothed_density: a value below -1e-10 means the inputs
were not densities, and values in [-1e-10, 0) are rounding and are clipped
to 0 (smoothing_chain, and smooth in tests/oracles.py).  Also the largest
|convolve - convolve_direct| that verify_smoothing in tests/oracles.py
accepts.

Rounding: f^ and d^ are each off by at most gamma_n (COEFF_ZERO) and at most
1 in size, so their product by about 2 gamma_n; the inverse butterfly sums
2^n products and adds gamma_n sum_S |f^ d^| <= gamma_n 2^n.  A value is
therefore off by at most about 3 n u 2^n: 3.4e-12 at n = 10 and 7.6e-11 at
n = 14, so the bound holds for n <= 14.  Above that the value is a
threshold resting on measurement, not a bound (the tests compare with
convolve_direct, in tests/oracles.py, up to n = 15): the measured errors
are about 0.5 n u at n = 14, 16 and 20, for a random density convolved with
a ball density.
"""

EIGEN_RESIDUAL = 1e-9
"""Eigen-residual ||T u - lam u|| (u a unit vector) at which a power
iteration may stop, and the shortfall of lam allowed against n - 2k + 1.

Used by the Perron-profile iteration behind balls.BallSpectrum.radial_profile
and by lambda_ball_dense_oracle in tests/oracles.py (stopping rule), and by
the check line eigenvalue_threshold.

Bound: for a symmetric T and a unit u, some eigenvalue of T lies within
||T u - lam u|| of the Rayleigh quotient lam (Parlett, *The Symmetric
Eigenvalue Problem*, Theorem 4.5.1), so a converged iteration is within
1e-9 of an eigenvalue.  The eigenvalue that eigenvalue_threshold reads comes
from balls.lambda_ball's bisection instead, within about 2 r u relative of
the exact one (balls module docstring): at most 2.3e-13 at n = 32, above the
cube's dimension cap, so the 1e-9 slack covers it many times over.  The
radius itself is decided exactly, in integers, by balls.min_radius.
"""

EIGEN_DENSITY_RELATIVE = 1e-8
"""Allowed max(lam d - A d) for the ball density d, relative to
max(1, lam max d).

Used by the check line eigen_density_pointwise (smoothing chain), whose
tolerance is this value times max(1, lam max d).

Not a rounding bound.  d is radial, so lam d - A d is evaluated once per
weight class, lam d(w) - w d(w - 1) - (n - w) d(w + 1), and its largest class
value is its largest value on the cube.  On the ball it is the power
iteration's eigen-residual: the weight-w entry of the symmetric residual,
divided by sqrt(C(n, w)) and scaled with d.  So it is the
eigenvector's own error, which EIGEN_RESIDUAL leaves at a fraction of 1e-9
relative to the density's scale (measured 3.1e-10 at n = 15 and 3.7e-10 at
n = 20, k = 3).  The value 1e-8 is a threshold about 30 times above that.
"""

RAYLEIGH_STEP = 1e-12
"""Change of the Rayleigh quotient between two steps of the Perron-profile
power iteration (balls.BallSpectrum.radial_profile) below which it may stop,
once EIGEN_RESIDUAL also holds.

A stopping rule, not an error bound; the bound on the vector is
EIGEN_RESIDUAL.  The rule keeps the iteration going while the quotient
still moves by more than 1e-12, about 9,000 u.  The printed eigenvalue does
not depend on it: that comes from the bisection in balls.lambda_ball.
"""

LOG_FLOOR = 1e-300
"""Floor under the entries of a computed Perron eigenvector before their
logarithm (balls.BallSpectrum.radial_profile, built in logs).

Not an error bound.  The top eigenvector of the irreducible nonnegative
radial operator is entrywise positive (Perron-Frobenius), so an entry at or
below 0 is an underflow or a rounding; the floor keeps the logarithm finite
(about -690.8).  It lies above the smallest normal double, 2.2e-308.
"""

TOTAL_MASS = 1e-12
"""Allowed |total mass - 1| of a sample space built inside the program: the
sum of its probabilities, checked by codes.SampleSpace alone.

Input validation.  Every builder normalizes with one division
(probs / probs.sum(), vals / vals.mean(), or a radial profile divided by its
correctly rounded mean), after which a pairwise sum of m terms is 1 within
about gamma_(log2 m + 8), under 5e-15 for m <= 2^32, and a radial mean,
correctly rounded, within 3 u.  The threshold passes these with a margin of
200 and refuses a vector that was not normalized.

Outside values reach a density only through SampleSpace.  The densities the
program builds (SampleSpace.density, smoothing._smoothed_density and
balls.BallSpectrum.density) are nonnegative by construction (checked
probabilities, a clip, a Perron profile) and of mean 1 within this value by
their division, so nothing checks them again; tests/test_tolerances.py
holds each to both facts.  The mean is also a density's empty-set
coefficient.
"""

FILE_TOTAL_MASS = 1e-9
"""Allowed |sum - 1| of the probabilities read from a space file
(codes.SampleSpace.from_text; its error message and the README quote the
value as 1e-9).

Input-format rule, not a rounding bound: the probabilities in a file are
decimals, possibly rounded by whoever wrote them.  Their sum, taken left to
right, must be 1 within 1e-9; they are then divided by that sum.  Files
that `construct` writes print each probability with repr, so their sums are
off by rounding only, at most (m - 1) u for m points: below the threshold
for up to 9 x 10^6 points.
"""
