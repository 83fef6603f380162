"""k-wise independent sample spaces from binary linear codes, with
numerically certified entropy lower bounds.

The package builds bounded-independence distributions on {0,1}^n out of
small GF(2) codes, measures their Shannon and collision entropies, and
certifies the entropy lower bounds numerically: a fast Walsh-Hadamard
kernel supplies spectra and convolutions, exact Hamming-ball eigenvalues
replace asymptotic estimates, and every inequality in the two proof chains
is evaluated at finite n with explicit slack.
"""

__version__ = "0.1.0"
