"""Exact polyhedral-cone refinement for 3-term theta series relations.

The package decides which triples of positive-definite binary quadratic
forms can satisfy a rational 3-term linear relation among their theta
series, by exact rational cone computations: no floating point is used
anywhere.
"""

from .geometry import Cone, ConeDimensionError, NonPointedConeError, product3
from .quadform import IntBQF, reduce_gl2, sp_theta_coeffs, theta_coeffs
from .minima import min_complement, min_n, min_of_finite, preceq
from .ksets import kset, kset_chain, kset_zero_test
from .refinement import linset, run_algorithm, stop_set
from .relations import classify, key_lemma_decompose, normalize, verify_relation

__all__ = [
    "Cone",
    "ConeDimensionError",
    "IntBQF",
    "NonPointedConeError",
    "classify",
    "key_lemma_decompose",
    "kset",
    "kset_chain",
    "kset_zero_test",
    "linset",
    "min_complement",
    "min_n",
    "min_of_finite",
    "normalize",
    "preceq",
    "product3",
    "reduce_gl2",
    "run_algorithm",
    "sp_theta_coeffs",
    "stop_set",
    "theta_coeffs",
    "verify_relation",
]

__version__ = "0.1.0"
