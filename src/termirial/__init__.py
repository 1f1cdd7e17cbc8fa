"""Exact termirial arithmetic with brute-force oracles, a chain loop-nest
analyzer, and grey-square figure rendering."""

from . import fractal, loopnest
from .budget import BudgetExceededError
from .core import (
    binomial,
    convolution_terms,
    pascal_check,
    termirial,
    termirial_p,
)
from .oracle import Decomposition, decompose_by_leading, nested_sum, subsets

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "Decomposition",
    "binomial",
    "convolution_terms",
    "decompose_by_leading",
    "fractal",
    "loopnest",
    "nested_sum",
    "pascal_check",
    "subsets",
    "termirial",
    "termirial_p",
]
