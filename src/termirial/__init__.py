"""Exact termirial arithmetic with brute-force oracles, a chain loop-nest
analyzer, and grey-square figure rendering.

Importing the package loads none of its submodules: each public name, and
the `fractal` and `loopnest` submodules, is imported on first use (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines; fractal and loopnest are public themselves
_EXPORTS = {
    "budget": ["BudgetExceededError"],
    "core": ["binomial", "convolution_terms", "pascal_check", "termirial", "termirial_p"],
    "fractal": ["fractal"],
    "loopnest": ["loopnest"],
    "oracle": ["Decomposition", "decompose_by_leading", "nested_sum", "subsets"],
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_HOMES[name]}")
    value = module if name == _HOMES[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
