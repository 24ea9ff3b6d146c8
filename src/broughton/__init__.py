"""Exact invariants of generalized Broughton curve arrangements.

The package computes, with exact rational arithmetic throughout, the first
characteristic variety of the complement of the plane curve arrangement
attached to a pair of univariate polynomials, together with the supporting
invariants: admissibility hypotheses, Betti numbers, the multiple-fiber
divisor and orbifold group of the associated pencil, functional
decomposition of univariate polynomials, and resultant-based connectivity
certificates.

Importing the package loads none of its submodules.  Each public name in
``__all__`` is resolved on first access (PEP 562) from the submodule that
defines it, and so is each of those submodules' names, so the command
line pays only for the modules a command runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS_BY_MODULE = {
    "arrangement": (
        "BettiNumbers",
        "CharVarietyReport",
        "FiberDivisor",
        "Hypotheses",
        "HypothesesViolated",
        "TorsionCharacter",
        "TranslatedTorus",
        "betti",
        "characteristic_variety",
        "check_hypotheses",
        "special_fiber_divisor",
    ),
    # Internal to connectivity_certificate, which checks its inputs.
    "bipoly": (),
    "decompose": (
        "CONNECTED_CERTIFIED",
        "ConnectivityCertificate",
        "Decomposition",
        "connectivity_certificate",
        "is_decomposable",
        "uni_decompose_at",
    ),
    "parser": (
        "ExponentRangeError",
        "ParseError",
        "UnknownVariableError",
        "parse_uni",
    ),
    "report": (
        "ReportDocument",
        "SCHEMA_VERSION",
        "build_report",
        "render_json",
        "render_text",
        "report_mapping",
        "zahid_polynomials",
    ),
    "squarefree": (
        "SquarefreeDecomposition",
        "squarefree_decompose",
    ),
    "unipoly": (
        "NEG_INF",
        "UniPoly",
        "exact_div",
        "gcd",
    ),
}
_EXPORTS = {
    name: module for module, names in _EXPORTS_BY_MODULE.items() for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS_BY_MODULE:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
