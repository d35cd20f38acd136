"""Zeros of generalized hypergeometric polynomials and their limiting curves.

Exact polynomial construction, certified multiprecision root finding, the
limiting algebraic curve of the Cauchy transform, harmonic level-curve
machinery, and quantitative clustering experiments, with a CLI that wires
them into reproducible figure-grade runs.

The public names below are resolved on first access (PEP 562), so importing
the package, or a module of it such as ``hyperzeros.cli``, loads only the
modules that are used: the exact and root-finding layers run without numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "exact": ("ComplexRational",),
    "hyppoly": (
        "HypPolynomial",
        "ParameterSchedule",
        "apply_hypergeometric_operator",
        "build_polynomial",
        "characteristic_roots",
        "is_general_type",
        "pochhammer",
    ),
    "rootfinding": (
        "RootCountingMeasure",
        "cauchy_transform_at",
        "find_roots",
        "log_potential_at",
        "vieta_check",
    ),
    "algcurve": (
        "BivariateCurve",
        "BranchPointSet",
        "branch_points",
        "branches_at",
        "build_curve",
        "verify_rational_branches",
    ),
    "potential": (
        "HarmonicSystem",
        "LevelCurve",
        "RegionGrid",
        "classify_regions",
        "harmonic_value_by_integration",
        "make_harmonic_system",
        "psi_value",
        "trace_conjectured_loop",
        "trace_level_curve",
    ),
    "experiments": (
        "cauchy_convergence",
        "k_set_score",
        "halfplane_restriction",
        "winding_number",
        "zero_curve_distance",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
