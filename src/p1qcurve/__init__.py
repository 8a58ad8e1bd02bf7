"""Exact-rational toolkit for a quantum spectral curve.

Everything here is computed in exact arithmetic (integers and fractions;
no floats anywhere):

* :mod:`p1qcurve.exactcore` -- polynomials, rational functions, truncated
  Laurent/power series, multivariate series;
* :mod:`p1qcurve.partitions` -- integer partitions, hooks, dimension
  counts, and the hook-sum identities;
* :mod:`p1qcurve.qcurve` -- degree-graded partition sums as rational
  functions, their shift recursion, vanishing-polynomial family, and the
  quadratic lattice relations;
* :mod:`p1qcurve.wedge` -- operator expansions on the fermionic Fock
  space: connected vacuum expectations, stationary invariants, unit-class
  insertions;
* :mod:`p1qcurve.toprec` -- the residue recursion on the plane curve
  x = z + 1/z, its primitives, transition matrices, and large-x
  expansions cross-checked against the Fock-space engine;
* :mod:`p1qcurve.wavefunction` -- the wave-function assembly: Bernoulli
  prefactor, shift-operator calculus, degree-graded comparison, and the
  factored verification of the difference equation;
* :mod:`p1qcurve.cli` -- the ``p1qc`` command-line front end.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# module -> the names the package exports from it.  Nothing is imported here:
# a module loads on the first read of one of its names (or of the module
# itself), so ``import p1qcurve`` costs only this file.
_EXPORTS = {
    "exactcore": (
        "ExactError",
        "MultiSeries",
        "Polynomial",
        "RationalFunction",
        "TruncatedSeries",
        "TruncationError",
        "partial_fractions",
        "rational_to_json",
    ),
    "partitions": (
        "dimension",
        "hook_lengths",
        "hook_product",
        "hook_refinement_check",
        "partitions",
        "summation_corollary_check",
    ),
    "qcurve": (
        "toda_quadratic_check",
        "verify_xd_recursion",
        "x_laguerre",
        "x_partition",
        "xd_pole_report",
        "y_evaluate",
        "y_polynomial",
    ),
    "wedge": (
        "connected_coefficient",
        "stationary_invariant",
        "unit_insertions",
        "unstable_series_check",
    ),
    "toprec": (
        "fgn_x_expansion",
        "ns_expansion_check",
        "primitive_fgn",
        "s0_s1_closed_forms",
        "s_matrix",
        "theta_expansion_check",
        "toprec_wgn",
    ),
    "wavefunction": (
        "DegreeGradedX",
        "LogLaurentForm",
        "QceReport",
        "apply_laurent_operator",
        "bernoulli_operator",
        "build_degree_graded_x",
        "conjugation_check",
        "qce_verification",
        "semiclassical_check",
        "shift_form",
        "theta_resummation_check",
        "toda_specialization_check",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """An exported name, read from its module on every access (never stored
    here, so a patch of the module's name is seen and its undoing too), or a
    module of the package not imported yet."""
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # The import system binds every submodule it loads on the package.
        # The submodule ``partitions`` would hide the exported function of
        # that name, which therefore stays served by __getattr__.
        if name in _MODULE_OF and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
