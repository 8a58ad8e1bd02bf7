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

from .exactcore import (
    ExactError,
    MultiSeries,
    Polynomial,
    RationalFunction,
    TruncatedSeries,
    TruncationError,
    partial_fractions,
    rational_from_json,
    rational_to_json,
)
from .partitions import (
    dimension,
    hook_lengths,
    hook_product,
    hook_refinement_check,
    partitions,
    summation_corollary_check,
)
from .qcurve import (
    toda_quadratic_check,
    verify_xd_recursion,
    x_laguerre,
    x_partition,
    xd_pole_report,
    y_evaluate,
    y_polynomial,
)
from .wedge import (
    connected_coefficient,
    stationary_invariant,
    unit_insertions,
    unstable_series_check,
)
from .toprec import (
    fgn_x_expansion,
    ns_expansion_check,
    primitive_fgn,
    s0_s1_closed_forms,
    s_matrix,
    theta_expansion_check,
    toprec_wgn,
)
from .wavefunction import (
    DegreeGradedX,
    LogLaurentForm,
    QceReport,
    apply_laurent_operator,
    bernoulli_operator,
    build_degree_graded_x,
    conjugation_check,
    qce_verification,
    semiclassical_check,
    shift_form,
    theta_resummation_check,
    toda_specialization_check,
)

__version__ = "0.1.0"

__all__ = [
    "DegreeGradedX",
    "ExactError",
    "LogLaurentForm",
    "MultiSeries",
    "Polynomial",
    "QceReport",
    "RationalFunction",
    "TruncatedSeries",
    "TruncationError",
    "apply_laurent_operator",
    "bernoulli_operator",
    "build_degree_graded_x",
    "conjugation_check",
    "connected_coefficient",
    "dimension",
    "fgn_x_expansion",
    "hook_lengths",
    "hook_product",
    "hook_refinement_check",
    "ns_expansion_check",
    "partial_fractions",
    "partitions",
    "primitive_fgn",
    "qce_verification",
    "rational_from_json",
    "rational_to_json",
    "s0_s1_closed_forms",
    "s_matrix",
    "semiclassical_check",
    "shift_form",
    "stationary_invariant",
    "summation_corollary_check",
    "theta_expansion_check",
    "theta_resummation_check",
    "toda_quadratic_check",
    "toda_specialization_check",
    "toprec_wgn",
    "unit_insertions",
    "unstable_series_check",
    "verify_xd_recursion",
    "x_laguerre",
    "x_partition",
    "xd_pole_report",
    "y_evaluate",
    "y_polynomial",
]
