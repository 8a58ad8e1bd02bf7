"""The public names of the package: every exported name resolves, and the
test-only routes and knobs stay out of ``src/``."""

import importlib
import inspect
import operator
import pkgutil
from fractions import Fraction as Frac

import pytest

import p1qcurve
from p1qcurve.exactcore import (
    ExactError,
    MultiSeries,
    Polynomial,
    RationalFunction,
    TruncatedSeries,
)

MODULES = ["p1qcurve"] + [f"p1qcurve.{m.name}" for m in pkgutil.iter_modules(p1qcurve.__path__)]

# the set-partition n-point route and the per-call table route, kept in
# tests/oracles.py as the oracles of wedge.connected_coefficient, and the
# series route of the residue engine, kept there as the oracle of
# toprec._branch_residues
ORACLE_ONLY = {
    "_splits",
    "_loc_rational",
    "_loc_kernel_denominator_inverse",
    "_loc_kernel_numerator",
    "_loc_bergman_inv",
    "_mul_upto",
    "_residue_of_product",
    "series_branch_residues",
    "EigenSeries",
    "connected_npoint",
    "disconnected_npoint",
    "_disconnected",
    "_disjoint_product",
    "e0_eigenvalue",
    "_exp_linear",
    "_point_vars",
    "vacuum_total",
    "fock_weight",
    "squared_dimension",
}

# public names deleted because no command reached them: the ancestor
# decomposition (ns_expansion_check compares W_{1,1} with the Fock space),
# the theta wrappers of eta_function, the unstable-form classes, the CLI's
# result class (the document is a plain dict) and the JSON reader of a
# rational (``Fraction(s)`` parses one)
REMOVED = {
    "CommandResult",
    "ThetaPrimitive",
    "W01Form",
    "W02Form",
    "ancestor_decomposition",
    "ancestor_descendant_check",
    "eta_derivative",
    "rational_from_json",
    "theta",
    "theta_condition_check",
    "w01",
    "w02",
}

# kernel methods deleted because no command, demo, benchmark workload or
# test entered them; JSON is write-only, so the readers went with them
REMOVED_METHODS = {
    Polynomial: {"coefficient", "__mod__", "from_json"},
    RationalFunction: {"__rsub__", "__rtruediv__", "from_json"},
    TruncatedSeries: {"to_json", "from_json"},
    MultiSeries: {"items", "truncate", "from_json"},
}

# parameters that only selected negative controls or alternative routes
REMOVED_PARAMETERS = {
    "explain", "max_points", "perturb", "recursion_perturbation", "route", "strict",
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__ and len(set(module.__all__)) == len(module.__all__)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


@pytest.mark.parametrize("name", MODULES)
def test_test_only_routes_and_knobs_stay_out_of_the_package(name):
    module = importlib.import_module(name)
    assert ORACLE_ONLY.isdisjoint(vars(module))
    for attr in module.__all__:
        obj = getattr(module, attr)
        routines = vars(obj).values() if inspect.isclass(obj) else [obj]
        for fn in filter(inspect.isfunction, map(inspect.unwrap, routines)):
            assert REMOVED_PARAMETERS.isdisjoint(inspect.signature(fn).parameters), attr


@pytest.mark.parametrize("name", MODULES)
def test_removed_names_stay_out_of_the_package(name):
    assert REMOVED.isdisjoint(vars(importlib.import_module(name)))


@pytest.mark.parametrize("cls", REMOVED_METHODS, ids=lambda cls: cls.__name__)
def test_removed_kernel_methods_stay_out(cls):
    assert REMOVED_METHODS[cls].isdisjoint(vars(cls))


def test_removed_composition_branches_raise_type_error():
    # the branches that composed a polynomial or a rational function with a
    # rational function are gone; a polynomial still composes with a polynomial
    p = Polynomial([1, 1])
    f = RationalFunction(p, Polynomial([0, 1]))
    assert p(p) == Polynomial([2, 1])
    for call in (lambda: p(f), lambda: f(p), lambda: f(f)):
        with pytest.raises(TypeError):
            call()


def test_degree_graded_report_reads_disagreements_directly():
    assert not hasattr(p1qcurve.DegreeGradedX, "mismatches")


def test_toprec_reexports_nothing_from_wedge():
    from p1qcurve import toprec, wedge

    assert "catalan_inverse" in wedge.__all__
    assert "catalan_inverse" not in toprec.__all__


# ---------------------------------------------------------------------------
# The exact-argument rule, package-wide
# ---------------------------------------------------------------------------


def _as(name, fn):
    """``fn`` under a test id."""
    fn.__qualname__ = name
    return fn


def _rows():
    """One valid call per public function and per kernel entry point that
    takes a count or a scalar: (callable, args, kinds, *below).  Each kind is
    ``c`` (a count: an int, not a bool, float or Fraction), ``s`` (a scalar:
    an int or a Fraction, not a bool or float), ``p`` (a tuple whose first
    entry is a count) or ``-`` (left alone); each tuple in ``below`` is a
    call with one count just below its lower bound."""
    from p1qcurve import cli, exactcore, qcurve, toprec, wavefunction, wedge

    partitions = importlib.import_module("p1qcurve.partitions")  # not the function
    ts = TruncatedSeries
    pole = RationalFunction(1, Polynomial([1, 1]))
    w4 = ts.variable("w", 4)
    shift = wavefunction.bernoulli_operator(3)
    return [
        (exactcore.partial_fractions, (pole,), "-"),
        (exactcore.rational_to_json, (1,), "s"),
        (exactcore.series_compose, (w4, w4), "--"),
        (exactcore.series_exp, (w4,), "-"),
        (exactcore.series_log, (w4 + 1,), "-"),
        (partitions.is_partition, ((2, 1),), "-"),  # a predicate: False, not an error
        (partitions.partitions, (3,), "c", (-1,)),
        (partitions.padded, ((2, 1), 3), "pc", ((2, 1), 1)),
        (partitions.conjugate, ((2, 1),), "p"),
        (partitions.hook_lengths, ((2, 1),), "p"),
        (partitions.hook_product, ((2, 1),), "p"),
        (partitions.dimension, ((2, 1),), "p"),
        (partitions.boxes_removed, ((2, 1),), "p"),
        (partitions.boxes_added, ((2, 1),), "p"),
        (partitions.offset_product, ((2, 1),), "p"),
        (partitions.offset_sum, (3,), "c", (-1,)),
        (partitions.hook_refinement_check, ((2, 1),), "p"),
        (partitions.offset_difference_check, (2,), "c", (-1,)),
        (partitions.summation_corollary_check, (2,), "c", (0,)),
        (qcurve.x_partition, (3,), "c", (-1,)),
        (qcurve.laguerre_value, (2, 1, 1), "css", (-1, 1, 1)),
        (qcurve.x_laguerre, (3,), "c", (-1,)),
        (qcurve.verify_xd_recursion, (2,), "c", (0,)),
        (qcurve.y_polynomial, (2,), "c", (0,)),
        (qcurve.y_evaluate, (2, 1), "cs", (0, 1)),
        (qcurve.toda_quadratic_check, (2,), "c", (-1,)),
        (qcurve.xd_pole_report, (2,), "c", (-1,)),
        (wedge.zeta_series, (3,), "c", (0,)),
        (wedge.zeta_reciprocal, (3,), "c", (-2,)),
        (wedge.catalan_inverse, (3,), "c", (0,)),
        (wedge.connected_coefficient, (1, (0,)), "cp", (-1, (0,)), (1, (-3,))),
        (wedge.stationary_invariant, (0, 1, 1, (0,)), "cccp",
         (-1, 1, 1, (0,)), (0, 1, -1, (0,)), (0, 1, 1, (-3,))),
        (wedge.unit_insertions, (0, 1, 1, 1, (3,)), "ccccp",
         (-1, 1, 1, 1, (3,)), (0, 1, -1, 1, (3,)), (0, 1, 1, -1, (3,)), (0, 1, 1, 1, (-3,))),
        (wedge.unstable_series_check, (3,), "c", (0,)),
        (wedge.unstable_series_report, (3,), "c", (0,)),
        (toprec.toprec_wgn, (0, 3), "cc", (-1, 3), (0, 2)),
        (toprec.primitive_fgn, (0, 3), "cc", (-1, 3), (0, 2)),
        (toprec.fgn_x_expansion, (0, 3, 2), "ccc", (-1, 3, 2), (0, 2, 2), (0, 3, -1)),
        (toprec.ns_expansion_check, (0, 3, 2), "ccc", (-1, 3, 2), (0, 2, 2), (0, 3, -1)),
        (toprec.s_matrix, (2,), "c", (-1,)),
        (toprec.eta_function, (1, 2), "cc", (0, 2), (1, -1)),
        (toprec.theta_expansion_check, (1, 0, 4), "ccc", (0, 0, 4), (1, -1, 4)),
        (toprec.primitive_slot_function, (1, 3), "sc", (1, 1)),
        (toprec.s0_s1_closed_forms, (4,), "c"),
        (wavefunction.bernoulli_number, (2,), "c", (-1,)),
        (wavefunction.bernoulli_operator, (4,), "c", (-1,)),
        (wavefunction.apply_laurent_operator, (ts("t", -1, [1, 0, 1], 1), 2), "-c"),
        (wavefunction.shift_form, (shift, 1, 2), "-sc"),
        (wavefunction.build_degree_graded_x, (2, 6), "cc", (-1, 6), (2, 0)),
        (wavefunction.conjugation_check, (2, 4), "cc", (0, 4)),
        (wavefunction.qce_verification, (2,), "c", (0,)),
        (wavefunction.semiclassical_check, (4,), "c"),
        (wavefunction.theta_resummation_check, (0, 1, 0, 6), "cccc",
         (-1, 1, 0, 6), (0, 0, 0, 6), (0, 1, -1, 6), (0, 1, 0, 0)),
        (wavefunction.toda_specialization_check, (4, 2), "cc", (1, 2), (4, -1)),
        (cli.main, (["xd", "--d", "0"],), "-"),
        # the kernel constructors, classmethods and methods
        (_as("Polynomial", lambda c: Polynomial([c, 2])), (1,), "s"),
        (Polynomial.constant, (1,), "s"),
        (_as("Polynomial.from_roots", lambda r: Polynomial.from_roots([r])), (1,), "s"),
        (Polynomial([1, 1]).shift, (1,), "s"),
        (RationalFunction, (1, 2), "ss"),
        (RationalFunction.constant, (1,), "s"),
        (pole.laurent_at, (0, 2), "sc"),
        (pole.series_at_infinity, (2,), "c"),
        (_as("TruncatedSeries", lambda m, c, o: ts("w", m, [c, 0], o)), (0, 1, 1), "csc"),
        (_as("TruncatedSeries.zero", lambda o: ts.zero("w", o)), (2,), "c"),
        (_as("TruncatedSeries.constant", lambda c, o: ts.constant("w", c, o)), (1, 2), "sc", (1, -1)),
        (_as("TruncatedSeries.variable", lambda o: ts.variable("w", o)), (2,), "c", (0,)),
        (_as("TruncatedSeries.monomial", lambda e, c, o: ts.monomial("w", e, c, o)), (1, 1, 4), "csc"),
        (_as("TruncatedSeries.from_function", lambda m, o: ts.from_function("w", int, m, o)), (1, 3), "cc"),
        (w4.truncate, (2,), "c"),
        (w4.coefficient, (1,), "c"),
        (_as("TruncatedSeries.__pow__", lambda n: w4**n), (2,), "c"),
        (_as("Polynomial.__pow__", lambda n: Polynomial([1, 1]) ** n), (2,), "c"),
        (w4.shift_exponent, (1,), "c"),
        (_as("MultiSeries", lambda m, o, e, c: MultiSeries(("w",), (m,), (o,), {(e,): c})),
         (0, 2, 1, 1), "cccs"),
        (_as("MultiSeries.zero", lambda m, o: MultiSeries.zero(("w",), (m,), (o,))), (0, 2), "cc"),
        (_as("MultiSeries.constant", lambda c, o: MultiSeries.constant(("w",), c, (o,))), (1, 2), "sc"),
        (_as("MultiSeries.coefficient", lambda e: MultiSeries.zero(("w",), (0,), (2,)).coefficient((e,))),
         (1,), "c"),
    ]


EXACT_CALLS = [(row[0], row[1], row[2], row[3:]) for row in _rows()]


def _inexact(value, kind):
    """The stand-ins for a good value of the given kind that must be refused:
    a bool, an equal float, and for a count an equal Fraction."""
    if kind == "p":
        return [(bad,) + value[1:] for bad in _inexact(value[0], "c")]
    return [True, float(value)] + ([Frac(value)] if kind == "c" else [])


@pytest.mark.parametrize(
    "fn, args, kinds, below", EXACT_CALLS,
    ids=[fn.__qualname__ for fn, *_ in EXACT_CALLS],
)
def test_inexact_arguments_are_refused_after_a_warm_call(fn, args, kinds, below):
    assert len(kinds) == len(args)
    fn(*args)  # fills the memo tables, which compare keys by value
    for pos, kind in enumerate(kinds):
        if kind == "-":
            continue
        for bad in _inexact(args[pos], kind):
            with pytest.raises(ExactError):
                fn(*args[:pos], bad, *args[pos + 1 :])
    for call in below:
        with pytest.raises(ExactError):
            fn(*call)


def test_every_public_function_has_an_exact_call():
    covered = {fn for fn, *_ in EXACT_CALLS}
    public = {
        f"{name}.{attr}": getattr(module, attr)
        for name in MODULES
        for module in [importlib.import_module(name)]
        for attr in module.__all__
    }
    assert [name for name, obj in public.items() if inspect.isfunction(obj) and obj not in covered] == []


@pytest.mark.parametrize("value", [Polynomial([1, 1]), TruncatedSeries.variable("w", 3)],
                         ids=["Polynomial", "TruncatedSeries"])
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
def test_a_bool_or_float_operand_is_not_implemented(value, op):
    for bad in (True, 1.0):
        for args in ((value, bad), (bad, value)):
            with pytest.raises(TypeError):
                op(*args)
