"""The public names of the package: every exported name resolves, and the
test-only routes and knobs stay out of ``src/``."""

import importlib
import inspect
import pkgutil

import pytest

import p1qcurve
from p1qcurve.exactcore import MultiSeries, Polynomial, RationalFunction

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
# the theta wrappers of eta_function and the unstable-form classes
REMOVED = {
    "ThetaPrimitive",
    "W01Form",
    "W02Form",
    "ancestor_decomposition",
    "ancestor_descendant_check",
    "eta_derivative",
    "theta",
    "theta_condition_check",
    "w01",
    "w02",
}

# kernel methods deleted because no command, demo, benchmark workload or
# test entered them
REMOVED_METHODS = {
    Polynomial: {"coefficient", "__mod__"},
    RationalFunction: {"__rsub__", "__rtruediv__", "from_json"},
    MultiSeries: {"items", "truncate"},
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
