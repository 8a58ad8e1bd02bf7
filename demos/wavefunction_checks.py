"""
The wave function and its difference equation, verified in three links
======================================================================

The generating function of stationary invariants assembles into a wave
function annihilated by the difference operator
    e^{hbar d/dx} + e^{-hbar d/dx} - x.
Applying that operator head-on would mean resumming shifts of x log x, so
the verification factors into three exact links instead: a shift
recursion, two conjugation identities, and a degree-graded comparison.
This script runs each link, the semiclassical limit, and the lattice
specialization.
"""

from p1qcurve import (
    bernoulli_operator,
    shift_form,
    conjugation_check,
    theta_resummation_check,
    build_degree_graded_x,
    qce_verification,
    semiclassical_check,
    toda_specialization_check,
)

# ---------------------------------------------------------------------------
# The scalar prefactor: B(-hbar d/dx) applied to (x - x log x)/hbar with
# B(t) = t/(e^t - 1).  Expansion:
#   (x - x log x)/hbar - (1/2) log x - hbar/(12x) + hbar^3/(360 x^3) - ...
# ---------------------------------------------------------------------------

prefactor = bernoulli_operator(8)
print("prefactor monomials (coefficient of hbar^p x^-i (log x)^l):")
for (p, i, l), c in sorted(prefactor.terms.items()):
    print(f"   p={p}, i={i}, l={l}: {c}")

# ---------------------------------------------------------------------------
# Conjugating the unit shifts by exp(prefactor) produces the weighted
# shifts: the shifted-minus-unshifted prefactor exponentiates to 1/(x+hbar)
# for the up-shift and to x for the down-shift.  Here is the raw difference
# for the up-shift -- pure -log x plus a diagonal series in hbar/x:
# ---------------------------------------------------------------------------

delta_up = shift_form(prefactor, 1, 8) - prefactor
print("up-shift difference, first monomials:",
      {k: str(v) for k, v in sorted(delta_up.terms.items())[:5]})
print("conjugation identities on x^0..x^6:", conjugation_check(6))

# ---------------------------------------------------------------------------
# Resumming unit-class insertions = shifting x by hbar/2: checked block by
# block, including the unstable closed form
#   -(x + hbar/2) + (x + hbar/2) log(x + hbar/2).
# ---------------------------------------------------------------------------

for block in ((0, 1, 0), (1, 1, 0), (0, 1, 1)):
    print(f"resummation for block {block}:",
          theta_resummation_check(*block, order=6))

# ---------------------------------------------------------------------------
# Degree-graded comparison: exponentiating the positive-degree blocks built
# from invariants must reproduce the partition-sum rational functions,
# order by order in 1/u.
# ---------------------------------------------------------------------------

graded = build_degree_graded_x(d_max=3, order=10)
print("degree-graded match through 1/u^10:", bool(graded))
x1 = graded.entries[1].geometric
print("degree-1 series:", [str(x1.coefficient(j)) for j in range(6)],
      "   vs  ", graded.entries[1].partition_sum.pretty("u"))

# ---------------------------------------------------------------------------
# The three links together, with the report surface:
# ---------------------------------------------------------------------------

report = qce_verification(6)
print("three-link verification:", dict(report.links),
      "first failure:", report.first_failure)

# ---------------------------------------------------------------------------
# Semiclassical limit: the hbar^0 coefficient returns the plane curve
# z + 1/z = x, and the hbar^1 coefficient vanishes against the subleading
# closed form -- exact identities in z.
# ---------------------------------------------------------------------------

print("semiclassical coefficients vanish:", semiclassical_check())

# ---------------------------------------------------------------------------
# Lattice specialization: the telescoped second difference of the prefactor
# equals x/(x+hbar), and the quadratic relations hold degree by degree.
# ---------------------------------------------------------------------------

print("lattice specialization:", toda_specialization_check(order=8, d_max=4))
