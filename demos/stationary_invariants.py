"""
Stationary invariants from the fermionic Fock space
===================================================

The package computes descendant invariants of the point class through
operator expansions on the semi-infinite wedge: disconnected vacuum
expectations, a cumulant (connected-part) extraction, and a dimension
gate.  This script walks the raw engine up to the named invariants and
their unit-class dressing.
"""

from p1qcurve import (
    connected_coefficient,
    stationary_invariant,
    unit_insertions,
    unstable_series_check,
)

# ---------------------------------------------------------------------------
# The engine's low-hanging values.  Each invariant <prod tau_{b_i}(omega)>
# at genus g, n points, degree d is nonzero only on the dimension diagonal
#     sum b_i = 2g - 2 + 2d.
# ---------------------------------------------------------------------------

print("one point, degree 1:", stationary_invariant(0, 1, 1, (0,)))      # 1
print("three points, degree 1:", stationary_invariant(0, 3, 1, (0, 0, 0)))
print("genus 1, degree 1:", stationary_invariant(1, 1, 1, (2,)))        # 1/24
print("genus 2, degree 1:", stationary_invariant(2, 1, 1, (4,)))

# Off the diagonal the gate returns zero:
print("off-dimension:", stationary_invariant(0, 1, 1, (3,)))

# The unstable range has exact closed-form conventions, e.g. a negative
# descendant exponent at degree zero:
print("unstable one-point:", stationary_invariant(0, 1, 0, (-2,)))       # 1

# ---------------------------------------------------------------------------
# Connected correlator coefficients come from set-partition inversion of
# the disconnected expectations; the degree-d, exponent-b coefficient feeds
# everything above.
# ---------------------------------------------------------------------------

print("connected coefficient d=2, b=(1,1):", connected_coefficient(2, (1, 1)))

# ---------------------------------------------------------------------------
# Unit-class insertions.  Adding k insertions of the unit class reduces,
# through the string equation, to a multinomial-weighted sum of pure
# stationary invariants; the engine does this reduction exactly.
# ---------------------------------------------------------------------------

for k in range(2, 6):
    print(f"k={k} unit insertions on the unstable one-point block:",
          unit_insertions(0, 1, k, 0, (k - 2,)))

# ---------------------------------------------------------------------------
# The oracle that pins the engine: its low-degree series must reproduce the
# closed-form unstable expansions coefficient by coefficient.
# ---------------------------------------------------------------------------

print("engine matches the closed forms through order 12:",
      unstable_series_check(12))
