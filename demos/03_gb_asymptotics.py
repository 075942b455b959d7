"""Closed-form asymptotics of the weighted four-step model.

The number of confined n-step walks grows like kappa * V(i,j) * rho**n / n**alpha,
where (rho, alpha) depend on the weights (a, b) through six universality
classes.  This script classifies several weightings, compares the closed-form
leading term against exact counts, and verifies the discrete harmonicity of V.
"""

from fractions import Fraction as F

from orthantwalks import (GBParams, check_harmonicity, count_walks, gb_classify,
                          gb_contributing, gb_critical_points, gb_estimate,
                          gb_excursion_estimate)

# ----------------------------------------------------------------------
# the six classes

for a, b in [(1, 1), (2, 3), (F(1, 2), F(1, 2)), (1, 4), (3, 2), (2, 2)]:
    cls = gb_classify(a, b)
    print(f"(a,b)=({a},{b}):  {cls.family:12s} rho={cls.rho}  alpha={cls.alpha}")

# ----------------------------------------------------------------------
# leading term vs exact counts: the ratio drifts to 1 like 1 + O(1/n)

print("\ncount / estimate for the zero-drift weighting:")
params = GBParams(1, 1)
table = count_walks(params.model(), (0, 0), 600, mode="scaled")
for n in (50, 100, 200, 400, 600):
    ratio = float(table.total(n) / gb_estimate(params, n))
    print(f"  n={n:4d}  ratio={ratio:.5f}")

# ----------------------------------------------------------------------
# excursions: only even lengths return to the origin, with growth 4**n/n**5

exc = count_walks(params.model(), (0, 0), 400, mode="scaled", track=[(0, 0)])
print("\nexcursion count / leading term (even n):")
for n in (100, 200, 400):
    ratio = float(exc.endpoint((0, 0), n) / gb_excursion_estimate(params, n))
    print(f"  n={n:4d}  ratio={ratio:.5f}")
assert exc.endpoint((0, 0), 151).is_zero()

# ----------------------------------------------------------------------
# V is discretely rho-harmonic; the check is exact for every weighting,
# since rho and V lie in Q(sqrt(b)), and it holds for every (i, j): each V
# is an exponential polynomial of order at most 4 in each coordinate, so
# the cells of a 5x5 grid decide it

for a, b in [(1, 1), (2, 3), (F(1, 2), F(1, 2)), (1, 4), (1, 2)]:
    assert check_harmonicity(GBParams(a, b))
print("\nrho-harmonicity of V verified exactly at every (i, j)")

# ----------------------------------------------------------------------
# where the asymptotics come from: critical points and their growths

print("\ncritical points for (a,b)=(2,3); the contributing one carries rho:")
contributing = gb_contributing(2, 3)
for point in gb_critical_points(2, 3):
    marker = "  <-- contributes" if point.label in contributing else ""
    x, y = point.xy
    print(f"  {point.label:5s} at ({x}, {y})  growth {point.growth}{marker}")
