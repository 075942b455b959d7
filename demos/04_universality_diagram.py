"""Universality classes from convex minimization, for any non-singular model.

The class of a weighted model is decided by where the inventory
S(x,y) = sum_s w_s x^s1 y^s2 attains its minimum on Q = {x >= 1, y >= 1} and
by the gradient signs there; the exponent also involves
p1 = pi/arccos(-c) with c the normalized mixed second derivative at the
interior critical point.  This sweeps (a, b) grids and writes CSV rows ready
for plotting phase diagrams.
"""

import csv
import io
from fractions import Fraction as F

from orthantwalks import builtin_model, classify, drift_diagram

# ----------------------------------------------------------------------
# the pipeline on one model: one convex solve gives every quantity

model = builtin_model("tandem", F(3, 2), F(1, 2))
result = classify(model)
print("tandem with (a,b)=(3/2,1/2):")
print("  critical point:", result.critical_point)
print("  min over Q:", (*result.minimizer, result.rho))
print("  covariance factor:", result.covariance)
print(f"  class {result.family}, rho={result.rho:.6f}, alpha={result.alpha:.3f}")

# ----------------------------------------------------------------------
# sweep a grid; each cell is pure and independent

grid = [F(k, 4) for k in range(1, 13)]  # 1/4 .. 3
rows = drift_diagram(lambda a, b: builtin_model("tandem", a, b), grid, grid)

out = io.StringIO()
writer = csv.writer(out)
writer.writerow(["a", "b", "dx", "dy", "class"])
for row in rows:
    writer.writerow([row["a"], row["b"], row["dx"], row["dy"], row["class"]])
print(f"\nwrote {len(rows)} grid cells; first lines:")
print("\n".join(out.getvalue().splitlines()[:6]))

counts = {}
for row in rows:
    counts[row["class"]] = counts.get(row["class"], 0) + 1
print("cells per class:", dict(sorted(counts.items())))

# the same sweep for other families plots the drift diagrams of the
# four-step and diagonal-step models; try model="gessel" or model="gb"
