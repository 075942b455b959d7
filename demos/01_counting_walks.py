"""Counting confined walks, exactly and at scale.

A walk takes steps from a fixed weighted step set and must keep both
coordinates nonnegative at every prefix.  This script builds counting tables
for the four-step model with steps (1,0), (-1,0), (-1,1), (1,-1), checks them
against brute-force enumeration, and pushes the same recurrence to length
2000 with extended-range floats.
"""

from fractions import Fraction

from orthantwalks import brute_force_count, builtin_model, count_walks, sample_walk

# ----------------------------------------------------------------------
# exact small tables and the brute-force cross-check

model = builtin_model("gb", 1, 1)  # all weights 1
table = count_walks(model, (0, 0), 8, mode="exact")

print("unweighted walk totals by length:")
print(" ", [table.total(n) for n in range(9)])

print("excursions back to the origin (odd lengths are impossible):")
print(" ", [table.endpoint((0, 0), n) for n in range(9)])

for n in range(6):
    assert table.layer(n) == brute_force_count(model, (0, 0), n)
print("layers 0..5 agree with brute-force enumeration")

# ----------------------------------------------------------------------
# rational weights stay exact

weighted = builtin_model("gb", 2, 3)  # steps weighted a=2, b=3
wtable = count_walks(weighted, (0, 0), 6, mode="exact")
print("\nweighted totals (exact rationals):")
print(" ", [str(wtable.total(n)) for n in range(7)])
assert wtable.total(1) == 2  # only (1,0) stays inside, weight a = 2

halves = builtin_model("gb", Fraction(1, 2), Fraction(1, 2))
htable = count_walks(halves, (0, 0), 4, mode="exact")
print("with a = b = 1/2 the totals are genuine fractions:")
print(" ", [str(htable.total(n)) for n in range(5)])

# ----------------------------------------------------------------------
# scaled mode: 4**2000 does not fit a float, so counts carry a separate
# binary exponent; relative error stays below n * 2**-50

big = count_walks(model, (0, 0), 2000, mode="scaled")
t = big.total(2000)
print(f"\ntotal at n=2000: about 2**{t.log2():.1f}  (~10**{t.log2()*0.30103:.0f})")

# ----------------------------------------------------------------------
# random walks drawn proportionally to their weight

sampled = sample_walk(table, 8, seed=7)
print("\na uniformly sampled 8-step walk:", sampled.steps)
assert sampled.stays_in_orthant()

reluctant = builtin_model("gb", Fraction(1, 2), Fraction(1, 2))
rt = count_walks(reluctant, (0, 0), 30, mode="exact")
print("a reluctant-weight walk hugs the origin:", sample_walk(rt, 30, seed=1).end)
