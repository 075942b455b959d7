"""Check that two prints of tools/same_outputs.py differ only in the last digits of floats.

Usage:

    python tools/same_outputs.py OLD_CHECKOUT > old.txt
    python tools/same_outputs.py NEW_CHECKOUT > new.txt
    python tools/float_moves.py old.txt new.txt

Every line that differs must be equal once each float (a number with a
decimal point) is masked, so families, fractions, integers and messages are
unchanged; its `ambiguities` field must be equal character for character;
and each float must lie within TOLERANCE (1e-14) of its old value, relative
to max(1, |old|).  Prints the number of changed lines and the largest move,
and exits 1 at the first line that breaks a rule.
"""

from __future__ import annotations

import re
import sys

FLOAT = re.compile(r"-?\d+\.\d+(?:e[+-]?\d+)?")
AMBIGUITIES = re.compile(r"ambiguities\W+[(\[][^)\]]*[)\]]")
TOLERANCE = 1e-14


def largest_move(old: list[str], new: list[str]) -> tuple[int, float, tuple]:
    """(changed lines, largest relative move, (old, new) floats of that move); ValueError
    at the first line that breaks a rule."""
    if len(old) != len(new):
        raise ValueError(f"{len(old)} lines against {len(new)}")
    changed, worst, where = 0, 0.0, ()
    for a, b in zip(old, new):
        if a == b:
            continue
        changed += 1
        if FLOAT.sub("#", a) != FLOAT.sub("#", b) or AMBIGUITIES.findall(a) != AMBIGUITIES.findall(b):
            raise ValueError(f"more than floats moved:\n{a}\n{b}")
        for x, y in zip(map(float, FLOAT.findall(a)), map(float, FLOAT.findall(b))):
            move = abs(x - y) / max(1.0, abs(x))
            if move > TOLERANCE:
                raise ValueError(f"{x} -> {y} moved {move:.2e}:\n{a}\n{b}")
            if move > worst:
                worst, where = move, (x, y)
    return changed, worst, where


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (open(path).read().splitlines() for path in sys.argv[1:])
    try:
        changed, worst, where = largest_move(old, new)
    except ValueError as exc:
        print(exc)
        return 1
    print(f"{changed} changed lines; largest relative move {worst:.2e} at {where}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
