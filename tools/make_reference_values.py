#!/usr/bin/env python3
"""Print tests/frozen_roots.json, the true critical points that
``test_frozen_points_lie_at_the_rounding_floor`` measures the kernel
against:

    python3 tools/make_reference_values.py [DEGREE ...] > tests/frozen_roots.json

For the first six rows of ``families.pinned_rows`` at each degree
given (every degree of ``PINNED_DEGREES`` when none is), it prints the
roots of Q, each by ``tests/exact.py``'s 20-digit Newton from one of the
kernel's float points and rounded to binary64, as [re, im] pairs.  The
roots depend on the seeded rows alone; the float points only pick which
root each Newton run reaches.  An argument that is not an integer of at
least 2 gets a usage line and exit status 2.

The rebuild is safe in place: the tool reads nothing from the file it
rewrites.  The test suite checks the round trip at degree 8 in-process
(``test_frozen_roots_match_their_generator``).

Requires mpmath (dev-only dependency; not needed to use the package).
"""

import json
import sys
from pathlib import Path


def _modules():
    """The modules families, exact and sendov_lab.polynomial, with
    src, tests and tools on the import path."""
    root = Path(__file__).resolve().parent.parent
    dirs = [str(root / d) for d in ("src", "tests", "tools")]
    sys.path[:0] = [d for d in dirs if d not in sys.path]
    import exact
    import families
    from sendov_lab import polynomial

    return families, exact, polynomial


def frozen_roots(degree):
    """The true roots of Q for the six rows of the frozen-points test at one
    degree, row by row, as lists of [re, im]."""
    import numpy as np

    families, exact, poly = _modules()
    a, rows = families.pinned_rows(degree)
    zeta = np.sort(np.concatenate([np.full((6, 1), complex(a)), rows[:6]], axis=1), axis=1)
    free = poly._free_points(zeta, np.ones(zeta.shape))[0]
    out = []
    for zeros, points in zip(zeta, free):
        roots = [complex(exact.newton(zeros, w, 20)) for w in points.tolist()]
        out.append([[z.real, z.imag] for z in roots])
    return out


def print_frozen_roots(degrees):
    """``frozen_roots`` by degree as one JSON object, one row per line."""
    degrees = degrees or [str(d) for d in _modules()[0].PINNED_DEGREES]
    blocks = []
    for degree in degrees:
        lines = ",\n".join(f"    {json.dumps(row)}" for row in frozen_roots(int(degree)))
        blocks.append(f'  "{degree}": [\n{lines}\n  ]')
    print("{\n" + ",\n".join(blocks) + "\n}")


def main(argv: list[str]) -> int:
    try:
        bad = any(int(degree) < 2 for degree in argv)
    except ValueError:
        bad = True
    if bad:
        print("usage: python3 tools/make_reference_values.py [DEGREE ...] (each DEGREE an "
              "integer >= 2; none: every degree of families.PINNED_DEGREES)", file=sys.stderr)
        return 2
    print_frozen_roots(argv)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
