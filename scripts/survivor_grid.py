#!/usr/bin/env python3
"""Survivor counts per ordering and method on small binary matrix models.

Prints one CSV row per (shape, ordering, method): how many assignments of
the full space survive the breaking set, how many orbits there are, and the
sound/complete verdicts.
"""

import argparse
import sys

from symbreak.breaker import COMPARE_HEADERS, compare_table
from symbreak.model import all_assignments, binary_domains
from symbreak.symmetry import row_col_group


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-cells", type=int, default=9,
                        help="largest r*c to include (default 9)")
    args = parser.parse_args(argv)

    print(",".join(("shape",) + COMPARE_HEADERS))
    for r in range(2, args.max_cells + 1):
        for c in range(2, args.max_cells + 1):
            if r * c > args.max_cells:
                continue
            doms = binary_domains(r * c)
            rows = compare_table(list(all_assignments(doms)), row_col_group((r, c)),
                                 doms, (r, c))
            for row in rows:
                print(",".join(str(x).lower() for x in (f"{r}x{c}",) + row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
