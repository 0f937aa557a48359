#!/usr/bin/env python3
"""Search small matrix shapes for orbits where doublelex keeps several members.

Doublelex (adjacent rows and columns lex-ordered) is sound for the full
row/column group but not complete in general; this script finds the witnesses
at desk scale and prints every orbit that keeps more than one survivor.
"""

import argparse
import sys

from symbreak.breaker import doublelex_constraints, orbit_verdict
from symbreak.symmetry import orbits, row_col_group


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-cells", type=int, default=9,
                        help="largest r*c to search (default 9)")
    args = parser.parse_args(argv)

    found = 0
    for r in range(1, args.max_cells + 1):
        for c in range(1, args.max_cells + 1):
            if r * c > args.max_cells:
                continue
            group = row_col_group((r, c))
            partition = orbits(range(2 ** (r * c)), group)
            verdict = orbit_verdict(partition, doublelex_constraints((r, c)))
            for members, kept in zip(partition.members, verdict.kept):
                if len(kept) > 1:
                    found += 1
                    texts = " ".join(group.coding.texts(kept))
                    print(f"{r}x{c}: orbit of size {len(members)} keeps "
                          f"{len(kept)} members: {texts}")
    if not found:
        print(f"no doublelex gap on any shape with r*c <= {args.max_cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
