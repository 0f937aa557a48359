#!/usr/bin/env python3
"""Removal-event counts of the precedence propagator as the width grows.

On full domains the only activity is the boundary narrowing, so the event
count is flat; --pinned also reports the cost of propagating a fully
assigned worst-case pair (lhs = position 2^n - 2, rhs = 2^n - 1).
"""

import argparse
import sys

from symbreak.gray import build_decomposition, initial_store, propagate, store_from_candidates
from symbreak.orderings import GrayOrdering
from symbreak.model import binary_domains


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--widths", type=int, nargs="+",
                        default=[8, 16, 32, 64, 128])
    parser.add_argument("--pinned", action="store_true",
                        help="also propagate a fully assigned adjacent pair")
    args = parser.parse_args(argv)

    print("n,instance,events,events_per_n,wakes")
    for n in args.widths:
        decomp = build_decomposition(n, True)
        out = propagate(decomp, initial_store(decomp))
        wakes = sum(out.trace.wakes.values())
        print(f"{n},full,{out.trace.removals},{out.trace.removals / n:.3f},{wakes}")
        if args.pinned:
            gray = GrayOrdering(binary_domains(n))
            lhs = gray.unrank(2 ** n - 2)
            rhs = gray.unrank(2 ** n - 1)
            out = propagate(decomp, store_from_candidates(n, [[b] for b in lhs],
                                                          [[b] for b in rhs]))
            wakes = sum(out.trace.wakes.values())
            print(f"{n},pinned,{out.trace.removals},"
                  f"{out.trace.removals / n:.3f},{wakes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
