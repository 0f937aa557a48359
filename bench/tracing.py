"""Span recorder for the traced run, installed from outside the package.

`Tracer.install` replaces the public functions listed in SPANS with
wrappers that record a span per call, in every symbreak module that binds
them (so `symbreak.breaker.orbits`, the name `per_orbit_survivors` calls,
is wrapped along with `symbreak.symmetry.orbits`), and counts calls of
`LeaderConstraint.satisfied` without a span: a span would cost more than
the comparison it measures.  `uninstall` puts the originals back.

A span is (name, start, end, parent span index, operation id); spans stay
in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# (module, attribute) of every wrapped public function; "Class.method"
# wraps a method.  The first dotted part of the module is the layer.
SPANS = [
    ("symbreak.cli", "run"),
    ("symbreak.model", "load_problem"),
    ("symbreak.model", "enumerate_solutions"),
    ("symbreak.orderings", "make_ordering"),
    ("symbreak.symmetry", "load_symmetry_group"),
    ("symbreak.symmetry", "SymmetryGroup.closure"),
    ("symbreak.symmetry", "orbits"),
    ("symbreak.breaker", "leader_constraints"),
    ("symbreak.breaker", "doublelex_constraints"),
    ("symbreak.breaker", "filter_solutions"),
    ("symbreak.breaker", "per_orbit_survivors"),
    ("symbreak.gray", "build_decomposition"),
    ("symbreak.gray", "store_from_candidates"),
    ("symbreak.gray", "propagate"),
    ("symbreak.reductions", "load_one_in_three"),
    ("symbreak.reductions", "load_cnf"),
    ("symbreak.reductions", "ordering_gadget"),
    ("symbreak.reductions", "group_gadget"),
    ("symbreak.reductions", "solve_ordering_gadget"),
    ("symbreak.reductions", "solve_group_gadget"),
    ("symbreak.reductions", "one_in_three_satisfiable"),
    ("symbreak.reductions", "cnf_satisfiable"),
]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = "setup"
        # integer tallies taken from results at the span boundaries
        self.counts: dict[str, int] = {}
        self._undo: list = []

    def _count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _observe(self, name: str, args, result) -> None:
        if name == "model.enumerate_solutions":
            self._count("enumerated_solutions", len(result))
            self._count("enumerated_space", args[0].space_size)
        elif name == "symmetry.closure":
            self._count("closure_calls")
            self._count("closure_elements", len(result))
        elif name == "symmetry.orbits":
            self._count("orbit_calls")
            self._count("orbits", len(result))
        elif name == "breaker.per_orbit_survivors":
            self._count("survivor_orbits", len(result[1]))
            self._count("survivors", sum(result[1]))
        elif name == "gray.propagate":
            self._count("propagate_calls")
            self._count("removals", result.trace.removals)
            self._count("wakes", sum(result.trace.wakes.values()))
            self._count("wipeouts", int(result.failed))
        elif name == "reductions.solve_group_gadget":
            self._count("group_gadgets")
            self._count("group_gadget_solutions", len(args[0].solutions))

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer.stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.op)
            tracer._observe(name, args, result)
            return result

        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        for module_name, attr in SPANS:
            module = importlib.import_module(module_name)
            name = f"{module_name.split('.', 1)[1]}.{attr.rsplit('.', 1)[-1]}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                self._replace(cls, method, self._wrap(name, getattr(cls, method)))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "symbreak" or mod_name.startswith("symbreak."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, key, wrapped)
        from symbreak.breaker import LeaderConstraint

        satisfied = LeaderConstraint.satisfied

        def counted(con, a):
            self.counts["leader_checks"] = self.counts.get("leader_checks", 0) + 1
            return satisfied(con, a)

        self._replace(LeaderConstraint, "satisfied", counted)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def self_times(spans: list) -> list[float]:
    """Duration of each span minus the time its child spans cover (one
    thread, so children never overlap)."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out
