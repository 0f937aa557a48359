"""symbreak benchmark: one workload, closed loop, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.
The loop runs in this process and thread and starts each operation when
the previous one has finished.  It runs whole cycles of the workload's
instances until S seconds have passed, so every run holds each instance
in the same proportion.  Outputs are checked against the oracles after the
timed window.

Operation times are at reference speed: each wall time is scaled by a
calibration kernel run between operations (see calibrate.py), so that the
shared machine's drifts in speed cancel; the wall times are printed too.
setup_s is scaled the same way.  ops_per_s is the number of operations
over their summed time at reference speed; the run holds whole cycles, so
each instance has the same share of it in every run.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced cycles and prints the per-layer metrics from the traced ones,
plus the tracing overhead (traced minus untraced median operation time).
The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

from calibrate import REFERENCE_S, Clock, probe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")

# fresh interpreters timed for setup_s; one more runs first, untimed, so
# the bytecode cache of a new checkout is written before timing starts
COLD_STARTS = 11

# operations run in batches of at least this much wall time between two
# calibration probes (see calibrate.py)
BATCH_S = 0.1

# the percentile reported as op_tail_ms: with at least ten samples beyond
# it in a run at the seed (matrix-sparse aside) and placed where the sorted
# cycle is homogeneous, so it is steady from seed to seed (see NOTES.md)
TAIL_PERCENTILE = {"matrix-full": 80, "matrix-sparse": 80,
                   "gray-propagate": 95, "gadgets": 90}


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile: always one of the measured values."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def cold_start_seconds(workload: str, spec_path: str) -> float:
    """Median time, at reference speed, from spawning a fresh interpreter
    until it has imported symbreak.cli and built the workload's inputs."""
    probe_path = os.path.join(HERE, "coldstart.py")
    times = []
    before = probe()
    for i in range(COLD_STARTS + 1):
        start = perf_counter()
        with subprocess.Popen([sys.executable, probe_path, ROOT, workload, spec_path],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = perf_counter()
            proc.stdout.read()
            if proc.wait() != 0 or line != "ready\n":
                raise RuntimeError(f"cold-start probe failed with exit code {proc.returncode}")
        after = probe()
        if i:
            times.append((ready - start) * REFERENCE_S / ((before + after) / 2))
        before = after
    return statistics.median(times)


class Loop:
    """Runs cycles of operations and keeps what the checks need.

    Operations run in batches of at least BATCH_S of wall time, with a
    calibration probe after each batch; `times` receives each operation's
    time at reference speed and `wall` its wall time."""

    def __init__(self, wl, items):
        self.wl, self.items = wl, items
        self.first: dict[int, object] = {}  # fingerprint of each instance's first output
        self.ops_of = [0] * len(items)
        self.repeat_mismatches = 0
        self.wall: list[float] = []
        self.clock = Clock()

    def cycle(self, times: list[float], tracer=None) -> None:
        run_op, fingerprint = self.wl.run_op, self.wl.fingerprint
        batch: list[float] = []
        for idx, item in enumerate(self.items):
            if tracer is not None:
                tracer.op = len(times) + len(batch)
            start = perf_counter()
            out = run_op(item)
            batch.append(perf_counter() - start)
            fp = fingerprint(out)
            self.ops_of[idx] += 1
            if idx not in self.first:
                self.first[idx] = fp
            elif fp != self.first[idx]:
                self.repeat_mismatches += 1
            if sum(batch) >= BATCH_S or idx == len(self.items) - 1:
                self.wall.extend(batch)
                times.extend(self.clock.scale(batch))
                batch = []

    def failures(self, spec: dict) -> tuple[int, list[str]]:
        """Operations whose output an oracle rejects or that differ from
        their instance's first output."""
        failed, reasons = self.repeat_mismatches, []
        for idx, fp in self.first.items():
            reason = self.wl.check(spec["instances"][idx], fp, self.items[idx])
            if reason is not None:
                failed += self.ops_of[idx]
                reasons.append(f"instance {idx}: {reason}")
        return min(failed, sum(self.ops_of)), reasons


def run_window(seconds: float, step) -> list[float]:
    """Call step() until `seconds` have passed; return each call's duration."""
    start = perf_counter()
    durations = []
    while not durations or perf_counter() - start < seconds:
        began = perf_counter()
        step()
        durations.append(perf_counter() - began)
    return durations


def layer_metrics(tracer, ops: int) -> dict[str, tuple[float, str]]:
    from tracing import self_times

    inclusive: dict[str, float] = {}
    own: dict[str, float] = {}
    setup: dict[str, float] = {}
    for span, self_time in zip(tracer.spans, self_times(tracer.spans)):
        name, start, end, _, op = span
        if op == "setup":
            setup[name] = setup.get(name, 0.0) + (end - start)
        else:
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + self_time
    c = tracer.counts.get

    def ratio(num: str, den: str) -> float:
        return c(num, 0) / c(den, 0) if c(den, 0) else 0.0

    def per_op_ms(table: dict, name: str) -> float:
        return 1e3 * table.get(name, 0.0) / ops

    return {
        "cli.self_ms": (per_op_ms(own, "cli.run"), "ms"),
        "model.load_problem.ms": (per_op_ms(inclusive, "model.load_problem"), "ms"),
        "model.enumerate_solutions.ms": (per_op_ms(inclusive, "model.enumerate_solutions"), "ms"),
        "model.solution_density": (ratio("enumerated_solutions", "enumerated_space"), "fraction"),
        "symmetry.closure.ms": (per_op_ms(inclusive, "symmetry.closure"), "ms"),
        "symmetry.closure.size": (ratio("closure_elements", "closure_calls"), "count"),
        "symmetry.orbits.ms": (per_op_ms(inclusive, "symmetry.orbits"), "ms"),
        "symmetry.orbits.calls_per_op": (c("orbit_calls", 0) / ops, "count"),
        "symmetry.orbit_count": (ratio("orbits", "orbit_calls"), "count"),
        "breaker.leader_checks_per_op": (c("leader_checks", 0) / ops, "count"),
        "breaker.per_orbit_survivors.self_ms": (per_op_ms(own, "breaker.per_orbit_survivors"), "ms"),
        "breaker.survivors_per_orbit": (ratio("survivors", "survivor_orbits"), "ratio"),
        "gray.build_decomposition.ms": (1e3 * setup.get("gray.build_decomposition", 0.0), "ms"),
        "gray.propagate.ms": (per_op_ms(inclusive, "gray.propagate"), "ms"),
        "gray.removals_per_call": (ratio("removals", "propagate_calls"), "count"),
        "gray.wakes_per_call": (ratio("wakes", "propagate_calls"), "count"),
        "gray.removals_per_wake": (ratio("removals", "wakes"), "ratio"),
        "gray.wipeout_frac": (ratio("wipeouts", "propagate_calls"), "fraction"),
        "reductions.solve_group_gadget.ms": (per_op_ms(inclusive, "reductions.solve_group_gadget"), "ms"),
        "reductions.solve_ordering_gadget.ms": (per_op_ms(inclusive, "reductions.solve_ordering_gadget"), "ms"),
        "reductions.gadget_solutions": (ratio("group_gadget_solutions", "group_gadgets"), "count"),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]()
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        spec = wl.generate(seed, workdir)
        spec_path = os.path.join(workdir, "spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        setup_s = None if trace else cold_start_seconds(workload, spec_path)

        import symbreak.cli  # noqa: F401  (the library itself, before any tracer)

        report: list[str] = []
        if trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            items = wl.prepare(spec)
            tracer.uninstall()
            tracer.counts.clear()
            loop = Loop(wl, items)
            plain: list[float] = []
            traced: list[float] = []

            def pair():
                loop.cycle(plain)
                tracer.install()
                try:
                    loop.cycle(traced, tracer)
                finally:
                    tracer.uninstall()

            window = sum(run_window(seconds, pair))
            times = plain + traced
            metrics = layer_metrics(tracer, len(traced))
            plain_p50 = 1e3 * statistics.median(plain)
            traced_p50 = 1e3 * statistics.median(traced)
            metrics["trace.overhead_ms"] = (traced_p50 - plain_p50, "ms")
            report.append(f"op_p50_ms untraced {plain_p50:.6g} traced {traced_p50:.6g} "
                          f"over {len(plain)} + {len(traced)} ops")
            os.makedirs(OUT, exist_ok=True)
            with open(os.path.join(OUT, f"spans-{workload}-seed{seed}.json"), "w") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "op"],
                           "spans": tracer.spans}, fh)
        else:
            items = wl.prepare(spec)
            loop = Loop(wl, items)
            times: list[float] = []
            window = sum(run_window(seconds, lambda: loop.cycle(times)))
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            ordered = sorted(times)
            tail = TAIL_PERCENTILE[workload]
            metrics = {
                "setup_s": (setup_s, "s"),
                "op_p50_ms": (1e3 * percentile(ordered, 50), "ms"),
                "op_tail_ms": (1e3 * percentile(ordered, tail), "ms"),
                "ops_per_s": (len(times) / sum(times), "1/s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
            beyond = sum(1 for t in times if t > percentile(ordered, tail))
            report.append(f"op_tail_ms is p{tail} of {len(times)} ops ({beyond} beyond it)")
            wall = sorted(loop.wall)
            report.append(f"wall time, not scaled: op_p50_ms {1e3 * percentile(wall, 50):.6g} "
                          f"op_tail_ms {1e3 * percentile(wall, tail):.6g}")

        failed, reasons = loop.failures(spec)
        attempted = len(times)
        report.insert(0, f"workload {workload} seed {seed} trace {int(trace)}: "
                         f"{attempted} ops in {window:.3f} s, "
                         f"{attempted // len(items)} cycles of {len(items)}")
        report.extend(f"check failed: {reason}" for reason in reasons)
        # error_rate is 0 on a correct program, so it is printed here and
        # carried by failed/attempted in the result rather than as a metric
        report.append(f"metric error_rate {failed / attempted!r} fraction")
        return {"report": report, "correct": failed == 0, "attempted": attempted,
                "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "symbreak", "__init__.py")):
        print(f"error: no symbreak sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in result.pop("report"):
        print(line)
    for name, (value, unit) in result["metrics"].items():
        print(f"metric {name} {value!r} {unit}")
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
