"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Run from the root of a checkout.  It checks that

* every metric BENCHMARK.json names is printed with its unit, on every
  workload, and error_rate is 0;
* one seed always yields the same inputs, and another seed other inputs;
* two traced runs with one seed report identical counts;
* a deliberately wrong expected result registers in error_rate, so the
  oracles are live;
* in a directory holding only BENCHMARK.json and the benchmark's files,
  run.py exits non-zero without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import oracles
import run
import workloads

# tiny versions of every workload; gray keeps one width above the
# gac_oracle limit of 10 so both checking paths run
workloads.MatrixFull.LADDER = [(2, 2, 2, None), (2, 3, 2, None)]
workloads.MatrixSparse.LADDER = [(2, 3, 3, 1), (3, 3, 2, 1)]
workloads.Gadgets.PROP1 = [(2, 4)]
workloads.Gadgets.PROP2 = [(6, 2)]
workloads.GrayPropagate.WIDTHS = [4, 12]
workloads.GrayPropagate.VARIANTS = 1
run.COLD_STARTS = 1


def run_main(*args: str) -> tuple[list[str], dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(args))
    assert code == 0, code
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def printed_metrics(lines: list[str]) -> dict[str, tuple[str, str]]:
    return {parts[1]: (parts[2], parts[3])
            for parts in (line.split() for line in lines) if parts[0] == "metric"}


def check_metrics(spec: dict) -> None:
    for name in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines, result = run_main("--workload", name, "--seed", "0",
                                     "--seconds", "0.01", "--trace", str(trace))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (name, trace, got, want)
            printed = printed_metrics(lines)
            for metric, unit in want.items():
                assert printed[metric][1] == unit, (name, metric, printed.get(metric))
            assert printed["error_rate"] == ("0.0", "fraction"), (name, lines)
            assert result["correct"] and result["failed"] == 0, (name, lines)
            assert result["attempted"] >= 1
        print(f"ok  {name}: every metric printed with its unit, error_rate 0")


def check_seeded_inputs() -> None:
    base = os.path.join(run.OUT, "selftest-inputs")

    def inputs(name: str, seed: int, tag: str) -> str:
        workdir = os.path.join(base, tag)
        os.makedirs(workdir, exist_ok=True)
        spec = workloads.WORKLOADS[name]().generate(seed, workdir)
        files = {f: open(os.path.join(workdir, f)).read() for f in sorted(os.listdir(workdir))}
        return json.dumps([spec, files]).replace(workdir, "")

    try:
        for name in workloads.WORKLOADS:
            assert inputs(name, 5, "a") == inputs(name, 5, "b"), name
            assert inputs(name, 5, "c") != inputs(name, 6, "d"), name
            shutil.rmtree(base)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print("ok  inputs depend on the seed and on nothing else")


def check_counts_repeat(spec: dict) -> None:
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] not in ("ms", "s")]
    for name in workloads.WORKLOADS:
        runs = [run_main("--workload", name, "--seed", "3", "--seconds", "0.01",
                         "--trace", "1")[1]["metrics"] for _ in range(2)]
        first, second = ({k: r[k]["value"] for k in counts} for r in runs)
        assert first == second, (name, first, second)
    print("ok  traced counts repeat exactly for a fixed seed")


def check_oracles_live() -> None:
    honest = oracles.matrix_orbit_count

    def wrong(rows, cols, values, nonzero):
        return honest(rows, cols, values, nonzero) + ((rows, cols) == (2, 3))

    oracles.matrix_orbit_count = wrong
    try:
        lines, result = run_main("--workload", "matrix-full", "--seed", "0",
                                 "--seconds", "0.01", "--trace", "0")
    finally:
        oracles.matrix_orbit_count = honest
    assert not result["correct"], lines
    assert 0 < result["failed"] < result["attempted"], result
    assert float(printed_metrics(lines)["error_rate"][0]) > 0, lines
    print(f"ok  a wrong expected orbit count shows: {result['failed']} of "
          f"{result['attempted']} operations failed")


def check_bare_directory() -> None:
    bare = os.path.join(run.OUT, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "bench"))
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        for f in os.listdir(run.HERE):
            if os.path.isfile(os.path.join(run.HERE, f)):
                shutil.copy(os.path.join(run.HERE, f), os.path.join(bare, "bench"))
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "gadgets",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and "{" not in proc.stdout, (proc.returncode, proc.stdout)
    print(f"ok  without the program's sources run.py exits {proc.returncode}, prints no result")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    check_metrics(spec)
    check_seeded_inputs()
    check_counts_repeat(spec)
    check_oracles_live()
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
