"""Self-test of the benchmark: every workload, shrunk to a few seconds.

    python3 perfbench/selftest.py

For each workload it runs run.py untraced and traced on the small
inputs, in fresh processes, and asserts that every output check passes,
no command fails, and every metric BENCHMARK.json names is emitted with
its unit (end-to-end metrics untraced, per-layer metrics traced).  It
also asserts that the traced self times add up to the traced wall time,
and that the benchmark refuses to run, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark's files.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)

sys.path.insert(0, HERE)
import workloads  # noqa: E402


def run(workload, trace, cwd=CHECKOUT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0", "--trace", str(trace), "--small"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300)


def expected(spec, trace):
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_workload(spec, workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
    assert result["correct"] is True, f"{workload} trace={trace}: checks failed\n{proc.stderr}"
    assert result["failed"] == 0 and result["attempted"] >= 1, result
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == expected(spec, trace), (
        f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
        f"{sorted(set(emitted.items()) ^ set(expected(spec, trace).items()))}")
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        gap = abs(metrics["trace.self_sum_s"] - metrics["trace.wall_s"])
        assert gap < 0.01 * metrics["trace.wall_s"] + 1e-3, (
            f"{workload}: self times {metrics['trace.self_sum_s']} do not add up to "
            f"the traced wall time {metrics['trace.wall_s']}")


def check_refuses_without_program(spec):
    bare = os.path.join(CHECKOUT, "bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(CHECKOUT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(CHECKOUT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(workloads.NAMES[0], 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0, "run.py succeeded without the program's sources"
    assert not proc.stdout.strip(), f"run.py printed a result without the program: {proc.stdout}"


def main():
    with open(os.path.join(CHECKOUT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    for workload in workloads.NAMES:
        for trace in (0, 1):
            check_workload(spec, workload, trace)
            print(f"ok  {workload} trace={trace}")
    check_refuses_without_program(spec)
    print("ok  refuses to run without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
