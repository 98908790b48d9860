"""Benchmark of the motionemu CLI: three workloads run in process.

    python3 perfbench/run.py --workload {pipeline,twolevel,quantize} --seed N
                             --seconds S --trace {0,1}
    python3 perfbench/run.py            # every workload, one fresh process each

One run sets up the workload's inputs three times, each in a fresh
interpreter (`make_inputs.py`), and reports the median as `setup_s`.  It
then runs whole rounds of the workload's CLI commands through
`motionemu.cli.main` until `--seconds` have passed (at least one round),
and reports the median round time as `wall_s` and the process's peak
resident memory as `peak_rss_mb`.  Last, it checks the outputs of the
final round.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; `attempted` and `failed`
count CLI commands.

With `--trace 1` the run sets up once and alternates an untraced round
with a traced one (see tracing.py); it reports per-round self times and
counts of each layer, and the tracing overhead against the untraced
rounds, in place of the end-to-end metrics.

Work files go to `bench_out/` at the root of the checkout; each run's
result, and a traced run's span table, are kept in `bench_out/results/`.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout

import workloads
from tracing import ROOT as ROOT_SPAN, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
SRC = os.path.join(CHECKOUT, "src")
OUT = os.path.join(CHECKOUT, "bench_out")
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120


def load_cli():
    if not os.path.isfile(os.path.join(SRC, "motionemu", "cli.py")):
        raise SystemExit(f"perfbench: no motionemu sources under {SRC}")
    sys.path.insert(0, SRC)
    from motionemu import cli
    return cli


def set_up(name, seed, small, indir, repeats):
    """Write the inputs `repeats` times in fresh interpreters; return the
    duration of each."""
    cmd = [sys.executable, os.path.join(HERE, "make_inputs.py"), "--workload", name,
           "--seed", str(seed), "--out", indir] + (["--small"] if small else [])
    durations = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=CHECKOUT, timeout=SETUP_TIMEOUT_S)
        durations.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up of {name} exited with {proc.returncode}")
    return durations


def run_round(main, argvs):
    """Run one round of CLI commands; return (wall seconds, failed commands)."""
    wall, failed = 0.0, 0
    for argv in argvs:
        start = time.perf_counter()
        try:
            with redirect_stdout(sys.stderr):
                code = main(argv)
        except Exception:
            traceback.print_exc()
            code = -1
        wall += time.perf_counter() - start
        failed += code != 0
    return wall, failed


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.startswith("io.bytes"):
        return "bytes"
    return "count"


def measure(cli, name, cfg, seed, seconds, trace, small):
    workdir = os.path.join(OUT, name)
    shutil.rmtree(workdir, ignore_errors=True)
    indir, outdir = os.path.join(workdir, "in"), os.path.join(workdir, "out")
    setup = set_up(name, seed, small, indir, 1 if trace else SETUP_REPEATS)
    argvs = workloads.commands(name, cfg, seed, indir, outdir)
    attempted = failed = 0
    walls, traced_walls, cpu = [], [], 0.0
    tracer = Tracer()
    start = time.perf_counter()
    while True:
        wall, bad = run_round(cli.main, argvs)
        walls.append(wall)
        attempted, failed = attempted + len(argvs), failed + bad
        if trace:
            tracer.install()
            cpu_start = time.process_time()
            try:
                wall, bad = run_round(tracer.span(ROOT_SPAN, cli.main), argvs)
            finally:
                cpu += time.process_time() - cpu_start
                tracer.uninstall()
            traced_walls.append(wall)
            attempted, failed = attempted + len(argvs), failed + bad
        if time.perf_counter() - start >= seconds:
            break
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    fails = workloads.check(name, cfg, indir, outdir)
    for msg in fails:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    if trace:
        rounds = len(traced_walls)
        layers = tracer.metrics(rounds)
        metrics = {k: metric(v, layer_unit(k)) for k, v in layers.items()}
        traced, untraced = sum(traced_walls) / rounds, sum(walls) / len(walls)
        metrics["trace.wall_s"] = metric(traced, "s")
        metrics["trace.self_sum_s"] = metric(sum(v for k, v in layers.items()
                                                 if k.endswith("_s")), "s")
        metrics["trace.untraced_wall_s"] = metric(untraced, "s")
        metrics["trace.overhead_s"] = metric(traced - untraced, "s")
        metrics["trace.cpu_s"] = metric(cpu / rounds, "s")
        spans = tracer.table()
    else:
        metrics = {"wall_s": metric(statistics.median(walls), "s"),
                   "peak_rss_mb": metric(peak_mib, "MiB"),
                   "setup_s": metric(statistics.median(setup), "s")}
        spans = None
    result = {"correct": not fails, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, spans


def environment():
    import numpy as np
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"],
            "cpus": os.cpu_count(),
            "thread_env": {k: os.environ.get(k) for k in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def run_one(args):
    cli = load_cli()
    sizes = workloads.SMALL if args.small else workloads.FULL
    result, spans = measure(cli, args.workload, sizes[args.workload], args.seed,
                            args.seconds, args.trace, args.small)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-small" if args.small else "")
    results = os.path.join(OUT, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, tag + ".json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "small": args.small, "environment": environment(),
                   **result}, fh, indent=2)
    if spans is not None:
        with open(os.path.join(results, tag + "-spans.json"), "w") as fh:
            json.dump(spans, fh, indent=2)
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in a fresh process; print every metric with its unit."""
    ok = True
    for name in workloads.NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--small"] if args.small else [])
        proc = subprocess.run(cmd, cwd=CHECKOUT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name:10s} run exited with {proc.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        for key, m in result["metrics"].items():
            print(f"{name:10s} {key:40s} {m['value']:>16.6g} {m['unit']}")
        print(f"{name:10s} {'attempted':40s} {result['attempted']:>16d}")
        print(f"{name:10s} {'failed':40s} {result['failed']:>16d}")
        print(f"{name:10s} {'correct':40s} {str(result['correct']):>16s}")
        ok = ok and result["correct"] and not result["failed"]
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--small", action="store_true",
                        help="shrunk inputs, for the self-test")
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
