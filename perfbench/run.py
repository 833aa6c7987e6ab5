"""hhalf benchmark: one workload, one seed, a closed loop with one caller.

    python3 perfbench/run.py --workload cli-n32 --seed 1 --seconds 25 --trace 0

Run it from the repository root; hhalf is imported from ./src.  The
last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1.  The lines above it give every
metric with its unit and sample count, the environment, the map
family shares and the checks.  --workload all runs every workload for
the seed, each in a fresh interpreter.  See perfbench/README.md.
"""

import os
import sys

# BLAS is pinned to one thread and the user config is dropped before
# numpy is imported, here and in every interpreter started from here.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("HHP_CONFIG", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
SETUP_PROBES = {"cli-n32": 5, "wide-256": 5, "suite": 3}


def import_hhalf():
    """Import hhalf from ./src of this checkout, and nothing else."""
    if not os.path.isfile(os.path.join(SOURCE, "hhalf", "__init__.py")):
        raise SystemExit("perfbench: no hhalf package under %s" % SOURCE)
    sys.path.insert(0, SOURCE)
    import hhalf
    import hhalf.cli  # noqa: F401  (not imported by the package itself)

    if os.path.dirname(os.path.dirname(os.path.abspath(hhalf.__file__))) != SOURCE:
        raise SystemExit("perfbench: imported hhalf from %s, not ./src" % hhalf.__file__)
    return hhalf


def probe(workload_name, seed):
    """Fresh-interpreter body of a set-up or memory sample.

    Imports hhalf and runs the warm-up operation, which ends set-up.
    With a seed it then runs one whole cycle of that seed's request
    list, keeping no output, and prints the peak resident memory of
    this process in KiB.
    """
    import workloads

    hh = import_hhalf()
    workload = workloads.WORKLOADS[workload_name](hh, seed)
    workload.call(workload.warmup)
    if seed is not None:
        for index in range(len(workload.requests)):
            workload.keep_artifact(index, workload.call(workload.prepare(index)))
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _probe(workload_name, seed=None):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--probe", "--workload", workload_name]
    if seed is not None:
        command += ["--seed", str(seed)]
    return subprocess.run(command, check=True, stdout=subprocess.PIPE, text=True).stdout


def measure_setup(workload_name):
    """Seconds from start to exit of fresh processes that import hhalf
    and run one operation.  Not scaled: the speed meter does not share
    these processes, and scaling widened their spread."""
    seconds = []
    for _ in range(SETUP_PROBES[workload_name]):
        start = time.perf_counter()
        _probe(workload_name)
        seconds.append(time.perf_counter() - start)
    return seconds


def measure_memory(workload_name, seed):
    """Peak resident memory, in MiB, of a fresh process that runs the
    warm-up and one whole cycle of the seed's request list."""
    return int(_probe(workload_name, seed).split()[-1]) / 1024.0


def environment(hh, seed, shares):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "numba": bool(hh._accel.NUMBA_AVAILABLE),
        "commit": git_commit(),
        "seed": seed,
        "family_shares": shares,
    }


def git_commit():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def closed_loop(workload, seconds, tracer=None, meter=None):
    """Whole cycles of the request list, for at most about `seconds`.

    A cycle runs every request once, in list order, so every cycle
    weighs the same work mix.  A new cycle starts only while one more,
    as long as the last, still ends within `seconds`; at least one
    cycle runs.  Untraced: one timed call per op.  Traced: each op runs
    once with and once without spans, in alternating order, so the
    overhead is measured on identical work.  With a meter, the machine
    speed is sampled between untimed ops and each op also gets a
    scaled time.
    """
    ops = []
    count = len(workload.requests)
    started = time.perf_counter()
    cycle, last = 0, 0.0
    while cycle == 0 or time.perf_counter() - started + last <= seconds:
        begun = time.perf_counter()
        for index in range(count):
            prepared = workload.prepare(index)
            record = {"index": index, "cycle": cycle}
            modes = [None] if tracer is None else ([False, True] if len(ops) % 2 == 0 else [True, False])
            for traced in modes:
                if traced:
                    tracer.op = len(ops)
                    first_span = len(tracer.spans)
                    tracer.install()
                if meter is not None:
                    meter.catch_up()
                start = time.perf_counter()
                execution = workload.call(prepared)
                end = time.perf_counter()
                elapsed = end - start
                if traced:
                    tracer.uninstall()
                    tracer.op = None
                    record["first_span"] = first_span
                key = "traced" if traced else "plain"
                record[key] = elapsed
                record[key + "_digest"] = workload.record(index, prepared, execution)
                if traced or tracer is None:
                    record["code"] = execution.code
                    record["bytes"] = len(execution.stdout)
                    record["span"] = (start, end)
            if tracer is not None:
                tracer.release(record["first_span"])
            ops.append(record)
        last = time.perf_counter() - begun
        cycle += 1
    if meter is not None:
        meter.catch_up()
        for op in ops:
            op["scaled"] = op["plain"] * meter.scale(*op["span"])
    return ops


def end_to_end(ops, setup, memory):
    """The end-to-end metrics of an untraced run: name -> (value, unit, n).

    Operation times are scaled to the meter's reference speed (speed.py).
    """
    import numpy as np

    latencies = [op["scaled"] for op in ops]
    n = len(ops)
    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "ops_per_s": (n / sum(latencies), "1/s", n),
        "latency_p50_ms": (1e3 * float(np.percentile(latencies, 50)), "ms", n),
        "latency_p90_ms": (1e3 * float(np.percentile(latencies, 90)), "ms", n),
        "peak_rss_mb": (memory, "MB", 1),
    }


def accuracy_pass(hh, name, seed):
    """Run the FULL-range request list once, untimed; returns the workload
    holding its outputs and the exit code of each request, or None."""
    import inputs
    import workloads

    requests = inputs.accuracy_requests(name, seed)
    if not requests:
        return None
    workload = workloads.WORKLOADS[name](hh, requests=requests)
    codes = []
    for index in range(len(requests)):
        prepared = workload.prepare(index)
        execution = workload.call(prepared)
        workload.record(index, prepared, execution)
        codes.append(execution.code)
    return workload, codes


def tally(labels):
    counts = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    return counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append this run's full result as one JSON line")
    parser.add_argument("--spans", help="write the traced run's spans here as JSON lines")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    sys.path.insert(0, HERE)
    import workloads

    if args.probe:
        probe(args.workload, args.seed)
        return 0
    if args.seed is None:
        args.seed = 0
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r; choose from %s or all" % (args.workload, ", ".join(workloads.WORKLOADS)))
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    import layers
    import reference
    import speed
    import tracing

    hh = import_hhalf()
    workload = workloads.WORKLOADS[args.workload](hh, args.seed)
    shares = workload.families()
    setup = measure_setup(args.workload) if args.trace == 0 else None
    meter = speed.Speedometer() if args.trace == 0 else None

    workload.call(workload.warmup)
    tracer = tracing.Tracer(layers.hhalf_modules()) if args.trace else None
    ops = closed_loop(workload, args.seconds, tracer, meter)

    # Everything below runs after the timed loop and feeds no timing.
    memory = measure_memory(args.workload, args.seed) if args.trace == 0 else None
    accuracy = accuracy_pass(hh, args.workload, args.seed) if args.trace else None
    store = reference.ReferenceStore(hh, workload.matrix_tol)
    wanted = workload.references() + reference.validation_references()
    if tracer is not None:
        wanted += [("blocks", json.loads(d), n, m) for d, n, m in tracer.blocks]
    if accuracy is not None:
        wanted += accuracy[0].references()
    store.prefetch(wanted)
    labels = workload.verify(store)
    failed = sum(labels[op["index"]][0] not in workloads.PASSING for op in ops)
    ref_ok, ref_lines = reference.validate(store)
    accel_ok, accel_lines = reference.accel_checks(hh)
    trace_mismatch = sum(op.get("plain_digest") != op.get("traced_digest") for op in ops) if tracer else 0
    correct = ref_ok and accel_ok and workload.nondeterministic == 0 and trace_mismatch == 0

    if args.trace:
        if accuracy is not None:
            checked, codes = accuracy
            outcomes = checked.verify(store)
        else:  # suite: the timed passes are their own accuracy check
            outcomes = {index: labels[index] for index in labels}
            codes = [op["code"] for op in ops[: len(workload.requests)]]
        metrics = layers.per_layer(workload, ops, tracer, store, outcomes, codes)
    else:
        metrics = end_to_end(ops, setup, memory)
    env = environment(hh, args.seed, shares)
    timed = tally(labels[op["index"]][0] for op in ops)
    print("workload %s  seed %d  trace %d  ops %d  cycles %d  distinct requests %d" % (
        args.workload, args.seed, args.trace, len(ops), ops[-1]["cycle"] + 1, len(workload.requests)))
    print("environment " + json.dumps(env, sort_keys=True))
    for name, (value, unit, count) in metrics.items():
        print("  %-36s %14.6g %-6s n=%d" % (name, value, unit, count))
    if meter is not None:
        raw = end_to_end([dict(op, scaled=op["plain"]) for op in ops], setup, 0.0)
        factors = [speed.REFERENCE_S / t for _, t in meter.samples]
        print("unscaled: " + "  ".join("%s %.6g" % (k, raw[k][0]) for k in ("ops_per_s", "latency_p50_ms", "latency_p90_ms"))
              + "  (speed factor %.3f..%.3f, %d samples)" % (min(factors), max(factors), len(factors)))
    print("timed outcomes " + json.dumps(timed, sort_keys=True))
    if args.trace:
        print("accuracy pass outcomes " + json.dumps(tally(label for label, _ in outcomes.values()), sort_keys=True))
    print("references " + store.summary())
    for line in ref_lines + accel_lines:
        print("check " + line)
    print("determinism: %d nondeterministic outputs, %d traced/untraced stdout mismatches" % (
        workload.nondeterministic, trace_mismatch))
    if tracer is not None and args.spans:
        tracer.write(args.spans)
    result = {
        "correct": bool(correct),
        "attempted": len(ops),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    if args.out:
        full = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                    seconds=args.seconds, environment=env, outcomes=timed,
                    samples={name: count for name, (_, _, count) in metrics.items()},
                    latencies=[[op["index"], op["cycle"], op["plain"], op.get("scaled")] for op in ops])
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "a") as handle:
            handle.write(json.dumps(full, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args):
    """Every workload for one seed, each in its own interpreter."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            command += ["--out", args.out]
        status = max(status, subprocess.run(command).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
