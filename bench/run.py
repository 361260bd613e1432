"""Benchmark of the sdar package, run from the root of a checkout.

    python3 bench/run.py --workload cli_pipeline --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 12
    python3 bench/run.py --record-digests

One run sets up its inputs from ``--seed`` (three times, reporting the
median as ``setup_s``), then runs whole rounds of the workload for
``--seconds``, checking every output. End-to-end times are wall times
rescaled to a nominal host speed with the probe in ``probe.py``. With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs half the time untraced and the same rounds again traced, and
reports the per-layer metrics. The last line of standard output is one JSON object.
``--workload all`` runs every workload both ways and prints all metrics
per workload. ``--record-digests`` rewrites ``digests.json`` from the
outputs at the default seed; do that only in a change that alters
numerics on purpose.

The package is imported from ``src/`` of the checkout this file lives
in, never from an installed copy; the run fails if ``src/`` is absent.
BLAS and OpenMP are pinned to one thread, the benchmark and its children
to one vCPU, and operations run one at a time in a single closed loop.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is first imported, here or in a child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from probe import NOMINAL_S, probe_s, scaled  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"
SETUP_REPS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true")
    return p.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def fresh_import_s(env: dict) -> float:
    """Wall time of a fresh interpreter that only runs ``import sdar``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import sdar"], env=env, cwd=ROOT,
                   check=True, timeout=120)
    return time.perf_counter() - t0


def set_up(workload, seed: int, workdir: Path, env: dict):
    """Inputs for the run, plus median rescaled set-up and import times."""
    setup_s, import_s = [], []
    for _ in range(SETUP_REPS):
        before = probe_s()
        t0 = time.perf_counter()
        imported = fresh_import_s(env)
        ctx = workload.setup(seed, workdir)
        total = time.perf_counter() - t0
        probes = [before, probe_s()]
        setup_s.append(scaled(total, probes))
        import_s.append(scaled(imported, probes))
    return ctx, statistics.median(setup_s), statistics.median(import_s)


def measure(workload, ctx, harness, seconds=None, rounds=None) -> list[list]:
    """Exactly ``rounds`` whole rounds, or as many as fit in ``seconds``.

    A round starts only if, at the mean round time so far, it ends
    within ``seconds``; the first round always runs.
    """
    done = []
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if rounds is not None:
            if len(done) == rounds:
                return done
        elif done and elapsed * (len(done) + 1) / len(done) > seconds:
            return done
        done.append(workload.round(ctx, len(done), harness))


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_untraced(W, workload, ctx, setup_s, args, env):
    rounds = measure(workload, ctx, W.Harness(in_process=False, child_env=env),
                     seconds=args.seconds)
    ops = [op for r in rounds for op in r]
    who = resource.RUSAGE_CHILDREN if workload.rss_of == "children" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_s": (statistics.median(scaled(op.seconds, op.probes) for op in ops), "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }
    notes = [f"op_s is {workload.op_label}; median of {len(ops)} operations "
             f"in {len(rounds)} rounds, rescaled to nominal host speed (probe.py)",
             f"unscaled: median op {statistics.median(op.seconds for op in ops):.4f} s, "
             f"median probe {statistics.median(p for op in ops for p in op.probes):.5f} s "
             f"against a nominal {NOMINAL_S} s",
             f"peak_rss_mb is the peak resident set of the "
             f"{'largest child process' if workload.rss_of == 'children' else 'benchmark process'}"]
    for cmd in ops[0].detail.get("stage_s", {}):
        t = statistics.median(scaled(*op.detail["stage_s"][cmd]) for op in ops if op.detail)
        notes.append(f"cli stage {cmd}: {t:.4f} s per chain, in a fresh process")
    return ops, metrics, notes


def run_traced(W, workload, ctx, import_s, args, workdir):
    import inputs
    import layers
    from spans import Tracer

    base_rounds = measure(workload, ctx, W.Harness(), seconds=args.seconds / 2)
    tracer = Tracer()
    layers.install(tracer)
    try:
        traced_rounds = measure(workload, ctx, W.Harness(tracer), rounds=len(base_rounds))
    finally:
        tracer.restore()
    base = [op for r in base_rounds for op in r]
    traced = [op for r in traced_rounds for op in r]

    if args.seed == inputs.DEFAULT_SEED:
        digested = base_rounds[0]
    else:
        ref_dir = workdir / "default-seed"
        ref_dir.mkdir()
        digested = workload.digest_ops(workload.setup(inputs.DEFAULT_SEED, ref_dir),
                                       W.Harness())
    changed = W.outputs_changed(W.load_recorded(DIGESTS, workload.name),
                                W.digests(digested))
    extra = {
        "import.sdar_s": import_s,
        "cli.bytes_written": statistics.mean(op.detail.get("bytes_written", 0) for op in traced),
        "trace.overhead_frac": (sum(scaled(op.seconds, op.probes) for op in traced)
                                / sum(scaled(op.seconds, op.probes) for op in base) - 1.0),
        "check.outputs_changed": len(changed),
    }
    metrics, missing, tails = layers.per_layer(tracer, extra)
    notes = [f"traced {len(traced)} operations; per-layer values are per operation "
             f"({workload.op_label}) and not rescaled"]
    notes += tails
    notes += [f"MISSING {m}" for m in missing]
    notes += [f"output changed against digests at seed {inputs.DEFAULT_SEED}: {n}"
              for n in changed]
    WORK.mkdir(exist_ok=True)
    tracer.dump(WORK / f"spans-{workload.name}-seed{args.seed}.json", environment(args))
    return base + traced + digested, metrics, notes


def run_one(args) -> dict:
    import workloads as W

    workload = W.WORKLOADS[args.workload]
    env = child_env()
    workdir = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        ctx, setup_s, import_s = set_up(workload, args.seed, workdir, env)
        if args.trace:
            ops, metrics, notes = run_traced(W, workload, ctx, import_s, args, workdir)
        else:
            ops, metrics, notes = run_untraced(W, workload, ctx, setup_s, args, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    print("env " + json.dumps(environment(args)))
    for note in notes:
        print(f"note [{workload.name}] {note}")
    for op in ops:
        for msg in op.failures:
            print(f"FAILED [{workload.name}] {msg}")
    for name, (value, unit) in metrics.items():
        print(f"metric [{workload.name}] {name} = {value:.6g} {unit}")
    print(f"metric [{workload.name}] failed_frac = {failed}/{attempted} = "
          f"{failed / attempted:.4g} (base: {attempted} checked outputs)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload untraced and traced, each in its own process."""
    import workloads as W

    results, table = {}, {}
    for name in W.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                raise SystemExit(f"{name} --trace {trace} exited {proc.returncode}")
            results[(name, trace)] = json.loads(lines[-1])
            for metric, m in results[(name, trace)]["metrics"].items():
                table.setdefault((trace, metric, m["unit"]), {})[name] = m["value"]
    names = list(W.WORKLOADS)
    print("\n" + " | ".join(["kind", "metric", "unit", *names]))
    for (trace, metric, unit), row in table.items():
        cells = [f"{row[n]:.6g}" if n in row else "-" for n in names]
        print(" | ".join(["per_layer" if trace else "end_to_end", metric, unit, *cells]))
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{'trace.' if trace else ''}{metric}": m
                    for (name, trace), r in results.items()
                    for metric, m in r["metrics"].items()},
    }


def record_digests() -> dict:
    import inputs
    import workloads as W

    doc = {"seed": inputs.DEFAULT_SEED, "digests": {}}
    attempted = failed = 0
    for name, workload in W.WORKLOADS.items():
        workdir = WORK / f"digests-{name}-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            ops = workload.digest_ops(workload.setup(inputs.DEFAULT_SEED, workdir), W.Harness())
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        attempted += sum(op.attempted for op in ops)
        failed += sum(op.failed for op in ops)
        for msg in (m for op in ops for m in op.failures):
            print(f"FAILED [{name}] {msg}")
        doc["digests"][name] = W.digests(ops)
    if failed:
        print(f"not writing {DIGESTS.name}: outputs failed their checks")
    else:
        DIGESTS.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {DIGESTS.name}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": {}}


def main(argv=None) -> int:
    args = parse_args(argv)
    # One vCPU for the benchmark, its children and the probe (see probe.py).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not (SRC / "sdar" / "__init__.py").is_file():
        print(f"error: {SRC} holds no sdar package; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sdar

    if Path(sdar.__file__).resolve().parent != (SRC / "sdar").resolve():
        print(f"error: imported sdar from {sdar.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.record_digests:
        result = record_digests()
    elif args.workload == "all":
        result = run_all(args)
    else:
        import workloads as W

        if args.workload not in W.WORKLOADS:
            print(f"error: unknown workload {args.workload!r}; choose from "
                  f"{', '.join(W.WORKLOADS)} or all", file=sys.stderr)
            return 2
        result = run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
