#!/usr/bin/env python3
"""The kee benchmark: end-to-end and per-layer timings of hirzebruch_kee.

Run from the root of a source checkout (the package is imported from
``src/``, nothing needs installing):

    python3 kee_bench/run.py --workload verify-grid --seed 1 --seconds 20 --trace 0
    python3 kee_bench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 kee_bench/run.py --self-test

Workloads (see workloads.py): ``verify-grid``, ``collapse-fiber`` and
``cold-cli``.  With ``--trace 0`` a run reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it times ops untraced for half the
seconds, replays the same ops traced and reports the per-layer metrics
(layers.py), including the tracing overhead.  In-process op times are
scaled to a reference host speed measured right before each op (speed.py);
the measured values are kept in the run report.  Every op's output is checked against independent references
(oracles.py); an op that fails a check counts in ``failed_ops_ratio``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full report (environment,
drawn inputs, workload description, failures) is written to
``kee_bench/out/``, and a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import speed  # noqa: E402  (sibling modules; they import nothing heavy)
import workloads  # noqa: E402

E2E_UNITS = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_ops_s": "1/s",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
SETUP_SAMPLES = 3
TAIL_BEYOND = 10          # the tail percentile keeps this many samples above it
THREAD_VARS = ("KEE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def fail_usage(message: str) -> None:
    print(f"kee_bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="summed op time to measure (halved, then replayed traced, with --trace 1)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one op per phase and one set-up sample (self-test)")
    ap.add_argument("--inject-fault", choices=("wrong-row", "quiet-detector"),
                    help="corrupt outputs on purpose (self-test of the checks)")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def check_environment() -> None:
    if "KEE_THREADS" in os.environ:
        fail_usage("KEE_THREADS is set; the benchmark measures the default "
                   "(unset) configuration, so unset it and run again")
    if not os.path.isfile(os.path.join(ROOT, "src", "hirzebruch_kee", "__init__.py")):
        fail_usage(f"no package source at {os.path.join(ROOT, 'src', 'hirzebruch_kee')}; "
                   "run the benchmark from a source checkout")


def environment() -> dict:
    versions = {}
    for dist in ("numpy", "scipy", "mpmath"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        **versions,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# -- statistics ---------------------------------------------------------------

def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it.  Below 2*TAIL_BEYOND + 1 samples that percentile would not
    exceed the median, so the maximum is reported instead."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(records: list[dict], setup: list[float], peak_rss_mb: float,
               at_reference: bool = True) -> dict:
    """The end-to-end metrics; op times at reference speed (see speed.py)
    unless `at_reference` is false."""
    scale = [r["factor"] if at_reference else 1.0 for r in records]
    walls = [r["wall"] * f for r, f in zip(records, scale)]
    tail_value, _ = tail(walls)
    return {
        "latency_p50_ms": statistics.median(walls) * 1e3,
        "latency_tail_ms": tail_value * 1e3,
        "throughput_ops_s": len(walls) / sum(walls),
        "cpu_ms_per_op": sum(r["cpu"] * f for r, f in zip(records, scale)) / len(records) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup),
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0     # Linux reports KiB


# -- phases ---------------------------------------------------------------------

def run_phase(runner, checker, seconds: float, args, replay: int = 0, tracer=None):
    """Closed-loop ops from op 0 until their summed wall time reaches
    `seconds` and the current cycle is complete; each op is checked after
    its timing ends.

    A traced phase instead replays the first `replay` ops, so that traced
    and untraced timings cover the same inputs; it records spans in
    `tracer` (warm workloads) or in traced child processes (cold workload,
    `tracer` is None)."""
    records, spent, k = [], 0.0, 0
    cycle = runner.workload.cycle
    traced = replay > 0
    while True:
        spec = runner.spec(k)
        # process start-up and import slow down far less under host load than
        # the kernel does, so cold ops keep their measured times
        factor = 1.0 if spec["kind"] == "cold" else speed.factor()
        if tracer is not None:
            tracer.current_op = k
            span = tracer.open("bench.op")
        res = runner.execute(k, spec, traced)
        if tracer is not None:
            tracer.close(span, raised=res.error is not None)
        records.append({"op": k, "kind": spec["kind"], "wall": res.wall, "cpu": res.cpu,
                        "factor": factor,
                        "problems": check_op(checker, spec, res, args.inject_fault)})
        spent += res.wall
        k += 1
        if replay:
            if k == replay:
                return records
        elif args.smoke or (spent >= seconds and k % cycle == 0):
            return records


def check_op(checker, spec, res, fault) -> list[str]:
    if res.error is not None:
        return [f"{spec['kind']}: {res.error}"]
    try:
        if spec["kind"] == "detector":
            return checker.check_detector(res.values)
        problems = []
        for argv, code, path in res.outputs:
            problems += checker.check_cli(argv, code, workloads.read_report(path),
                                          wrong_row=fault == "wrong-row")
        return problems
    except Exception as exc:       # a malformed report must count as a failed op
        return [f"{spec['kind']}: checking raised {type(exc).__name__}: {exc}"]


def setup_samples(runner, args) -> list[float]:
    """Seconds of several set-ups (the median is reported; set-up is mostly
    import, so like cold ops it keeps its measured time).

    Warm workloads time their own in-process set-up once and repeat it in
    fresh probe processes; the cold workload times warm-up launches."""
    count = 1 if args.smoke or args.trace or args.setup_probe else SETUP_SAMPLES
    if runner.workload.name == "cold-cli":
        return [runner.cold_setup() for _ in range(count)]
    samples = [runner.setup()]
    probe = [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(count - 1):
        proc = subprocess.run(probe, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def import_times(samples: int = 3) -> dict:
    """Package and scipy.interpolate import (cumulative ms) from -X importtime
    in fresh processes, median over `samples`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    found = {"hirzebruch_kee": [], "scipy.interpolate": []}
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hirzebruch_kee"],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.strip()[-400:]}")
        seen = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                seen[parts[2].strip()] = int(parts[1]) / 1e3
        for mod in found:
            found[mod].append(seen.get(mod, 0.0))
    return {"import.package_ms": statistics.median(found["hirzebruch_kee"]),
            "import.scipy_interpolate_ms": statistics.median(found["scipy.interpolate"])}


# -- one workload -----------------------------------------------------------------

def run_workload(args) -> dict:
    os.makedirs(OUT, exist_ok=True)
    workload = workloads.make_workload(args.workload, args.seed)
    runner = workloads.Runner(workload, ROOT, OUT)
    cold = workload.name == "cold-cli"
    setup = setup_samples(runner, args)
    if args.setup_probe:
        return {"setup": setup[0]}

    import oracles
    import layers
    from tracer import Tracer, concat, load, save

    refs = oracles.References()
    refs.prefetch(workload.reference_points())
    checker = oracles.Checker(refs)
    runner.quiet_detector = args.inject_fault == "quiet-detector"
    if args.trace == 0:
        records = run_phase(runner, checker, args.seconds, args)
        rss = peak_rss_mb(children=cold)
        metrics = end_to_end(records, setup, rss)
        measured = end_to_end(records, setup, rss, at_reference=False)
        units = E2E_UNITS
        traced_records = []
    else:
        records = run_phase(runner, checker, args.seconds / 2.0, args)
        tracer = None if cold else Tracer()
        if tracer is not None:
            tracer.install()
        try:
            traced_records = run_phase(runner, checker, 0.0, args,
                                       replay=len(records), tracer=tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if cold:
            parts = []
            for rec, path in zip(traced_records, runner.child_spans):
                if not os.path.exists(path):     # the child died before writing spans
                    continue
                part = load(path)
                part["op"][:] = rec["op"]
                parts.append(part)
                os.remove(path)
            spans = concat(parts) if parts else Tracer().table()
        else:
            spans = tracer.table()
        save(os.path.join(OUT, f"spans-{workload.name}-seed{args.seed}.npz"), spans)
        metrics = layers.function_stats(spans, len(traced_records))
        metrics.update(import_times(1 if args.smoke else 3))
        untraced = end_to_end(records, setup, 0.0)["latency_p50_ms"]
        traced = end_to_end(traced_records, setup, 0.0)["latency_p50_ms"]
        metrics["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
        metrics["trace.op_ms"] = statistics.mean(r["wall"] for r in traced_records) * 1e3
        units = layers.metric_units()
        metrics = {name: metrics[name] for name in units}
        measured = {}

    all_records = records + traced_records
    failed = [r for r in all_records if r["problems"]]
    walls = [r["wall"] for r in records]
    _, tail_pct = tail(walls)
    report = {
        "workload": workload.describe(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "setup_samples_s": setup,
        "ops": {"attempted": len(all_records), "failed": len(failed),
                "failed_ops_ratio": len(failed) / len(all_records),
                "untraced": len(records), "traced": len(traced_records),
                "tail_percentile": tail_pct, "tail_samples": len(walls)},
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "measured_metrics": {name: {"value": value, "unit": units[name]}
                             for name, value in measured.items()},
        "measured_latencies_ms": [round(w * 1e3, 3) for w in walls],
        "speed_factors": [round(r["factor"], 4) for r in records],
        "failures": [{"op": r["op"], "problems": r["problems"][:5]} for r in failed[:20]],
    }
    path = os.path.join(OUT, f"report-{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return report


def print_table(report: dict) -> None:
    name = report["workload"]["name"]
    ops = report["ops"]
    print(f"# {name}: seed {report['seed']}, {ops['attempted']} ops "
          f"({report['workload']['loop']} loop, {report['workload']['clients']} client), "
          f"tail = p{ops['tail_percentile']:.1f} of {ops['tail_samples']} samples")
    for metric, entry in report["metrics"].items():
        print(f"{name:15s} {metric:45s} {entry['value']:14.6g} {entry['unit']}")
    print(f"{name:15s} {'failed_ops_ratio':45s} {ops['failed_ops_ratio']:14.6g} ratio")
    if report["measured_metrics"]:
        print("# op times above are at reference speed for in-process ops (speed.py); as measured:")
        for metric, entry in report["measured_metrics"].items():
            print(f"# {name:13s} {metric:45s} {entry['value']:14.6g} {entry['unit']}")
    for failure in report["failures"][:3]:
        print(f"# failed op {failure['op']}: {'; '.join(failure['problems'][:2])}")


def result_line(reports: list[dict]) -> str:
    metrics = {}
    for report in reports:
        prefix = "" if len(reports) == 1 else report["workload"]["name"] + "."
        for name, entry in report["metrics"].items():
            metrics[prefix + name] = entry
    attempted = sum(r["ops"]["attempted"] for r in reports)
    failed = sum(r["ops"]["failed"] for r in reports)
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def run_all(args) -> list[dict]:
    """Each workload in its own process, so no import state is shared."""
    reports = []
    for name in workloads.NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        cmd += ["--smoke"] if args.smoke else []
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise SystemExit(proc.returncode)
        path = os.path.join(OUT, f"report-{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, encoding="utf-8") as fh:
            reports.append(json.load(fh))
    return reports


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    check_environment()
    if args.self_test:
        import selftest
        return selftest.main(os.path.abspath(__file__), ROOT)
    if args.setup_probe:
        print(run_workload(args)["setup"])
        return 0
    reports = run_all(args) if args.workload == "all" else [run_workload(args)]
    for report in reports:
        print_table(report)
    print(result_line(reports))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
