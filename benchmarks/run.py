"""vrec benchmark: three-stage training throughput and per-request serving latency.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload serve_deep --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20   # every workload

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json, measured with no
tracing; with ``--trace 1`` they are the per-layer metrics of a traced pass.
The line before it records the environment (cores, Python, numpy and BLAS,
git commit) and details that are not metrics. See README.md.
"""

from __future__ import annotations

import os

# One BLAS and OpenMP thread, pinned before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("train_pipeline", "serve_deep", "serve_plain")
CHILD_TIMEOUT_S = 175

# every end-to-end metric, with its unit
END_TO_END = (
    ("setup_s", "s"),
    ("samples_per_s", "samples/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p99", "ms"),
    ("peak_rss_mb", "MiB"),
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error(f"--seed must be non-negative, got {args.seed}")
    if not 0 < args.seconds <= 120:
        p.error(f"--seconds must lie in (0, 120], got {args.seconds}")
    return args


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "commit": _git_commit()}


def _import_vrec():
    """Import vrec from this checkout's src/, and from nowhere else."""
    if not (SRC / "vrec" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'vrec'} not found; run from a vrec checkout")
    sys.path.insert(0, str(SRC))
    import vrec

    if Path(vrec.__file__).resolve().parent != (SRC / "vrec").resolve():
        raise SystemExit(f"error: imported vrec from {vrec.__file__}, not {SRC}")


def _result(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}


def _timings(tally, adjusted: bool) -> dict:
    """samples_per_s and request latency percentiles of one pass."""
    lat = tally.latencies(adjusted)
    if tally.stage_spans:
        samples_per_s = sum(tally.stage_samples.values()) / sum(tally.stage_s(adjusted).values())
    else:
        samples_per_s = len(lat) / sum(lat)
    return {"samples_per_s": samples_per_s,
            "latency_ms_p50": 1e3 * statistics.median(lat),
            "latency_ms_p99": 1e3 * statistics.quantiles(lat, n=100)[98]}


def _run_one(args) -> int:
    _import_vrec()
    import workloads

    w = workloads.WORKLOADS[args.workload]
    try:
        workloads.validate(w, args.seed)
    except workloads.ConfigInvalid as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    workdir = Path(tempfile.mkdtemp(prefix=f".bench_work-{w.name}-", dir=ROOT))
    try:
        info = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "env": _environment()}
        if args.trace:
            result = _traced(w, args.seed, workdir, info)
        else:
            result = _untraced(w, args.seed, args.seconds, workdir, info)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


def _untraced(w, seed: int, seconds: float, workdir: Path, info: dict) -> dict:
    from hostclock import HostClock
    import workloads

    with HostClock() as clock:
        state, before = workloads.timed_setup(w, seed, workdir, workloads.SETUP_REPS, clock)
        tally = workloads.Tally(clock)
        with workloads.settled():
            workloads.measure(w, seed, state, workdir, seconds, tally)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        del state
        _, after = workloads.timed_setup(w, seed, workdir, workloads.SETUP_REPS, clock)
    setups = before + after
    info.update(requests=len(tally.request_s), setup_reps=len(setups),
                host_slowdown=clock.slowdown())
    # an aborted run has no figures to report
    metrics = {name: 0.0 for name, _ in END_TO_END}
    if not tally.failed:
        metrics.update(_timings(tally, adjusted=True),
                       setup_s=statistics.median(clock.adjusted(*s) for s in setups),
                       peak_rss_mb=peak_rss_mb)
        info["unadjusted"] = dict(_timings(tally, adjusted=False),
                                  setup_s=statistics.median(clock.raw(*s) for s in setups))
    if w.train and not tally.failed:  # figures that are not metrics
        stage_s = tally.stage_s()
        info["stage_samples_per_s"] = {s: tally.stage_samples[s] / stage_s[s]
                                       for s in workloads.STAGES}
        info["recall_at_10"], info["ndcg_at_10"] = tally.quality
        info["test_recall_at_10"], info["test_ndcg_at_10"] = tally.test_quality
    return _result(tally.failed == 0, tally.attempted, tally.failed, metrics,
                   dict(END_TO_END))


def _traced(w, seed: int, workdir: Path, info: dict) -> dict:
    """Set up once under the trace, then run the same fixed work untraced and
    traced; the per-layer metrics come from the traced pass."""
    from hostclock import HostClock
    import layertrace
    import workloads

    tracer = layertrace.Tracer()
    with HostClock() as clock:
        with tracer.installed():
            state = workloads.setup(w, seed, workdir)
        plain, traced = workloads.Tally(clock), workloads.Tally(clock)
        with workloads.settled():
            a = clock.stamp()
            workloads.measure(w, seed, state, workdir, 0.0, plain, fixed=True)
            b = clock.stamp()
            with tracer.installed():
                workloads.measure(w, seed, state, workdir, 0.0, traced, fixed=True,
                                  on_stage=tracer.set_phase)
            c = clock.stamp()

    samples = sum(traced.stage_samples.values()) + traced.requests
    metrics = layertrace.layer_metrics(
        tracer, workloads.STAGES + ("serve",), clock.raw(b, c),
        clock.adjusted(b, c) / clock.adjusted(a, b), samples,
        traced.stage_s(adjusted=False), (plain.stage_s(), plain.stage_samples),
        traced.quality or (0.0, 0.0))
    info.update(untraced_s=clock.adjusted(a, b), traced_s=clock.adjusted(b, c),
                samples=samples, host_slowdown=clock.slowdown())
    failed = plain.failed + traced.failed
    return _result(failed == 0, plain.attempted + traced.attempted, failed, metrics,
                   dict(layertrace.PER_LAYER))


def _run_all(args) -> int:
    """Each workload in a fresh process, so no warm state carries over and
    peak RSS is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: {name} exited with {proc.returncode}", file=sys.stderr)
            status = proc.returncode or 1
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        print(f"{name}:")
        for metric, m in result["metrics"].items():
            print(f"  {metric:32s} {m['value']:14.6g} {m['unit']}")
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    if status:
        return status
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
