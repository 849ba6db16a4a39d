"""Benchmark of the ``doa`` command line.

One client runs jobs in a closed loop: each job is one ``doa.cli.main(argv)``
call on a document generated from ``--seed``, the next job starts when the
previous one returns, and every job's output is checked against a closed
form or an oracle after the timed loop.  See bench/README.md.

    python3 bench/run.py                          # every workload, untraced
    python3 bench/run.py --workload powers --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload powers --trace 1   # per-layer figures

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
TRACES = BENCH / "out"

SETUP_PROBES = 9  # fresh interpreters timed per run, after one untimed warm-up
MIN_JOBS = 3  # timed jobs per run (per kind in a traced run), however long they take
CAL_REF_S = 0.02  # calibrate()'s wall time at the reference host speed (README, "Host speed")
TRACKING = 0.75  # job times move by about this power of the calibration's changes

_clock = time.perf_counter


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_threads():
    """One BLAS thread per worker, and the spectrum pool at nproc workers,
    so compute threads never outnumber the CPUs; child processes find the
    package through PYTHONPATH.  Runs before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["DOA_THREADS"] = str(nproc())
    os.environ["PYTHONPATH"] = str(SRC)


def default_seconds() -> int:
    try:
        return int(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    except (OSError, ValueError, KeyError):
        return 20


# --- host speed -------------------------------------------------------------------


def _kernel() -> float:
    """Wall time of a fixed pure-Python loop of about 20 ms."""
    t0 = _clock()
    acc, table = 0, {}
    for i in range(50_000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = str(acc)
    return _clock() - t0


def calibrate(every_cpu: bool) -> float:
    """How fast the host runs right now, as the kernel's wall time.

    The CPUs of a shared host speed up and slow down each on its own.  A job
    that runs on the calling thread is timed against the CPU that thread is
    on; a job spread over threads (and a fresh process) against the mean of
    every CPU, the kernel pinned to each in turn.
    """
    if not every_cpu:
        return _kernel()
    home = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(home):
            os.sched_setaffinity(0, {cpu})  # this thread only
            times.append(_kernel())
    finally:
        os.sched_setaffinity(0, home)
    return statistics.fmean(times)


def at_reference_speed(fn, every_cpu: bool):
    """(fn(), scale): scale turns a wall time measured in fn() into seconds at
    the reference host speed, from calibrations just before and just after."""
    before = calibrate(every_cpu)
    result = fn()
    return result, (CAL_REF_S / math.sqrt(before * calibrate(every_cpu))) ** TRACKING


# --- metadata -------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


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
    return "unknown (not a git checkout)"


def metadata(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy as np
    from doa import functional

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    workers = getattr(functional, "_default_workers", None)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "spectrum_pool_workers": workers() if workers is not None else None,
        "nproc": nproc(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
    }


# --- one workload -----------------------------------------------------------------


@dataclass
class Job:
    out_file: Path
    seconds: float
    traced: bool
    error: str | None  # None: exit code 0 and output not yet found wrong
    out_bytes: int = 0
    scale: float = 1.0  # seconds * scale is the job time at the reference host speed
    tracer: object = None
    layers: dict | None = None


def run_job(argv: list[str], out_file: Path, tracer=None) -> Job:
    from doa import cli

    sink = io.StringIO()
    error = None
    gc.collect()  # every job starts from a clean heap, as a fresh `doa` process does
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        if tracer is not None:
            tracer.install()
        try:
            t0 = _clock()
            try:
                if tracer is not None:
                    with tracer.span("cli.main"):
                        rc = cli.main(argv)
                else:
                    rc = cli.main(argv)
            except Exception:  # a crashed job is a failed job, not a crashed run
                rc, error = None, traceback.format_exc()
            seconds = _clock() - t0
        finally:
            if tracer is not None:
                tracer.remove()
    if error is None and rc != 0:
        error = f"exit code {rc}: {sink.getvalue()[-500:]}"
    out_bytes = len(sink.getvalue().encode()) + (out_file.stat().st_size if out_file.exists() else 0)
    job = Job(out_file, seconds, tracer is not None, error, out_bytes)
    if tracer is not None:
        from tracer import layer_metrics

        job.tracer = tracer
        job.layers = {**layer_metrics(tracer), "cli.out_bytes": job.out_bytes}
    return job


def probe_setup(doc: Path) -> float:
    """Wall time of a fresh interpreter that imports doa.cli and loads the document.

    No timeout: with one, `subprocess` polls the child with sleeps of up to
    50 ms, which would be measured too.
    """
    t0 = _clock()
    subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), str(doc)], check=True, stdout=subprocess.DEVNULL)
    return _clock() - t0


@dataclass
class RunResult:
    attempted: int  # jobs, the warm-up included
    failed: int
    setup: list[float]  # seconds per set-up probe, at the reference host speed
    plain: list[float]  # seconds per untraced timed job, at the reference host speed
    ok_jobs: int  # untraced timed jobs that passed
    peak_rss_mb: float
    traced_jobs: list[Job]
    setup_raw: list[float] = ()  # the same as measured, before scaling
    plain_raw: list[float] = ()


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> RunResult:
    from tracer import Tracer
    from workloads import WORKLOADS, CheckFailed

    work = WORK / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=False)
    try:
        workload = WORKLOADS[name](seed, work)
        probe_setup(workload.doc_path)  # warm-up: byte-compiles the sources
        setup: list[float] = []
        setup_raw: list[float] = []

        def probe():
            seconds, scale = at_reference_speed(lambda: probe_setup(workload.doc_path), True)
            setup_raw.append(seconds)
            setup.append(seconds * scale)

        def job(i: int, traced: bool) -> Job:
            out_file = work / f"out-{i}"
            tracer = Tracer() if traced else None
            done, done.scale = at_reference_speed(
                lambda: run_job(workload.argv(out_file), out_file, tracer), workload.on_pool
            )
            return done

        warmup = job(0, False)
        jobs: list[Job] = []
        timed = 0.0
        while True:
            traced_n = sum(j.traced for j in jobs)
            plain_n = len(jobs) - traced_n
            enough = plain_n >= MIN_JOBS and (not trace or traced_n >= MIN_JOBS)
            if timed >= seconds and enough:
                break
            # probes are spread over the run, so setup_s sees the whole window
            if len(setup) < SETUP_PROBES and timed >= len(setup) * seconds / SETUP_PROBES:
                probe()
            jobs.append(job(len(jobs) + 1, trace and len(jobs) % 2 == 1))
            timed += jobs[-1].seconds
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while len(setup) < SETUP_PROBES:
            probe()

        # every output is checked after the timed loop
        for j in [warmup] + jobs:
            if j.error is None:
                try:
                    workload.check(j.out_file)
                except (CheckFailed, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                    j.error = f"check failed: {exc}"
            j.out_file.unlink(missing_ok=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # fails, as it should, while another run uses it

    every = [warmup] + jobs
    failed = sum(j.error is not None for j in every)
    for j in every:
        if j.error is not None:
            print(f"job failed: {j.error}", file=sys.stderr)
    return RunResult(
        attempted=len(every),
        failed=failed,
        setup=setup,
        plain=[j.seconds * j.scale for j in jobs if not j.traced],
        ok_jobs=sum(1 for j in jobs if not j.traced and j.error is None),
        peak_rss_mb=peak_rss_mb,
        traced_jobs=[j for j in jobs if j.traced],
        setup_raw=setup_raw,
        plain_raw=[j.seconds for j in jobs if not j.traced],
    )


def end_to_end(r: RunResult) -> dict:
    return {
        "setup_s": (statistics.median(r.setup), "s"),
        "job_p50_s": (statistics.median(r.plain), "s"),
        "jobs_per_s": (r.ok_jobs / sum(r.plain), "1/s"),
        "peak_rss_mb": (r.peak_rss_mb, "MB"),
    }


def per_layer(r: RunResult) -> dict:
    """Medians over the traced jobs; counts are the same in every job."""
    out = {}
    for k in r.traced_jobs[0].layers:
        if k.endswith(("_share", "_frac")):
            unit, median = "frac", statistics.median
        else:
            unit, median = ("bytes" if k.endswith("_bytes") else "count"), statistics.median_low
        out[k] = (median(j.layers[k] for j in r.traced_jobs), unit)
    out["trace.job_s"] = (statistics.median(j.seconds for j in r.traced_jobs), "s")
    traced_s = statistics.median(j.seconds * j.scale for j in r.traced_jobs)
    out["trace.overhead_frac"] = (traced_s / statistics.median(r.plain) - 1.0, "frac")
    return out


def write_trace_file(name: str, seed: int, meta: dict, r: dict, metrics: dict):
    from tracer import span_records

    TRACES.mkdir(exist_ok=True)
    doc = {
        "meta": meta,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "job_seconds": {"untraced": r.plain_raw, "traced": [j.seconds for j in r.traced_jobs]},
        "spans_of_last_traced_job": span_records(r.traced_jobs[-1].tracer),
    }
    path = TRACES / f"trace-{name}-seed{seed}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path


def report(name: str, seed: int, seconds: int, trace: int) -> int:
    meta = metadata(name, seed, seconds, trace)
    print("meta " + json.dumps(meta))
    r = run_workload(name, seed, seconds, bool(trace))
    metrics = per_layer(r) if trace else end_to_end(r)
    print(
        f"{name} seed {seed}: {len(r.plain)} untraced timed jobs"
        + (f", {len(r.traced_jobs)} traced" if trace else "")
        + f"; {r.attempted} attempted with the warm-up, {r.failed} failed"
        f" (failed_frac {r.failed / r.attempted:.4g}); {len(r.setup)} set-up probes"
    )
    print(
        f"  as measured, before scaling to the reference host speed: set-up median {statistics.median(r.setup_raw):.4g} s,"
        f" job median {statistics.median(r.plain_raw):.4g} s"
    )
    for k, (v, unit) in metrics.items():
        print(f"  {k:34s} {v:>14.6g} {unit}")
    if trace:
        print(f"  trace file: {write_trace_file(name, seed, meta, r, metrics).relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": r.failed == 0,
                "attempted": r.attempted,
                "failed": r.failed,
                "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
            }
        )
    )
    return 0


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Every workload, each in its own process (so peak RSS is per workload)."""
    from workloads import WORKLOADS

    status = 0
    summary = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE,
            text=True,
            timeout=600,
        )  # fmt: skip
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if result is None or not result["correct"]:
            status = 1
        summary[name] = result
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None, help="one workload; default: all, one process each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="timed job time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "doa" / "cli.py").is_file():
        print(f"error: {SRC / 'doa'} not found; run from a checkout with the doa sources", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    seconds = args.seconds if args.seconds is not None else default_seconds()
    if args.workload is None:
        return run_all(args.seed, seconds, args.trace)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    return report(args.workload, args.seed, seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
