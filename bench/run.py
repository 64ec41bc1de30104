"""qmce benchmark: end-to-end metrics per workload, per-layer metrics when traced.

Run from the root of a qmce source checkout:

    python3 bench/run.py --workload tabulate --seed 1 --seconds 25 --trace 0

One client, one process, closed loop: the jobs of a workload (see
workloads.py) run one after another in this process, CLI jobs through
``qmce.cli.main`` with stdout captured.  It runs the whole number of
rounds whose summed job time is nearest to --seconds.  After each job,
outside its timed region, checks.py compares its output with the mpmath
oracle.  The last stdout line is one JSON object; the lines before it are
a readable report (run facts, every metric, failures).

--trace 1 runs every job twice, untraced and traced in alternating order,
compares their stdout bytes, and reports the per-layer metrics from the
traced copies (spans are written to bench/out/).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_LAUNCHES = 7
TAIL_BEYOND = 10  # job_s_tail: the slowest job time with this many jobs beyond it


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("tabulate", "ensembles", "sampling"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    """HEAD commit read from .git without running git; 'unknown' elsewhere."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _setup_seconds(root: Path) -> list[float]:
    """Wall times of fresh `python -m qmce.cli --help` processes."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "qmce.cli", "--help"], cwd=root, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"qmce --help exited {proc.returncode}")
    return times


def _api(qmce, job) -> str:
    """The n-fold consistency job: a short public-API call sequence."""
    s = qmce.make_spectrum([e for e, _ in job.levels])
    d = qmce.build_dos(s)
    composite = qmce.nfold_dos(d, job.params["copies"])
    bc, bm, gap = qmce.beta_temperature_consistency(composite, job.params["copies"] * job.params["energy"])
    return f"beta_canonical,beta_micro,gap\n{bc!r},{bm!r},{gap!r}\n"


def _execute(qmce, job):
    """Run one job; returns (seconds, exit code or None, stdout, exception name)."""
    saved = {k: os.environ.get(k) for k in job.env}
    os.environ.update(job.env)
    out, err = io.StringIO(), io.StringIO()
    rc, exc_name, text = None, "", ""
    try:
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if job.argv:
                    rc = qmce.cli.main(list(job.argv))
                else:
                    text = _api(qmce, job)
                    rc = 0
        except Exception as exc:  # the job boundary: record and go on
            exc_name = type(exc).__name__
        dt = time.perf_counter() - t0
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return dt, rc, text or out.getvalue(), exc_name


def _tail(times: list[float]):
    """Job time with TAIL_BEYOND jobs beyond it, its percentile, and the
    number of jobs beyond it (the slowest job when the run is that short)."""
    ordered = sorted(times)
    rank = len(ordered) - TAIL_BEYOND if len(ordered) > TAIL_BEYOND else len(ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


@dataclass
class Measured:
    """What the job loop measured."""

    times: list = field(default_factory=list)
    traced_times: list = field(default_factory=list)
    kinds: dict = field(default_factory=dict)  # kind -> [times, failed, checked, wrong]
    errors: dict = field(default_factory=dict)  # why a job failed -> count
    failures: list = field(default_factory=list)
    malformed: list = field(default_factory=list)
    peak_kb: int = 0
    failed: int = 0
    checked: int = 0
    wrong: int = 0
    mismatches: int = 0
    bytes_out: int = 0
    spent: float = 0.0
    rounds: int = 0


def _run_jobs(args, qmce, tracer, threads: int) -> Measured:
    """Closed loop over whole rounds; each job is checked after it is timed."""
    import checks
    import workloads

    t = Measured()
    for batch in workloads.rounds(args.workload, args.seed, threads):
        for job in batch:
            copies = [False]
            if tracer:
                copies = [False, True] if job.id % 2 == 0 else [True, False]
            runs = {}
            for traced in copies:
                if traced:
                    tracer.job = job.id
                    tracer.install()
                try:
                    runs[traced] = _execute(qmce, job)
                finally:
                    if traced:
                        tracer.uninstall()
                t.spent += runs[traced][0]
            dt, rc, out, exc_name = runs[False]
            t.peak_kb = max(t.peak_kb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            t.times.append(dt)
            kind = t.kinds.setdefault(job.params["kind"], [[], 0, 0, 0])
            kind[0].append(dt)
            if tracer:
                t.traced_times.append(runs[True][0])
                t.bytes_out += len(runs[True][2].encode())
                t.mismatches += runs[True][2] != out
            if exc_name or rc not in checks.expected_exit(job, out):
                why = exc_name or f"exit {rc}"
                t.failed += 1
                kind[1] += 1
                t.errors[why] = t.errors.get(why, 0) + 1
                t.failures.append(f"{job.label}: {why}")
                continue
            verdict = checks.check(job, rc, out, args.seed)
            t.checked += verdict.checked
            t.wrong += verdict.wrong
            kind[2] += verdict.checked
            kind[3] += verdict.wrong
            if verdict.malformed:
                t.malformed.append(f"{job.label}: {verdict.malformed}")
            if verdict.unjudged:
                t.failures.append(f"{job.label}: not judged, the oracle failed ({verdict.unjudged})")
            if verdict.wrong:
                t.failures.append(f"{job.label}: {verdict.wrong}/{verdict.checked} wrong, e.g. {verdict.notes[0]}")
        t.rounds += 1
        # stop at the whole number of rounds nearest to --seconds
        if t.spent + 0.5 * t.spent / t.rounds >= args.seconds:
            return t


def main(argv=None) -> int:
    args = _args(argv)
    root = Path.cwd()
    if not (root / "src" / "qmce" / "__init__.py").is_file():
        sys.stderr.write("bench: run from the root of a qmce checkout (src/qmce not found)\n")
        return 2
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))
    import numpy
    import qmce
    import qmce.cli

    import spans

    threads = min(2, _nproc())
    facts = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": _nproc(), "cpu": _cpu_model(), "python": platform.python_version(),
        "numpy": numpy.__version__,
        "QMCE_THREADS": str(threads) if args.workload == "sampling" else os.environ.get("QMCE_THREADS", "unset"),
        "commit": _git_commit(root),
    }
    print("# facts " + json.dumps(facts))
    setup = [] if args.trace else _setup_seconds(root)
    tracer = spans.Tracer() if args.trace else None
    t = _run_jobs(args, qmce, tracer, threads)

    attempted = len(t.times)
    fail_frac = t.failed / attempted
    wrong_frac = t.wrong / t.checked if t.checked else 0.0
    for line in t.failures:
        print("# failure " + line)
    for name, (ts, nf, nc, nw) in sorted(t.kinds.items()):
        print(f"# kind {name}: {len(ts)} jobs, median {statistics.median(ts):.4g} s, max {max(ts):.4g} s, "
              f"failed {nf}, wrong {nw}/{nc}")
    for line in t.malformed:
        print("# malformed " + line)
    print(f"# jobs {attempted} in {t.rounds} rounds, {t.spent:.3f} s of job time; "
          f"fail_frac {fail_frac:.6g} ({t.failed}/{attempted}, {t.errors}); "
          f"wrong_frac {wrong_frac:.6g} ({t.wrong}/{t.checked} values)")

    if tracer:
        traced_p50, plain_p50 = statistics.median(t.traced_times), statistics.median(t.times)
        vals = spans.layer_metrics(tracer, attempted, t.bytes_out, traced_p50 - plain_p50, t.mismatches)
        print(f"# trace overhead: traced job_s_p50 {traced_p50:.6g} s - untraced {plain_p50:.6g} s "
              f"= {traced_p50 - plain_p50:.6g} s; {len(tracer.records)} span records; "
              f"CSV mismatches {t.mismatches}")
        for key, (n, mean) in tracer.by_size().items():
            print(f"# per-call {key}: {n} calls, mean {mean:.6g} s")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{args.workload}-{args.seed}.json.gz")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in vals.items()}
    else:
        tail, pct, beyond = _tail(t.times)
        print(f"# job_s_tail is p{pct:.4g} of {attempted} jobs, with {beyond} jobs beyond it")
        print(f"# setup_s launches: {', '.join(f'{x:.4f}' for x in setup)}")
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "job_s_p50": {"value": statistics.median(t.times), "unit": "s"},
            "job_s_tail": {"value": tail, "unit": "s"},
            "jobs_per_s": {"value": attempted / sum(t.times), "unit": "1/s"},
            "peak_rss_mb": {"value": t.peak_kb / 1024.0, "unit": "MB"},
            "ok_frac": {"value": 1.0 - fail_frac, "unit": "ratio"},
            "right_frac": {"value": 1.0 - wrong_frac, "unit": "ratio"},
        }
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    correct = not t.malformed and not t.mismatches
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": t.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
