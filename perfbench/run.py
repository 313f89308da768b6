"""tanprimes benchmark: end-to-end run time, memory and correctness per
workload, or per-layer spans and counts in a separate traced run.

    python3 perfbench/run.py --workload band-k4 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
./src, never from an installed copy. One closed-loop client: each op starts
only after the previous one has exited. Every op's output is checked
against the recorded reference (check.py).

--trace 0 prints wall_s (one pass: the sum of each op's median wall time),
peak_rss_mb (largest child RSS in a pass, median over passes) and setup_s
(median import time of a fresh interpreter, sampled before every op).
--trace 1 runs each op once in a fresh interpreter under spans (child.py)
and prints the per-layer metrics. The last stdout line is the JSON result;
the `#` lines before it record the environment and every sample.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import check
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_LIMIT_S = 170.0        # a run must end within 180 s; ops get what is left
MIN_SETUP_SAMPLES = 7
MAX_THREADS = 2            # --threads of every op, capped at the CPUs available

# Per-layer metrics: (name, unit). Span-time metrics are "<span name>_s".
LAYER_SPANS = (
    "cli.import", "window.build", "primesieve.sieve", "seqeval.value_table",
    "repcount.pair_map", "repcount.scan", "repcount.naive",
    "asymptotics.conv3", "asymptotics.grid_weights", "asymptotics.compare",
    "circle.quadrature", "circle.arc", "circle.sums",
)
COUNTS = (
    "primesieve.primes", "seqeval.values", "seqeval.escalated", "repcount.pair_ops",
    "repcount.pair_span", "repcount.targets", "repcount.naive_iters",
    "asymptotics.conv3_terms", "asymptotics.grid_points", "circle.quadrature_phases",
    "circle.sum_terms",
)
PEAKS = ("repcount.pair_map_peak_mb", "circle.quadrature_peak_mb")


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("TANPRIMES_THREADS", None)  # it would override --threads
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"                  # the ops use no BLAS; keep its pool idle
    return env


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed: int, threads: int) -> dict:
    return {
        "nproc": cpu_count(), "threads": threads, "seed": seed,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "mpmath": importlib.metadata.version("mpmath"),
        "commit": commit(), "src_sha256": source_digest(),
    }


class Runner:
    """Starts one child at a time and reaps it with os.wait4 for its rusage."""

    def __init__(self, tmp: pathlib.Path, deadline: float):
        self.tmp = tmp
        self.deadline = deadline
        self.env = child_env()

    def run(self, cmd: list[str], stdout: pathlib.Path) -> tuple[float, int, float]:
        """Wall seconds, exit code and peak RSS (MiB) of one child."""
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(stdout, "wb") as out, open(self.tmp / "stderr", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024

    def stderr_tail(self) -> str:
        return (self.tmp / "stderr").read_text(errors="replace")[-400:]

    def expired(self) -> bool:
        return time.monotonic() >= self.deadline


def import_time(runner: Runner) -> float:
    """Wall time of one fresh interpreter that imports tanprimes.cli and exits."""
    wall, rc, _ = runner.run([sys.executable, "-c", "import tanprimes.cli"],
                             runner.tmp / "setup.out")
    if rc != 0:
        raise RuntimeError(f"import tanprimes.cli failed: {runner.stderr_tail()}")
    return wall


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.identical = 0

    def judge(self, workload: str, op: workloads.Op, rc: int, output: pathlib.Path,
              seed: int, runner: Runner) -> None:
        self.attempted += 1
        if rc != 0:  # every op of every workload is expected to succeed
            problems = [f"exit code {rc}: {runner.stderr_tail()}"]
        else:
            problems, identical = check.check_output(
                workload, op, output.read_text(encoding="utf-8"), seed)
            self.identical += identical
        output.unlink(missing_ok=True)
        if problems:
            self.failed += 1
            print(f"# FAIL {workload}/{op.name}: " + "; ".join(problems), flush=True)


def end_to_end(workload: str, seed: int, seconds: int, threads: int, runner: Runner,
               tally: Tally) -> dict:
    """Passes over the workload's ops until the next would overrun --seconds.

    One import-time sample is taken before every op, so the setup_s samples
    spread over the whole run rather than one moment of it.
    """
    ops = workloads.WORKLOADS[workload]
    op_walls = [[] for _ in ops]
    rss, setup = [], []
    import_time(runner)  # warm-up: the first import may compile bytecode
    begin = time.monotonic()
    while True:
        start = time.monotonic()
        peak = 0.0
        for op, walls in zip(ops, op_walls):
            setup.append(import_time(runner))
            out = runner.tmp / "op.out"
            if op.is_cli:
                cmd = [sys.executable, "-m", "tanprimes.cli", *op.argv(threads)]
            else:
                cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
                       "--op", op.name, "--seed", str(seed), "--threads", str(threads)]
            dt, rc, op_rss = runner.run(cmd, out)
            walls.append(dt)
            peak = max(peak, op_rss)
            tally.judge(workload, op, rc, out, seed, runner)
        rss.append(peak)
        print(f"# pass {len(rss)}: op wall_s={[w[-1] for w in op_walls]} "
              f"peak_rss_mb={peak}", flush=True)
        now = time.monotonic()
        if now - begin + (now - start) > seconds or runner.expired() or tally.failed:
            break
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(import_time(runner))
    print(f"# passes={len(rss)} setup_s samples={setup}", flush=True)
    return {
        # one pass = the sum over ops of each op's median, which keeps a
        # slow moment of the machine in one op from moving the whole pass
        "wall_s": (sum(statistics.median(w) for w in op_walls), "s"),
        "peak_rss_mb": (statistics.median(rss), "MiB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def traced(workload: str, seed: int, threads: int, runner: Runner, tally: Tally) -> dict:
    """One pass with each op replayed under spans in its own interpreter."""
    span_s = dict.fromkeys(LAYER_SPANS, 0.0)
    counts = dict.fromkeys(COUNTS, 0)
    peaks = dict.fromkeys(PEAKS, 0.0)
    min_frac = []
    op_wall = covered = self_s = overhead_s = 0.0
    for i, op in enumerate(workloads.WORKLOADS[workload]):
        out, trace_out = runner.tmp / "op.out", runner.tmp / "trace.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
               "--op", op.name, "--seed", str(seed), "--threads", str(threads),
               "--output", str(out), "--trace-out", str(trace_out)]
        if i == 0:  # one tracemalloc pass per workload is enough
            cmd.append("--peaks")
        _, rc, _ = runner.run(cmd, runner.tmp / "child.stdout")
        if rc == 0:
            record = json.loads(trace_out.read_text())
            rc = record["rc"]
        tally.judge(workload, op, rc, out, seed, runner)
        if rc != 0:
            continue
        spans = record["spans"]
        dur = [(s["end"] - s["start"]) / 1e9 for s in spans]
        root = next(j for j, s in enumerate(spans) if s["name"] == "op")
        layers = sum(d for s, d in zip(spans, dur) if s["parent"] == root)
        imported = sum(d for s, d in zip(spans, dur) if s["name"] == "cli.import")
        for s, d in zip(spans, dur):
            if s["name"] in span_s:
                span_s[s["name"]] += d
        for name in COUNTS:
            counts[name] += record["counts"].get(name, 0)
        if "seqeval.min_frac_dist" in record["counts"]:
            min_frac.append(record["counts"]["seqeval.min_frac_dist"])
        for name, value in record["peaks"].items():
            peaks[name] = max(peaks[name], value)
        op_wall += record["op_wall_s"]
        covered += imported + layers
        self_s += record["cli_self_s"]
        overhead_s += (len(spans) + len(record["main_spans"])) * record["span_cost_ns"] / 1e9
    metrics = {f"{name}_s": (value, "s") for name, value in span_s.items()}
    metrics["cli.self_s"] = (self_s, "s")
    metrics.update({name: (value, "count") for name, value in counts.items()})
    metrics.update({name: (value, "MiB") for name, value in peaks.items()})
    values = counts["seqeval.values"]
    targets = counts["repcount.targets"]
    metrics["seqeval.escalation_rate"] = (
        counts["seqeval.escalated"] / values if values else 0.0, "1")
    metrics["seqeval.min_frac_dist"] = (min(min_frac) if min_frac else 0.0, "1")
    metrics["repcount.scan_us_per_target"] = (
        span_s["repcount.scan"] / targets * 1e6 if targets else 0.0, "us")
    metrics["cli.bytes_identical"] = (tally.identical, "count")
    metrics["trace.coverage"] = (covered / op_wall if op_wall else 0.0, "1")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="tanprimes benchmark")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be positive")
    if not (SRC / "tanprimes" / "cli.py").is_file():
        print(f"perfbench: no program source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    threads = min(MAX_THREADS, cpu_count())
    print("# env " + json.dumps(environment(args.seed, threads), sort_keys=True), flush=True)
    tmp = pathlib.Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runner = Runner(tmp, deadline)
        tally = Tally()
        if args.trace:
            metrics = traced(args.workload, args.seed, threads, runner, tally)
        else:
            metrics = end_to_end(args.workload, args.seed, args.seconds, threads, runner,
                                 tally)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
