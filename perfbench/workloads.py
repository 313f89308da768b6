"""The benchmark's workloads: their ops, the traced replay of each op, and
the exact work counts derived from each op's inputs.

A workload is a fixed list of ops run one after another (closed loop, one
client). A CLI op is one `python -m tanprimes.cli` invocation; the
crosscheck op is a library job in a fresh interpreter. This module imports
tanprimes only inside functions, so the benchmark's parent process never
loads the program.
"""
from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from typing import Optional

CROSSCHECK_TARGETS = 24            # targets per crosscheck op, drawn by the seed
CROSSCHECK_OFFSETS = range(-100, 1)  # candidate offsets from n_star
ARC_GRID = 4096                    # major-arc quadrature points


@dataclass(frozen=True)
class Op:
    name: str
    command: str                   # tanprimes subcommand, or "crosscheck"
    k: int
    c: float
    theta: float
    fmt: str = "csv"
    band: Optional[tuple[int, int]] = None
    kind: Optional[str] = None
    grid: Optional[int] = None

    @property
    def is_cli(self) -> bool:
        return self.command != "crosscheck"

    def argv(self, threads: int) -> list[str]:
        """The command line a user types for this op, minus the program name."""
        argv = [self.command, "--k", str(self.k), "--c", repr(self.c),
                "--theta", repr(self.theta)]
        if self.band is not None:
            argv += ["--band", f"{self.band[0]}:{self.band[1]}"]
        if self.kind is not None:
            argv += ["--kind", self.kind]
        if self.grid is not None:
            argv += ["--grid", str(self.grid)]
        return argv + ["--format", self.fmt, "--threads", str(threads)]


WORKLOADS: dict[str, tuple[Op, ...]] = {
    # Headline experiment: the O(n^2) pair map dominates time and memory.
    "band-k4": (
        Op("compare-csv", "compare", 4, 1.02, 1.5, "csv", band=(-100, 100)),
        Op("compare-json", "compare", 4, 1.02, 1.5, "json", band=(-100, 100)),
    ),
    # Cheap pair map, 40 001 per-target meets and 40k-row emitters.
    "band-wide-k3": (
        Op("scan-csv", "scan", 3, 1.02, 1.5, "csv", band=(-20000, 20000)),
        Op("compare-json", "compare", 3, 1.02, 1.5, "json", band=(-20000, 20000)),
    ),
    # Independent routes against each other: mitm, naive, circle, convolution.
    "crosscheck-k2": (
        Op("crosscheck", "crosscheck", 2, 1.05, 2.0, "json"),
    ),
    # Per-point layers: certified floors, Newton weights, row formatting.
    "tables-k5": (
        Op("values-csv", "values", 5, 1.02, 1.5, "csv"),
        Op("expsum-integer", "expsum", 4, 1.02, 1.5, "csv", kind="integer", grid=16),
        Op("expsum-smooth", "expsum", 4, 1.02, 1.5, "csv", kind="smooth", grid=16),
    ),
}


def find_op(workload: str, name: str) -> Op:
    for op in WORKLOADS[workload]:
        if op.name == name:
            return op
    raise KeyError(f"{workload} has no op {name!r}")


def crosscheck_offsets(seed: int) -> list[int]:
    """Offsets from n_star of the crosscheck targets for this seed."""
    return sorted(random.Random(seed).sample(CROSSCHECK_OFFSETS, CROSSCHECK_TARGETS))


def _window(op: Op):
    from tanprimes import window_from_index

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # tau clipping is expected at these k
        return window_from_index(op.k, op.c, op.theta)


def _table(op: Op, tracer, threads: int):
    """Window, sieve and value table, the shared front of every op."""
    from tanprimes import sieve_segment, value_table

    with tracer.span("window.build"):
        w = _window(op)
    with tracer.span("primesieve.sieve"):
        block = sieve_segment(w.delta1, w.delta2, threads=threads)
    tracer.count("primesieve.primes", len(block))
    with tracer.span("seqeval.value_table"):
        values = value_table(block.primes, w.c, w.theta)
    tracer.count("seqeval.values", len(values))
    tracer.count("seqeval.escalated", int(values.certified.sum()))
    if len(values):
        dist = values.frac.copy()
        dist[dist > 0.5] = 1.0 - dist[dist > 0.5]
        tracer.set_min("seqeval.min_frac_dist", float(dist.min()))
    return w, values, block.logs


def _pair_map(values, logs, tracer):
    from tanprimes import build_pair_map

    with tracer.span("repcount.pair_map"):
        pm = build_pair_map(values, logs)
    tracer.count("repcount.pair_ops", len(values) ** 2)
    tracer.count("repcount.pair_span", len(pm.counts))
    return pm


def replay(op: Op, tracer, threads: int) -> dict:
    """Make the public library calls that `tanprimes <op>` makes, one span each.

    Returns the inputs that the tracemalloc pass needs.
    """
    from tanprimes import scan_band
    from tanprimes.asymptotics import band_stats, compare_report, grid_weights
    from tanprimes.circle import sum_samples

    if op.command in ("scan", "compare", "values"):
        w, values, logs = _table(op, tracer, threads)
        if op.command == "values":
            return {}
        pm = _pair_map(values, logs, tracer)
        lo, hi = op.band
        with tracer.span("repcount.scan"):
            reports = scan_band(values, logs, w.n_star + lo, w.n_star + hi, pair_map=pm, w=w)
        tracer.count("repcount.targets", hi - lo + 1)
        if op.command == "compare":
            with tracer.span("asymptotics.compare"):
                band_stats(reports, compare_report(reports, w))
        return {"values": values, "logs": logs}
    if op.command == "expsum" and op.kind in ("smooth", "integer"):
        with tracer.span("window.build"):
            w = _window(op)
        alphas = [-0.5 + j / op.grid for j in range(op.grid)]
        if op.kind == "smooth":
            with tracer.span("asymptotics.grid_weights"):
                m, _ = grid_weights(w)
            tracer.count("asymptotics.grid_points", len(m))
            points = len(m)
        else:
            points = int(w.delta2) - int(w.delta1)  # integers in (delta1, delta2]
        with tracer.span("circle.sums"):
            sum_samples(op.kind, alphas, w)
        tracer.count("circle.sum_terms", op.grid * points)
        return {}
    raise ValueError(f"no replay for {op}")


def naive_iterations(f, N: int) -> int:
    """Inner-loop steps of count_ternary_naive: n^2 pair checks plus n per kept pair."""
    import numpy as np

    f = np.sort(np.asarray(f, dtype=np.int64))
    n = len(f)
    kept = int(np.searchsorted(f, N - f, side="right").sum())
    return n * n + n * kept


def conv3_terms(m_lo: int, m_hi: int, N: int) -> int:
    """Products summed by weight_convolution(k=3): one per (s, m1) pair kept."""
    import numpy as np

    s_lo = max(2 * m_lo, N - m_hi)
    s_hi = min(2 * m_hi, N - m_lo)
    if s_lo > s_hi:
        return 0
    s = np.arange(s_lo, s_hi + 1, dtype=np.int64)
    a = np.maximum(m_lo, s - m_hi)
    b = np.minimum(m_hi, s - m_lo)
    return int(np.maximum(b - a + 1, 0).sum())


def crosscheck(op: Op, offsets, tracer, threads: int) -> tuple[dict, dict]:
    """Library job: every independent route at each target n_star + offset.

    Returns the result rows (checked against the reference) and the inputs
    that the tracemalloc pass needs.
    """
    from tanprimes import circle_integral, count_ternary_mitm, count_ternary_naive
    from tanprimes.asymptotics import grid_weights, main_term, weight_convolution

    w, values, logs = _table(op, tracer, threads)
    pm = _pair_map(values, logs, tracer)
    with tracer.span("asymptotics.grid_weights"):
        m, _ = grid_weights(w)
    tracer.count("asymptotics.grid_points", len(m))
    n = len(values)
    M = 3 * int(values.f.max()) + 1
    rows = []
    for off in offsets:
        N = w.n_star + off
        with tracer.span("repcount.scan"):
            rep = count_ternary_mitm(values, logs, N, pair_map=pm, w=w)
        tracer.count("repcount.targets", 1)
        with tracer.span("repcount.naive"):
            oracle = count_ternary_naive(values, logs, N, w=w)
        tracer.count("repcount.naive_iters", naive_iterations(values.f, N))
        with tracer.span("circle.quadrature"):
            full = circle_integral(values, logs, N, (0.0, 1.0), M)
        tracer.count("circle.quadrature_phases", (M + 1) * n)
        with tracer.span("circle.arc"):
            arc = circle_integral(values, logs, N, (-w.tau, w.tau), ARC_GRID)
        with tracer.span("asymptotics.conv3"):
            conv3 = weight_convolution(w, N, 3)
        tracer.count("asymptotics.conv3_terms", conv3_terms(int(m[0]), int(m[-1]), N))
        rows.append({
            "offset": off, "N": N,
            "count": rep.count, "weighted": rep.weighted,
            "naive_count": oracle.count, "naive_weighted": oracle.weighted,
            "circle_re": full.real, "circle_im": full.imag,
            "arc_re": arc.real, "arc_im": arc.imag,
            "conv3": conv3,
        })
    result = {"n_star": w.n_star, "primes": n, "grid": M, "main_term": main_term(w),
              "rows": rows}
    return result, {"values": values, "logs": logs, "N": w.n_star, "M": M}
