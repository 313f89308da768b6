"""One op in a fresh interpreter, started by run.py.

Untraced (the end-to-end run of the crosscheck library job): run the job and
print its result as JSON on stdout. CLI ops need no helper there; run.py
starts `python -m tanprimes.cli` itself.

Traced (--trace-out PATH), for any op:
  1. time `import tanprimes.cli` (span cli.import);
  2. replay the op's public calls under spans (span op, one child per call),
     with every lru_cache cold, as it is for a CLI user. For the library job
     the replay is the job, and its result is the output that is checked;
  3. for a CLI op, clear every lru_cache in tanprimes and run the op once
     more as a user would: cli.main(argv) with stdout captured (span
     cli.main). Its output goes to --output for the reference check. In
     cli.main only the public layer functions the CLI calls are wrapped in
     spans, so its self time (parsing, row building, formatting) is the
     cli.main span minus those spans, measured in one run;
  4. with --peaks, repeat the pair-map build and one full-circle quadrature
     under tracemalloc, after and apart from the timed spans.
Spans, counters, the traced op's wall time (interpreter start to the end of
the replay) and the measured cost of one span go to --trace-out.
"""
from __future__ import annotations

import time

START = time.perf_counter()  # before anything but the interpreter has loaded

import argparse
import contextlib
import functools
import io
import json
import sys
import tracemalloc

import spans
import workloads


def _clear_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name.startswith("tanprimes"):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


# Public layer functions that cli.main calls, and the span each one gets.
CLI_LAYER_CALLS = {
    ("tanprimes.window", "window_from_index"): "window.build",
    ("tanprimes.primesieve", "sieve_segment"): "primesieve.sieve",
    ("tanprimes.seqeval", "value_table"): "seqeval.value_table",
    ("tanprimes.repcount", "scan_band"): "repcount.scan",
    ("tanprimes.asymptotics", "compare_report"): "asymptotics.compare",
    ("tanprimes.asymptotics", "band_stats"): "asymptotics.compare",
    ("tanprimes.circle", "sum_samples"): "circle.sums",
}


@contextlib.contextmanager
def _layers_wrapped(tracer):
    """Wrap each CLI_LAYER_CALLS function in a span wherever tanprimes refers to it."""
    modules = [m for name, m in sys.modules.items() if name.startswith("tanprimes")]
    patched = []
    for (modname, fname), span_name in CLI_LAYER_CALLS.items():
        fn = getattr(sys.modules[modname], fname, None)
        if fn is None:
            continue  # renamed or removed: its time then shows as CLI self time

        @functools.wraps(fn)
        def wrapper(*args, _fn=fn, _span=span_name, **kwargs):
            with tracer.span(_span):
                return _fn(*args, **kwargs)

        for module in modules:
            for attr, obj in list(vars(module).items()):
                if obj is fn:
                    patched.append((module, attr, fn))
                    setattr(module, attr, wrapper)
    try:
        yield
    finally:
        for module, attr, fn in patched:
            setattr(module, attr, fn)


def _peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def _peaks(state: dict) -> dict:
    from tanprimes import build_pair_map, circle_integral

    out = {}
    if "values" in state:
        out["repcount.pair_map_peak_mb"] = _peak_mib(
            lambda: build_pair_map(state["values"], state["logs"]))
    if "M" in state:
        out["circle.quadrature_peak_mb"] = _peak_mib(
            lambda: circle_integral(state["values"], state["logs"], state["N"],
                                    (0.0, 1.0), state["M"]))
    return out


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--op", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threads", type=int, required=True)
    p.add_argument("--output", help="where the traced run writes the op's output")
    p.add_argument("--trace-out", help="write spans and counters here (traced run)")
    p.add_argument("--peaks", action="store_true", help="add the tracemalloc pass")
    args = p.parse_args()
    op = workloads.find_op(args.workload, args.op)
    offsets = workloads.crosscheck_offsets(args.seed)

    if args.trace_out is None:
        result, _ = workloads.crosscheck(op, offsets, spans.NullTracer(), args.threads)
        sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
        return 0

    tracer = spans.Tracer(f"{args.workload}/{op.name}")
    with tracer.span("cli.import"):
        import tanprimes.cli
    with tracer.span("op"):
        if op.is_cli:
            state = workloads.replay(op, tracer, args.threads)
        else:
            result, state = workloads.crosscheck(op, offsets, tracer, args.threads)
    op_wall_s = time.perf_counter() - START

    buf = io.StringIO()
    main = spans.Tracer(tracer.op)
    if op.is_cli:
        _clear_caches()
        with main.span("cli.main"), _layers_wrapped(main), contextlib.redirect_stdout(buf):
            rc = tanprimes.cli.main(op.argv(args.threads))
        root, *children = [(s["end"] - s["start"]) / 1e9 for s in main.spans
                           if s["parent"] in (None, 0)]
        self_s = root - sum(children)
    else:  # the library job has no CLI; its replay result is what gets checked
        buf.write(json.dumps(result, sort_keys=True) + "\n")
        rc, self_s = 0, 0.0
    _write(args.output, buf.getvalue())

    peaks = _peaks(state) if args.peaks else {}
    _write(args.trace_out, json.dumps({
        "rc": rc, "op_wall_s": op_wall_s, "cli_self_s": self_s, "spans": tracer.spans,
        "main_spans": main.spans, "counts": tracer.counts,
        "peaks": peaks, "span_cost_ns": spans.span_cost_ns(),
    }) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
