"""Command-line front end; emits CSV or JSON, deterministic for a fixed config.

Exit codes: 0 success, 1 selftest failure, 2 usage (also an --out that
cannot be opened or written, or a failed write to stdout), 3 domain
error, 4 resource guard, 141 a closed stdout pipe, with nothing on stderr
(`scan ... | head -1`). Each run sets the width of the pool that runs the
chunks of the per-point layers (see tanprimes.pool) to the CPUs the
process may use, at most _MAX_WIDTH; no output bit depends on it, and the
width is back to 1 when main returns. --threads has no effect.

Each subcommand runs on the argparse namespace and returns two callables,
one writing its JSON and one writing its CSV text (None where only JSON
exists), both from the same named columns when the output is a table;
main calls only the one the --format asks for.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import os
import sys
import warnings
from fractions import Fraction

import numpy as np

from . import asymptotics, circle, exponents, pool, repcount
from .errors import BandTooWide, TanprimesError, UnreachableTargetWarning, UsageError
from .primesieve import sieve_segment
from .seqeval import check_window_table, table_to_csv, value_table, write_csv, write_json
from .window import WindowParams, solve_for_target, target_reach, weight, window_from_index


def _band(text: str) -> tuple[int, int]:
    # the argparse type of --band; argparse lets a UsageError through, so
    # main still prints it under the "usage error" prefix
    try:
        lo, hi = map(int, text.split(":", 1))
    except ValueError as exc:
        raise UsageError(f"--band expects LO:HI integers, got {text!r}") from exc
    if lo > hi:
        raise UsageError(f"--band bounds inverted: {text!r}")
    return lo, hi


# The pool width every chunk size, memory bound and benchmark run was
# measured at.
_MAX_WIDTH = 2


def _width() -> int:
    """The pool width of a run: the CPUs this process may use, at most _MAX_WIDTH."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return min(_MAX_WIDTH, cpus)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tanprimes",
        description="Ternary additive experiments for the sequence "
                    "floor(p^c tan^theta(log p)) over window primes.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def output(sp, help=None):
        sp.add_argument("--format", dest="out_format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", dest="out_path", default="-", help=help)

    def add(name, run, help, window=True):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(run=run)
        if window:
            sp.add_argument("--c", type=float, default=1.02, help="sequence exponent (default 1.02)")
            sp.add_argument("--theta", type=float, default=1.5, help="tangent power (default 1.5)")
            sp.add_argument("--epsilon", type=float, default=0.05, help="arc-width padding (default 0.05)")
            g = sp.add_mutually_exclusive_group(required=True)
            g.add_argument("--k", type=int, help="window index")
            g.add_argument("--N", type=int, help="target that must solve the window equation")
            sp.add_argument("--threads", type=int, default=1,
                            help="no effect: the pool width follows the CPUs this process may "
                                 "use (at most 2); goes at the next benchmark change, with "
                                 "sieve_segment(threads=)")
            output(sp, help="output path, - for stdout")
        return sp

    add("window", _cmd_window, "print the window parameters")
    sp = add("count", _cmd_count, "ternary representation count at one target")
    sp.add_argument("--offset", type=int, default=0, help="count at n_star + offset")
    for name, run, help in (("scan", _cmd_scan, "counts across a band of targets"),
                            ("compare", _cmd_compare, "scan plus main-term ratios")):
        sp = add(name, run, help)
        sp.add_argument("--band", type=_band, required=True,
                        help="offsets LO:HI relative to n_star")
    sp = add("binary", _cmd_binary, "search a two-prime representation")
    sp.add_argument("--offset", type=int, default=0)
    add("values", _cmd_values, "certified value table for the window primes")
    sp = add("classical", _cmd_classical, "plain-power variant at one target", window=False)
    sp.add_argument("--c", type=float, default=1.02)
    sp.add_argument("--target", type=int, required=True)
    output(sp)
    sp = add("expsum", _cmd_expsum, "exponential sum samples on an alpha grid")
    sp.add_argument("--kind", choices=("prime", "smooth", "integer"), default="prime")
    sp.add_argument("--grid", type=int, default=256,
                    help="number of alpha samples -1/2 + j/GRID, j = 0..GRID-1; each sum "
                         "takes alpha as the exact fraction, so every phase is exact")
    output(add("exponents", _cmd_exponents, "exact exponent chain and prior bounds",
               window=False))
    add("selftest", None, "run the built-in identity checks", window=False)
    return p


def _window(a) -> tuple[WindowParams, float | None]:
    """The window of --k, or the one solved from --N with its residual."""
    if a.k is not None:
        return window_from_index(a.k, a.c, a.theta, a.epsilon), None
    return solve_for_target(a.N, a.c, a.theta, a.epsilon)


def _table(w: WindowParams):
    """Certified value table and log weights of the window's primes."""
    check_window_table(w, primes=True)
    block = sieve_segment(w.delta1, w.delta2)
    return value_table(block.primes, w.c, w.theta), block.logs


def _cmd_window(a):
    w, residual = _window(a)
    extra = {"reach": list(target_reach(w))}
    if residual is not None:
        extra["solve_residual"] = residual
    return lambda fh: write_json({**dataclasses.asdict(w), **extra}, fh), None


_GRID_GUARD = 10 ** 6  # expsum alphas, the row cap of a scan's band
_SCAN_FMT = "%d,%d,%.12g\n"                 # N,count,weighted
_COMPARE_FMT = "%d,%d,%.12g,%.12g,%.12g\n"   # ... then main_term,ratio


def _columns_out(cols: dict, fmt: str, **extra):
    """JSON {"rows": ..., **extra} and the CSV of the same columns."""
    return lambda fh: write_json(extra, fh, rows=cols), lambda fh: write_csv(cols, fmt, fh)


def _row_out(cols: dict, fmt: str, **extra):
    """A one-row table: its JSON holds the row's fields and extra at the top level."""
    row = {name: col.tolist()[0] for name, col in cols.items()}
    return lambda fh: write_json({**row, **extra}, fh), lambda fh: write_csv(cols, fmt, fh)


def _scan_columns(scan: repcount.BandScan) -> dict:
    return {"N": scan.N, "count": scan.count, "weighted": scan.weighted}


def _band_scan(a, lo: int, hi: int):
    """Scan of n_star + [lo, hi], refused before sieving if the table or the pair map would be.

    The value check comes first, so a window past 2^52 exits 3 here as it
    does from values and binary. A band reaching past the window's
    target_reach warns first: no triple reaches a target there.
    """
    w, _ = _window(a)
    reach = target_reach(w)
    if w.n_star + lo < reach[0] or w.n_star + hi > reach[1]:
        warnings.warn(f"band {w.n_star + lo}..{w.n_star + hi} leaves the reach {list(reach)} of "
                      "three window values; targets outside it count 0", UnreachableTargetWarning,
                      stacklevel=2)
    check_window_table(w, primes=True)
    repcount.check_pair_span(repcount.pair_span_bound(w, w.n_star + hi))
    values, logs = _table(w)
    return w, repcount.scan_band(values, logs, w.n_star + lo, w.n_star + hi, w=w)


def _cmd_count(a):
    w, scan = _band_scan(a, a.offset, a.offset)
    return _row_out(_scan_columns(scan), _SCAN_FMT, method=scan.report(0).method,
                    window=dataclasses.asdict(w))


def _cmd_scan(a):
    w, scan = _band_scan(a, *a.band)
    return _columns_out(_scan_columns(scan), _SCAN_FMT, window=dataclasses.asdict(w))


def _cmd_compare(a):
    w, scan = _band_scan(a, *a.band)
    cmp = asymptotics.compare_report(scan, w)
    cols = {**_scan_columns(scan), "main_term": np.broadcast_to(cmp.main_term, len(scan)),
            "ratio": cmp.ratio}
    return _columns_out(cols, _COMPARE_FMT, stats=asymptotics.band_stats(scan, cmp),
                        window=dataclasses.asdict(w))


def _cmd_binary(a):
    w, _ = _window(a)
    N = w.n_star + a.offset
    pair = repcount.find_binary(_table(w)[0], N)
    obj = {"N": N, "pair": list(pair) if pair is not None else None}
    return lambda fh: write_json(obj, fh), None


def _cmd_values(a):
    w, _ = _window(a)
    values, _logs = _table(w)
    cols = {"n": values.n, "f": values.f, "frac": values.frac, "certified": values.certified}
    return (lambda fh: write_json({"window": dataclasses.asdict(w)}, fh, rows=cols),
            lambda fh: table_to_csv(values, fh))


def _cmd_classical(a):
    rep = repcount.count_classical(a.c, a.target)
    mt = asymptotics.classical_main_term(a.c, a.target)
    row = {"N": rep.target, "count": rep.count, "weighted": rep.weighted,
           "main_term": mt, "ratio": rep.weighted / mt if mt > 0 else 0.0}
    return _row_out({name: np.array([v]) for name, v in row.items()}, _COMPARE_FMT)


def _cmd_expsum(a):
    w, _ = _window(a)
    if a.grid < 1:
        raise UsageError("--grid must be a positive integer")
    if a.grid > _GRID_GUARD:
        raise BandTooWide(f"--grid {a.grid} exceeds {_GRID_GUARD} alphas")
    values, logs = _table(w) if a.kind == "prime" else (None, None)
    # the sums take each alpha = (2j - G)/(2G) exactly; the column prints -0.5 + j/G
    exact = [Fraction(2 * j - a.grid, 2 * a.grid) for j in range(a.grid)]
    z = circle.sum_samples(a.kind, exact, w, values, logs)
    cols = {"alpha": np.array([-0.5 + j / a.grid for j in range(a.grid)]),
            "re": np.array([v.real for v in z]), "im": np.array([v.imag for v in z]),
            "abs": np.array([abs(v) for v in z])}
    return _columns_out(cols, "%.12g,%.12g,%.12g,%.12g\n", kind=a.kind,
                        window=dataclasses.asdict(w))


def _cmd_exponents(a):
    table = exponents.chain_table()
    ordered = sorted(exponents.PRIOR_BOUNDS)

    def to_csv(fh):
        fh.write("step,exponent,at_boundary,note\n")
        for row in table:
            fh.write(f"{row['step']},{row['exponent']},{row['at_boundary']},\"{row['note']}\"\n")
        fh.write(f"prior_bounds_sorted,{' < '.join(str(b) for b in ordered)},,\n")

    return (lambda fh: write_json({"chain": table, "admissible_c": str(exponents.admissible_c()),
                                   "prior_bounds_sorted": [str(b) for b in ordered]}, fh),
            to_csv)


def _selftest() -> tuple[int, str]:
    """The exit code of the built-in checks, 0 or 1, and their report."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        w = window_from_index(2, 1.05, 2.0)
    values, logs = _table(w)  # one k=2 window and table for every check

    def mitm_vs_naive():
        for N in (w.n_star, w.n_star - 7, w.n_star + 13, 3 * int(values.f.min()) + 5):
            a = repcount.count_ternary_mitm(values, logs, N, w=w)
            b = repcount.count_ternary_naive(values, logs, N, w=w)
            assert a.count == b.count, f"count mismatch at N={N}: {a.count} != {b.count}"
            tol = 1e-9 * max(1.0, abs(b.weighted))
            assert abs(a.weighted - b.weighted) <= tol, f"weighted mismatch at N={N}"

    def quadrature_identity():
        M = 3 * int(values.f.max()) + 1
        for N in (w.n_star, w.n_star - 3):
            rep = repcount.count_ternary_mitm(values, logs, N, w=w)
            z = circle.circle_integral(values, logs, N, (0.0, 1.0), M)
            tol = 1e-6 * max(1.0, abs(rep.weighted))
            assert abs(z.real - rep.weighted) <= tol, f"quadrature drift at N={N}"
            assert abs(z.imag) <= tol, f"imaginary residue at N={N}"

    def convolution_identity():
        assert asymptotics.weight_convolution(w, w.n_star, 1) == weight(float(w.n_star), w)

    def exponent_ledger():
        assert exponents.admissible_c() == Fraction(23, 21)
        assert exponents.minor_arc_exponent(Fraction(23, 21)) == Fraction(20, 21)
        assert exponents.cutoffs(Fraction(23, 21)) == (Fraction(1, 21), Fraction(19, 63))

    lines = []
    for check in (mitm_vs_naive, quadrature_identity, convolution_identity, exponent_ledger):
        try:
            check()
            lines.append(f"PASS {check.__name__}\n")
        except AssertionError as exc:
            lines.append(f"FAIL {check.__name__}: {str(exc) or 'assertion failed'}\n")
        except Exception as exc:  # surface, never hide
            lines.append(f"FAIL {check.__name__}: {type(exc).__name__}: {exc}\n")
    passed = sum(line.startswith("PASS") for line in lines)
    report = "".join(lines) + f"{passed}/{len(lines)} checks passed\n"
    return (0 if passed == len(lines) else 1), report


def _check_out(path: str) -> None:
    """Refuse an --out that cannot be written before the run.

    An existing file must be writable itself; a new one needs a writable
    directory.
    """
    if path == "-":
        return
    parent = os.path.dirname(path) or "."
    if os.path.exists(path):
        reason = 0 if os.access(path, os.W_OK) else errno.EACCES
    elif not os.path.isdir(parent):
        reason = errno.ENOENT
    else:
        reason = 0 if os.access(parent, os.W_OK | os.X_OK) else errno.EACCES
    if reason:
        raise UsageError(f"cannot write --out {path!r}: {os.strerror(reason)}")


# The exit code of a run whose stdout pipe closed, as a shell reports a
# process that SIGPIPE ended: 128 + 13.
_EXIT_PIPE = 141


def _emit(path: str, write) -> int:
    """write(fh) to the --out file or stdout, flushed; 0, or _EXIT_PIPE if stdout's pipe closed.

    The file is opened only after a successful run, so a failed one leaves
    it alone. Any error opening or writing it is a UsageError, as is one
    writing stdout other than a closed pipe. After a stdout error, stdout
    is pointed at os.devnull, so the flush at exit has nothing left to fail
    on and prints no "Exception ignored".
    """
    try:
        if path == "-":
            write(sys.stdout)
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                write(fh)
        return 0
    except OSError as exc:
        if path != "-":
            raise UsageError(f"cannot write --out {path!r}: {exc.strerror}") from exc
        with contextlib.suppress(OSError, ValueError):
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            return _EXIT_PIPE
        raise UsageError(f"cannot write stdout: {exc.strerror}") from exc


def main(argv=None) -> int:
    # glue "--band -2:2" into "--band=-2:2"; argparse reads a bare leading
    # dash as an option even when the value is an offset pair
    argv = list(sys.argv[1:] if argv is None else argv)
    i = 0
    while i < len(argv) - 1:
        if argv[i] == "--band":
            argv[i:i + 2] = ["--band=" + argv[i + 1]]
        i += 1
    try:
        a = build_parser().parse_args(argv)
        if getattr(a, "threads", 1) < 1:  # ignored, but still checked
            raise UsageError(f"thread count must be positive, got {a.threads}")
        with pool.threads(_width()):
            if a.command == "selftest":
                code, report = _selftest()
                return _emit("-", lambda fh: fh.write(report)) or code
            _check_out(a.out_path)
            to_json, to_csv = a.run(a)
            return _emit(a.out_path, to_json if to_csv is None or a.out_format == "json" else to_csv)
    except TanprimesError as exc:
        prefix = {2: "usage error", 4: "resource guard"}.get(exc.exit_code, "error")
        print(f"{prefix}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
