"""Command-line front end; emits CSV or JSON, deterministic for a fixed config.

Exit codes: 0 success, 1 selftest failure, 2 usage, 3 domain error,
4 resource guard. The thread count from --threads or TANPRIMES_THREADS
(default 1) is the width of the pool that runs the chunks of the
per-point layers for this run (see tanprimes.pool); no output bit depends
on it, and the width is back to 1 when main returns.

Each subcommand runs on the argparse namespace and returns two callables,
one building its JSON object and one writing its CSV text (None where only
JSON exists), both from the same named columns when the output is a table;
main calls only the one the --format asks for.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import json
import os
import sys
import warnings
from fractions import Fraction

import numpy as np

from . import asymptotics, circle, exponents, pool, repcount
from .errors import TanprimesError, UsageError
from .primesieve import sieve_segment
from .seqeval import check_window_table, table_to_csv, value_table, write_csv
from .window import WindowParams, solve_for_target, weight, window_from_index


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


def _resolve_threads(flag_value: int | None) -> int:
    env = os.environ.get("TANPRIMES_THREADS")
    if env is not None:
        try:
            n = int(env)
        except ValueError as exc:
            raise UsageError(f"TANPRIMES_THREADS must be an integer, got {env!r}") from exc
    else:
        n = 1 if flag_value is None else flag_value
    if n < 1:
        raise UsageError(f"thread count must be positive, got {n}")
    return n


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
            sp.add_argument("--threads", type=int, default=None,
                            help="width of the thread pool for the per-point layers; no output "
                                 "bit depends on it (TANPRIMES_THREADS overrides)")
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
    sp.add_argument("--grid", type=int, default=256, help="number of alpha samples")
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
    extra = {} if residual is None else {"solve_residual": residual}
    return lambda: {**dataclasses.asdict(w), **extra}, None


_SCAN_FMT = "%d,%d,%.12g\n"                 # N,count,weighted
_COMPARE_FMT = "%d,%d,%.12g,%.12g,%.12g\n"   # ... then main_term,ratio


def _rows(cols: dict) -> list[dict]:
    return [dict(zip(cols, row)) for row in zip(*(col.tolist() for col in cols.values()))]


def _columns_out(cols: dict, fmt: str, **extra):
    """JSON {"rows": ..., **extra} and the CSV of the same columns."""
    return lambda: {"rows": _rows(cols), **extra}, lambda fh: write_csv(cols, fmt, fh)


def _row_out(cols: dict, fmt: str, **extra):
    """A one-row table: its JSON holds the row's fields and extra at the top level."""
    return lambda: {**_rows(cols)[0], **extra}, lambda fh: write_csv(cols, fmt, fh)


def _scan_columns(scan: repcount.BandScan) -> dict:
    return {"N": scan.N, "count": scan.count, "weighted": scan.weighted}


def _band_scan(a, lo: int, hi: int):
    """Scan of n_star + [lo, hi], refused before sieving if the table or the pair map would be.

    The value check comes first, so a window past 2^52 exits 3 here as it
    does from values and binary.
    """
    w, _ = _window(a)
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
    cols = {**_scan_columns(scan), "main_term": np.full(len(scan), cmp.main_term),
            "ratio": cmp.ratio}
    return _columns_out(cols, _COMPARE_FMT, stats=asymptotics.band_stats(scan, cmp),
                        window=dataclasses.asdict(w))


def _cmd_binary(a):
    w, _ = _window(a)
    N = w.n_star + a.offset
    pair = repcount.find_binary(_table(w)[0], N)
    return lambda: {"N": N, "pair": list(pair) if pair is not None else None}, None


def _cmd_values(a):
    w, _ = _window(a)
    values, _logs = _table(w)
    cols = {"n": values.n, "f": values.f, "frac": values.frac, "certified": values.certified}
    return (lambda: {"rows": _rows(cols), "window": dataclasses.asdict(w)},
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
    values, logs = _table(w) if a.kind == "prime" else (None, None)
    alphas = [-0.5 + j / a.grid for j in range(a.grid)]
    z = circle.sum_samples(a.kind, alphas, w, values, logs)
    cols = {"alpha": np.array(alphas), "re": np.array([v.real for v in z]),
            "im": np.array([v.imag for v in z]), "abs": np.array([abs(v) for v in z])}
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

    return (lambda: {"chain": table, "admissible_c": str(exponents.admissible_c()),
                     "prior_bounds_sorted": [str(b) for b in ordered]},
            to_csv)


def _selftest() -> int:
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
    sys.stdout.write("".join(lines) + f"{passed}/{len(lines)} checks passed\n")
    return 0 if passed == len(lines) else 1


def _check_out(path: str) -> None:
    """Refuse an --out whose directory is missing or read-only before the run."""
    if path == "-":
        return
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        reason = errno.ENOENT
    elif not os.access(parent, os.W_OK | os.X_OK):
        reason = errno.EACCES
    else:
        return
    raise UsageError(f"cannot write --out {path!r}: {os.strerror(reason)}")


def _open_out(path: str):
    # opened only after a successful run, so a failed one leaves the file alone
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise UsageError(f"cannot write --out {path!r}: {exc.strerror}") from exc


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
        a.threads = _resolve_threads(getattr(a, "threads", None))
        with pool.threads(a.threads):
            if a.command == "selftest":
                return _selftest()
            _check_out(a.out_path)
            to_json, to_csv = a.run(a)
            with _open_out(a.out_path) as fh:
                if to_csv is None or a.out_format == "json":
                    fh.write(json.dumps(to_json(), sort_keys=True) + "\n")
                else:
                    to_csv(fh)
        return 0
    except TanprimesError as exc:
        prefix = {2: "usage error", 4: "resource guard"}.get(exc.exit_code, "error")
        print(f"{prefix}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
