#!/usr/bin/env python3
"""Regenerate the frozen JSON fixtures under tests/fixtures/.

Run from the repository root:

    python scripts/record_fixtures.py

Outputs are deterministic, so a rerun on the same platform must reproduce
the committed files byte for byte. The band statistics recorded here are
desk-scale observations: the band mean of weighted / main_term and of
weighted / singular_integral; see the test suite for how they are consumed.

The CLI golden outputs under tests/fixtures/cli/ are the stdout of every
subcommand at k=2 (c=1.05, theta=2.0) and at k=3 (default exponents), in
CSV and JSON, plus the exit code and stderr of the error paths; cases.json
lists each command line. tests/test_cli_golden.py replays them.
"""

import contextlib
import io
import json
import os
import pathlib
import statistics
import warnings
from unittest import mock

import numpy as np

from tanprimes import (
    count_classical,
    classical_main_term,
    sieve_segment,
    value_table,
    window_from_index,
)
from tanprimes.asymptotics import band_stats, compare_report, singular_integral
from tanprimes.circle import integer_exp_sum
from tanprimes.repcount import scan_band

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "tests" / "fixtures"

# Window selectors of the golden CLI cases: k=2 with the exponents of the
# small test window, and k=3 with the CLI defaults (c=1.02, theta=1.5).
CLI_WINDOWS = {"k2": ["--k", "2", "--c", "1.05", "--theta", "2.0"], "k3": ["--k", "3"]}


def cli_cases():
    """(name, argv, env) of every golden CLI case."""
    cases = []
    for tag, sel in CLI_WINDOWS.items():
        for fmt in ("csv", "json"):
            out = ["--format", fmt]
            cases += [
                (f"{tag}-window-{fmt}", ["window", *sel, *out], {}),
                (f"{tag}-count-{fmt}", ["count", *sel, "--offset", "-7", *out], {}),
                (f"{tag}-scan-{fmt}", ["scan", *sel, "--band", "-20:20", *out], {}),
                (f"{tag}-compare-{fmt}", ["compare", *sel, "--band", "-20:20", *out], {}),
                (f"{tag}-binary-{fmt}", ["binary", *sel, *out], {}),
                (f"{tag}-values-{fmt}", ["values", *sel, *out], {}),
            ]
            cases += [(f"{tag}-expsum-{kind}-{fmt}",
                       ["expsum", *sel, "--kind", kind, "--grid", "8", *out], {})
                      for kind in ("prime", "smooth", "integer")]
    for fmt in ("csv", "json"):
        out = ["--format", fmt]
        cases += [
            (f"classical-{fmt}", ["classical", "--target", "2000", *out], {}),
            (f"exponents-{fmt}", ["exponents", *out], {}),
        ]
    cases += [
        ("error-band-inverted", ["scan", "--k", "2", "--band", "9:1"], {}),
        ("error-no-window", ["window", "--N", "130914"], {}),
        ("error-c-below-1", ["window", "--k", "2", "--c", "0.5"], {}),
    ]
    return cases


def run_cli(argv, env):
    """Exit code, stdout and stderr of one in-process CLI run, warnings muted."""
    from tanprimes.cli import main

    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), mock.patch.dict(os.environ, env), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("ignore")
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def cli_golden():
    folder = FIXTURES / "cli"
    folder.mkdir(exist_ok=True)
    manifest = []
    for name, argv, env in cli_cases():
        code, out, err = run_cli(argv, env)
        case = {"name": name, "argv": argv, "env": env, "exit": code, "stderr": err}
        if out:
            # window and binary print JSON whatever --format says
            kind = "json" if out.startswith("{") else "csv"
            case["stdout"] = f"{name}.{kind}"
            (folder / case["stdout"]).write_text(out, encoding="utf-8", newline="")
        manifest.append(case)
    out = folder / "cases.json"
    out.write_text(json.dumps(manifest, indent=1) + "\n")
    print("wrote", out, "and", sum("stdout" in c for c in manifest), "outputs")


def quiet_window(k, c, theta, epsilon=0.05):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return window_from_index(k, c, theta, epsilon)


def integer_profile():
    w = quiet_window(2, 1.05, 2.0)
    alphas = -0.5 + np.arange(256) / 256.0
    prof = [round(abs(integer_exp_sum(w, float(a))), 10) for a in alphas]
    out = FIXTURES / "integer_sum_profile_k2.json"
    out.write_text(json.dumps(prof) + "\n")
    print("wrote", out)


def band_and_classical():
    rec = {}
    for k, c, theta in ((3, 1.02, 1.5), (4, 1.02, 1.5)):
        w = quiet_window(k, c, theta)
        blk = sieve_segment(w.delta1, w.delta2)
        vt = value_table(blk.primes, c, theta)
        scan = scan_band(vt, blk.logs, w.n_star - 100, w.n_star + 100, w=w)
        stats = band_stats(scan, compare_report(scan, w))
        si = singular_integral(w, w.n_star - 100, w.n_star + 100)
        stats["mean_ratio_singular"] = statistics.mean((scan.weighted / si).tolist())
        rec["k%d" % k] = stats
        print("k=%d" % k, stats)

    rep = count_classical(1.02, 2000)
    mt = classical_main_term(1.02, 2000)
    rec["classical"] = {
        "c": 1.02,
        "target": 2000,
        "count": rep.count,
        "weighted": rep.weighted,
        "main_term": mt,
        "ratio": rep.weighted / mt,
    }
    out = FIXTURES / "desk_scale_band.json"
    out.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n")
    print("wrote", out)


if __name__ == "__main__":
    FIXTURES.mkdir(parents=True, exist_ok=True)
    integer_profile()
    band_and_classical()
    cli_golden()
