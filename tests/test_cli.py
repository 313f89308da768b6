"""Command-line surface: formats, exit codes, determinism."""

import json
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

import tanprimes
from tanprimes import window_from_index
from tanprimes.cli import main
from tanprimes.errors import ParameterWarning


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_window_from_index(capsys):
    code, out, _ = run(capsys, "window", "--k", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["n_star"] == 130913
    assert obj["k"] == 3
    assert "solve_residual" not in obj


def test_window_from_target(capsys):
    code, out, _ = run(capsys, "window", "--N", "130913")
    assert code == 0
    obj = json.loads(out)
    assert obj["k"] == 3
    assert obj["solve_residual"] < 1e-6


def test_window_unsolvable_target(capsys):
    code, _, err = run(capsys, "window", "--N", "130914")
    assert code == 3
    assert "error" in err


def test_selector_required_and_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["window"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["window", "--k", "2", "--N", "99"])
    assert exc.value.code == 2


def test_count_csv(capsys, table2, block2, w2, pairmap2):
    from tanprimes import count_ternary_mitm

    rep = count_ternary_mitm(table2, block2.logs, w2.n_star, pair_map=pairmap2, w=w2)
    code, out, _ = run(capsys, "count", "--k", "2", "--c", "1.05", "--theta", "2.0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N,count,weighted"
    assert lines[1] == f"{w2.n_star},{rep.count},{rep.weighted:.12g}"


def test_count_json_offset(capsys, w2):
    code, out, _ = run(
        capsys, "count", "--k", "2", "--c", "1.05", "--theta", "2.0",
        "--offset", "-7", "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["N"] == w2.n_star - 7
    assert obj["method"] == "mitm"
    assert obj["window"]["k"] == 2


def test_scan_band_rows(capsys, w2):
    code, out, _ = run(
        capsys, "scan", "--k", "2", "--c", "1.05", "--theta", "2.0", "--band", "-2:2"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N,count,weighted"
    assert len(lines) == 6
    assert lines[1].startswith(str(w2.n_star - 2) + ",")


_K2 = ["--k", "2", "--c", "1.05", "--theta", "2.0"]
_K3 = ["--k", "3"]
_THREAD_CASES = {
    "compare-k2": ["compare", *_K2, "--band", "-3:3"],
    **{f"values-k{k}": ["values", *sel] for k, sel in ((2, _K2), (3, _K3))},
    **{f"expsum-{kind}-k{k}": ["expsum", *sel, "--kind", kind, "--grid", "16"]
       for kind in ("prime", "smooth", "integer") for k, sel in ((2, _K2), (3, _K3))},
    # grid 16 reads every alpha from a roots-of-unity table, grid 12 most not
    **{f"expsum-{kind}-k{k}-grid12": ["expsum", *sel, "--kind", kind, "--grid", "12"]
       for kind in ("prime", "smooth", "integer") for k, sel in ((2, _K2), (3, _K3))},
}


@pytest.mark.parametrize("args", list(_THREAD_CASES.values()), ids=list(_THREAD_CASES))
def test_compare_deterministic_across_threads(capsys, monkeypatch, args):
    # the same bytes at every pool width, from the flag or the environment,
    # with every cache cleared first and chunks small enough that several
    # run at once; the width is back to 1 after each run
    from tanprimes import circle, pool, seqeval, window
    from tanprimes.asymptotics import grid_weights

    monkeypatch.setattr(window, "_NEWTON_CHUNK", 4096)
    monkeypatch.setattr(circle, "_TERM_CHUNK", 4096)
    monkeypatch.setattr(seqeval, "_ROW_CHUNK", 100)
    outs = []
    for threads, env in ((1, None), (2, None), (3, None), (None, "2")):
        if env is not None:
            monkeypatch.setenv("TANPRIMES_THREADS", env)
        grid_weights.cache_clear()
        circle._integer_freqs.cache_clear()
        code, out, _ = run(capsys, *args, *(() if threads is None else ("--threads", str(threads))))
        assert code == 0
        assert pool.width() == 1
        outs.append(out)
    assert outs[0].count("\n") > 7
    assert outs[1:] == outs[:1] * 3


def test_pool_runs_chunks_on_its_threads(capsys, monkeypatch):
    # --threads 2 solves the inversion's chunks on the pool's threads,
    # --threads 1 on the calling thread only
    import threading

    from tanprimes import window
    from tanprimes.asymptotics import grid_weights

    names = set()
    invert_chunk = window._invert_chunk

    def spy(*a):
        names.add(threading.current_thread().name)
        return invert_chunk(*a)

    monkeypatch.setattr(window, "_invert_chunk", spy)
    monkeypatch.setattr(window, "_NEWTON_CHUNK", 4096)
    for threads in ("1", "2"):
        grid_weights.cache_clear()
        names.clear()
        assert run(capsys, "expsum", *_K2, "--kind", "smooth", "--grid", "2",
                   "--threads", threads)[0] == 0
        pool_threads = {n for n in names if n.startswith("tanprimes")}
        assert (threads == "2") == bool(pool_threads)
        assert (threads == "1") == (names == {threading.current_thread().name})


def test_pool_loads_nothing_until_used():
    # importing the CLI, or a --threads 2 run that maps no chunks, leaves
    # concurrent.futures unloaded
    import subprocess
    import sys

    code = ("import sys, tanprimes.cli as c; assert c.main(['window', '--k', '2', "
            "'--threads', '2']) == 0; assert 'concurrent.futures' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], check=True, capture_output=True)


def test_startup_loads_no_mpmath():
    # only an escalated floor imports mpmath: the CLI starts without it
    import subprocess
    import sys

    code = "import sys, tanprimes.cli; assert 'mpmath' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, capture_output=True)


def test_escalation_imports_mpmath_when_needed():
    # a fresh interpreter, mpmath unloaded, gets the same escalated floor and
    # classical count as this one
    import subprocess
    import sys

    from tanprimes import count_classical
    from tanprimes.seqeval import _escalated

    n = 378802969
    code = ("import sys; from tanprimes import repcount, seqeval; "
            "assert 'mpmath' not in sys.modules; "
            f"print(repr(seqeval._escalated({n}, 1.02, 1.5))); "
            "assert 'mpmath' in sys.modules; "
            "print(repr(repcount.count_classical(1.05, 2000)))")
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True).stdout.splitlines()
    assert out == [repr(_escalated(n, 1.02, 1.5)), repr(count_classical(1.05, 2000))]
    assert _escalated(n, 1.02, 1.5)[0] == 802780165


def test_binary_pair(capsys, w3):
    code, out, _ = run(capsys, "binary", "--k", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["N"] == w3.n_star
    assert obj["pair"] == [27893, 34877]


def test_values_csv(capsys):
    code, out, _ = run(capsys, "values", "--k", "2", "--c", "1.05", "--theta", "2.0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,f,frac,certified"
    assert len(lines) == 64
    n, f, frac, cert = lines[1].split(",")
    assert int(n) > 1174 and int(f) > 0 and cert in ("0", "1")
    assert len(frac.split(".")[1]) == 12


def test_classical_row(capsys):
    code, out, _ = run(capsys, "classical", "--c", "1.02", "--target", "2000")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N,count,weighted,main_term,ratio"
    cells = lines[1].split(",")
    assert cells[0] == "2000" and cells[1] == "5811"
    assert float(cells[4]) == pytest.approx(0.8554635161, abs=1e-9)


@pytest.mark.parametrize("c, target", [("nan", "2000"), ("inf", "2000"), ("1.02", "-5")])
def test_classical_bad_input_exit(capsys, c, target):
    code, out, err = run(capsys, "classical", "--c", c, "--target", target)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")


def test_classical_zero_target(capsys):
    code, out, _ = run(capsys, "classical", "--c", "1.02", "--target", "0")
    assert code == 0
    assert out == "N,count,weighted,main_term,ratio\n0,0,0,0,0\n"


@pytest.mark.parametrize("c", ["40", "1000", "1e308"])
def test_classical_huge_c_counts_nothing(capsys, c):
    # 2^c far exceeds the target: no prime is floored (2^1e308 overflows a double)
    for fmt in ("csv", "json"):
        code, out, err = run(capsys, "classical", "--c", c, "--target", "2000", "--format", fmt)
        assert code == 0, err
        if fmt == "json":
            obj = json.loads(out)
            assert (obj["N"], obj["count"], obj["weighted"], obj["ratio"]) == (2000, 0, 0.0, 0.0)
        else:
            assert out.splitlines()[1].startswith("2000,0,0,")


def test_classical_main_term_small_gamma_argument(capsys):
    # 3/c = 0.46 here: the main term needs gamma below 1/2
    import mpmath as mp

    code, out, _ = run(capsys, "classical", "--c", "6.5", "--target", "2000", "--format", "json")
    assert code == 0
    with mp.workdps(40):
        c, N = mp.mpf(6.5), mp.mpf(2000)
        expect = float(mp.gamma(1 + 1 / c) ** 3 / mp.gamma(3 / c) * N ** (3 / c - 1))
    assert json.loads(out)["main_term"] == pytest.approx(expect, rel=1e-13)


def test_expsum_integer_grid(capsys):
    code, out, _ = run(
        capsys, "expsum", "--k", "2", "--c", "1.05", "--theta", "2.0",
        "--kind", "integer", "--grid", "8",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "alpha,re,im,abs"
    assert len(lines) == 9
    assert lines[1].startswith("-0.5,")


def test_expsum_json_smooth(capsys):
    code, out, _ = run(
        capsys, "expsum", "--k", "2", "--c", "1.05", "--theta", "2.0",
        "--kind", "smooth", "--grid", "4", "--format", "json",
    )
    obj = json.loads(out)
    assert obj["kind"] == "smooth"
    assert len(obj["rows"]) == 4
    for row in obj["rows"]:
        assert row["abs"] == pytest.approx(abs(complex(row["re"], row["im"])), rel=1e-12)


def test_exponents_output(capsys):
    code, out, _ = run(capsys, "exponents")
    assert code == 0
    assert out.splitlines()[0] == "step,exponent,at_boundary,note"
    assert "admissible_c" in out
    code, out, _ = run(capsys, "exponents", "--format", "json")
    obj = json.loads(out)
    assert obj["admissible_c"] == "23/21"
    assert obj["prior_bounds_sorted"][0] == "17/16"
    assert len(obj["chain"]) == 8


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "4/4 checks passed" in out
    assert out.count("PASS") == 4


def test_bad_band_usage(capsys):
    code, _, err = run(capsys, "scan", "--k", "2", "--band", "9:1")
    assert code == 2
    assert "usage error" in err
    code, _, err = run(capsys, "scan", "--k", "2", "--band", "abc")
    assert code == 2


def test_resource_guard_exit(capsys):
    code, _, err = run(
        capsys, "scan", "--k", "2", "--c", "1.05", "--theta", "2.0",
        "--band", "-600000:600001",
    )
    assert code == 4
    assert "resource guard" in err


def test_bad_threads_env(capsys, monkeypatch):
    monkeypatch.setenv("TANPRIMES_THREADS", "many")
    code, _, err = run(capsys, "window", "--k", "2", "--c", "1.05", "--theta", "2.0")
    assert code == 2


def test_out_file(capsys, tmp_path):
    dest = tmp_path / "w.json"
    code, out, _ = run(capsys, "window", "--k", "2", "--c", "1.05", "--theta", "2.0",
                       "--out", str(dest))
    assert code == 0
    assert out == ""
    assert json.loads(dest.read_text())["k"] == 2


def test_out_missing_directory(capsys, tmp_path):
    dest = tmp_path / "missing" / "w.json"
    code, out, err = run(capsys, "window", "--k", "2", "--c", "1.05", "--theta", "2.0",
                         "--out", str(dest))
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: ")
    assert "Traceback" not in err
    assert not dest.parent.exists()


def test_out_checked_before_run(capsys, tmp_path, monkeypatch):
    from tanprimes import cli

    def refuse(*args):
        raise AssertionError("the run started before --out was checked")

    monkeypatch.setattr(cli, "_band_scan", refuse)
    dest = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, "compare", "--k", "4", "--band", "-100:100", "--out", str(dest))
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: cannot write --out ")
    assert not dest.parent.exists()


def test_failed_run_keeps_out_file(capsys, tmp_path):
    dest = tmp_path / "w.json"
    dest.write_text("kept\n")
    code, _, _ = run(capsys, "window", "--k", "2", "--c", "0.5", "--out", str(dest))
    assert code == 3
    assert dest.read_text() == "kept\n"


@pytest.mark.parametrize("argv", [
    ("values", "--k", "2", "--c", "20"),
    ("values", "--k", "2", "--c", "200"),
    ("scan", "--k", "2", "--c", "200", "--band", "-1:1"),
    ("window", "--k", "2", "--c", "200"),
    ("window", "--k", "2", "--c", "1e308"),
    ("scan", "--k", "2", "--c", "6", "--band", "-1:1"),
    ("count", "--k", "2", "--c", "6"),
    ("window", "--k", "2", "--c", "20"),
])
def test_values_past_the_double_fraction_refused(capsys, argv):
    # from 2^52 on a double keeps no fractional part to certify (the pair
    # commands check that before their pair-span guard), and from 10^40 on
    # the 50-digit construction cannot make n_star exact: one error line
    # and exit 3, not a false AmbiguousFloor, a pair-span exit 4, an n_star
    # with made-up trailing digits or an Infinity in the JSON
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParameterWarning)
        code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: window values reach ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("values", "--k", "7"),
    ("binary", "--k", "7"),
    ("expsum", "--k", "7", "--kind", "prime"),
    ("expsum", "--k", "6", "--kind", "integer"),
])
def test_table_size_guard_fires_before_work(argv):
    # k=7 may hold 2.7e8 primes (2y/ln y), the k=6 integer table has 1.28e8
    # rows: refused before any sieving or tabulating. A subprocess under a
    # timeout, so a missing guard fails here instead of filling the memory.
    src = pathlib.Path(tanprimes.__file__).parents[1]
    proc = subprocess.run([sys.executable, "-m", "tanprimes.cli", *argv],
                          capture_output=True, text=True, timeout=10,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 4
    assert proc.stderr.splitlines()[-1].startswith("resource guard: value table of up to ")


def test_table_size_guard_admits_k6_primes():
    # 2y/ln y = 1.37e7 primes at k=6 is under 2^24, so values --k 6 still runs
    from tanprimes.errors import TooLarge
    from tanprimes.seqeval import check_window_table

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        w5, w6 = (window_from_index(k, 1.02, 1.5) for k in (5, 6))
    check_window_table(w6, primes=True)
    check_window_table(w5, primes=False)
    with pytest.raises(TooLarge):
        check_window_table(w6, primes=False)


def test_domain_error_exit(capsys):
    code, _, err = run(capsys, "window", "--k", "2", "--c", "0.5")
    assert code == 3
