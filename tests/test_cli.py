"""Command-line surface: formats, exit codes, determinism."""

import json
import os
import pathlib
import subprocess
import sys
import time
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
    assert obj["reach"] == [100005, 392739]


def test_window_reports_the_reach(capsys):
    # the reach [3 floor(n1), 3 n_star] of window.target_reach: at theta =
    # 1.05, below theta*(1.02) = 1.112, the window's own target lies below it
    import math

    code, out, _ = run(capsys, "window", "--k", "3", "--theta", "1.05")
    assert code == 0
    obj = json.loads(out)
    assert obj["reach"] == [3 * math.floor(obj["n1"]), 3 * obj["n_star"]]
    assert obj["n_star"] < obj["reach"][0]


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
    # grid 16 takes every alpha by residue class mod 16, grid 12 mod 12; grid 256
    # gathers the 63 k=2 primes at the dens 64 to 256, in several pool tasks
    **{f"expsum-{kind}-k{k}-grid12": ["expsum", *sel, "--kind", kind, "--grid", "12"]
       for kind in ("prime", "smooth", "integer") for k, sel in ((2, _K2), (3, _K3))},
    "expsum-prime-k2-grid256": ["expsum", *_K2, "--kind", "prime", "--grid", "256"],
}


def fake_cpus(monkeypatch, n):
    # the CPUs this process may use, as the CLI asks for them
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.mark.parametrize("args", list(_THREAD_CASES.values()), ids=list(_THREAD_CASES))
def test_compare_deterministic_across_threads(capsys, monkeypatch, args):
    # the same bytes at every pool width, on 1 or 2 CPUs and with every
    # --threads, which is accepted and ignored; every cache is cleared first
    # and the chunks are small enough that several run at once; the width is
    # back to 1 after each run
    from tanprimes import circle, pool, seqeval, window
    from tanprimes.asymptotics import grid_weights

    monkeypatch.setattr(window, "_NEWTON_CHUNK", 4096)
    monkeypatch.setattr(circle, "_TERM_CHUNK", 4096)
    monkeypatch.setattr(seqeval, "_ROW_CHUNK", 100)
    outs = []
    for threads, cpus in ((1, None), (2, None), (3, None), (None, 1), (None, 2)):
        if cpus is not None:
            fake_cpus(monkeypatch, cpus)
        grid_weights.cache_clear()
        circle._integer_freqs.cache_clear()
        code, out, _ = run(capsys, *args, *(() if threads is None else ("--threads", str(threads))))
        assert code == 0
        assert pool.WIDTH.get() == 1
        outs.append(out)
    assert outs[0].count("\n") > 7
    assert outs[1:] == outs[:1] * 4


@pytest.mark.parametrize("fmt, digest", [
    ("csv", "fbea3236bda993d20bb76192024acd08194779bc4f9154ab5a2465909e471a57"),
    ("json", "af5517fd0ab7ae9df5fe252d4f90e6676c95da49780c55eebe94b4922e0a6d29"),
])
def test_compare_k4_band_keeps_its_bytes(capsys, fmt, digest):
    # sha256 of the stdout of compare --k 4 --band -100:100, recorded before
    # the band meet read its count table in place: the band table squared
    # from 32 blocks, its counts met and masked, its weights met in slices
    import hashlib

    code, out, _ = run(capsys, "compare", "--k", "4", "--band", "-100:100", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _chunk_spy(monkeypatch):
    # the names of the threads that run window._invert_chunk, and the pool
    # width of each map_chunks call made in the calling thread
    import threading

    from tanprimes import pool, window

    names, widths = set(), []
    invert_chunk, map_chunks = window._invert_chunk, pool.map_chunks

    def spy(*a):
        names.add(threading.current_thread().name)
        return invert_chunk(*a)

    def map_spy(fn, items, **kw):
        widths.append(pool.WIDTH.get())
        return map_chunks(fn, items, **kw)

    monkeypatch.setattr(window, "_invert_chunk", spy)
    monkeypatch.setattr(pool, "map_chunks", map_spy)
    monkeypatch.setattr(window, "_NEWTON_CHUNK", 4096)
    return names, widths


def test_pool_runs_chunks_on_its_threads(capsys, monkeypatch):
    # the pool is as wide as the CPUs the process may use, at most 2: on 1
    # CPU the inversion's chunks run on the calling thread only, on 2 or 8
    # on the pool's two threads; the bytes are the same
    import threading

    from tanprimes.asymptotics import grid_weights

    names, widths = _chunk_spy(monkeypatch)
    outs = []
    for cpus, width in ((1, 1), (2, 2), (8, 2)):
        fake_cpus(monkeypatch, cpus)
        grid_weights.cache_clear()
        names.clear()
        widths.clear()
        code, out, _ = run(capsys, "expsum", *_K2, "--kind", "smooth", "--grid", "2")
        assert code == 0
        assert set(widths) == {width}
        if width == 1:
            assert names == {threading.current_thread().name}
        else:
            assert names and names <= {"tanprimes_0", "tanprimes_1"}
        outs.append(out)
    assert outs[1:] == outs[:1] * 2


def test_pool_width_without_affinity(monkeypatch):
    # where the affinity query does not exist, the width follows
    # os.cpu_count(), and an unknown count gives 1
    from tanprimes import cli

    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for count, width in ((None, 1), (1, 1), (2, 2), (8, 2)):
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert cli._width() == width


def test_no_pool_thread_outlives_main(capsys, monkeypatch):
    # every pool thread has stopped when main returns, also when a chunk
    # raises on one of them
    import threading

    from tanprimes import window
    from tanprimes.asymptotics import grid_weights
    from tanprimes.errors import NoConvergence

    def alive():
        return [t.name for t in threading.enumerate() if t.name.startswith("tanprimes")]

    names, _ = _chunk_spy(monkeypatch)
    fake_cpus(monkeypatch, 2)
    grid_weights.cache_clear()
    assert run(capsys, "expsum", *_K2, "--kind", "smooth", "--grid", "2")[0] == 0
    assert names - {threading.current_thread().name} and not alive()

    def fail(*a):
        raise NoConvergence("chunk failed")

    monkeypatch.setattr(window, "_invert_chunk", fail)
    grid_weights.cache_clear()
    code, _, err = run(capsys, "expsum", *_K2, "--kind", "smooth", "--grid", "2")
    assert code == 3 and "chunk failed" in err
    assert not alive()


def test_pool_hands_out_each_item_once_under_contention():
    # eight pool threads switching every microsecond, each square handing the
    # GIL on as numpy's loops do: every item runs exactly once and its result
    # lands at its index; after failures on two threads at once (items 700
    # and 701 wait for each other) the first failing item's exception is
    # raised and no thread is left
    import threading

    from tanprimes import pool

    runs = [0] * 3000
    names = set()
    both = threading.Barrier(2, timeout=10)

    def square(i):
        runs[i] += 1  # one item, one thread: a lost update would show
        names.add(threading.current_thread().name)
        time.sleep(0)
        return i * i

    def fail_from_700(i):
        if i in (700, 701):
            both.wait()
        if i >= 700:
            raise ValueError(i)
        return i

    outcome = {}

    def main():
        with pool.threads(8):
            outcome["squares"] = pool.map_chunks(square, range(len(runs)))
            try:
                pool.map_chunks(fail_from_700, range(len(runs)))
            except ValueError as exc:
                outcome["raised"] = exc.args[0]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(target=main)
        caller.start()
        caller.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not caller.is_alive()
    assert outcome["squares"] == [i * i for i in range(len(runs))]
    assert runs == [1] * len(runs)
    assert len(names) > 1 and names <= {f"tanprimes_{t}" for t in range(8)}
    assert outcome["raised"] == 700
    assert not [t for t in threading.enumerate() if t.name.startswith("tanprimes")]


def test_pool_runs_then_in_item_order_under_contention():
    # eight pool threads switching every microsecond, each fn handing the
    # GIL on as numpy's loops do: then runs once per item, in item order, on
    # the thread that ran fn on it; a then that raises at item 700 raises
    # its exception, no later then runs, and no thread is left
    import threading

    from tanprimes import pool

    n = 3000
    ran, order = {}, []

    def fn(i):
        ran[i] = threading.current_thread().name
        time.sleep(0)
        return i * i

    def then(i, r):
        assert r == i * i and ran[i] == threading.current_thread().name
        order.append(i)

    def then_fail_at_700(i, r):
        if i == 700:
            raise ValueError(i)
        order.append(i)

    outcome = {}

    def main():
        with pool.threads(8):
            outcome["squares"] = pool.map_chunks(fn, range(n), then=then)
            outcome["order"] = order[:]
            order.clear()
            try:
                pool.map_chunks(fn, range(n), then=then_fail_at_700)
            except ValueError as exc:
                outcome["raised"] = exc.args[0]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(target=main)
        caller.start()
        caller.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not caller.is_alive()
    assert outcome["squares"] == [i * i for i in range(n)]
    assert outcome["order"] == list(range(n))
    assert len(set(ran.values())) > 1
    assert outcome["raised"] == 700 and order == list(range(700))
    assert not [t for t in threading.enumerate() if t.name.startswith("tanprimes")]

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
    from tanprimes.errors import UnreachableTargetWarning

    with pytest.warns(UnreachableTargetWarning):  # the band also leaves the window's reach
        code, _, err = run(
            capsys, "scan", "--k", "2", "--c", "1.05", "--theta", "2.0",
            "--band", "-600000:600001",
        )
    assert code == 4
    assert "resource guard" in err


def test_expsum_grid_guard_fires_before_work():
    # 10^6 + 1 alphas are refused before the alpha list, the sieve or the
    # grid weights are built: a subprocess under a timeout, so a missing
    # guard fails here instead of filling the memory
    src = pathlib.Path(tanprimes.__file__).parents[1]
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "tanprimes.cli", "expsum", "--k", "2",
                           "--grid", "1000001"],
                          capture_output=True, text=True, timeout=10,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 4
    assert proc.stderr.splitlines()[-1] == "resource guard: --grid 1000001 exceeds 1000000 alphas"
    assert time.perf_counter() - start < 2


class _TableBuilt(Exception):
    pass


@pytest.mark.parametrize("command", [["count"], ["scan", "--band", "-1:1"], ["compare", "--band", "-1:1"]],
                         ids=["count", "scan", "compare"])
def test_unreachable_band_warns_before_any_pair_table(monkeypatch, command):
    # at c = 1.02, theta = 1.05 (below theta* = 1.112) the k=3 window's
    # n_star = 95 834 lies below 3 floor(n1) = 100 005, so no triple reaches
    # it: the warning comes before the value table, and so before any pair
    # table, is built
    from tanprimes import cli
    from tanprimes.errors import UnreachableTargetWarning
    from tanprimes.window import target_reach

    w = window_from_index(3, 1.02, 1.05)
    assert target_reach(w) == (100005, 287502) and w.n_star == 95834

    def built(*a, **kw):
        raise _TableBuilt

    monkeypatch.setattr(cli, "_table", built)
    band = "95834..95834" if command[0] == "count" else "95833..95835"
    with pytest.warns(UnreachableTargetWarning, match=band + r" leaves the reach \[100005, 287502\]"):
        with pytest.raises(_TableBuilt):
            main([command[0], "--k", "3", "--c", "1.02", "--theta", "1.05", *command[1:]])


def test_reachable_band_does_not_warn(capsys):
    # the default exponents at k=3: n_star and the band around it are reachable
    from tanprimes.errors import UnreachableTargetWarning

    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert run(capsys, "compare", "--k", "3", "--band", "-20:20")[0] == 0
    assert not [x for x in seen if issubclass(x.category, UnreachableTargetWarning)]


@pytest.mark.parametrize("count", ["0", "-1"])
def test_threads_below_one_is_a_usage_error(capsys, count):
    code, out, err = run(capsys, "window", *_K2, "--threads", count)
    assert code == 2 and out == ""
    assert err.startswith("usage error: thread count must be positive")


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


def _cli(*argv, **kw):
    src = pathlib.Path(tanprimes.__file__).parents[1]
    return subprocess.Popen([sys.executable, "-m", "tanprimes.cli", *argv], stderr=subprocess.PIPE,
                            text=True, env=dict(os.environ, PYTHONPATH=str(src)), **kw)


@pytest.mark.parametrize("argv, head", [
    (["scan", "--k", "3", "--band", "-20000:20000"], "N,count,weighted\n"),
    (["selftest"], None),
], ids=["scan", "selftest"])
def test_closed_stdout_pipe_exits_quietly(argv, head):
    # scan --k 3 --band -20000:20000 | head -1: the 40 001 rows outgrow the
    # pipe, so the run writes after its reader has gone; selftest's reader
    # goes before the checks end. Exit 141 (a shell's code for SIGPIPE, not
    # selftest's 1), and neither a traceback nor an "Exception ignored" from
    # the flush at exit
    with _cli(*argv, stdout=subprocess.PIPE) as proc:
        if head is not None:
            assert proc.stdout.readline() == head
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert "Traceback" not in err and "Exception ignored" not in err, err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_out_write_is_a_usage_error():
    # /dev/full opens and then fails every write with ENOSPC: one usage
    # error line and exit 2, as for an --out that cannot be opened; on
    # stdout the same failure reads "cannot write stdout"
    with open("/dev/full", "w") as full:
        for args, stdout, want in (
                (["--out", "/dev/full"], subprocess.DEVNULL,
                 "usage error: cannot write --out '/dev/full': No space left on device"),
                ([], full, "usage error: cannot write stdout: No space left on device")):
            with _cli("compare", "--k", "2", "--band", "-1:1", *args, stdout=stdout) as proc:
                err = proc.stderr.read()
                assert proc.wait(timeout=60) == 2
            lines = err.splitlines()
            assert lines[-1] == want
            assert sum(line.startswith("usage error") for line in lines) == 1
            assert "Traceback" not in err and "Exception ignored" not in err, err


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
