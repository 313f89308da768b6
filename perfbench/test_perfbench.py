"""The benchmark's own tests.

    PYTHONPATH=src python3 -m pytest perfbench -q

The reference checker must flag corrupted outputs, the derived work counts
must equal the work the program does, and a traced run must repeat every
work count exactly.
"""
import json
import pathlib
import shutil
import subprocess
import sys
import tempfile

import pytest

import check
import run
import workloads

sys.path.insert(0, str(run.SRC))

BAND_K4 = {op.name: op for op in workloads.WORKLOADS["band-k4"]}


def _corrupt_csv_count(text):
    lines = text.split("\n")
    n, count, *rest = lines[5].split(",")
    lines[5] = ",".join([n, str(int(count) + 1), *rest])
    return "\n".join(lines)


def _corrupt_csv_drop(text):
    lines = text.split("\n")
    return "\n".join(lines[:5] + lines[6:])


def _corrupt_csv_float(text):
    lines = text.split("\n")
    n, count, weighted, *rest = lines[5].split(",")
    lines[5] = ",".join([n, count, repr(float(weighted) * (1 + 1e-6)), *rest])
    return "\n".join(lines)


def _corrupt_json(mutate):
    def apply(text):
        obj = json.loads(text)
        mutate(obj)
        return json.dumps(obj, sort_keys=True) + "\n"
    return apply


def _bump(key, factor=None):
    def mutate(obj):
        row = obj["rows"][4]
        row[key] = row[key] * factor if factor else row[key] + 1
    return mutate


@pytest.mark.parametrize("name", sorted(BAND_K4))
def test_reference_passes_byte_identical(name):
    text = check.reference_text(f"band-k4/{name}")
    problems, identical = check.check_output("band-k4", BAND_K4[name], text, seed=0)
    assert problems == [] and identical


@pytest.mark.parametrize("name, corrupt", [
    ("compare-csv", _corrupt_csv_count),
    ("compare-csv", _corrupt_csv_drop),
    ("compare-csv", _corrupt_csv_float),
    ("compare-json", _corrupt_json(_bump("count"))),
    ("compare-json", _corrupt_json(lambda obj: obj["rows"].pop(7))),
    ("compare-json", _corrupt_json(_bump("weighted", 1 + 1e-6))),
    ("compare-json", _corrupt_json(lambda obj: obj["stats"].pop("mean_ratio"))),
])
def test_checker_flags_corruption(name, corrupt):
    text = corrupt(check.reference_text(f"band-k4/{name}"))
    problems, identical = check.check_output("band-k4", BAND_K4[name], text, seed=0)
    assert problems and not identical


def test_corrupted_output_counts_as_failed_op():
    tmp = pathlib.Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        tally = run.Tally()
        for text in (check.reference_text("band-k4/compare-csv"),
                     _corrupt_csv_count(check.reference_text("band-k4/compare-csv"))):
            out = tmp / "op.out"
            out.write_text(text, encoding="utf-8")
            tally.judge("band-k4", BAND_K4["compare-csv"], 0, out, seed=0, runner=None)
        assert (tally.attempted, tally.failed, tally.identical) == (2, 1, 1)
    finally:
        shutil.rmtree(tmp)


def test_json_may_gain_keys():
    obj = json.loads(check.reference_text("band-k4/compare-json"))
    obj["stats"]["new_ratio"] = 0.5
    obj["rows"][0]["extra"] = 1
    text = json.dumps(obj, sort_keys=True) + "\n"
    problems, identical = check.check_output("band-k4", BAND_K4["compare-json"], text, 0)
    assert problems == [] and not identical


def test_wide_compare_reference_agrees_with_scan():
    ref = check._wide_compare_reference("band-wide-k3/compare-json")
    assert len(ref["rows"]) == 40001 and ref["stats"]["n"] == 40001


def _crosscheck_result(seed):
    ref = check.manifest()["crosscheck-k2"]
    rows = []
    for off in workloads.crosscheck_offsets(seed):
        want = ref["rows"][str(off)]
        rows.append({**want, "offset": off, "N": ref["n_star"] + off,
                     "naive_count": want["count"], "naive_weighted": want["weighted"],
                     "circle_re": want["weighted"], "circle_im": 0.0})
    return {**{k: v for k, v in ref.items() if k != "rows"}, "rows": rows}


@pytest.mark.parametrize("field, delta", [
    ("naive_count", 1), ("count", 1), ("circle_re", 1e-2), ("conv3", 1e-3), ("arc_re", 1e-3),
])
def test_crosscheck_checker(field, delta):
    result = _crosscheck_result(seed=3)
    assert check.check_crosscheck(result, seed=3) == []
    result["rows"][2][field] += delta
    assert check.check_crosscheck(result, seed=3)
    assert check.check_crosscheck(_crosscheck_result(seed=4), seed=3)  # wrong targets


def _small_values():
    import io

    from tanprimes import sieve_segment, value_table, window_from_index
    from tanprimes.seqeval import table_to_csv

    w = window_from_index(2, 1.05, 2.0)
    table = value_table(sieve_segment(w.delta1, w.delta2).primes, w.c, w.theta)
    buf = io.StringIO()
    table_to_csv(table, buf)
    text = buf.getvalue()
    rows, digest = check.values_digest(text)
    return text, {"rows": rows, "nfc_sha256": digest, "c": w.c, "theta": w.theta}


def test_values_checker(monkeypatch):
    monkeypatch.setattr(check, "FRAC_SAMPLES", 40)
    text, ref = _small_values()
    assert check.check_values(text, ref, seed=1) == []
    lines = text.split("\n")
    n, f, frac, cert = lines[3].split(",")
    bad_f = "\n".join(lines[:3] + [f"{n},{int(f) + 1},{frac},{cert}"] + lines[4:])
    assert check.check_values(bad_f, ref, seed=1)
    assert check.check_values("\n".join(lines[:3] + lines[4:]), ref, seed=1)
    # a frac off by more than the guard is caught by the 200-bit sample
    monkeypatch.setattr(check, "FRAC_SAMPLES", ref["rows"])
    bad_frac = "\n".join(lines[:3] + [f"{n},{f},{float(frac) + 1e-5:.12f},{cert}"]
                         + lines[4:])
    assert check.check_values(bad_frac, ref, seed=1)


def test_naive_iterations_match_loop():
    import numpy as np

    f = np.array([3, 5, 5, 8, 13, 21], dtype=np.int64)
    for N in (10, 20, 40, 70):
        steps = 0
        for i in range(len(f)):
            for j in range(len(f)):
                steps += 1
                if f[i] + f[j] <= N:
                    steps += len(f)
        assert workloads.naive_iterations(f, N) == steps


def test_conv3_terms_match_loop():
    m_lo, m_hi = 10, 17
    for N in (25, 30, 40, 51, 60):
        terms = sum(1 for s in range(2 * m_lo, 2 * m_hi + 1) if m_lo <= N - s <= m_hi
                    for m1 in range(m_lo, m_hi + 1) if m_lo <= s - m1 <= m_hi)
        assert workloads.conv3_terms(m_lo, m_hi, N) == terms


def _bench(workload, trace, cwd=run.ROOT, seed=5):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


COUNT_UNITS = ("count", "1")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    runs = []
    for _ in range(2):
        out = _bench(workload, trace=1)
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.strip().split("\n")[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        runs.append({k: v["value"] for k, v in result["metrics"].items()
                     if v["unit"] in COUNT_UNITS and not k.startswith("trace.")})
    assert runs[0] == runs[1]


def test_refuses_without_program_source():
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.HERE, f"{tmp}/perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = _bench("band-k4", trace=0, cwd=tmp)
        assert out.returncode != 0
        assert '"correct"' not in out.stdout
    finally:
        shutil.rmtree(tmp)
