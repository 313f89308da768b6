"""Golden CLI outputs: every subcommand replayed against tests/fixtures/cli/.

The fixtures are recorded by scripts/record_fixtures.py; cases.json lists
each command line, its environment, exit code and stderr. CSV must match
byte for byte. JSON must have the same keys, strings, booleans and
integers, and floats within 1e-12 relative: full-repr floats pass through
numpy's vectorized log/exp, whose last bits vary with the CPU's SIMD path.
"""

import json
import math
import pathlib
import time

import pytest

from tanprimes.cli import main

GOLDEN = pathlib.Path(__file__).parent / "fixtures" / "cli"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def _same_json(got, want, where="$"):
    assert type(got) is type(want), f"{where}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{where}: keys differ"
        for key in want:
            _same_json(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            _same_json(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-12), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_matches_golden(case, capsys, monkeypatch):
    for key, value in case["env"].items():
        monkeypatch.setenv(key, value)
    code = main(list(case["argv"]))
    out, err = capsys.readouterr()
    assert code == case["exit"]
    if case["stderr"]:
        prefix = case["stderr"].split(":", 1)[0]
        assert prefix in ("usage error", "resource guard", "error")
        assert err.splitlines()[-1].split(":", 1)[0] == prefix
    if "stdout" not in case:
        assert out == ""
        return
    want = (GOLDEN / case["stdout"]).read_text(encoding="utf-8")
    if case["stdout"].endswith(".csv"):
        assert out == want
    else:
        assert out.endswith("\n") and out.count("\n") == 1
        _same_json(json.loads(out), json.loads(want))


@pytest.mark.parametrize("argv", [["scan", "--k", "6", "--band", "-1:1"], ["count", "--k", "6"]],
                         ids=["scan", "count"])
def test_pair_span_guard_before_sieving(capsys, argv):
    t0 = time.perf_counter()
    code = main(argv)
    dt = time.perf_counter() - t0
    _, err = capsys.readouterr()
    assert code == 4
    assert err.splitlines()[-1].startswith("resource guard: pair-sum span")
    assert dt < 1.0
