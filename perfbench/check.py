"""Reference check behind the benchmark's failure count.

References were recorded from the program by record.py. Rules:
  * integers (columns N, count, n, f, certified and JSON ints) match exactly;
  * floats match within 1e-9 relative, with an absolute floor of 1e-9;
  * JSON may gain keys but may not lose or change existing ones;
  * `values --k 5` (331 529 rows) is checked through a digest of its n, f and
    certified columns, plus a seeded sample of rows whose floors are
    recomputed with 200-bit mpmath;
  * byte-identical output is reported as a count, never as a failure.

Each check returns a list of problems; an empty list means the output passed.
"""
from __future__ import annotations

import hashlib
import json
import lzma
import pathlib
import random
from functools import lru_cache

from workloads import crosscheck_offsets

REF_DIR = pathlib.Path(__file__).resolve().parent / "reference"
INT_COLUMNS = frozenset({"N", "count", "n", "f", "certified"})
REL_TOL = 1e-9
# The float floor path is trusted only while its error stays below the
# program's escalation guard (seqeval.GUARD_ABS); a frac further than that
# from the 200-bit value means a floor may be wrong.
FRAC_TOL = 1e-6
FRAC_SAMPLES = 256
MP_PREC = 200
# The full-circle quadrature is exact up to rounding (acceptance 02).
CIRCLE_TOL = 1e-6
MAX_PROBLEMS = 5


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@lru_cache(maxsize=None)
def manifest() -> dict:
    return json.loads((REF_DIR / "manifest.json").read_text())


@lru_cache(maxsize=None)
def reference_text(key: str) -> str:
    """Recorded output of op `key` ("workload/op"), stored xz-compressed."""
    name = key.replace("/", ".") + ".xz"
    return lzma.decompress((REF_DIR / name).read_bytes()).decode("utf-8")


def diff_csv(text: str, ref: str) -> list[str]:
    got, want = text.split("\n"), ref.split("\n")
    if got[0] != want[0]:
        return [f"header {got[0]!r}, reference {want[0]!r}"]
    if len(got) != len(want):
        return [f"{len(got) - 2} rows, reference has {len(want) - 2}"]
    cols = want[0].split(",")
    problems = []
    for i, (g, r) in enumerate(zip(got, want)):
        if g == r:
            continue
        gv, rv = g.split(","), r.split(",")
        if len(gv) != len(rv):
            problems.append(f"line {i + 1}: {g!r}, reference {r!r}")
        else:
            for col, a, b in zip(cols, gv, rv):
                ok = int(a) == int(b) if col in INT_COLUMNS else close(float(a), float(b))
                if not ok:
                    problems.append(f"line {i + 1} column {col}: {a}, reference {b}")
        if len(problems) >= MAX_PROBLEMS:
            break
    return problems


def diff_json(got, ref, path: str = "$") -> list[str]:
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object"]
        problems = []
        for key, value in ref.items():
            if key not in got:
                problems.append(f"{path}.{key}: missing")
            else:
                problems += diff_json(got[key], value, f"{path}.{key}")
            if len(problems) >= MAX_PROBLEMS:
                break
        return problems
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            n = len(got) if isinstance(got, list) else "no"
            return [f"{path}: {n} items, reference has {len(ref)}"]
        problems = []
        for i, (g, r) in enumerate(zip(got, ref)):
            problems += diff_json(g, r, f"{path}[{i}]")
            if len(problems) >= MAX_PROBLEMS:
                break
        return problems
    if isinstance(ref, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        return [] if close(float(got), ref) else [f"{path}: {got!r}, reference {ref!r}"]
    if type(got) is type(ref) and got == ref:
        return []
    return [f"{path}: {got!r}, reference {ref!r}"]


@lru_cache(maxsize=None)
def _wide_compare_reference(key: str) -> dict:
    # The 40k-row compare JSON shares its N, count and weighted columns with
    # the scan CSV of the same band, so only the rest is stored.
    meta = manifest()["compare_from_scan"][key]
    lines = reference_text(meta["scan"]).split("\n")[1:-1]
    mt = meta["main_term"]
    rows = []
    for line in lines:
        n, count, weighted = line.split(",")
        rows.append({"N": int(n), "count": int(count), "weighted": float(weighted),
                     "main_term": mt, "ratio": float(weighted) / mt})
    return {"rows": rows, "stats": meta["stats"], "window": meta["window"]}


def values_digest(text: str) -> tuple[int, str]:
    """Row count and sha256 of the n, f and certified columns of a values CSV."""
    h = hashlib.sha256()
    rows = 0
    for line in text.split("\n")[1:-1]:
        n, f, _frac, cert = line.split(",")
        h.update(f"{n},{f},{cert}\n".encode())
        rows += 1
    return rows, h.hexdigest()


def check_values(text: str, ref: dict, seed: int) -> list[str]:
    import mpmath as mp

    lines = text.split("\n")
    if lines[0] != "n,f,frac,certified" or lines[-1] != "":
        return ["values CSV header or trailing newline changed"]
    rows, digest = values_digest(text)
    if rows != ref["rows"]:
        return [f"{rows} rows, reference has {ref['rows']}"]
    if digest != ref["nfc_sha256"]:
        return ["n, f or certified column differs from the reference"]
    problems = []
    c, theta = mp.mpf(ref["c"]), mp.mpf(ref["theta"])
    with mp.workprec(MP_PREC):
        for i in random.Random(seed).sample(range(1, rows + 1), min(FRAC_SAMPLES, rows)):
            n, f, frac, _cert = lines[i].split(",")
            v = mp.mpf(int(n)) ** c * mp.tan(mp.log(int(n))) ** theta
            fl = int(mp.floor(v))
            if fl != int(f) or abs(float(v - fl) - float(frac)) > FRAC_TOL:
                problems.append(f"n={n}: f={f} frac={frac}, 200-bit value {mp.nstr(v, 20)}")
    return problems


def check_crosscheck(result: dict, seed: int) -> list[str]:
    ref = manifest()["crosscheck-k2"]
    problems = diff_json({k: v for k, v in result.items() if k != "rows"},
                         {k: v for k, v in ref.items() if k != "rows"})
    offsets = crosscheck_offsets(seed)
    rows = result.get("rows", [])
    if [r.get("offset") for r in rows] != offsets:
        return problems + [f"targets {[r.get('offset') for r in rows]}, expected {offsets}"]
    for row in rows:
        N = row["N"]
        want = ref["rows"][str(row["offset"])]
        if row["count"] != row["naive_count"]:
            problems.append(f"N={N}: mitm count {row['count']} != naive {row['naive_count']}")
        if not close(row["weighted"], row["naive_weighted"]):
            problems.append(f"N={N}: mitm weighted {row['weighted']} != naive")
        scale = CIRCLE_TOL * max(1.0, abs(row["weighted"]))
        if abs(row["circle_re"] - row["weighted"]) > scale or abs(row["circle_im"]) > scale:
            problems.append(f"N={N}: full circle {row['circle_re']}+{row['circle_im']}j "
                            f"!= weighted {row['weighted']}")
        problems += diff_json({k: row[k] for k in want}, want, f"N={N}")
    return problems[:MAX_PROBLEMS]


def check_output(workload: str, op, text: str, seed: int) -> tuple[list[str], bool]:
    """Problems found in one op's output, and whether it is byte-identical."""
    key = f"{workload}/{op.name}"
    identical = sha256(text) == manifest()["sha256"].get(key)
    try:
        if op.command == "crosscheck":
            problems = check_crosscheck(json.loads(text), seed)
        elif key in manifest()["values"]:
            problems = check_values(text, manifest()["values"][key], seed)
        elif key in manifest()["compare_from_scan"]:
            problems = diff_json(json.loads(text), _wide_compare_reference(key))
        elif op.fmt == "json":
            problems = diff_json(json.loads(text), json.loads(reference_text(key)))
        else:
            problems = diff_csv(text, reference_text(key))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return problems, identical
