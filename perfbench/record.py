"""Record the reference outputs that check.py compares against.

    python3 perfbench/record.py

Runs every CLI op of every workload through `python -m tanprimes.cli` and
the crosscheck job at all 101 offsets, and writes perfbench/reference/.
Only re-record when an output is meant to change, and say why in the
commit that does it.
"""
from __future__ import annotations

import json
import lzma
import subprocess
import sys

import check
import run
import spans
import workloads


def cli_output(op: workloads.Op) -> str:
    cmd = [sys.executable, "-m", "tanprimes.cli", *op.argv(run.MAX_THREADS)]
    out = subprocess.run(cmd, env=run.child_env(), cwd=run.ROOT, capture_output=True,
                         check=True)
    return out.stdout.decode("utf-8")


def main() -> int:
    check.REF_DIR.mkdir(exist_ok=True)
    manifest = {"sha256": {}, "values": {}, "compare_from_scan": {},
                "recorded_from": run.environment(seed=0, threads=run.MAX_THREADS)}
    outputs = {}
    for name, ops in workloads.WORKLOADS.items():
        for op in ops:
            if not op.is_cli:
                continue
            key = f"{name}/{op.name}"
            text = outputs[key] = cli_output(op)
            manifest["sha256"][key] = check.sha256(text)
            if op.command == "values":
                rows, digest = check.values_digest(text)
                manifest["values"][key] = {"rows": rows, "nfc_sha256": digest,
                                           "c": op.c, "theta": op.theta}
                continue
            if op.command == "compare" and op.fmt == "json" and name == "band-wide-k3":
                obj = json.loads(text)
                manifest["compare_from_scan"][key] = {
                    "scan": f"{name}/scan-csv", "main_term": obj["rows"][0]["main_term"],
                    "stats": obj["stats"], "window": obj["window"]}
                continue
            (check.REF_DIR / (key.replace("/", ".") + ".xz")).write_bytes(
                lzma.compress(text.encode("utf-8"), preset=9))
            print(f"recorded {key}: {len(text)} bytes", flush=True)

    sys.path.insert(0, str(run.SRC))
    op = workloads.find_op("crosscheck-k2", "crosscheck")
    offsets = list(workloads.CROSSCHECK_OFFSETS)
    result, _ = workloads.crosscheck(op, offsets, spans.NullTracer(), run.MAX_THREADS)
    keep = ("count", "weighted", "arc_re", "arc_im", "conv3")
    rows = {str(r["offset"]): {k: r[k] for k in keep} for r in result.pop("rows")}
    manifest["crosscheck-k2"] = {**result, "rows": rows}
    (check.REF_DIR / "manifest.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print("recorded manifest.json", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
