"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload in ``BENCHMARK.json`` at a tiny op count, untraced and
traced, and asserts that the last line of stdout is the result object, that
every metric ``BENCHMARK.json`` names appears with its unit, that no op
failed (the error-path ops pass by exiting 2 with an ``error:`` line, so
``fail_ratio`` is 0), that the known-defect ops are reported by name, and
that the traced run writes its spans.  Last, it checks that the benchmark
exits non-zero without a result in a directory holding only
``BENCHMARK.json`` and the benchmark's own files, and that ``layers.json``
maps every per-layer metric.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY_OPS = 12
KNOWN_DEFECTS = {"extend": {"defect/extend-downward-accepted",
                            "defect/negative-level-index-error"}}


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


def check_workload(bench: dict, workload: str, trace: int, tmp: str) -> None:
    spans = os.path.join(tmp, f"spans-{workload}.tsv")
    args = ["--workload", workload, "--seed", "7", "--seconds", "0",
            "--trace", str(trace), "--ops", str(TINY_OPS)]
    done = _run(ROOT, *args, *(["--spans", spans] if trace else []))
    where = f"{workload} trace={trace}"
    assert done.returncode == 0, f"{where}: exit {done.returncode}\n{done.stderr}"
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    declared = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{where}: metrics {sorted(set(got) ^ set(want))} differ"
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"], (
        f"{where}: failed ops {record['failed_ops']}")
    assert record["fail_ratio"] == 0.0, where
    if workload in ("count", "extend"):
        assert record["error_path_share"] > 0, f"{where}: no error-path op ran"
    defects = {d["op"] for d in record["known_defects"]}
    assert defects == KNOWN_DEFECTS.get(workload, set()), f"{where}: defects {defects}"
    if trace:
        assert set(record["fixed_by_inputs"]) == {
            "shiftspace.enum.yield", "freext.extract.ok_ratio", "suites.checks"}, where
        with open(spans, encoding="utf-8") as fh:
            assert fh.readline().startswith("span\top\tfunction") and fh.readline(), where


def check_bare_directory(tmp: str) -> None:
    bare = os.path.join(tmp, "bare")
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json")):
            shutil.copy(os.path.join(HERE, name), os.path.join(bare, "perfbench"))
    done = _run(bare, "--workload", "count", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0, "ran without the program's sources"
    assert '"metrics"' not in done.stdout, "printed a result without the program"


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        mapped = set(json.load(fh)["layers"])
    assert mapped == {m["name"] for m in bench["per_layer"]}, "layers.json is out of date"
    with tempfile.TemporaryDirectory(prefix=".perfbench-smoke-", dir=ROOT) as tmp:
        for w in bench["workloads"]:
            for trace in (0, 1):
                check_workload(bench, w["name"], trace, tmp)
                print(f"ok {w['name']} trace={trace}")
        check_bare_directory(tmp)
        print("ok bare directory")
    return 0


if __name__ == "__main__":
    sys.exit(main())
