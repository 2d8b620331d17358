"""Smoke test of the benchmark itself, on one small seed.

    python3 perfbench/smoke.py

Checks that
  * a plain run and a traced run of analyze-dense print every metric that
    BENCHMARK.json names, with its unit, and no command fails;
  * the traced pass produces the same output digests as the plain pass;
  * a corrupted reference digest makes the run report a failed command;
  * without the liesymp sources the benchmark exits non-zero and prints no
    result.
Exits 0 when all hold. Takes about half a minute on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD, SEED = "analyze-dense", 1


def _run(root: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOAD,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180)


def _result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"run failed ({proc.returncode}): {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_metrics(proc, expected: list[dict]) -> dict:
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    assert got == want, (sorted(set(got) ^ set(want)), got, want)
    text = proc.stdout
    for name in want:
        assert name in text.split("{", 1)[0], f"{name} not printed"
    return result


def _copy_checkout(dest: str, with_source: bool) -> None:
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, os.path.join(dest, "perfbench"), ignore=ignore)
    if with_source:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"),
                        ignore=ignore)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)

    proc = _run(ROOT, 0)
    plain = _check_metrics(proc, bench["end_to_end"])
    assert plain["correct"] and plain["failed"] == 0, plain
    assert "fail_share" in proc.stdout
    traced = _check_metrics(_run(ROOT, 1), bench["per_layer"])
    assert traced["correct"] and traced["failed"] == 0, traced
    record = os.path.join(ROOT, ".bench_work", "results",
                          f"{WORKLOAD}-s{SEED}-t1.json")
    with open(record, encoding="utf-8") as fh:
        passes = json.load(fh)["passes"]
    digests = [[it["sha256"] for it in ps["items"]] for ps in passes]
    assert len(digests) == 2 and digests[0] == digests[1], digests
    print("ok: metric names, units and digests; traced == plain")

    scratch = os.path.join(ROOT, ".bench_work", f"smoke-{os.getpid()}")
    try:
        _copy_checkout(scratch, with_source=True)
        sys.path.insert(0, HERE)
        import inputs
        key = inputs.plan(WORKLOAD, SEED)[0]["key"]
        ref_path = os.path.join(scratch, "perfbench", "reference.json")
        with open(ref_path, encoding="utf-8") as fh:
            ref = json.load(fh)
        ref["digests"][key]["output"] = "0" * 64
        with open(ref_path, "w", encoding="utf-8") as fh:
            json.dump(ref, fh)
        proc = _run(scratch, 0)
        corrupted = _result(proc)
        assert corrupted["failed"] > 0 and not corrupted["correct"], corrupted
        share = next(ln for ln in proc.stdout.splitlines()
                     if ln.startswith("fail_share")).split()[1]
        assert float(share) > 0, share
        print(f"ok: corrupted digest of {key} gives fail_share {share}")

        _copy_checkout(scratch, with_source=False)
        proc = _run(scratch, 0)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
        print("ok: without sources the run exits", proc.returncode)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
