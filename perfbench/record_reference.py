"""Freeze the output digest of every command any seed can draw.

    python3 perfbench/record_reference.py

Materializes each workload's whole input pool (inputs.pool), runs every
command once through the same code path as a measured pass, and writes
perfbench/reference.json: for each command key, the sha256 of its input
file (null when it has none) and of its output. Run it only on a commit
whose outputs are known to be right; later commits are judged against it.
Takes about two minutes on two cores.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import inputs
import worker


def record(workload: str, work_dir: str) -> dict:
    from liesymp import cli

    in_dir = os.path.join(work_dir, workload)
    commands = inputs.materialize(inputs.pool(workload), in_dir)
    digests = {}
    for cmd in commands.values():
        res = worker.run_command(cli, cmd, in_dir, in_dir)
        if res["error"] is not None:
            raise SystemExit(f"{cmd['key']}: {res['error']}")
        digests[cmd["key"]] = {"input": cmd.get("input_sha256"),
                               "output": res["sha256"]}
        print(f"{res['latency_s']:8.3f} s  {cmd['key']}", flush=True)
    return digests


def main() -> int:
    digests = {}
    work_root = os.path.join(inputs.ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as work_dir:
        for workload in inputs.WORKLOADS:
            digests.update(record(workload, work_dir))
    with open(worker.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"digests": dict(sorted(digests.items()))}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
