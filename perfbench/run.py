"""liesymp benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The seeded generator (inputs.py)
writes the workload's input files and one command list per pass, each
drawn anew from the seed; then each pass runs its command list in a fresh
interpreter (worker.py), one command after another, with every output
checked against the frozen digests in reference.json. Passes repeat while
one more pass of average length still ends within S seconds (there is
always at least one). Set-up time is also taken from several interpreters
that only import liesymp and read the inputs.

Every reported time is in reference seconds: a command's measured
seconds times calibrate.NOMINAL_S over the median time of the host speed
probe taken around and during it, in the same process (calibrate.py). The
raw medians and the host speed are printed too.

With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
runs one plain pass and one traced pass (tracing.py) and reports the
per-layer metrics of the traced pass plus the tracing overhead. The last
stdout line is the JSON result; the lines before it name every metric with
its unit and sample count. A fuller record (Python version, CPU count, git
commit, per-command latencies) is written to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import calibrate
import inputs
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = inputs.ROOT
WORK = os.path.join(ROOT, ".bench_work")
SETUP_PROBES = 7
MAX_PASSES = 40
CHILD_TIMEOUT_S = 170

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("item_s_p50", "s"),
              ("largest_item_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = tracing.METRICS + (("trace.overhead_s", "s"),)


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _child(args: list[str]) -> dict:
    """Run a child interpreter; return the JSON object on its last line."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, *args, "--spawned-at", repr(spawned)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{os.path.basename(args[0])} exited with "
                           f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _passes(manifest: str, seconds: float, trace: str | None) -> list[dict]:
    worker = os.path.join(HERE, "worker.py")
    if trace is not None:
        return [_child([worker, manifest]),
                _child([worker, manifest, "--trace", trace])]
    out, t0 = [], time.monotonic()
    while True:
        out.append(_child([worker, manifest,
                           "--pass-index", str(len(out))]))
        elapsed = time.monotonic() - t0
        if (elapsed + elapsed / len(out) > seconds
                or len(out) == MAX_PASSES):
            return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "liesymp", "cli.py")):
        print(f"no liesymp source under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    run_dir = os.path.join(WORK, f"run-{tag}-{os.getpid()}")
    in_dir = os.path.join(run_dir, "inputs")
    manifest = os.path.join(in_dir, "manifest.json")
    spans = os.path.join(WORK, "traces", f"{tag}.json") if args.trace else None
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    try:
        subprocess.run([sys.executable, os.path.join(HERE, "inputs.py"),
                        "--workload", args.workload, "--seed", str(args.seed),
                        "--passes", str(MAX_PASSES), "--out", in_dir],
                       cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)
        setup_runs = [_child([os.path.join(HERE, "worker.py"), manifest,
                              "--setup-only"]) for _ in range(SETUP_PROBES)]
        passes = _passes(manifest, args.seconds, spans)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    plain = passes[:1] if args.trace else passes
    median = statistics.median

    def medians(ref: bool) -> dict:
        """End-to-end metrics in reference seconds, or raw."""
        setup, item, wall = (("setup_ref_s", "ref_s", "wall_ref_s") if ref
                             else ("setup_s", "latency_s", "wall_s"))
        return {
            "setup_s": median([ps[setup] for ps in setup_runs + plain]),
            "wall_s": median([ps[wall] for ps in plain]),
            "item_s_p50": median([it[item] for ps in plain
                                  for it in ps["items"]]),
            "largest_item_s": median([it[item] for ps in plain
                                      for it in ps["items"]
                                      if it["heaviest"]]),
            "peak_rss_mb": median([ps["peak_rss_mb"] for ps in plain]),
        }

    end_to_end, raw = medians(True), medians(False)
    n_items = sum(len(ps["items"]) for ps in plain)
    n_heaviest = sum(it["heaviest"] for ps in plain for it in ps["items"])
    samples = {"setup_s": len(setup_runs) + len(plain), "wall_s": len(plain),
               "item_s_p50": n_items, "largest_item_s": n_heaviest,
               "peak_rss_mb": len(plain)}
    all_items = [it for ps in passes for it in ps["items"]]
    failures = [it for it in all_items if it["why"] is not None]
    host_speed = calibrate.NOMINAL_S / median(
        [t for ps in passes for t in ps["probe_s"]])
    if args.trace:
        traced = passes[1]
        factor = traced["wall_ref_s"] / traced["wall_s"]
        metrics = {name: value * factor if name.endswith("_s") else value
                   for name, value in traced["trace"].items()}
        metrics["trace.overhead_s"] = (traced["wall_ref_s"]
                                       - plain[0]["wall_ref_s"])
        units = dict(PER_LAYER)
    else:
        metrics, units = end_to_end, dict(END_TO_END)

    env = {"python": platform.python_version(),
           "nproc": len(os.sched_getaffinity(0)), "git": _git_commit(),
           "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "passes": len(passes), "commands": len(all_items),
           "host_speed": round(host_speed, 4)}
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("# times in reference seconds; raw = as measured on this host")
    for name, value in end_to_end.items():
        print(f"{name:16} {value:12.6f} {dict(END_TO_END)[name]:6} "
              f"median of {samples[name]:<4} raw {raw[name]:.6f}")
    print(f"{'fail_share':16} {len(failures) / len(all_items):12.6f} "
          f"{'ratio':6} {len(failures)} of {len(all_items)} commands failed")
    if args.trace:
        for name, unit in PER_LAYER:
            print(f"{name:40} {metrics[name]:14.6f} {unit}")
        print(f"# spans written to {os.path.relpath(spans, ROOT)}")
        if passes[1]["not_traced"]:
            print("# not found, so not traced: "
                  + ", ".join(passes[1]["not_traced"]))
    for it in failures:
        print(f"FAILED {it['key']}: {it['why']}")
    record = {"env": env, "end_to_end": end_to_end, "raw": raw,
              "samples": samples, "metrics": metrics, "setup_runs": setup_runs,
              "passes": [{k: v for k, v in ps.items() if k != "trace"}
                         for ps in passes]}
    with open(os.path.join(WORK, "results", f"{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": not failures, "attempted": len(all_items),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
