"""One pass over a workload's command list, in a fresh interpreter.

    python3 perfbench/worker.py MANIFEST --spawned-at T [--pass-index I]
                                [--setup-only] [--trace SPANS.json]

T is the parent's time.monotonic() just before it started this process, so
setup_s covers interpreter start, `import liesymp` and reading the input
files of pass I. Its commands then run one after another through
`liesymp.cli.main` in this process; each one's stdout (or its -o file) is
hashed and compared with the frozen digest in reference.json. The host
speed probe (calibrate.py) runs between commands and, in an untraced pass,
every calibrate.INTERVAL_S seconds during each one; its time is taken out
of the command's latency, and gives the command's time in reference
seconds (ref_s). The last stdout line is one JSON object with the pass's
timings, probe times and per-command verdicts.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_SPEED_PROBES = 5


def _goldens_ok(text: str) -> bool:
    return text.endswith("48/48 golden claims hold\n")


def _nspace_ok(text: str) -> bool:
    lines = text.splitlines()
    return bool(lines) and all(ln.endswith(" MATCH") for ln in lines)


def _twistor_ok(text: str) -> bool:
    return all(row["checks_pass"] for row in json.loads(text))


def _validate_ok(text: str) -> bool:
    return text.startswith("OK: valid triple")


# checks that hold whatever the reference says
SEMANTIC = {"goldens": _goldens_ok, "nspace-dim": _nspace_ok,
            "twistor": _twistor_ok, "validate": _validate_ok}


def run_command(cli, cmd: dict, in_dir: str, out_dir: str,
                sampler=contextlib.nullcontext()) -> dict:
    """Run one command under `sampler`; return its latency (the sampler's
    probe time taken out), the probe times, its output digest and an error
    text (None when it exited 0 and passed its own check)."""
    path = os.path.join(in_dir, cmd["input"]) if "input" in cmd else ""
    argv = [a.replace("{input}", path).replace("{out}", out_dir)
            for a in cmd["argv"]]
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with sampler, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as e:  # a crash is a failed command, not a failed run
        rc, error = None, f"{type(e).__name__}: {e}"
    probes = list(getattr(sampler, "samples", ()))
    latency = time.perf_counter() - t0 - sum(probes)
    text = out.getvalue()
    if "output_file" in cmd and rc == 0:
        with open(cmd["output_file"].replace("{out}", out_dir), "rb") as fh:
            data = fh.read()
    else:
        data = text.encode("utf-8")
    if error is None and rc != 0:
        error = f"exit code {rc}: {err.getvalue().strip()[:200]}"
    elif error is None:
        check = SEMANTIC.get(argv[0])
        if check is not None and not check(text):
            error = f"{argv[0]} output fails its own check"
    return {"latency_s": latency, "probe_s": probes, "error": error,
            "sha256": hashlib.sha256(data).hexdigest()}


def verdict(cmd: dict, res: dict, input_sha, reference: dict):
    """None when the command passed, else the reason it failed."""
    ref = reference.get(cmd["key"])
    if res["error"] is not None:
        return res["error"]
    if ref is None:
        return "no reference digest"
    if input_sha != ref["input"]:
        return "input digest differs from the reference (generator changed)"
    if res["sha256"] != ref["output"]:
        return "output digest differs from the reference"
    return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("manifest")
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--pass-index", type=int, default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", default=None, help="write spans to this file")
    args = p.parse_args(argv)

    from liesymp import cli
    in_dir = os.path.dirname(os.path.abspath(args.manifest))
    with open(args.manifest, "rb") as fh:
        manifest = json.loads(fh.read())
    commands = [manifest["commands"][key]
                for key in manifest["passes"][args.pass_index]]
    input_sha = {}
    for cmd in commands:
        if "input" in cmd:
            with open(os.path.join(in_dir, cmd["input"]), "rb") as fh:
                input_sha[cmd["key"]] = hashlib.sha256(fh.read()).hexdigest()
    setup_s = time.monotonic() - args.spawned_at
    calibrate.probe()  # warm-up
    setup_ref_s = setup_s * calibrate.scale(
        [calibrate.probe() for _ in range(SETUP_SPEED_PROBES)])
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_ref_s}))
        return 0

    with open(REFERENCE, "rb") as fh:
        reference = json.loads(fh.read())["digests"]
    out_dir = os.path.join(in_dir, f"out-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    # in a traced pass the sampler's probes would land in the spans' self
    # time, so only the probes between commands scale it
    sampler = (calibrate.Sampler() if tracer is None
               else contextlib.nullcontext())
    items, probes = [], []
    before = calibrate.probe()
    for index, cmd in enumerate(commands):
        if tracer is not None:
            tracer.request = index
        res = run_command(cli, cmd, in_dir, out_dir, sampler)
        after = calibrate.probe()
        around = [before, *res["probe_s"], after]
        probes += around[:-1]
        before = after
        items.append({"key": cmd["key"], "latency_s": res["latency_s"],
                      "ref_s": res["latency_s"] * calibrate.scale(around),
                      "probes": len(around),
                      "heaviest": bool(cmd.get("heaviest")),
                      "why": verdict(cmd, res, input_sha.get(cmd["key"]),
                                     reference),
                      "sha256": res["sha256"]})
    probes.append(before)

    result = {"setup_s": setup_s, "setup_ref_s": setup_ref_s,
              "probe_s": probes,
              "wall_s": sum(it["latency_s"] for it in items),
              "wall_ref_s": sum(it["ref_s"] for it in items),
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024,
              "items": items}
    if tracer is not None:
        tracer.write_spans(args.trace, [c["key"] for c in commands])
        result["trace"] = tracer.metrics()
        result["not_traced"] = tracer.missing
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
