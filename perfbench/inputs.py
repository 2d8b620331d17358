"""Seeded input generator for the liesymp benchmark.

    python3 perfbench/inputs.py --workload analyze-sparse --seed 7 --out DIR

writes the triple JSON files one run needs into DIR, plus DIR/manifest.json:
every command by reference key with the sha256 of its generated input, and
the ordered list of command keys of each pass (--passes, default 1). The
program under test sees only those files.

Every input a seed can draw comes from a finite pool (`pool(workload)`), so
`record_reference.py` can freeze an output digest for every command any seed
can produce. A seed only chooses which pool members a run uses. Pool members
are built from their own fixed sub-seed, never from the run seed, so the same
key always means the same bytes; the recorded input digests catch any change
to the generator.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
from fractions import Fraction
from math import gcd

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("analyze-sparse", "analyze-dense", "verify-claims")
FLAGS = ((True, True), (True, False), (False, True), (False, False))

# analyze-sparse: catalog entries, the Kodaira-Thurston family and
# synthesized triples whose structure constants and J are mostly zero.
CATALOG = ("ex1", "ex2", "ex3", "ex4", "dim6")
THURSTON_ALPHAS = tuple(sorted({Fraction(p, q) for p in range(1, 10)
                                for q in range(1, 10) if gcd(p, q) == 1}))
# Thurston triples a pass: with the catalog's four dim-4 entries they are
# the small commands, and enough of them that item_s_p50 falls among them
# rather than on the largest of a few
THURSTON_DRAWS = 8
# The seed draws k and both flags at dim 8 only. At dims 10 and 12 the
# report's cost moves by up to 2x with k and the flags (a dim-12 report takes
# 5.2 s at k >= 3 and 8-10 s at k = 1, 2), so a drawn triple there would make
# runs of the same code differ by the draw; those two are fixed.
SPARSE_DRAWN_HALF_DIM = 4
SPARSE_FIXED = ((5, 2, (True, True)), (6, 3, (True, True)))

# analyze-dense: (half dimension, commands per pass), drawn from DENSE_POOL
# conjugates a dimension. The eight dim-6 ones hold the median command. The
# one dim-8 command, the workload's heaviest, is always pool member
# DENSE_HEAVIEST: dim-8 reports take 1.35-2.0 s depending on the member.
DENSE_PLAN = ((2, 3), (3, 8))
DENSE_HEAVIEST = (4, 12)
DENSE_POOL = 16
DENSE_BITS = (20, 30)
_LAMBDAS = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2),
            Fraction(2), Fraction(-2), Fraction(1, 3), Fraction(-1, 3),
            Fraction(3, 2), Fraction(2, 3))

# verify-claims: every command but analyze.
TWISTOR_NS = (1, 2, 3, 4, 5)
NSPACE_NS = "3,4,5,6,7,8"
SYNTH_HALF_DIMS = (6, 7, 8, 9, 10)


def _flag_tag(flags: tuple[bool, bool]) -> str:
    return "".join("t" if f else "f" for f in flags)


def _analyze(key: str, source: dict, heaviest: bool = False) -> dict:
    return {"key": f"analyze:{key}", "argv": ["analyze", "{input}", "--full"],
            "source": source, "heaviest": heaviest}


def _sparse_rank(n: int, k: int, flags, heaviest: bool) -> dict:
    return _analyze(f"rank-d{2 * n}-k{k}-{_flag_tag(flags)}",
                    {"kind": "rank", "n": n, "k": k, "flags": list(flags)},
                    heaviest)


def _dense(n: int, index: int, heaviest: bool) -> dict:
    return _analyze(f"dense-d{2 * n}-{index:02d}",
                    {"kind": "dense", "n": n, "index": index}, heaviest)


def _synth_pair(n: int, k: int, flags) -> list[dict]:
    tag = f"d{2 * n}-k{k}-{_flag_tag(flags)}"
    out = f"{{out}}/synth-{tag}.json"
    synth = ["synthesize", "--n", str(n), "--k", str(k),
             "--image-involutive", str(flags[0]).lower(),
             "--perp-involutive", str(flags[1]).lower(), "-o", out]
    return [{"key": f"synthesize:{tag}", "argv": synth, "output_file": out},
            {"key": f"validate:{tag}", "argv": ["validate", out]}]


def _verify_fixed() -> list[dict]:
    head = [{"key": "goldens", "argv": ["goldens"]}]
    head += [{"key": f"twistor:n{n}",
              "argv": ["twistor", "--n", str(n), "--report", "json"],
              "heaviest": n == TWISTOR_NS[-1]} for n in TWISTOR_NS]
    head.append({"key": "nspace-dim",
                 "argv": ["nspace-dim", "--n", NSPACE_NS]})
    return head


def plan(workload: str, seed: int, pass_index: int = 0) -> list[dict]:
    """The command list of one pass of a run, in order. Each pass draws
    anew, so a run's medians are taken over many draws, not one."""
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    if workload == "analyze-sparse":
        items = [_analyze(name, {"kind": "catalog", "name": name})
                 for name in CATALOG]
        items += [_analyze(f"thurston({alpha})",
                           {"kind": "thurston", "alpha": str(alpha)})
                  for alpha in rng.sample(THURSTON_ALPHAS, THURSTON_DRAWS)]
        n = SPARSE_DRAWN_HALF_DIM
        items.append(_sparse_rank(n, rng.randint(1, n - 1),
                                  rng.choice(FLAGS), False))
        items += [_sparse_rank(n, k, flags, n == SPARSE_FIXED[-1][0])
                  for n, k, flags in SPARSE_FIXED]
        return items
    if workload == "analyze-dense":
        items = [_dense(n, index, False)
                 for n, count in DENSE_PLAN
                 for index in sorted(rng.sample(range(DENSE_POOL), count))]
        return items + [_dense(*DENSE_HEAVIEST, True)]
    if workload == "verify-claims":
        items = _verify_fixed()
        for n in SYNTH_HALF_DIMS:
            items += _synth_pair(n, rng.randint(1, n - 1), rng.choice(FLAGS))
        return items
    raise ValueError(f"unknown workload {workload!r}")


def pool(workload: str) -> list[dict]:
    """Every command any seed can put into a run of `workload`."""
    if workload == "analyze-sparse":
        items = [_analyze(name, {"kind": "catalog", "name": name})
                 for name in CATALOG]
        items += [_analyze(f"thurston({a})",
                           {"kind": "thurston", "alpha": str(a)})
                  for a in THURSTON_ALPHAS]
        n = SPARSE_DRAWN_HALF_DIM
        items += [_sparse_rank(n, k, flags, False)
                  for k in range(1, n) for flags in FLAGS]
        items += [_sparse_rank(n, k, flags, False)
                  for n, k, flags in SPARSE_FIXED]
        return items
    if workload == "analyze-dense":
        return [_dense(n, index, False)
                for n, _ in DENSE_PLAN for index in range(DENSE_POOL)
                ] + [_dense(*DENSE_HEAVIEST, False)]
    if workload == "verify-claims":
        items = _verify_fixed()
        for n in SYNTH_HALF_DIMS:
            for k in range(1, n):
                for flags in FLAGS:
                    items += _synth_pair(n, k, flags)
        return items
    raise ValueError(f"unknown workload {workload!r}")


# -- dense conjugates ------------------------------------------------------


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols]
            for row in a]


def _transvection(omega, a, lam):
    """Matrix of v -> v + lam * omega(v, a) * a; it is always symplectic."""
    d = len(omega)
    w = [sum(omega[i][j] * a[j] for j in range(d)) for i in range(d)]
    return [[Fraction(int(r == c)) + lam * w[c] * a[r] for c in range(d)]
            for r in range(d)]


def _max_bits(m) -> int:
    return max(max(x.numerator.bit_length(), x.denominator.bit_length())
               for row in m for x in row)


def dense_j(omega, j, rng: random.Random):
    """j -> S j S^-1 for a product S of transvections, grown until the
    largest numerator or denominator has DENSE_BITS[0] bits. Candidates
    with a zero entry or more than DENSE_BITS[1] bits are redrawn."""
    d = len(omega)
    ident = [[Fraction(int(r == c)) for c in range(d)] for r in range(d)]
    while True:
        s, s_inv, out = ident, ident, j
        while _max_bits(out) < DENSE_BITS[0]:
            a = [Fraction(rng.randint(-2, 2)) for _ in range(d)]
            if not any(a):
                a[rng.randrange(d)] = Fraction(1)
            lam = rng.choice(_LAMBDAS)
            s = _matmul(_transvection(omega, a, lam), s)
            s_inv = _matmul(s_inv, _transvection(omega, a, -lam))
            out = _matmul(_matmul(s, j), s_inv)
        if (_max_bits(out) <= DENSE_BITS[1]
                and all(x for row in out for x in row)):
            return out


# -- materialization --------------------------------------------------------


def _payload(source: dict) -> dict:
    from liesymp import catalog
    from liesymp.serialization import triple_to_dict

    kind = source["kind"]
    if kind == "catalog":
        return triple_to_dict(catalog.builtin(source["name"]))
    if kind == "thurston":
        return triple_to_dict(catalog.thurston(source["alpha"]))
    if kind == "rank":
        return triple_to_dict(catalog.build_rank_example(
            source["n"], source["k"], *source["flags"]))
    if kind == "dense":
        n, index = source["n"], source["index"]
        rng = random.Random(f"dense:{n}:{index}")
        k = rng.randint(1, n - 1)
        flags = rng.choice(FLAGS)
        base = catalog.build_rank_example(n, k, *flags)
        omega = [list(r) for r in base.omega.entries]
        j = [list(r) for r in base.j.entries]
        payload = triple_to_dict(base)
        payload["name"] = f"dense-d{2 * n}-{index:02d}"
        payload["J"] = [[str(x) for x in row]
                        for row in dense_j(omega, j, rng)]
        return payload
    raise ValueError(f"unknown input kind {kind!r}")


def materialize(items: list[dict], out_dir: str) -> dict:
    """Write the input file of every distinct command of `items` into
    out_dir; return {key: command}."""
    os.makedirs(out_dir, exist_ok=True)
    commands = {}
    for item in items:
        if item["key"] in commands:
            continue
        cmd = {k: v for k, v in item.items() if k != "source"}
        source = item.get("source")
        if source is not None:
            fname = f"input{len(commands):03d}.json"
            data = (json.dumps(_payload(source), sort_keys=True, indent=2)
                    + "\n").encode("utf-8")
            with open(os.path.join(out_dir, fname), "wb") as fh:
                fh.write(data)
            cmd["input"] = fname
            cmd["input_sha256"] = hashlib.sha256(data).hexdigest()
        commands[item["key"]] = cmd
    return commands


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--passes", type=int, default=1,
                   help="how many passes to draw command lists for")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    plans = [plan(args.workload, args.seed, i) for i in range(args.passes)]
    manifest = {"workload": args.workload, "seed": args.seed,
                "commands": materialize([it for pl in plans for it in pl],
                                        args.out),
                "passes": [[it["key"] for it in pl] for pl in plans]}
    with open(os.path.join(args.out, "manifest.json"), "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
