"""Command line front end.

Exit codes: 0 all checks pass, 1 usage error or a stdout closed before
the output was written (a pipe whose reader exited), 2 validation
failure (including malformed input files), 3 golden or property failure.

All numeric output is exact rational text. Reports are deterministic:
identical inputs give byte-identical JSON (timings only appear under
--timings, which deliberately breaks that guarantee for that run).

Only the invoked command's parser is built; the full tree of commands
is built for help, an unknown command or no command at all.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from typing import Optional

from . import catalog
from .errors import (DimensionMismatch, LiesympError, SerializationError,
                     ValidationError)
from .linalg import qof
from .nspace import expected_dimension, nijenhuis_space_dim
from .report import build_report, render_text, run_goldens
from .serialization import (algebra_from_dict, is_triple_payload,
                            load_json_file, pretty_json, triple_from_dict,
                            triple_to_dict)
from .symp import SymplecticTriple
from .twistor import twistor_claims


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; our contract reserves 2
    # for validation failures, so route usage problems to exit code 1.
    def error(self, message):
        raise _UsageError(message)


def _load_triple(target: str) -> tuple[SymplecticTriple, str]:
    """File path (not a directory) or builtin name -> (triple, display
    name)."""
    if os.path.exists(target) and not os.path.isdir(target):
        payload = load_json_file(target)
        if not is_triple_payload(payload):
            raise SerializationError(
                f"{target} is not a triple payload (no \"omega\" field)")
        t = triple_from_dict(payload)
        return t, payload.get("name", os.path.basename(target))
    t = catalog.builtin(target)
    return t, t.algebra.name


def _emit(text: str, out: Optional[str]) -> None:
    if not out:
        print(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    except OSError as e:
        raise _UsageError(f"cannot write {out}: {e.strerror}") from None


def _cmd_validate(args) -> int:
    payload = load_json_file(args.path)
    kind = args.kind
    if kind == "auto":
        kind = "triple" if is_triple_payload(payload) else "algebra"
    if kind == "triple":
        t = triple_from_dict(payload)
        name, dim = t.algebra.name, t.dim
    else:
        g = algebra_from_dict(payload)
        name, dim = g.name, g.dim
    print(f"OK: valid {kind} '{name}' (dim {dim})")
    return 0


def _cmd_analyze(args) -> int:
    t, name = _load_triple(args.target)
    rep = build_report(t, name=name, full=args.full, timings=args.timings)
    if args.report == "text":
        _emit(render_text(rep), args.output)
    else:
        _emit(pretty_json(rep), args.output)
    return 0


def _cmd_goldens(args) -> int:
    t0 = time.monotonic()
    lines, ok = run_goldens(filter_substr=args.filter)
    if len(lines) == 1:  # the tally alone: no entry name matched
        raise _UsageError(f"no golden entry matches --filter {args.filter!r}")
    print("\n".join(lines))
    if args.timings:
        print(f"elapsed: {int((time.monotonic() - t0) * 1000)} ms")
    return 0 if ok else 3


def _cmd_examples(args) -> int:
    if args.action is None:
        _emit("\n".join(f"{entry:14} {desc}" for entry, desc
                        in catalog.DESCRIPTIONS.items()), args.output)
        return 0
    if args.name is None:
        raise _UsageError("examples show needs an entry name")
    t, _ = _load_triple(args.name)
    _emit(pretty_json(triple_to_dict(t)), args.output)
    return 0


def _cmd_construct(args) -> int:
    if args.kind == "product" and args.xi is not None:
        raise _UsageError("--xi applies to the character construction only")
    t, _ = _load_triple(args.target)
    if args.kind == "product":
        t2 = catalog.product_extension(t)
    else:
        xi = None
        if args.xi:
            xi = [qof(tok.strip()) for tok in args.xi.split(",")]
            if len(xi) != t.dim:
                raise DimensionMismatch(f"--xi has {len(xi)} entries for "
                                        f"dimension {t.dim}")
        t2 = catalog.character_extension(t, xi)
    _emit(pretty_json(triple_to_dict(t2)), args.output)
    return 0


def _cmd_synthesize(args) -> int:
    t = catalog.build_rank_example(args.n, args.k,
                                   args.image_involutive == "true",
                                   args.perp_involutive == "true")
    _emit(pretty_json(triple_to_dict(t)), args.output)
    return 0


def _parse_ns(spec: str) -> list[int]:
    """--n: comma-separated decimal integers >= 1, nothing else."""
    if not re.fullmatch(r"0*[1-9][0-9]*(,0*[1-9][0-9]*)*", spec):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers >= 1, got {spec!r}")
    return [int(t) for t in spec.split(",")]


def _decimal(minimum: int):
    """A decimal integer >= minimum, nothing else: no sign, no space, no
    digit separator."""
    def parse(spec: str) -> int:
        if not re.fullmatch(r"[0-9]+", spec) or int(spec) < minimum:
            raise argparse.ArgumentTypeError(
                f"expected a decimal integer >= {minimum}, got {spec!r}")
        return int(spec)
    return parse


def _cmd_nspace_dim(args) -> int:
    ok = True
    t0 = time.monotonic()
    for n in args.n:
        got = nijenhuis_space_dim(n)
        want = expected_dimension(n)
        match = got == want
        ok = ok and match
        print(f"n={n}: nullity={got} formula={want} "
              f"{'MATCH' if match else 'MISMATCH'}")
    if args.timings:
        print(f"elapsed: {int((time.monotonic() - t0) * 1000)} ms")
    return 0 if ok else 3


def _cmd_twistor(args) -> int:
    ok = True
    t0 = time.monotonic()
    payloads = []
    for n in args.n:
        c = twistor_claims(n)
        checks = [
            ("+", "plus structure integrable", c["plus_integrable"]),
            ("-", "minus image = q+p" if n >= 2 else "minus image = 0",
             c["minus_image_dim"] == (c["m_dim"] if n >= 2 else 0)),
            ("-", "p x p values fill q", c["p_pairs_fill_q"]),
            ("+", "orbit form J+ invariant", c["kks_invariant_plus"]),
            ("-", "orbit form J- invariant", c["kks_invariant_minus"]),
            ("-", "minus metric positive definite", c["minus_positive"]),
            ("+", "plus form not positive", not c["plus_positive"]),
        ]
        if args.sign:
            checks = [row for row in checks if row[0] == args.sign]
        passed = all(good for _, _, good in checks)
        ok = ok and passed
        if args.report == "json":
            payloads.append({**c, "checks_pass": passed})
            continue
        for _, label, good in checks:
            print(f"{'PASS' if good else 'FAIL'}  twistor(n={n}) :: {label}")
        if c["plus_witness"] and args.sign != "-":
            nm, val = c["plus_witness"]
            print(f"      non-positivity witness: form({nm}, {nm}) = {val}")
    if args.report == "json":
        print(pretty_json(payloads))
    if args.timings:
        # stdout under --report json stays one JSON document
        print(f"elapsed: {int((time.monotonic() - t0) * 1000)} ms",
              file=sys.stderr if args.report == "json" else sys.stdout)
    return 0 if ok else 3


_OUTPUT = ("-o --output", {})
_TIMINGS = ("--timings", dict(action="store_true", help="append wall-clock "
                              "timings (breaks byte-identical output)"))
_N_LIST = dict(type=_parse_ns, help="comma separated list of n values")
_TRUE_FALSE = dict(choices=("true", "false"), default="true")

# command -> (handler, help line, its arguments as (flags, add_argument
# kwargs) in the order --help lists them); both parsers are built from it
_COMMANDS = {
    "validate": (_cmd_validate, "validate an algebra or triple file", [
        ("path", {}),
        ("--kind", dict(choices=("auto", "algebra", "triple"),
                        default="auto")),
    ]),
    "analyze": (_cmd_analyze,
                "full report for a triple file or builtin name", [
        ("target", dict(help="path to a triple JSON or a catalog name")),
        ("--report", dict(choices=("json", "text"), default="json")),
        ("--full", dict(action="store_true",
                        help="include raw tensor values")),
        _OUTPUT, _TIMINGS,
    ]),
    "goldens": (_cmd_goldens, "replay all frozen catalog claims", [
        ("--filter", dict(help="only claims whose entry name contains "
                               "this")),
        _TIMINGS,
    ]),
    "examples": (_cmd_examples, "list catalog entries or dump one", [
        ("action", dict(nargs="?", choices=("show",),
                        help="'show <name>' dumps one entry")),
        ("name", dict(nargs="?")),
        _OUTPUT,
    ]),
    "construct": (_cmd_construct, "apply a construction to a triple", [
        ("kind", dict(choices=("product", "character"))),
        ("target", {}),
        ("--xi", dict(help="comma separated rational coefficients of the "
                           "character (character construction only)")),
        _OUTPUT,
    ]),
    "synthesize": (_cmd_synthesize,
                   "build a triple with prescribed invariants", [
        ("--n", dict(type=_decimal(1), required=True,
                     help="half the dimension")),
        ("--k", dict(type=_decimal(0), required=True,
                     help="half the image dimension")),
        ("--image-involutive", _TRUE_FALSE),
        ("--perp-involutive", _TRUE_FALSE),
        _OUTPUT,
    ]),
    "nspace-dim": (_cmd_nspace_dim, "corank of the tensor-identity "
                                    "constraint system vs the closed form", [
        ("--n", dict(_N_LIST, default="1,2,3,4,5")),
        _TIMINGS,
    ]),
    "twistor": (_cmd_twistor, "verify the twistor model claims", [
        ("--n", dict(_N_LIST, default="1,2,3")),
        ("--sign", dict(choices=("+", "-"),
                        help="restrict to the claims of one structure")),
        ("--report", dict(choices=("json", "text"), default="text")),
        _TIMINGS,
    ]),
}


def _add_arguments(parser: _Parser, command: str) -> _Parser:
    for flags, kwargs in _COMMANDS[command][2]:
        parser.add_argument(*flags.split(), **kwargs)
    return parser


def _build_parser() -> _Parser:
    p = _Parser(prog="liesymp",
                description="Exact analysis of invariant compatible almost "
                            "complex structures on symplectic Lie algebras.")
    sub = p.add_subparsers(dest="command", required=True)
    for command, (_, help_line, _) in _COMMANDS.items():
        _add_arguments(sub.add_parser(command, help=help_line), command)
    return p


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The command's own parser when argv starts with a command, as the
    full tree's subparser would parse the rest; the full tree otherwise
    (no argument, help, an unknown command, an option first)."""
    if argv and argv[0] in _COMMANDS:
        p = _add_arguments(_Parser(prog="liesymp " + argv[0]), argv[0])
        return p.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    return _build_parser().parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # --help
        return int(e.code or 0)
    try:
        code = _COMMANDS[args.command][0](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so
        # that the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except ValidationError as e:
        print(f"INVALID ({type(e).__name__}): {e}", file=sys.stderr)
        return 2
    except KeyError as e:
        # unknown catalog name and similar lookup misses are usage errors
        print(f"usage error: {e.args[0] if e.args else e}", file=sys.stderr)
        return 1
    except LiesympError as e:
        print(f"ERROR ({type(e).__name__}): {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
