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


def _load_triple(target: str, alpha=None) -> tuple[SymplecticTriple, str]:
    """File path (not a directory) or builtin name -> (triple, display
    name)."""
    if os.path.exists(target) and not os.path.isdir(target):
        payload = load_json_file(target)
        if not is_triple_payload(payload):
            raise SerializationError(
                f"{target} is not a triple payload (no \"omega\" field)")
        t = triple_from_dict(payload)
        return t, payload.get("name", os.path.basename(target))
    t = catalog.builtin(target, alpha=alpha)
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
    t, name = _load_triple(args.target, alpha=args.alpha)
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
    # two spellings: `examples [--name X]` and `examples list|show X`
    if args.action not in (None, "list", "show"):
        raise _UsageError(f"unknown examples action {args.action!r}")
    if args.action and args.name:
        raise _UsageError(f"examples {args.action} takes no --name")
    if args.action == "list" and args.pos_name:
        raise _UsageError("examples list takes no entry name")
    name = args.pos_name if args.action == "show" else args.name
    if args.action == "show" and not name:
        raise _UsageError("examples show needs an entry name")
    if not name:
        for entry, desc in catalog.DESCRIPTIONS.items():
            print(f"{entry:14} {desc}")
        return 0
    t, name = _load_triple(name, alpha=None)
    _emit(pretty_json(triple_to_dict(t)), args.output)
    return 0


def _agree(a, b, clash: str):
    """A value that has two spellings: a, or b when a is not given; when
    both are given they must agree, else the usage error `clash`."""
    if None not in (a, b) and a != b:
        raise _UsageError(clash)
    return b if a is None else a


def _cmd_construct(args) -> int:
    kind = _agree(args.kind, args.op,
                  f"operation {args.kind} and --op {args.op} disagree")
    target = _agree(args.target, args.base,
                    f"base {args.target} and --base {args.base} disagree")
    if kind is None or target is None:
        raise _UsageError("construct needs an operation (product|character) "
                          "and a base triple (file or catalog name)")
    if kind == "product" and args.xi is not None:
        raise _UsageError("--xi applies to the character construction only")
    t, _ = _load_triple(target, alpha=None)
    if kind == "product":
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


_FLAG = {"true": True, "false": False, "y": True, "n": False, None: None}


def _cmd_synthesize(args) -> int:
    # a flag given as --long true|false or as --short y|n
    image = _agree(_FLAG[args.image_involutive], _FLAG[args.inv_image],
                   "--image-involutive and --inv-image disagree")
    perp = _agree(_FLAG[args.perp_involutive], _FLAG[args.inv_perp],
                  "--perp-involutive and --inv-perp disagree")
    t = catalog.build_rank_example(args.n, args.k, image, perp)
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
_OPS = ("product", "character")

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
        ("--alpha", dict(help="parameter for the parametric family")),
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
        ("action", dict(nargs="?", help="'list' or 'show <name>'")),
        ("pos_name", dict(nargs="?")),
        ("--name", {}),
        _OUTPUT,
    ]),
    "construct": (_cmd_construct, "apply a construction to a triple", [
        ("kind", dict(nargs="?", choices=_OPS)),
        ("target", dict(nargs="?")),
        ("--op", dict(choices=_OPS,
                      help="alternative spelling of the operation")),
        ("--base", dict(help="alternative spelling of the base triple")),
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
        ("--image-involutive", dict(choices=("true", "false"))),
        ("--perp-involutive", dict(choices=("true", "false"))),
        ("--inv-image", dict(choices=("y", "n"),
                             help="short spelling of --image-involutive")),
        ("--inv-perp", dict(choices=("y", "n"),
                            help="short spelling of --perp-involutive")),
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
