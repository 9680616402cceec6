"""Batch command-line front end.

Subcommands: group-info, classify, check-stability, iso-test, verify.  All
output is deterministic JSON (rationals as "p/q" strings); exit status 0 on
success, 1 on verification failure, 2 on input errors, 3 when the Weyl-group
size guard is exceeded, 4 when an internal invariant check fails (a bug, not
bad input; the message names the input that trips it).  The guard defaults
to 10000 and can be overridden with --guard or the TROPGROUPS_GUARD
environment variable; a guard below 1 is an input error.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import sys

from . import circles, semiring, stability, verify
from .errors import InvariantError
from .groups import build_group, center_basis
from .weyl import GuardExceededError

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_PARSE = 2
EXIT_GUARD = 3
EXIT_INVARIANT = 4


def _guard(flag) -> int:
    """The size guard from --guard, else TROPGROUPS_GUARD, else 10000; a
    ValueError naming its source unless it is an integer of at least 1."""
    name, value = "--guard", flag
    if flag is None:
        name, value = "TROPGROUPS_GUARD", os.environ.get("TROPGROUPS_GUARD", "10000")
    try:
        guard = int(value)
    except ValueError:
        raise ValueError(f"{name}: {value!r} is not an integer") from None
    if guard < 1:
        raise ValueError(f"{name}: the size guard must be at least 1, not {guard}")
    return guard


def _emit(data, out_path) -> None:
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _circle_length(text: str):
    """The rational given as --j; a ValueError naming the option otherwise."""
    try:
        return semiring.rational_from_str(text)
    except ValueError as exc:
        raise ValueError(f"--j: {exc}") from None


def _load_cocycles(args, group):
    if args.infile:
        source = f"--in {args.infile}"
        with open(args.infile) as fh:
            text = fh.read()
    elif args.cocycle:
        source, text = "--cocycle", args.cocycle
    else:
        raise ValueError("provide --in or --cocycle")
    # numbers with a fraction part or an exponent are read exactly (0.1 is 1/10)
    # as they are parsed, before their field is known, so errors name the source
    try:
        data = json.loads(text, parse_float=semiring.rational_from_str)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise ValueError("cocycle JSON must be an object or a list of objects")
    if not data:
        raise ValueError("no cocycle given: the cocycle list is empty")
    out = []
    for pos, entry in enumerate(data):
        if isinstance(entry, dict) and "j" not in entry and args.j is not None:
            entry = {**entry, "j": args.j}
        try:
            out.append(circles.cocycle_from_json(group, entry))
        except ValueError as exc:
            raise ValueError(f"cocycle entry {pos}: {exc}") from None
    return out


def _build(args):
    return build_group(args.family, args.n or 0, guard=args.guard)


def _add_group_args(p):
    p.add_argument("family", nargs="?", help="GL|SL|PGL|Sp|SO_odd|SO_even|G2")
    p.add_argument("n", nargs="?", type=int, default=None, help="rank parameter")
    p.add_argument("--family", dest="family_flag", help=argparse.SUPPRESS)
    p.add_argument("--n", dest="n_flag", type=int, help=argparse.SUPPRESS)
    p.add_argument("--guard", type=int, default=None)
    p.add_argument("--out", dest="out", default=None)


def _resolve_group_args(args):
    if getattr(args, "family_flag", None):
        args.family = args.family_flag
    if getattr(args, "n_flag", None) is not None:
        args.n = args.n_flag
    args.guard = _guard(args.guard)
    if not args.family:
        raise ValueError("a group family is required")


def cmd_group_info(args) -> int:
    _resolve_group_args(args)
    g = _build(args)
    report = {
        "family": args.family,
        "n": args.n or 0,
        "weyl_order": len(g.weyl),
        "pi1": list(g.pi1().invariant_factors),
        "center_rank": len(center_basis(g)),
        "num_roots": len(g.datum.roots),
    }
    _emit(report, args.out)
    return EXIT_OK


def cmd_classify(args) -> int:
    _resolve_group_args(args)
    j = _circle_length(args.j)
    if j <= 0:
        raise ValueError("--j: circle length must be positive")
    g = _build(args)
    comps = circles.classify_components(g)
    report = {
        "family": args.family,
        "n": args.n or 0,
        "j": str(args.j),
        "components": [c.to_json() for c in comps],
    }
    _emit(report, args.out)
    return EXIT_OK


def cmd_check_stability(args) -> int:
    _resolve_group_args(args)
    g = _build(args)
    out = []
    for c in _load_cocycles(args, g):
        out.append(stability.stability_verdict(c).to_json())
    _emit(out if len(out) > 1 else out[0], args.out)
    return EXIT_OK


def cmd_iso_test(args) -> int:
    _resolve_group_args(args)
    g = _build(args)
    cocycles = _load_cocycles(args, g)
    if len(cocycles) != 2:
        raise ValueError("iso-test needs exactly two cocycles")
    witness = circles.isomorphism_witness(cocycles[0], cocycles[1])
    report = {"isomorphic": witness is not None}
    if witness is not None:
        report["witness"] = witness.to_json()
    _emit(report, args.out)
    return EXIT_OK


# the option of each verify suite parameter, as (flags, add_argument keywords)
SUITE_OPTIONS = {
    "n": (("--n",), {"type": int, "default": 3}),
    "d": (("--degree", "--d"), {"type": int, "default": 1}),
    "samples": (("--samples",), {"type": int, "default": 100}),
    "seed": (("--seed",), {"type": int, "default": 0}),
    "j": (("--j",), {"default": "1", "help": "circle length, rational p/q"}),
    "guard": (("--guard",), {"type": int, "default": None}),
}


def cmd_verify(args) -> int:
    suite = verify.SUITES[args.suite]
    options = {name: getattr(args, name) for name in inspect.signature(suite).parameters}
    if "j" in options:
        options["j"] = _circle_length(options["j"])
    options["guard"] = _guard(options["guard"])
    report = suite(**options)
    _emit(report, args.out)
    return EXIT_OK if report["pass"] else EXIT_VERIFY_FAIL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="tropgroups", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group-info", help="Weyl order, fundamental group, center rank")
    _add_group_args(p)
    p.set_defaults(fn=cmd_group_info)

    p = sub.add_parser("classify", help="components of the circle moduli space")
    _add_group_args(p)
    p.add_argument("--j", default="1", help="circle length, rational p/q")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("check-stability", help="slope stability of circle cocycles")
    _add_group_args(p)
    p.add_argument("--j", default=None)
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--cocycle", default=None, help="inline cocycle JSON")
    p.set_defaults(fn=cmd_check_stability)

    p = sub.add_parser("iso-test", help="decide isomorphism of two cocycles")
    _add_group_args(p)
    p.add_argument("--j", default=None)
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--cocycle", dest="cocycle", default=None, help="inline JSON list of two cocycles")
    p.set_defaults(fn=cmd_iso_test)

    p = sub.add_parser("verify", help="run a named verification suite")
    suites = p.add_subparsers(dest="suite", required=True, metavar="suite")
    for name, suite in verify.SUITES.items():
        q = suites.add_parser(name, help=inspect.getdoc(suite).split("\n\n")[0])
        for param in inspect.signature(suite).parameters:
            flags, kwargs = SUITE_OPTIONS[param]
            q.add_argument(*flags, dest=param, **kwargs)
        q.add_argument("--out", default=None)
        q.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except GuardExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
