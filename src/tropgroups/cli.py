"""Batch command-line front end.

Subcommands: group-info, classify, check-stability, iso-test, verify.  The
four group subcommands take a family and an optional rank parameter n
(default 0), --guard and --out; check-stability and iso-test read cocycles
from one of --in FILE or --cocycle JSON, with --j as the circle length of
entries that give none.  Each command returns its report and main emits it.
All output is deterministic JSON (rationals as "p/q" strings); exit status 0
on success, 1 on verification failure, 2 on input errors, 3 when the
Weyl-group size guard is exceeded, 4 when an internal invariant check fails
(a bug, not bad input; the message names the input that trips it).  The
guard defaults to 10000 and can be overridden with --guard or the
TROPGROUPS_GUARD environment variable; a guard below 1 is an input error.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _quote

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


def _write_json(x, pad: str, out: list) -> None:
    """Append the text of x to out as json.dumps(x, indent=2, sort_keys=True)
    writes it, pad being the line break and indent of x's own line.  CPython
    writes an indented dump with its pure-Python encoder; this writer calls
    only the C string encoder.  A report holds dicts with str keys, lists,
    tuples, str, int, bool and None: any other key or value is a TypeError
    naming its type."""
    if isinstance(x, str):
        out.append(_quote(x))
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "," + inner
        out.append("[" + inner)
        for i, v in enumerate(x):
            if i:
                out.append(sep)
            _write_json(v, inner, out)
        out.append(pad + "]")
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "," + inner
        out.append("{" + inner)
        for i, k in enumerate(sorted(x)):  # keys of two types do not sort: a TypeError naming both
            if not isinstance(k, str):
                raise TypeError(f"report key {k!r} is of type {type(k).__name__}, not str")
            if i:
                out.append(sep)
            out.append(_quote(k) + ": ")
            _write_json(x[k], inner, out)
        out.append(pad + "}")
    elif x is None:
        out.append("null")
    elif isinstance(x, bool):
        out.append("true" if x else "false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    else:
        raise TypeError(f"report value {x!r} is of type {type(x).__name__}, which reports do not hold")


def _dumps(x) -> str:
    """x as json.dumps(x, indent=2, sort_keys=True) writes it (``_write_json``)."""
    out: list = []
    _write_json(x, "\n", out)
    return "".join(out)


def _emit(data, out_path) -> None:
    text = _dumps(data) + "\n"
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


def _group(args):
    return build_group(args.family, args.n, guard=args.guard)


def cmd_group_info(args) -> dict:
    g = _group(args)
    return {
        "family": args.family,
        "n": args.n,
        "weyl_order": len(g.weyl),
        "pi1": list(g.pi1.invariant_factors),
        "center_rank": len(center_basis(g)),
        "num_roots": len(g.datum.roots),
    }


def cmd_classify(args) -> dict:
    j = _circle_length(args.j)
    if j <= 0:
        raise ValueError("--j: circle length must be positive")
    comps = circles.classify_components(_group(args))
    return {
        "family": args.family,
        "n": args.n,
        "j": str(args.j),
        "components": [c.to_json() for c in comps],
    }


def cmd_check_stability(args):
    out = [stability.stability_verdict(c).to_json() for c in _load_cocycles(args, _group(args))]
    return out if len(out) > 1 else out[0]


def cmd_iso_test(args) -> dict:
    cocycles = _load_cocycles(args, _group(args))
    if len(cocycles) != 2:
        raise ValueError("iso-test needs exactly two cocycles")
    witness = circles.isomorphism_witness(cocycles[0], cocycles[1])
    report = {"isomorphic": witness is not None}
    if witness is not None:
        report["witness"] = witness.to_json()
    return report


# the option of each verify suite parameter, as (flags, add_argument keywords)
SUITE_OPTIONS = {
    "n": (("--n",), {"type": int, "default": 3}),
    "d": (("--degree", "--d"), {"type": int, "default": 1}),
    "samples": (("--samples",), {"type": int, "default": 100}),
    "seed": (("--seed",), {"type": int, "default": 0}),
    "j": (("--j",), {"default": "1", "help": "circle length, rational p/q"}),
    "guard": (("--guard",), {"type": int, "default": None}),
}


def cmd_verify(args) -> dict:
    suite = verify.SUITES[args.suite]
    options = {name: getattr(args, name) for name in inspect.signature(suite).parameters}
    if "j" in options:
        options["j"] = _circle_length(options["j"])
    return suite(**options)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="tropgroups", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    group = argparse.ArgumentParser(add_help=False)
    group.add_argument("family", help="GL|SL|PGL|Sp|SO_odd|SO_even|G2")
    group.add_argument("n", nargs="?", type=int, default=0, help="rank parameter")
    group.add_argument("--guard", type=int, default=None)
    group.add_argument("--out", default=None)

    cocycle = argparse.ArgumentParser(add_help=False)
    cocycle.add_argument("--j", default=None, help="circle length of entries without a j field")
    source = cocycle.add_mutually_exclusive_group()
    source.add_argument("--in", dest="infile", default=None, help="file of cocycle JSON")
    source.add_argument("--cocycle", default=None, help="inline cocycle JSON, an object or a list")

    # each command's parsers from the top, so that main can name the one that met an unknown argument
    def add(parsers, name, fn, summary, parents, outer=(parser,)):
        p = parsers.add_parser(name, help=summary, parents=parents)
        p.set_defaults(fn=fn, parsers=outer + (p,))
        return p

    add(sub, "group-info", cmd_group_info, "Weyl order, fundamental group, center rank", [group])
    p = add(sub, "classify", cmd_classify, "components of the circle moduli space", [group])
    p.add_argument("--j", default="1", help="circle length, rational p/q")
    add(sub, "check-stability", cmd_check_stability, "slope stability of circle cocycles", [group, cocycle])
    add(sub, "iso-test", cmd_iso_test, "decide isomorphism of two cocycles", [group, cocycle])

    p = sub.add_parser("verify", help="run a named verification suite")
    suites = p.add_subparsers(dest="suite", required=True, metavar="suite")
    for name, suite in verify.SUITES.items():
        q = add(suites, name, cmd_verify, inspect.getdoc(suite).split("\n\n")[0], [], (parser, p))
        for param in inspect.signature(suite).parameters:
            flags, kwargs = SUITE_OPTIONS[param]
            q.add_argument(*flags, dest=param, **kwargs)
        q.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        # by the parser that met them: each parser above the last knows only -h and the
        # subcommand name after it, so an unknown argument in front of that name is its own
        names = [args.command, getattr(args, "suite", None)]
        depth = next((k for k in range(len(args.parsers) - 1) if argv[k] != names[k]), -1)
        args.parsers[depth].error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        args.guard = _guard(args.guard)
        report = args.fn(args)
        _emit(report, args.out)
    except GuardExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_VERIFY_FAIL if args.command == "verify" and not report["pass"] else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
