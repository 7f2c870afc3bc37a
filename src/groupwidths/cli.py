"""Command-line front end: width oracles and certificate generators, JSON out.

Subcommands: pw, qh, decompose, nilprod.  Exit codes: 0 success, 2 input
error, 3 resource cap exceeded or an allocation that cannot be met, 4
internal invariant breach (a failed construction identity, which must be
loud).  Verification flags are computed at emission time, except
decompose's: the checks it ran.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import re
import sys
import time

from .finite_groups import DEFAULT_CAP, CapExceeded
from .free_words import format_monoid_word, is_word_palindrome
from .nilprod import bound_report, nilprod2_multi
from .pal_width import NOTIONS, palindromic_width
from .specs import _digest, read_factor_moduli, read_group
from .wreath import (
    WreathGroup,
    certify_cw_lower_bound,
    delta,
    format_wreath_element,
    in_derived_subgroup,
    parse_wreath_element,
)

# the module, read at call time (the package binds ``decompose`` to the function)
decomposition = importlib.import_module(".decompose", __package__)

CAP_ENV_VAR = "GROUPWIDTHS_CAP"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_INVARIANT = 4


def _emit(report: dict, pretty: bool) -> None:
    json.dump(report, sys.stdout, indent=2 if pretty else None, sort_keys=True)
    sys.stdout.write("\n")


def cmd_pw(args: argparse.Namespace) -> dict:
    G, digest = read_group(args.group_spec, args.cap)
    report = palindromic_width(G, args.notion)
    result = report.to_json(include_lengths=args.lengths)
    # width, layers and palindromes are read off the length array, so these
    # flags test that array against the group: the formal inverse of a
    # palindrome is a palindrome, and each generator is one
    verification = {
        "identity_length_zero": bool(report.length[G.identity] == 0),
        "inverses_have_equal_length": bool((report.length[G.inverse] == report.length).all()),
        "generators_have_length_le_1": bool((report.length[G.gen_ids] <= 1).all()),
    }
    return {
        "command": "pw",
        "input_digest": digest,
        "input": {"group": G.name, "order": G.order, "notion": args.notion},
        "result": result,
        "verification": verification,
    }


def _wreath_group_for(args: argparse.Namespace) -> WreathGroup:
    if args.top is not None:
        K, _ = read_group(args.top, args.cap)
    else:
        K = decomposition.s3_wreath_context().group.top
    rank = args.rank
    if rank is None:
        # coordinates only (they end at the last ']'); one int() per index
        indices = set(re.findall(r"x([0-9]+)", args.element.rpartition("]")[0]))
        rank = max([2] + [int(m) for m in indices])
    return WreathGroup(rank, K)


def cmd_qh(args: argparse.Namespace) -> dict:
    W = _wreath_group_for(args)
    g = parse_wreath_element(W, args.element)
    d = delta(g)
    cert = certify_cw_lower_bound(g)
    l = W.size
    verification = {"delta_recomputed": delta(g) == d}
    if cert is not None:
        verification["certificate_inequality"] = abs(cert.delta) > 3 * l * (
            6 * (cert.lower_bound - 1) - 1
        )
    result = {
        "element": format_wreath_element(g),
        "delta": d,
        "in_derived_subgroup": in_derived_subgroup(g),
        "top_order": l,
        "certificate": None
        if cert is None
        else {"delta": cert.delta, "commutator_length_at_least": cert.lower_bound},
    }
    return {
        "command": "qh",
        "input_digest": _digest(args.element.encode("utf-8")),
        "input": {"rank": W.rank, "top": W.top.name},
        "result": result,
        "verification": verification,
    }


def cmd_decompose(args: argparse.Namespace) -> dict:
    ctx = decomposition.s3_wreath_context()
    g = parse_wreath_element(ctx.group, args.element)
    cert = decomposition.decompose(g, ctx)
    result = {
        "target": format_wreath_element(cert.target),
        "factor_count": cert.factor_count,
        "bound": decomposition.MAX_FACTORS,
        "factors": [
            {"word": format_monoid_word(f), "palindrome": is_word_palindrome(f)}
            for f in cert.factors
        ],
    }
    return {
        "command": "decompose",
        "input_digest": _digest(args.element.encode("utf-8")),
        "input": {"rank": ctx.group.rank, "top": ctx.group.top.name},
        "result": result,
        "verification": cert.flags,
    }


def cmd_nilprod(args: argparse.Namespace) -> dict:
    moduli, digest = read_factor_moduli(args.specs)
    np_group = nilprod2_multi(moduli, cap=args.cap)
    report = bound_report(np_group, include_exact=not args.no_exact)
    verification = {"bounds_ordered": report.lower <= report.upper, "sandwich": report.holds()}
    return {
        "command": "nilprod",
        "input_digest": digest,
        "input": {"factors": np_group.factor_moduli, "order": np_group.order},
        "result": report.to_json(),
        "verification": verification,
    }


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  ``--cap`` defaults to
    None: ``main`` reads ``GROUPWIDTHS_CAP`` on every call."""
    parser = argparse.ArgumentParser(
        prog="groupwidths",
        description="palindromic/commutator width oracles and certificates",
    )
    parser.add_argument("--pretty", action="store_true", help="indent the JSON report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pw", help="exact palindromic width of a finite group")
    p.add_argument("group_spec", help="path to a group spec JSON file")
    p.add_argument("--notion", choices=NOTIONS, default="word")
    p.add_argument("--lengths", action="store_true", help="include per-element lengths")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=cmd_pw)

    p = sub.add_parser("qh", help="delta value and commutator-length certificate")
    p.add_argument("element", help='wreath element text "[w1; ...; wl] k"')
    p.add_argument("--top", default=None, help="group spec JSON for the top group (default S3)")
    p.add_argument("--rank", type=int, default=None, help="free rank (default: inferred, >= 2)")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=cmd_qh)

    p = sub.add_parser("decompose", help="palindrome decomposition in F2 wr S3")
    p.add_argument("element", help='wreath element text "[w1; ...; w6] k"')
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("nilprod", help="width bounds for a 2-nilpotent product")
    p.add_argument("specs", help='path to JSON [{"moduli": [...]}, ...]')
    p.add_argument("--no-exact", action="store_true", help="skip the exact width oracle")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=cmd_nilprod)
    return parser


def _resolve_cap(flag: int | None) -> int:
    """The order cap of pw, qh and nilprod: ``--cap``, else the environment
    (read on every call, so the one cached parser serves any environment),
    else ``DEFAULT_CAP``.  A value below 1 is an input error."""
    source = "--cap" if flag is not None else CAP_ENV_VAR
    raw = flag if flag is not None else os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"{source} must be at least 1, got {cap}")
    return cap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        if hasattr(args, "cap"):
            args.cap = _resolve_cap(args.cap)
        report = args.func(args)
    except (CapExceeded, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except decomposition.InvariantViolation as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report["wall_time_s"] = round(time.perf_counter() - start, 6)
    _emit(report, args.pretty)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
