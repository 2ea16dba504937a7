"""Command-line entry point.

Subcommands cover construction, catalog dumps, forcing queries, minimal
forcer searches, tree embeddings, Boolean-lattice statistics and the
verification suite. Each JSON subcommand returns its payload, and one
runner prints it with a versioned schema field and, under --timings, the
elapsed time; output is byte-identical for identical configuration.

Exit codes: 0 success/verified, 1 a verified property failed, 2 usage
error, 3 search budget exceeded, 4 internal error (an unexpected exception).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import re
import sys
import time
from fractions import Fraction

from . import constructions
from .catalog import DEFAULT_CAP, dump_catalog
from .errors import BadParams, ForcingTimeout, RainbowPosetError
from .families import (
    family_from_text,
    la_rainbow_star,
    la_star,
    lubell_mass,
    minmax_partition,
    sigma,
)
from .forcing import (
    DEFAULT_BUDGET_S,
    is_minimal_forcing,
    m_value,
    proper_colorings,
    rainbow_forces,
    random_proper_coloring,
    search_M,
)
from .poset import _number, canonical_key, poset_from_text, poset_to_text
from .treeembed import check_tree_pattern, embed_universal
from .verify import run_suite

SCHEMA = 1
# Search nodes `la-star --bracket` visits before it settles for bounds.
BRACKET_NODE_BUDGET = 500_000


BUILDERS = {
    "chain": (constructions.chain, 1),
    "antichain": (constructions.antichain, 1),
    "organ": (constructions.organ, 1),
    "harp": (constructions.harp, 1),
    "vee": (constructions.vee, 0),
    "wedge": (constructions.wedge, 0),
    "jay": (constructions.jay, 0),
    "diamond": (constructions.diamond, 0),
    "downtree": (constructions.downtree, 2),
    "uptree": (constructions.uptree, 2),
    "djk": (constructions.d_jk, 2),
    "ojk": (constructions.o_jk, 2),
    "a3-witness": (constructions.a3_witness, 0),
    "universal-tree": (lambda k: constructions.universal_tree(k).poset, 1),
    "blowup": (constructions.blowup, 2),
}


def _read(path, parse=poset_from_text):
    """parse(the file's text); a file that is not UTF-8 raises BadParams."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise BadParams(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None
    return parse(text)


def _integer(what):
    """A reader of one integer argument, named `what` in its error: ASCII
    digits, read as the text formats read a number (`poset._number`), with
    one leading minus kept so that a negative value reaches the check that
    names it. Anything else (`1_0`, `+3`, a digit of another script)
    raises BadParams."""

    def read(text):
        body = text.strip()
        digits = body.removeprefix("-")
        value = _number(digits, what) if digits[:1].isdigit() else None
        if value is None:
            raise BadParams(f"{what} {text!r} is not an integer")
        return -value if body.startswith("-") else value

    return read


_int_param = _integer("construct parameter")


class _Parser(argparse.ArgumentParser):
    """argparse, taking every argument that starts with a minus and a digit
    (or a minus, a point and a digit) as a value: no option starts with a
    digit, and argparse's own test, digits or a decimal after the minus,
    sends `-1_0` to its option parser, whose usage error does not name it.
    `add_parser` builds the subparsers with this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        """A usage error as one `error:` line, as every other one is."""
        self.exit(2, f"error: {self.prog}: {message}\n")


def _run_json(args):
    """Run the subcommand's `cmd` and print its payload with the schema and,
    under --timings, the elapsed milliseconds."""
    start = time.monotonic()
    payload = {"schema": SCHEMA, **args.cmd(args)}
    if args.timings:
        payload["elapsed_ms"] = int((time.monotonic() - start) * 1000)
    if args.text:
        for key in sorted(payload):
            if key != "schema":
                print(f"{key}: {json.dumps(payload[key], sort_keys=True)}")
    else:
        print(json.dumps(payload, sort_keys=True))
    return 0


def _fraction_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def cmd_construct(args):
    name, params = args.name, args.params
    if name == "multilevel":
        poset = constructions.complete_multilevel([_int_param(p) for p in params])
    elif name not in BUILDERS:
        raise BadParams(f"unknown construction {name!r}")
    elif len(params) != BUILDERS[name][1]:
        raise BadParams(f"{name} takes {BUILDERS[name][1]} parameter(s)")
    elif name == "blowup":
        pi = [_int_param(x) for x in params[1].split(",")]
        poset = constructions.blowup(_read(params[0]), pi)
    else:
        poset = BUILDERS[name][0](*[_int_param(p) for p in params])
    text = poset_to_text(poset)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_gen(args):
    manifest = dump_catalog(args.out, args.max_size)
    return {"counts": manifest["counts"], "directory": args.out}


def cmd_forces(args):
    host = _read(args.host)
    pattern = _read(args.pattern)
    verdict = rainbow_forces(host, pattern, budget_s=args.budget)
    payload = {"forces": verdict.forces}
    if verdict.refutation is not None:
        payload["refutation"] = list(verdict.refutation.colors)
    return payload


def cmd_minimal(args):
    host = _read(args.host)
    pattern = _read(args.pattern)
    return {"minimal": is_minimal_forcing(host, pattern, budget_s=args.budget)}


def cmd_search_m(args):
    pattern = _read(args.pattern)
    found = search_M(pattern, args.max_size)
    return {
        "count": len(found),
        "max_size": args.max_size,  # minimality certified within this bound only
        "forcers": [
            {
                "n": p.n,
                "covers": [list(c) for c in p.cover_pairs()],
                "key": canonical_key(p).hex(),
            }
            for p in found
        ],
    }


def cmd_m_value(args):
    pattern = _read(args.pattern)
    mv = m_value(pattern, cap=args.cap)
    payload = {"lower": mv.lower, "upper": mv.upper, "exact": mv.exact}
    if mv.value is not None:
        payload["value"] = mv.value
    return payload


def cmd_embed(args):
    tree = _read(args.tree)
    k = tree.n if args.k is None else args.k
    if args.exhaustive and k > 2:  # universal_tree(3) alone has 1,291 elements
        raise BadParams(f"--exhaustive is limited to k <= 2, got k={k}")
    check_tree_pattern(tree, k)  # before the host, which may exceed the cap
    ut = constructions.universal_tree(k)
    # embed_universal verifies each certificate and raises on an invalid one
    if args.exhaustive:
        total = 0
        for coloring in proper_colorings(ut.poset):
            embed_universal(tree, ut, coloring)
            total += 1
        print(f"embedded under all {total} proper colorings")
    else:
        coloring = random_proper_coloring(ut.poset, random.Random(args.seed))
        cert = embed_universal(tree, ut, coloring)
        for i, (img, col) in enumerate(zip(cert.mapping, cert.colors)):
            print(f"{i} -> {img} ({col})")
    print("verified: true")
    return 0


def cmd_lubell(args):
    fam = _read(args.family, family_from_text)
    return {"value": _fraction_str(lubell_mass(fam))}


def cmd_sigma(args):
    # a sum with k >= 1 holds C(n, n // 2) >= 2**n / (n + 1), so past this
    # n it has more digits than an int may print (0: no limit); the n just
    # below it are tested once the sum is computed. n stays an int here, as
    # a float cannot hold every n.
    n, k, limit = args.n, args.k, sys.get_int_max_str_digits()
    too_large = BadParams(f"ground set size n={n} is too large: sigma has over {limit} digits")
    if limit and 0 < k <= n + 1 and n - (n + 1).bit_length() >= limit * math.log2(10):
        raise too_large
    value = sigma(n, k)
    if limit and value >= 10**limit:
        raise too_large
    return {"value": value}


def cmd_la_star(args):
    if args.node_budget is not None and not args.bracket:
        raise BadParams("--node-budget needs --bracket")
    budget = BRACKET_NODE_BUDGET if args.node_budget is None else args.node_budget
    patterns = [_read(p) for p in args.patterns]
    res = la_star(args.n, patterns, node_budget=budget if args.bracket else None)
    if args.bracket:
        return {"lower": res.value, "upper": res.upper, "exact": res.value == res.upper}
    return {"value": res.value, "witness": [sorted(s) for s in res.witness.members()]}


def cmd_lar_star(args):
    pattern = _read(args.pattern)
    res = la_rainbow_star(args.n, pattern)
    return {
        "value": res.value,
        "witness": [sorted(s) for s in res.witness.members()],
        "witness_coloring": list(res.coloring.colors),
    }


def cmd_minmax(args):
    fam = _read(args.family, family_from_text)
    rep = minmax_partition(fam)
    return {
        "mass": _fraction_str(rep.mass),
        "average": _fraction_str(rep.average),
        "identity_holds": rep.identity_holds,
        "two_hit_classes": len(rep.classes),
        "leftover_chains": rep.leftover_count,
    }


def cmd_verify(args):
    results = run_suite(full=args.full)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name} ({r.seconds:.1f}s): {r.detail}")
        if not r.passed:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def build_parser():
    parser = _Parser(
        prog="rainbowposet",
        description="Exact rainbow-forcing searches on small posets and cubes",
    )
    parser.add_argument(
        "--timings",
        action="store_true",
        help="include elapsed_ms in every JSON payload; it covers reading the inputs",
    )
    parser.add_argument(
        "--text", action="store_true", help="key:value lines instead of JSON"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit a named poset in text format")
    p.add_argument("name")
    p.add_argument("params", nargs="*")
    p.add_argument("-o", "--out")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("gen", help="dump the poset catalog to a directory")
    p.add_argument("--max-size", type=_integer("option --max-size"), default=DEFAULT_CAP)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_run_json, cmd=cmd_gen)

    p = sub.add_parser("forces", help="decide rainbow forcing host vs pattern")
    p.add_argument("host")
    p.add_argument("pattern")
    p.add_argument("--budget", type=float, default=DEFAULT_BUDGET_S)
    p.set_defaults(fn=_run_json, cmd=cmd_forces)

    p = sub.add_parser("minimal", help="decide deletion-minimal forcing")
    p.add_argument("host")
    p.add_argument("pattern")
    p.add_argument("--budget", type=float, default=DEFAULT_BUDGET_S)
    p.set_defaults(fn=_run_json, cmd=cmd_minimal)

    p = sub.add_parser("search-m", help="all minimal forcers up to a size bound")
    p.add_argument("pattern")
    p.add_argument("--max-size", type=_integer("option --max-size"), required=True)
    p.set_defaults(fn=_run_json, cmd=cmd_search_m)

    p = sub.add_parser("m-value", help="minimum forcing size (or bracket)")
    p.add_argument("pattern")
    p.add_argument("--cap", type=_integer("option --cap"), default=DEFAULT_CAP)
    p.set_defaults(fn=_run_json, cmd=cmd_m_value)

    p = sub.add_parser("embed", help="rainbow-embed a tree into a universal tree")
    p.add_argument("--tree", required=True)
    p.add_argument(
        "--k", type=_integer("option --k"), help="universal tree order (default: the tree's size)"
    )
    p.add_argument("--seed", type=_integer("option --seed"), default=0)
    p.add_argument("--exhaustive", action="store_true")
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("lubell", help="exact mass of a family")
    p.add_argument("family")
    p.set_defaults(fn=_run_json, cmd=cmd_lubell)

    p = sub.add_parser("sigma", help="sum of the k largest binomials")
    p.add_argument("n", type=_integer("argument n"))
    p.add_argument("k", type=_integer("argument k"))
    p.set_defaults(fn=_run_json, cmd=cmd_sigma)

    p = sub.add_parser("la-star", help="largest pattern-free family size")
    p.add_argument("n", type=_integer("argument n"))
    p.add_argument("--pattern", dest="patterns", action="append", required=True)
    p.add_argument("--bracket", action="store_true", help="budgeted bounds (n=5)")
    p.add_argument("--node-budget", type=_integer("option --node-budget"), help="needs --bracket")
    p.set_defaults(fn=_run_json, cmd=cmd_la_star)

    p = sub.add_parser("lar-star", help="largest rainbow-refutable family size")
    p.add_argument("n", type=_integer("argument n"))
    p.add_argument("pattern")
    p.set_defaults(fn=_run_json, cmd=cmd_lar_star)

    p = sub.add_parser("minmax", help="chain statistics of a family")
    p.add_argument("family")
    p.set_defaults(fn=_run_json, cmd=cmd_minmax)

    p = sub.add_parser("verify-paper", help="run the verification suite")
    tier = p.add_mutually_exclusive_group()
    tier.add_argument("--quick", action="store_true")
    tier.add_argument("--full", action="store_true")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)  # an integer argument raises BadParams here
        return args.fn(args)
    except SystemExit as exc:  # argparse's own usage errors, and --help
        return 2 if exc.code not in (0, None) else 0
    except ForcingTimeout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RainbowPosetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug; exit 1 stays reserved for a failed property
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
