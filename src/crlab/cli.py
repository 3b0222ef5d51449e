"""Batch command-line interface.

Subcommands: construct, analyze, triangularize, search, verify-structure,
selftest.  Exit codes: 0 on success, 1 on verdict failures (search below the
bound, refuted rank condition, failed structure match, triangularization
errors or a P that verify_triangular rejects), 2 on parse or validation
problems (with a machine-readable error object on stderr).

analyze, triangularize, search and verify-structure each return (results,
ok), and one writer turns that into the report written to ``-o`` or stdout:
``command``; ``args``, every parsed argument except ``-o``, ``--seed`` and
``--trials``; ``seed`` and ``trials`` at the top level for the sampled verbs;
``results``; and ``wall_time_ms``, the only field that differs between two
runs on the same arguments.  The parser is built once per process.

Environment: CRLAB_MAX_N overrides the search size guard.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

from . import constructions
from .commrank import check_dimension_bound, max_commutator_rank
from .invariant_spaces import DEFAULT_SEARCH_GUARD, search_max_dimension
from .numberfield import ExtensionLimitError
from .serialize import (SchemaError, dumps_canonical, read_subspace,
                        to_jsonable, write_subspace)
from .triangularize import InconsistentFamilyError, triangularize_rank_one, verify_triangular
from .verify import structure_check

# parsed arguments a report does not echo under "args": the verb, its
# function and the output path; seed and trials sit at the top level
_UNECHOED = frozenset(("command", "func", "output", "seed", "trials"))
_TRIANGULARIZE_ERRORS = {InconsistentFamilyError: "INCONSISTENT",
                         ExtensionLimitError: "EXTENSION_LIMIT"}


def _reporting(verb):
    """The one writer of the report verbs: runs ``verb(args)``, which returns
    (results, ok), times it, writes the report envelope to ``-o`` or stdout,
    and returns the exit code."""
    def run(args):
        t0 = time.monotonic()
        results, ok = verb(args)
        given = vars(args)
        payload = {
            "command": args.command,
            "args": {key: value for key, value in given.items()
                     if key not in _UNECHOED},
            "results": results,
            "wall_time_ms": int((time.monotonic() - t0) * 1000),
        }
        payload.update((key, given[key]) for key in ("seed", "trials") if key in given)
        text = dumps_canonical(payload)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0 if ok else 1
    return run


def _cmd_construct(args):
    v = constructions.build_family(args.family, args.n, k=args.k, l=args.l,
                                   variant=args.variant)
    write_subspace(args.output, v)
    sys.stdout.write(dumps_canonical(
        {"written": args.output, "ambient": v.rows, "dim": v.dim}))
    return 0


def _cmd_analyze(args):
    v = read_subspace(args.file)
    if args.k is not None and not 0 <= args.k < v.n:
        raise ValueError("need 0 <= k < n")
    bound_report = check_dimension_bound(v, args.trials, args.seed)
    results = {"bound_report": to_jsonable(bound_report)}
    ok = bound_report.status == "PASS"
    if args.k is not None:
        # the profile's scan drew the pairs a separate satisfies_rank_condition
        # call would, so its verdict has the same status (see commrank)
        verdict = bound_report.profile.verdict(args.k)
        results["rank_condition"] = to_jsonable(verdict)
        ok = ok and not verdict.certified_no
    return results, ok


def _cmd_triangularize(args):
    v = read_subspace(args.file)
    try:
        res = triangularize_rank_one(v)
    except tuple(_TRIANGULARIZE_ERRORS) as exc:
        error = {"code": _TRIANGULARIZE_ERRORS[type(exc)], "message": str(exc)}
        if isinstance(exc, InconsistentFamilyError):
            error["witness_pair"] = to_jsonable(list(exc.pair))
            error["witness_commutator_rank"] = exc.comm.rank()
            if exc.reference_pair is not None:
                error["reference_pair"] = to_jsonable(list(exc.reference_pair))
        return {"error": error}, False
    verified = verify_triangular(v, res.P)
    return {
        "P": to_jsonable(res.P),
        "field": to_jsonable(res.field),
        "verified_upper_triangular": verified,
    }, verified


def _cmd_search(args):
    guard = int(os.environ.get("CRLAB_MAX_N", DEFAULT_SEARCH_GUARD))
    report = search_max_dimension(args.n, args.k, trials=args.trials,
                                  seed=args.seed, max_n=guard)
    return to_jsonable(report), report.matches_bound


def _cmd_verify_structure(args):
    verdict = structure_check(read_subspace(args.file), args.trials, args.seed)
    return to_jsonable(verdict), verdict.matched


def _cmd_selftest(args):
    from .commrank import dimension_bound
    from .linalg import commutator

    failures = []

    def check(name, ok):
        line = f"{'PASS' if ok else 'FAIL'}  {name}"
        sys.stdout.write(line + "\n")
        if not ok:
            failures.append(name)

    check("closed forms: bound(n,0) = floor(n^2/4)+1 for n <= 50",
          all(dimension_bound(n, 0) == n * n // 4 + 1 for n in range(2, 51)))
    check("closed forms: bound(n,n-1) = n^2-n+1 for n <= 50",
          all(dimension_bound(n, n - 1) == n * n - n + 1 for n in range(2, 51)))
    check("closed forms: bound(n,1) = floor((n-1)^2/4)+n+1 for n <= 50",
          all(dimension_bound(n, 1) == (n - 1) ** 2 // 4 + n + 1
              for n in range(2, 51)))
    ok = True
    for n in range(2, 9):
        for k in range(n):
            for l in constructions.valid_splits(n, k):
                ok = ok and constructions.extremal_space(n, k, l).dim == dimension_bound(n, k)
    check("construction dims match the bound for n <= 8", ok)
    table = [("scalar", 2), ("diag2", 3), ("diag3", 4),
             ("nilrank1_plus_C", 4), ("nilrank2", 4)]
    ok = True
    for tag, n in table:
        v = constructions.rank_one_max_space(n, tag)
        ok = ok and v.dim == dimension_bound(n, 1) and v.is_algebra()
        prof = max_commutator_rank(v, 16, 5)
        ok = ok and prof.probable_max <= 1
    check("exceptional variants: dims, algebra closure, rank level", ok)
    a, b = constructions.bidiagonal_witness_pair(6, 3, (1, 2, 3), (1, 1, 1))
    diag = constructions.bidiagonal_commutator_diagonal(6, (1, 2, 3), (1, 1, 1))
    got = commutator(a, b)
    ok = all(got[i, i] == diag[i] for i in range(6))
    check("bidiagonal witness commutator matches the closed form", ok)
    return 1 if failures else 0


@functools.cache
def _parser():
    p = argparse.ArgumentParser(prog="crlab",
                                description="exact commutator-rank toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    sampled = argparse.ArgumentParser(add_help=False)  # the sampling verbs' options
    sampled.add_argument("--trials", type=int, default=32)
    sampled.add_argument("--seed", type=int, default=2024)

    c = sub.add_parser("construct", help="write a named space as a JSON file")
    c.add_argument("--family", required=True, choices=tuple(constructions.FAMILIES))
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--k", type=int)
    c.add_argument("--l", type=int)
    c.add_argument("--variant")
    c.add_argument("-o", "--output", required=True)
    c.set_defaults(func=_cmd_construct)

    a = sub.add_parser("analyze", parents=[sampled],
                       help="commutator profile and bound check")
    a.add_argument("file")
    a.add_argument("--k", type=int, help="also test the rank condition at k")
    a.add_argument("-o", "--output")
    a.set_defaults(func=_reporting(_cmd_analyze))

    t = sub.add_parser("triangularize",
                       help="simultaneous triangularization (rank-one spaces)")
    t.add_argument("file")
    t.add_argument("-o", "--output")
    t.set_defaults(func=_reporting(_cmd_triangularize))

    s = sub.add_parser("search", parents=[sampled],
                       help="exhaustive invariant-space search")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--rules", choices=("full",), default="full",
                   help="the closure rule set ('full' is the only one)")
    s.add_argument("-o", "--output")
    s.set_defaults(func=_reporting(_cmd_search))

    vs = sub.add_parser("verify-structure", parents=[sampled],
                        help="equality-case structure test")
    vs.add_argument("file")
    vs.add_argument("-o", "--output")
    vs.set_defaults(func=_reporting(_cmd_verify_structure))

    st = sub.add_parser("selftest", help="formula identities and variant tables")
    st.set_defaults(func=_cmd_selftest)
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, ValueError, OSError) as exc:
        sys.stderr.write(dumps_canonical(
            {"error": {"code": "INVALID_INPUT", "message": str(exc)}}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
