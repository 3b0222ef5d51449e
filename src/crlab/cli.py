"""Batch command-line interface.

Subcommands: construct, analyze, triangularize, search, verify-structure,
selftest.  All randomized results record (seed, trials).  Exit codes: 0 on
success, 1 on verdict failures (search below the bound, refuted rank
condition, failed structure match, triangularization errors), 2 on parse or
validation problems (with a machine-readable error object on stderr).

Environment: CRLAB_MAX_N overrides the search size guard.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import constructions
from .commrank import check_dimension_bound, max_commutator_rank, satisfies_rank_condition
from .invariant_spaces import DEFAULT_SEARCH_GUARD, search_max_dimension
from .numberfield import ExtensionLimitError
from .serialize import (SchemaError, dumps_canonical, read_subspace,
                        to_jsonable, write_subspace)
from .triangularize import (InconsistentFamilyError, InvariantFailureError,
                            triangularize_rank_one, verify_triangular)
from .verify import structure_check

_FAMILIES = ("schur", "vk", "vk-t", "thm2-lastrow", "thm2-firstcol",
             "rank1max", "flanders")


def _emit(payload, out_path):
    text = dumps_canonical(payload)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(command, args_echo, results, t0, seed=None, trials=None):
    payload = {
        "command": command,
        "args": args_echo,
        "results": results,
        "wall_time_ms": int((time.monotonic() - t0) * 1000),
    }
    if seed is not None:
        payload["seed"] = seed
    if trials is not None:
        payload["trials"] = trials
    return payload


def _cmd_construct(args):
    spec = constructions.FamilySpec(family=args.family, n=args.n, k=args.k,
                                    l=args.l, variant=args.variant)
    v = constructions.build_family(spec)
    if v.rows != v.cols:
        raise SchemaError("constructed space is rectangular; files are square-only")
    write_subspace(args.output, v)
    sys.stdout.write(dumps_canonical(
        {"written": args.output, "ambient": v.rows, "dim": v.dim}))
    return 0


def _cmd_analyze(args):
    t0 = time.monotonic()
    v = read_subspace(args.file)
    bound_report = check_dimension_bound(v, args.trials, args.seed)
    results = {
        "ambient": v.n,
        "dim": v.dim,
        "profile": to_jsonable(bound_report.profile),
        "bound_report": to_jsonable(bound_report),
    }
    ok = bound_report.status == "PASS"
    if args.k is not None:
        verdict = satisfies_rank_condition(v, args.k, args.trials, args.seed)
        results["rank_condition"] = to_jsonable(verdict)
        ok = ok and not verdict.certified_no
    _emit(_report("analyze", {"file": args.file, "k": args.k}, results, t0,
                  seed=args.seed, trials=args.trials), args.output)
    return 0 if ok else 1


def _cmd_triangularize(args):
    t0 = time.monotonic()
    v = read_subspace(args.file)
    try:
        res = triangularize_rank_one(v)
    except InconsistentFamilyError as exc:
        _emit(_report("triangularize", {"file": args.file}, {
            "error": {
                "code": "INCONSISTENT",
                "message": str(exc),
                "witness_pair": to_jsonable(list(exc.pair)),
                "witness_commutator_rank": exc.comm.rank(),
            }}, t0), args.output)
        return 1
    except InvariantFailureError as exc:
        _emit(_report("triangularize", {"file": args.file}, {
            "error": {
                "code": "INVARIANT_FAILURE",
                "message": str(exc),
                "witness_member": to_jsonable(exc.member),
            }}, t0), args.output)
        return 1
    except ExtensionLimitError as exc:
        _emit(_report("triangularize", {"file": args.file}, {
            "error": {"code": "EXTENSION_LIMIT", "message": str(exc)}}, t0),
            args.output)
        return 1
    results = {
        "P": to_jsonable(res.P),
        "chain_dims": list(res.chain_dims),
        "field": to_jsonable(res.field),
        "verified_upper_triangular": verify_triangular(v, res.P),
    }
    _emit(_report("triangularize", {"file": args.file}, results, t0), args.output)
    return 0


def _cmd_search(args):
    t0 = time.monotonic()
    guard = int(os.environ.get("CRLAB_MAX_N", DEFAULT_SEARCH_GUARD))
    report = search_max_dimension(args.n, args.k, trials=args.trials,
                                  seed=args.seed, max_n=guard)
    results = to_jsonable(report)
    _emit(_report("search", {"n": args.n, "k": args.k, "rules": args.rules},
                  results, t0, seed=args.seed, trials=args.trials), args.output)
    return 0 if report.matches_bound else 1


def _cmd_verify_structure(args):
    t0 = time.monotonic()
    v = read_subspace(args.file)
    verdict = structure_check(v, args.trials, args.seed)
    _emit(_report("verify-structure", {"file": args.file},
                  to_jsonable(verdict), t0, seed=args.seed, trials=args.trials),
          args.output)
    return 0 if verdict.status in ("MATCHES_VK", "MATCHES_VK_TRANSPOSE",
                                   "EXCEPTIONAL") else 1


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


def build_parser():
    p = argparse.ArgumentParser(prog="crlab",
                                description="exact commutator-rank toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="write a named space as a JSON file")
    c.add_argument("--family", required=True, choices=_FAMILIES)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--k", type=int)
    c.add_argument("--l", type=int)
    c.add_argument("--variant")
    c.add_argument("-o", "--output", required=True)
    c.set_defaults(func=_cmd_construct)

    a = sub.add_parser("analyze", help="commutator profile and bound check")
    a.add_argument("file")
    a.add_argument("--trials", type=int, default=32)
    a.add_argument("--seed", type=int, default=2024)
    a.add_argument("--k", type=int, help="also test the rank condition at k")
    a.add_argument("-o", "--output")
    a.set_defaults(func=_cmd_analyze)

    t = sub.add_parser("triangularize",
                       help="simultaneous triangularization (rank-one spaces)")
    t.add_argument("file")
    t.add_argument("-o", "--output")
    t.set_defaults(func=_cmd_triangularize)

    s = sub.add_parser("search", help="exhaustive invariant-space search")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--trials", type=int, default=32)
    s.add_argument("--seed", type=int, default=2024)
    s.add_argument("--rules", choices=("full",), default="full",
                   help="the closure rule set ('full' is the only one)")
    s.add_argument("-o", "--output")
    s.set_defaults(func=_cmd_search)

    vs = sub.add_parser("verify-structure", help="equality-case structure test")
    vs.add_argument("file")
    vs.add_argument("--trials", type=int, default=32)
    vs.add_argument("--seed", type=int, default=2024)
    vs.add_argument("-o", "--output")
    vs.set_defaults(func=_cmd_verify_structure)

    st = sub.add_parser("selftest", help="formula identities and variant tables")
    st.set_defaults(func=_cmd_selftest)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, ValueError, OSError) as exc:
        sys.stderr.write(dumps_canonical(
            {"error": {"code": "INVALID_INPUT", "message": str(exc)}}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
