"""Seeded inputs, expected verdicts and the correctness gate for each workload.

A workload is a fixed batch of ``crlab`` CLI invocations.  ``build(name,
seed, workdir)`` writes the batch's input files under ``workdir`` and returns
a list of :class:`Invocation`; everything random in it comes from ``seed``.
``check(inv, code, payload)`` returns a list of problems (empty when the
output is right).  The gate pins the exit code and verdict fields of every
invocation and re-checks certificates with the small exact routines at the
bottom of this file, which share no code with ``crlab``.

``crlab`` is imported inside the functions: ``bench/run.py`` imports this
module for its names without putting ``src`` on its path.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("search", "files")
# exact counts read from the returned reports (see report_counts)
COUNTS = ("invariant_spaces.specs", "invariant_spaces.pruned",
          "invariant_spaces.certified_no", "invariant_spaces.probable_yes",
          "invariant_spaces.skipped_below_max", "commrank.verdict.certified_no",
          "commrank.verdict.probable_yes", "triangularize.extensions")


@dataclass
class Invocation:
    argv: list
    expect_code: int
    expect: dict = field(default_factory=dict)
    basis: list | None = None  # input basis as Fraction row lists, for re-checks

    @property
    def label(self):
        return " ".join(os.path.basename(a) for a in self.argv)


# -- input generation ----------------------------------------------------------

# fixed diagonal of distinct small integers: D V D^-1 has the same
# denominators for every seed
_SCALES = (1, 2, 3, 5, 7, 11, 13)


def _conjugator(n, rng):
    """Random rational conjugator U D: U is an integer matrix of determinant
    +-1 (a permutation times unit lower and unit upper triangular factors
    with entries in [-1, 1]) and D is diag(_SCALES[:n]).  The conjugate
    then carries denominators, yet its size varies little from seed to
    seed, unlike with a random integer matrix, whose determinant sets the
    denominators."""
    from crlab.linalg import Mat

    def unit_triangular(lower):
        return Mat.from_rows([[1 if i == j else rng.randint(-1, 1) if (i > j) == lower else 0
                               for j in range(n)] for i in range(n)])

    perm = rng.sample(range(n), n)
    p = Mat.from_rows([[int(perm[i] == j) for j in range(n)] for i in range(n)])
    return p @ unit_triangular(True) @ unit_triangular(False) @ Mat.diagonal(_SCALES[:n])


def _conjugate(v, rng):
    return v.conjugate(_conjugator(v.n, rng))


def _write(workdir, name, v):
    from crlab.serialize import write_subspace
    path = os.path.join(workdir, name + ".json")
    write_subspace(path, v)
    return path, [[list(b.data[i * v.n:(i + 1) * v.n]) for i in range(v.n)]
                  for b in v.basis]


def _search(rng, workdir):
    seed = str(rng.randrange(10 ** 6))
    return [Invocation(["search", "--n", "5", "--k", str(k), "--trials", "32",
                        "--rules", "full", "--seed", seed], 0)
            for k in range(5)]


def _analyze(rng, workdir):
    from crlab.constructions import (extremal_space, firstcol_zero_space,
                                     lastrow_zero_space, valid_splits)
    from crlab.linalg import Mat
    from crlab.subspace import MatrixSubspace
    seed = str(rng.randrange(10 ** 6))
    out = []

    def add(path, basis, k, code, **expect):
        out.append(Invocation(["analyze", path, "--k", str(k), "--seed", seed],
                              code, expect, basis))

    for k in range(6):
        v = _conjugate(extremal_space(6, k, valid_splits(6, k)[0]), rng)
        path, basis = _write(workdir, f"vk6_{k}", v)
        add(path, basis, k, 0, rank_condition="PROBABLE_YES", bound="PASS")
        if k >= 1:
            add(path, basis, k - 1, 1, rank_condition="CERTIFIED_NO", bound="PASS")
    for n in (6, 7):
        for tag, build in (("lastrow", lastrow_zero_space),
                           ("firstcol", firstcol_zero_space)):
            path, basis = _write(workdir, f"{tag}{n}", _conjugate(build(n), rng))
            add(path, basis, n - 1, 0, rank_condition="PROBABLE_YES", bound="PASS")
    for i in range(2):
        mats = [Mat(6, 6, [Fraction(rng.randint(-3, 3)) for _ in range(36)])
                for _ in range(3)]
        path, basis = _write(workdir, f"generic{i}", MatrixSubspace.span(mats, 6, 6))
        add(path, basis, 5, 1, rank_condition="CERTIFIED_NO", bound="NOT_APPLICABLE")
    return out


def _structure(rng, workdir):
    from crlab.constructions import extremal_space, valid_splits
    seed = str(rng.randrange(10 ** 6))
    out = []
    for n in (5, 6, 7):
        for k in range(n):
            v = _conjugate(extremal_space(n, k, valid_splits(n, k)[0]), rng)
            path, _ = _write(workdir, f"st{n}_{k}", v)
            out.append(Invocation(["verify-structure", path, "--seed", seed], 0,
                                  {"status": "MATCHES_VK", "k_hat": k}))
    return out


def _quadratic_block(n, c, tail):
    """Companion matrix of x^2 - c beside the distinct rationals ``tail`` on
    the diagonal; its minimal polynomial has degree n."""
    from crlab.linalg import Mat
    rows = [[0] * n for _ in range(n)]
    rows[0][1], rows[1][0] = c, 1
    for i, t in enumerate(tail):
        rows[2 + i][2 + i] = t
    return Mat.from_rows(rows)


def _triangularize(rng, workdir):
    from crlab.constructions import rank_one_max_space
    from crlab.linalg import Mat
    from crlab.subspace import MatrixSubspace
    out = []
    for n in range(4, 8):
        base = rank_one_max_space(n, "generic", n // 2)
        for side, v, sizes in (("left", base, (2, 4, 6)),
                               ("right", base.transpose_space(), (3, 5, 7))):
            w = _conjugate(v, rng)
            for i, d in enumerate(sizes):
                sub = MatrixSubspace.span([w.random_element(rng, 5) for _ in range(d)],
                                          n, n)
                path, basis = _write(workdir, f"r1_{n}{side}{i}", sub)
                out.append(Invocation(["triangularize", path], 0,
                                      {"extension": False}, basis))
    for i, (n, c) in enumerate(((4, 2), (4, 3), (5, 2), (5, 3))):
        q = _conjugator(n, rng)
        m = q @ _quadratic_block(n, c, rng.sample(range(-4, 5), n - 2)) @ q.inverse()
        m2 = m @ m
        v = MatrixSubspace.span([Mat.identity(n), m, m2, m2 @ m], n, n)
        path, basis = _write(workdir, f"alg{i}_{n}_{c}", v)
        out.append(Invocation(["triangularize", path], 0,
                              {"extension": True}, basis))
    return out


# files runs every verb that reads a subspace file.  One long run per
# workload varies less on a shared host than several short ones, whose slow
# spells last as long as a run.
_BATCHES = {"search": (_search,), "files": (_analyze, _structure, _triangularize)}


def build(name, seed, workdir):
    """The workload's invocations; input files are written under workdir."""
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(f"{name}/{seed}")
    return [inv for batch in _BATCHES[name] for inv in batch(rng, workdir)]


# -- correctness gate -------------------------------------------------------------

def _rows(m):
    return [[Fraction(x) for x in r] for r in m]


def _rank(rows):
    """Rank over Q by plain Gaussian elimination."""
    work = [list(r) for r in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        p = work[rank]
        for i in range(rank + 1, len(work)):
            f = work[i][c] / p[c]
            if f:
                work[i] = [a - f * b for a, b in zip(work[i], p)]
        rank += 1
    return rank


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _inverse(m):
    n = len(m)
    aug = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(m)]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c]), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        p = aug[c][c]
        aug[c] = [x / p for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    return [r[n:] for r in aug]


def _flat(m):
    return [x for r in m for x in r]


def _check_witness(inv, rc):
    k = rc["k"]
    a, b = (_rows(m) for m in rc["witness"])
    ab, ba = _matmul(a, b), _matmul(b, a)
    comm = [[x - y for x, y in zip(r, s)] for r, s in zip(ab, ba)]
    problems = []
    if _rank(comm) <= k:
        problems.append(f"CERTIFIED_NO witness has commutator rank <= k={k}")
    basis = [_flat(m) for m in inv.basis]
    if any(_rank(basis + [_flat(m)]) != len(basis) for m in (a, b)):
        problems.append("CERTIFIED_NO witness is not in the space")
    return problems


def _check_triangularizer(inv, p_rows):
    p = _rows(p_rows)
    p_inv = _inverse(p)
    if p_inv is None:
        return ["P is singular"]
    for m in inv.basis:
        t = _matmul(_matmul(p_inv, m), p)
        if any(t[i][j] for i in range(len(t)) for j in range(i)):
            return ["P^-1 A P is not upper triangular"]
    return []


def check(inv, code, payload):
    """Problems with one invocation's exit code and JSON payload."""
    problems = []
    if code != inv.expect_code:
        problems.append(f"exit code {code!r}, expected {inv.expect_code}")
    if payload is None:
        return problems + ["no JSON report on stdout"]
    r = payload["results"]
    cmd = inv.argv[0]
    if cmd == "search":
        n, k = r["n"], r["k"]
        bound = n * k + (n - k) ** 2 // 4 + 1
        if not (r["bound"] == bound and r["max_dim"] == bound and r["matches_bound"]):
            problems.append(f"max_dim {r['max_dim']}, bound {r['bound']}, expected {bound}")
    elif cmd == "analyze":
        rc = r["rank_condition"]
        if rc["status"] != inv.expect["rank_condition"]:
            problems.append(f"rank condition {rc['status']}")
        if r["bound_report"]["status"] != inv.expect["bound"]:
            problems.append(f"bound {r['bound_report']['status']}")
        if rc["status"] == "CERTIFIED_NO":
            problems += _check_witness(inv, rc)
    elif cmd == "verify-structure":
        for key, want in inv.expect.items():
            if r[key] != want:
                problems.append(f"{key} {r[key]!r}, expected {want!r}")
    elif cmd == "triangularize":
        if r["verified_upper_triangular"] is not True:
            problems.append("not verified upper triangular")
        if (r["field"] is not None) != inv.expect["extension"]:
            problems.append(f"field {r['field']!r}")
        if r["field"] is None:
            problems += _check_triangularizer(inv, r["P"])
    return problems


def report_counts(invocations, payloads):
    """Exact counts read from the returned reports of one pass."""
    counts = dict.fromkeys(COUNTS, 0)
    for inv, payload in zip(invocations, payloads):
        r = (payload or {}).get("results", {})
        if inv.argv[0] == "search":
            for key, value in r.get("counts", {}).items():
                name = f"invariant_spaces.{key}"
                counts[name] = counts.get(name, 0) + value
        elif inv.argv[0] == "analyze" and "rank_condition" in r:
            counts[f"commrank.verdict.{r['rank_condition']['status'].lower()}"] += 1
        elif inv.argv[0] == "triangularize" and r.get("field") is not None:
            counts["triangularize.extensions"] += 1
    return counts
