"""Stress corpora of the hull driver, and per-draw tallies of its solves.

Not a test module: pytest does not collect it.  Every problem is drawn from
its own generator, so one problem can be rebuilt from its index alone.

- ``gradient_problem(k, stream)``, from ``default_rng([k, stream])``: n 2..6
  points in R^d, d 1..4, in a generic, thin (the last singular value of the
  centred cloud 0.01 of the first) or clustered (two clusters of spread
  0.01) cloud in [-1, 1]^d, times a data scale 10^U(-1, 1).  Each slot has a
  quadratic potential (v - u)' A (v - u) (probability 0.7) or an
  anisotropic quartic ((v - u)' A (v - u))^2, A of ``conditioned_matrices``
  with c = 10^U(0, 4).  Solved on the VI route through
  ``make_potential_deviation`` and on the potential route.
- ``skewed_problem(k, stream)``, from ``default_rng([k, stream + 1])``:
  non-gradient families E_i(u, v) = (B_i + 0.3 tanh|u|^2 I)(u - v),
  B_i = A_i + s sqrt(c) (K_i - K_i'), A_i of ``conditioned_matrices`` with
  c = 10^U(0, 3), s = U(0, 2), K_i standard normal; n 2..5, d 2..4, points
  uniform in [-2, 2]^d.  Solved on the VI route.
- The conditioned quadratics of
  ``test_hull.test_ill_conditioned_quadratics_converge_on_both_routes``:
  problem k has n, d and log10 c from the stream's generator, drawn in that
  order, and its data from ``default_rng(k)``.

Every solve runs with the default SolverConfig (max_iter 10,000).  Run from
the repository root:

    PYTHONPATH=src python3 tests/hull_corpora.py --save after.json \\
        [--against before.json] [--corpus gradient skewed conditioned]

It prints, per corpus, draw and route, the converged count, the iteration
sum and the largest iteration count.  ``--save`` keeps every solve's
verdict, iterations, value and final slack; ``--against`` compares with a
file saved that way (by the same command on another tree) and lists each
solve whose verdict flipped, with the tallies of the solves that converged
on both sides.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from meanreduce.vector import (
    GenDeviation,
    PotentialFn,
    gen_deviation_mean,
    make_potential_deviation,
    potential_mean,
)
import test_hull

GRADIENT_STREAMS = (15, 30, 40)
CORPUS_SIZE = 300
# Stream -> problem count of the conditioned quadratics.
CONDITIONED_STREAMS = {7: 1000, 2024: 200}


def quartic_form_potential(A: np.ndarray) -> PotentialFn:
    """F(u, v) = ((v - u)' A (v - u))^2, A symmetric positive definite."""

    def grad(u, v):
        diff = np.asarray(v) - np.asarray(u)
        Ad = A @ diff
        return 4.0 * float(diff @ Ad) * Ad

    return PotentialFn(dim=A.shape[0], eval=lambda u, v: float((v - u) @ A @ (v - u)) ** 2,
                       grad_v=grad, label="quartic form", validate=False)


def _cloud(rng, n: int, d: int) -> np.ndarray:
    kind = int(rng.integers(3))
    if kind == 2:
        centres = rng.uniform(-1.0, 1.0, (2, d))
        return centres[rng.integers(2, size=n)] + rng.uniform(-0.01, 0.01, (n, d))
    pts = rng.uniform(-1.0, 1.0, (n, d))
    if kind == 1 and min(n, d) >= 2:
        centre = pts.mean(axis=0)
        U, S, Vt = np.linalg.svd(pts - centre, full_matrices=False)
        S[-1] = 0.01 * S[0]
        pts = centre + (U * S) @ Vt
    return pts


def gradient_problem(k: int, stream: int):
    """Problem k of the gradient corpus of a stream: the points and the
    potentials."""
    rng = np.random.default_rng([k, stream])
    n, d = int(rng.integers(2, 7)), int(rng.integers(1, 5))
    x = _cloud(rng, n, d) * 10.0 ** rng.uniform(-1.0, 1.0)
    F = []
    for _ in range(n):
        A = test_hull.conditioned_matrices(rng, 1, d, 10.0 ** rng.uniform(0.0, 4.0))[0]
        F.append(test_hull.quadratic_potential(A) if rng.random() < 0.7
                 else quartic_form_potential(A))
    return list(x), F


def skewed_problem(k: int, stream: int):
    """Problem k of the skewed corpus of a stream: the points and the
    deviations."""
    rng = np.random.default_rng([k, stream + 1])
    n, d = int(rng.integers(2, 6)), int(rng.integers(2, 5))
    c, s = 10.0 ** rng.uniform(0.0, 3.0), rng.uniform(0.0, 2.0)
    E = []
    for A in test_hull.conditioned_matrices(rng, n, d, c):
        K = rng.standard_normal((d, d))
        B = A + s * math.sqrt(c) * (K - K.T)
        E.append(GenDeviation(
            dim=d, eval=lambda u, v, B=B: (B + 0.3 * math.tanh(float(u @ u)) * np.eye(d)) @ (u - v),
            label="skewed", validate=False))
    return list(rng.uniform(-2.0, 2.0, (n, d))), E


def conditioned_parameters(stream: int, count: int) -> list:
    """(k, n, d, log10 c) of the first count conditioned quadratics."""
    rng = np.random.default_rng(stream)
    return [(k, int(rng.integers(2, 7)), int(rng.integers(1, 5)), float(rng.uniform(0.0, 3.0)))
            for k in range(count)]


def problems(corpus: str, stream: int, count: int):
    """(k, points, deviations, potentials or None) of a corpus draw."""
    if corpus == "skewed":
        for k in range(count):
            x, E = skewed_problem(k, stream)
            yield k, x, E, None
        return
    if corpus == "gradient":
        drawn = ((k,) + gradient_problem(k, stream) for k in range(count))
    else:
        drawn = ((p[0],) + test_hull.conditioned_quadratic_problem(*p)
                 for p in conditioned_parameters(stream, count))
    for k, x, F in drawn:
        yield k, x, [make_potential_deviation(f) for f in F], F


def _field_scale(E, x) -> float:
    """max_j |g(x_j)| diam(x) for the summed field g of the deviations E."""
    g = [np.linalg.norm(sum(e.grad(p, xj) for e, p in zip(E, x))) for xj in x]
    diam = max(float(np.linalg.norm(p - q)) for p in x for q in x)
    return float(max(g)) * diam


def _record(k: int, report, scale: float) -> dict:
    return {"k": k, "converged": bool(report.converged), "iterations": int(report.iterations),
            "value": np.asarray(report.value, dtype=float).tolist(),
            "slack": float(report.residual), "field_scale": scale}


def solve_corpus(corpus: str, stream: int, count: int) -> dict:
    """Route name -> one record per problem of a corpus draw."""
    out = {}
    for k, x, E, F in problems(corpus, stream, count):
        scale = _field_scale(E, x)
        out.setdefault("vi", []).append(_record(k, gen_deviation_mean(E, x), scale))
        if F is not None:
            out.setdefault("pot", []).append(_record(k, potential_mean(F, x), scale))
    return out


def tally(records: list) -> dict:
    iterations = [r["iterations"] for r in records]
    return {"converged": sum(r["converged"] for r in records), "of": len(records),
            "iterations": sum(iterations), "max_iterations": max(iterations)}


def compare(before: list, after: list) -> dict:
    """The verdict flips from before to after, and the tallies of the solves
    that converged on both sides."""
    flips, both = [], []
    for b, a in zip(before, after):
        if b["converged"] and a["converged"]:
            both.append((b, a))
        elif b["converged"] != a["converged"]:
            yb, ya = np.asarray(b["value"]), np.asarray(a["value"])
            flips.append({
                "k": a["k"], "to_converged": a["converged"],
                "iterations": [b["iterations"], a["iterations"]],
                "value_change": float(np.linalg.norm(ya - yb)) / (1.0 + float(np.linalg.norm(yb))),
                "slack_over_field_scale": a["slack"] / a["field_scale"]})
    return {"flips": flips, "both_converged": {
        "count": len(both),
        "iterations": [sum(b["iterations"] for b, _ in both), sum(a["iterations"] for _, a in both)],
        "max_iterations": [max((b["iterations"] for b, _ in both), default=0),
                           max((a["iterations"] for _, a in both), default=0)]}}


def draws(corpora) -> list:
    """(corpus, stream, count) for every draw of the named corpora."""
    out = []
    for corpus in corpora:
        if corpus == "conditioned":
            out += [(corpus, s, count) for s, count in CONDITIONED_STREAMS.items()]
        else:
            out += [(corpus, s, CORPUS_SIZE) for s in GRADIENT_STREAMS]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", nargs="+", default=["gradient", "skewed", "conditioned"],
                        choices=["gradient", "skewed", "conditioned"])
    parser.add_argument("--save", help="write every solve's record to this JSON file")
    parser.add_argument("--against", help="a file written by --save to compare with")
    args = parser.parse_args(argv)
    solves = {}
    for corpus, stream, count in draws(args.corpus):
        for route, records in solve_corpus(corpus, stream, count).items():
            solves[f"{corpus}.{route}@{stream}"] = records
    result = {"tallies": {key: tally(records) for key, records in solves.items()}}
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            before = json.load(fh)
        result["against"] = {key: dict(compare(before[key], records), before=tally(before[key]))
                             for key, records in solves.items() if key in before}
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(solves, fh)
    json.dump(result, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
