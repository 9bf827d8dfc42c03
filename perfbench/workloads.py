"""The three benchmark workloads: seeded inputs, one pass, and its checks.

Every workload exposes ``build()`` (the set-up a user pays once: load
suites, compile expressions, build runners or problems) and ``run_pass()``,
which runs every item once and returns per-item latencies, failures and a
digest of the outputs.  The digest of every pass of one seed must be equal;
that is how a change in results, or an effect of tracing, is caught.

meanreduce functions are always looked up on their module at call time, so
that the layer wrappers in :mod:`layers` see every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Optional

import numpy as np

import calibrate
import meanreduce.cli as cli
import meanreduce.descriptors as descriptors
import meanreduce.reduction as reduction
import meanreduce.suites as suites
import meanreduce.vector as vector
from meanreduce.core import Injection
from meanreduce.expr import parse_expression, point_vars

SCALAR_LAB_SUITES = ("jensen", "comparisons", "holder-minkowski", "failing")
NESTED_CORPUS_SEED = 102
NESTED_GENERATED = 92
VECTOR_CORPUS_SEED = 105
VECTOR_PROBLEMS = 100
AGREE_TOL = 1e-8


@dataclasses.dataclass
class PassResult:
    interval: calibrate.Interval
    latencies: list          # (item id, calibrate.Interval)
    failed: list             # (item id, reason)
    wrong: list              # (item id, reason): contradicted certificates
    digest: str


class ItemClock:
    """Times every suite case runner; opens an item span when tracing."""

    def __init__(self):
        self.tracer = None
        self.monitor = None
        self.latencies: list = []
        self.label = ""

    def wrap_build_runner(self, original):
        clock = self

        def build_runner(case, *args, **kwargs):
            fuzz_case = original(case, *args, **kwargs)
            runner = fuzz_case.runner
            name = fuzz_case.name

            def timed(seed, trials):
                item = f"{clock.label}/{name}@{seed}"
                tracer = clock.tracer
                frame = None
                if tracer is not None:
                    tracer.item = item
                    frame = tracer.open("item")
                token = clock.monitor.start()
                try:
                    return runner(seed, trials)
                finally:
                    clock.latencies.append((item, clock.monitor.stop(token)))
                    if frame is not None:
                        tracer.close(frame)
                        tracer.item = None

            return dataclasses.replace(fuzz_case, runner=timed)

        return build_runner


# ---------------------------------------------------------------- suites


class SuiteWorkload:
    """Items are suite cases run in process through ``meanreduce verify``.

    Each pass verifies every suite at two seeds, the run seed and the run
    seed + 1000, so that an item's sampled tuples vary less in sum from one
    run seed to the next and the quantiles have twice the items.
    """

    def __init__(self, seed: int, outdir: str):
        self.seed = seed
        self.outdir = outdir
        self.clock = ItemClock()
        self.tracer = None
        self.monitor = None

    def install(self, patcher):
        """Time each case: wrap ``build_runner`` for the length of the run."""
        patcher.replace("meanreduce.suites", "build_runner", self.clock.wrap_build_runner)

    def suite_sources(self) -> list:
        raise NotImplementedError

    def verify_seeds(self) -> list:
        return [self.seed, self.seed + 1000]

    def build(self):
        """Load every suite and build every runner, as ``verify`` does."""
        runners = []
        for source in self.suite_sources():
            suite = suites.load_suite(source)
            runners += [suites.build_runner(c, suites.DEFAULT_TRIALS, suites.DEFAULT_TOL,
                                            suites.DEFAULT_REDUCED_TOL)
                        for c in suite["cases"]]
        return runners

    def run_pass(self) -> PassResult:
        self.clock.latencies = []
        self.clock.tracer = self.tracer
        self.clock.monitor = self.monitor
        failed, wrong = [], []
        digest = hashlib.sha256()
        token = self.monitor.start()
        for verify_seed in self.verify_seeds():
            for source in self.suite_sources():
                self._verify(source, verify_seed, digest, failed, wrong)
        return PassResult(self.monitor.stop(token), list(self.clock.latencies), failed, wrong,
                          digest.hexdigest())

    def _verify(self, source: str, seed: int, digest, failed: list, wrong: list):
        label = os.path.basename(source).removesuffix(".json")
        self.clock.label = label
        out = os.path.join(self.outdir, f"report-{label}-{seed}.json")
        code = cli.main(["verify", source, "--seed", str(seed), "--output", out])
        with open(out, "rb") as fh:
            data = fh.read()
        digest.update(data)
        bad = 0
        for entry in json.loads(data)["cases"]:
            reason = _case_failure(entry)
            if reason:
                bad += 1
                item = f"{label}/{entry['case']}@{entry['seed']}"
                failed.append((item, reason))
                wrong.append((item, reason))
        if (code == 0) != (bad == 0):
            wrong.append((label, f"verify exit code {code} with {bad} failed cases"))


def _case_failure(entry: dict) -> Optional[str]:
    if entry.get("error"):
        return f"error: {entry['error']}"
    if entry.get("implication_violated"):
        return "implication violated"
    if not entry.get("ok", False):
        return f"verdict differs from expected {entry.get('expected', 'pass')!r}"
    return None


class ScalarLab(SuiteWorkload):
    """The four packaged inequality suites: 146 items per pass."""

    name = "scalar-lab"

    def suite_sources(self) -> list:
        return list(SCALAR_LAB_SUITES)


class NestedScalar(SuiteWorkload):
    """Scalar reduction cases of :func:`nested_suite`: 200 items per pass."""

    name = "nested-scalar"

    def __init__(self, seed: int, outdir: str):
        super().__init__(seed, outdir)
        self.path = os.path.join(outdir, "nested-scalar.json")
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(nested_suite(), fh, indent=1, sort_keys=True)

    def suite_sources(self) -> list:
        return [self.path]


def _num(value: float) -> str:
    return f"{value:.4g}"


def _deviation_expr(rng) -> str:
    """A deviation w(u) (f(u) - f(v)) with w > 0 and f increasing on [0.2, 6]."""
    kind = int(rng.integers(6))
    if kind == 0:
        return f"{_num(rng.uniform(0.5, 3.0))}*(u - v)"
    if kind == 1:
        return f"u^{_num(rng.uniform(0.0, 2.0))}*(u - v)"
    if kind == 2:
        return f"({_num(rng.uniform(0.2, 2.0))} + u)*(log(u) - log(v))"
    if kind == 3:
        s = _num(rng.uniform(0.1, 0.6))
        return f"exp({s}*u) - exp({s}*v)"
    if kind == 4:
        return f"(1 + {_num(rng.uniform(0.1, 1.0))}*u^2)*(sqrt(u) - sqrt(v))"
    p = _num(rng.uniform(0.3, 2.5))
    return f"u^{p} - v^{p}"


def _weight(rng):
    kind = int(rng.integers(5))
    if kind == 0:
        return float(_num(rng.uniform(0.5, 3.0)))
    if kind == 1:
        return f"1 + {_num(rng.uniform(0.1, 1.0))}*u^2"
    if kind == 2:
        return f"exp(-{_num(rng.uniform(0.1, 0.5))}*u)"
    if kind == 3:
        return f"1/(1 + {_num(rng.uniform(0.2, 2.0))}*u)"
    return f"sqrt(u) + {_num(rng.uniform(0.1, 1.0))}"


def _injection(rng, n: int) -> list:
    k = int(rng.integers(1, n + 1))
    return [int(v) for v in rng.permutation(np.arange(1, n + 1))[:k]]


def nested_suite() -> dict:
    """Scalar cases of ``reduction-oracles`` plus generated reduction cases.

    Generated cases alternate deviation reductions (deviations given as
    expressions) and weighted-arithmetic reductions (weights as expressions
    or numbers), with n cycling through 2..6.  Like the packaged suites the
    cases are a fixed corpus; the run seed reaches them through ``verify
    --seed``, which draws every sampled tuple.  Drawing the cases themselves
    from the run seed would make the pass time depend on which expressions
    and injections a seed happens to pick.
    """
    packaged = [c for c in suites.load_suite("reduction-oracles")["cases"] if "dim" not in c]
    rng = np.random.default_rng(NESTED_CORPUS_SEED)
    cases = []
    for j in range(NESTED_GENERATED):
        n = 2 + (j // 2) % 5
        if j % 2 == 0:
            cases.append({"type": "deviation-reduction", "name": f"gen-deviation-{j}-n{n}",
                          "domain": [0.2, 6.0], "tol": 1e-8, "samples": 4,
                          "exprs": [_deviation_expr(rng) for _ in range(n)],
                          "chi": _injection(rng, n)})
        else:
            cases.append({"type": "weighted-arith-reduction", "name": f"gen-weighted-{j}-n{n}",
                          "domain": [0.2, 6.0], "samples": 12,
                          "weights": [_weight(rng) for _ in range(n)],
                          "chi": _injection(rng, n)})
    return {"schema": 1, "name": "nested-scalar", "cases": packaged + cases}


# ---------------------------------------------------------------- vectors


@dataclasses.dataclass
class HullProblem:
    """One problem of the corpus, as drawn (before the seeded frame)."""

    index: int
    n: int
    d: int
    slots: list          # ("quadratic", A) or ("quartic", c)
    cloud: list          # n points in [-2, 2]^d
    chi: list
    weights: list        # inner-product weights for the reduction check
    reduction_seed: int  # seed of the reduction check's data draw


def vector_corpus(count: int = VECTOR_PROBLEMS, seed: int = VECTOR_CORPUS_SEED) -> list:
    """Problems in the style of acceptance criterion 5, clouds not redrawn.

    n in 2..5, d in 1..4, the first potential quadratic and each other one
    quartic with probability 0.3, points uniform in [-2, 2]^d.
    """
    rng = np.random.default_rng(seed)
    problems = []
    for index in range(count):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(1, 5))
        slots = [("quadratic", _spd(rng, d))]
        for _ in range(n - 1):
            if rng.uniform() < 0.3:
                slots.append(("quartic", float(rng.uniform(0.2, 1.0))))
            else:
                slots.append(("quadratic", _spd(rng, d)))
        slots = [slots[j] for j in rng.permutation(n)]
        cloud = [rng.uniform(-2.0, 2.0, d) for _ in range(n)]
        chi = _injection(rng, n)
        weights = [(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.0, 1.0)))
                   for _ in range(n)]
        problems.append(HullProblem(index, n, d, slots, cloud, chi, weights,
                                    int(rng.integers(0, 2 ** 31))))
    return problems


def _spd(rng, d: int) -> np.ndarray:
    B = rng.uniform(-1.0, 1.0, (d, d))
    return B @ B.T + np.eye(d) * float(rng.uniform(0.5, 1.5))


def _frame(rng, d: int) -> np.ndarray:
    """A random orthogonal matrix (Haar measure)."""
    Q, R = np.linalg.qr(rng.standard_normal((d, d)))
    return Q * np.sign(np.diag(R))


def _diffs(u: str, v: str, d: int) -> list:
    return [f"({u}{i + 1} - {v}{i + 1})" for i in range(d)]


def _sq_norm(terms: list) -> str:
    return " + ".join(f"{t}^2" for t in terms)


def _deviation_exprs(slot, d: int) -> list:
    """Covector coordinates of E = -grad_v F as expressions."""
    kind, param = slot
    diffs = _diffs("u", "v", d)
    if kind == "quadratic":
        return ["2*(" + " + ".join(f"{float(param[r, c])!r}*{diffs[c]}" for c in range(d)) + ")"
                for r in range(d)]
    return [f"4*{param!r}*({_sq_norm(diffs)})*{diffs[r]}" for r in range(d)]


def _potential_expr(slot, d: int) -> str:
    kind, param = slot
    diffs = _diffs("v", "u", d)
    if kind == "quadratic":
        return " + ".join(f"{float(param[r, c])!r}*{diffs[r]}*{diffs[c]}"
                          for r in range(d) for c in range(d))
    return f"{param!r}*({_sq_norm(diffs)})^2"


def _potential_fn(slot, d: int):
    kind, param = slot
    if kind == "quadratic":
        def feval(u, v, A=param):
            diff = np.asarray(v, float) - np.asarray(u, float)
            return float(diff @ A @ diff)

        def fgrad(u, v, A=param):
            return 2.0 * A @ (np.asarray(v, float) - np.asarray(u, float))
    else:
        def feval(u, v, c=param):
            diff = np.asarray(v, float) - np.asarray(u, float)
            return c * float(diff @ diff) ** 2

        def fgrad(u, v, c=param):
            diff = np.asarray(v, float) - np.asarray(u, float)
            return 4.0 * c * float(diff @ diff) * diff
    return vector.PotentialFn(dim=d, eval=feval, grad_v=fgrad, label=kind,
                              sample_low=-2.0, sample_high=2.0)


def _expression_potential(slot, d: int, deviation):
    """F as an expression, with grad_v F = -E from the built deviation."""
    names = tuple(f"u{i + 1}" for i in range(d)) + tuple(f"v{i + 1}" for i in range(d))
    compiled = parse_expression(_potential_expr(slot, d), allowed=names)

    def feval(u, v, c=compiled):
        return c(**point_vars("u", u), **point_vars("v", v))

    def fgrad(u, v, e=deviation):
        return -e.grad(np.asarray(u, float), np.asarray(v, float))

    return vector.PotentialFn(dim=d, eval=feval, grad_v=fgrad, label=slot[0],
                              sample_low=-2.0, sample_high=2.0)


def _reduction_weight(weight, d: int, as_expression: bool):
    a, b = weight
    if as_expression:
        text = f"{a!r} + {b!r}/(1 + {_sq_norm([f'u{i + 1}' for i in range(d)])})"
        compiled = parse_expression(text, allowed=tuple(f"u{i + 1}" for i in range(d)))
        return lambda u, c=compiled: c(**point_vars("u", u))
    return lambda u, a=a, b=b: a + b / (1.0 + float(np.asarray(u) @ np.asarray(u)))


class BuiltProblem:
    """A corpus problem in its seeded frame, with everything built."""

    def __init__(self, problem: HullProblem, Q: np.ndarray):
        self.item = f"hull-{problem.index}"
        n, d = problem.n, problem.d
        self.slots = [(kind, Q @ p @ Q.T) if kind == "quadratic" else (kind, p)
                      for kind, p in problem.slots]
        self.x = tuple(Q @ p for p in problem.cloud)
        self.chi = Injection.of(problem.chi, n=n)
        self.reduction_seed = problem.reduction_seed
        # Even problems hand the solvers Python callables, odd ones
        # expressions through the descriptors.
        self.as_expression = problem.index % 2 == 1
        if self.as_expression:
            exprs = [_deviation_exprs(s, d) for s in self.slots]
            self.vi_desc = descriptors.MeanDescriptor(
                kind="gen-deviation", arity=n, dim=d, params={"exprs": exprs})
            self.E = [descriptors.build_gen_deviation(e, d) for e in exprs]
            # Not the custom-potential descriptor: its finite-difference
            # gradients stall above the default certificate tolerance (12 of
            # 24 such problems hit max_iter in a trial).
            self.F = [_expression_potential(s, d, e) for s, e in zip(self.slots, self.E)]
        else:
            self.F = [_potential_fn(s, d) for s in self.slots]
            self.E = [vector.make_potential_deviation(f) for f in self.F]
        # The reduction check uses inner-product deviations (weights
        # a + b / (1 + |u|^2)), the family of acceptance criterion 2.
        # Reducing the potential deviations themselves took 34-69 s for a
        # single sample on some problems, too long for any timed pass.
        self.E_reduce = [vector.inner_product_deviation(
            _reduction_weight(w, d, self.as_expression), d) for w in problem.weights]

    def solve(self):
        """Both routes, the VI certificate check and the reduction oracle."""
        if self.as_expression:
            _, vi = descriptors.evaluate_with_report(self.vi_desc, self.x)
        else:
            vi = vector.gen_deviation_mean(self.E, self.x)
        pot = vector.potential_mean(self.F, self.x)
        check = vector.verify_vi(self.E, self.x, vi.value, AGREE_TOL)
        oracle = reduction.check_deviation_reduction(
            self.E_reduce, self.chi, 1, AGREE_TOL, seed=self.reduction_seed)
        return vi, pot, check, oracle


def seeded_plan(seed: int, corpus: list) -> list:
    """(problem index, frame) pairs in the seed's problem order."""
    rng = np.random.default_rng([seed, 3])
    frames = [_frame(rng, p.d) for p in corpus]
    return [(int(i), frames[i]) for i in rng.permutation(len(corpus))]


class VectorHull:
    """Items are hull problems of a fixed corpus, each in a seeded frame.

    The seed draws one orthogonal frame per problem and the order of the
    problems.  Points and quadratic forms rotate together, so every solve
    keeps its iteration count while its numbers change; the reduction check
    (isotropic weights, data drawn in a box) is the same for every seed.
    Seeding the clouds themselves would make a pass a heavy-tailed random
    sum: a few near-degenerate clouds cost 10-100x the median problem.
    """

    name = "vector-hull"

    def __init__(self, seed: int, outdir: str):
        self.seed = seed
        self.problems = None
        self.tracer = None
        self.monitor = None

    def install(self, patcher):
        pass

    def build(self):
        corpus = vector_corpus()
        self.problems = [BuiltProblem(corpus[i], Q) for i, Q in seeded_plan(self.seed, corpus)]
        return self.problems

    def run_pass(self) -> PassResult:
        tracer = self.tracer
        monitor = self.monitor
        latencies, failed, wrong = [], [], []
        digest = hashlib.sha256()
        pass_token = monitor.start()
        for problem in self.problems:
            item = f"{problem.item}@{self.seed}"
            frame = None
            if tracer is not None:
                tracer.item = item
                frame = tracer.open("item")
            token = monitor.start()
            try:
                vi, pot, check, oracle = problem.solve()
            finally:
                elapsed = monitor.stop(token)
                if frame is not None:
                    tracer.close(frame)
                    tracer.item = None
            latencies.append((item, elapsed))
            gap = float(np.linalg.norm(np.asarray(vi.value) - np.asarray(pot.value)))
            reasons = []
            if not vi.converged:
                reasons.append(f"VI solve not converged after {vi.iterations} iterations")
            if not pot.converged:
                reasons.append(f"potential solve not converged after {pot.iterations} iterations")
            if not check.ok:
                reasons.append(f"verify_vi slack {check.worst_slack:.3g}")
            if gap > AGREE_TOL:
                reasons.append(f"routes disagree by {gap:.3g}")
            if not oracle.passed:
                reasons.append(f"reduction oracle error {oracle.max_abs_error:.3g}")
            if reasons:
                failed.append((item, "; ".join(reasons)))
            if vi.converged and not check.ok:
                wrong.append((item, "converged VI certificate fails verify_vi"))
            if vi.converged and pot.converged and gap > AGREE_TOL:
                wrong.append((item, f"both routes converged but disagree by {gap:.3g}"))
            for arr in (vi.value, pot.value):
                digest.update(np.asarray(arr, dtype=float).tobytes())
            digest.update(repr((vi.iterations, pot.iterations, oracle.max_abs_error)).encode())
        return PassResult(monitor.stop(pass_token), latencies, failed, wrong, digest.hexdigest())


WORKLOADS = {w.name: w for w in (ScalarLab, NestedScalar, VectorHull)}


def make(name: str, seed: int, outdir: str):
    return WORKLOADS[name](seed, outdir)
