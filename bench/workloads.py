"""Seeded operation generators for the three benchmark workloads.

Every workload is an endless sequence of rounds.  A round holds one
operation per named family (and, for ``evaluate``, one per operation kind
and family), in a seeded order, so that a run of any length covers the
families evenly.  Continuous parameters come from stratified sequences
(below): any prefix spreads evenly over the whole range, which keeps the
run-to-run spread of the medians small without narrowing the range.  No two operations of a run share a (family, parameters, q)
triple, so no operation is served from a cache filled by an earlier one.

Draw ranges (u = p (1 - q^2) for the generalized q-Hermite family):

* ultraspherical: alpha in (-1/2, 2), beta in (-1, 2), the classical
  range alpha > -1/2, beta > -1, cut at 2 because the weight underflows in
  double precision as 1 - alpha q (1 - q^2) approaches 0.
* hermite: u in [-1/2, 1).  The top end is the admissibility bound
  p (1 - q^2) < 1; draws with q (1 + u) near or above 1 make the Jackson
  sums decay slowly or not at all and show up as FAIL lines in the check
  workloads.  Below u = -1/2 the weight table underflows at depth 700.
* quadrature operations additionally keep q (1 + u) <= 0.95, so that the
  Jackson sum converges and the depth can be chosen to make its
  truncation error negligible; the check workloads cover the rest.

No timed operation fails at the baseline commit (BASELINE.md): an operation
that fails is counted, and the count must not depend on how many
operations a run of fixed length completes.  What fails at that commit is
left out of the rounds and runs instead as the fixed operations of
``known_defects()``, once per run and untimed:

* ``export weight --family chebyshev5`` raises at |x| = 1 on every grid
  with its endpoints in, so that (kind, family) pair has no round slot;
* the CLI's ``eval`` exits 1 on about one operation in 1,400 at any n:
  near a root its agreement check compares a 1e-13 absolute difference
  with 1e-10 of a value that cancels to 1e-3 of the polynomial's
  magnitude.  So an ``eval`` operation computes the same three forms by
  direct library calls (``ops.library_eval``), and the benchmark checks
  each against its own recurrence;
* the 2phi1 form overflows from n = 48 at q = 0.3, so ``eval`` draws n
  from [8, 32], where all three forms agree to 1e-13 of sup |phi_n|;
* float quadrature misses ``favard_norm`` by more than 1e-8 at n = 10 and
  q below 0.35 (errors stay under 1e-13 for n <= 8), so quadrature draws
  n from [0, 8].
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

FAMILIES = ("ultraspherical", "chebyshev5", "chebyshev6", "hermite")

# (base, depth) of the stratified sequence of each drawn dimension; distinct
# bases keep the dimensions of one stream from moving together
_DIMS = {"q": (2, 6), "n": (3, 4), "a": (5, 3), "b": (7, 2)}

QUAD_DECAY_MAX = 0.95  # largest q * (weight power base) for quadrature ops
EVAL_POINTS = 201  # points of an eval grid across the support
QUAD_TAIL = 1e-14  # truncation error budget of the quadrature Jackson sums
EVAL_N = (8, 32)  # eval degrees: the 2phi1 form overflows from n = 48 at q = 0.3
QUAD_N = (0, 8)  # quadrature degrees: float norms within 1e-13 of favard_norm


@dataclass
class Op:
    """One operation: a CLI argv, or a library quadrature when argv is None."""

    kind: str  # check, eval, table, export-poly, export-weight, quadrature
    family: str
    params: dict
    q: float
    n: int | None = None
    argv: list | None = None
    out_path: str | None = None
    n_terms: int = 256
    grid: tuple | None = None  # (lo, hi, count) of an eval grid

    @property
    def key(self) -> tuple:
        return (self.family, tuple(sorted(self.params.items())), self.q)


class _Stratified:
    """Scrambled van der Corput draws in [0, 1).

    Every prefix of base^m draws (m <= depth) has one draw in each interval
    of length base^-m, and where inside its interval a draw falls is
    random.  So whatever number of operations a run completes, its inputs
    cover the range evenly, and the mean cost of a run varies little from
    seed to seed.
    """

    def __init__(self, rng: random.Random, base: int, depth: int):
        self.rng, self.base, self.depth = rng, base, depth
        self.perms: dict = {}
        self.k = 0

    def next(self) -> float:
        k, self.k = self.k, self.k + 1
        x, scale, prefix = 0.0, 1.0, ()
        for _ in range(self.depth):
            k, digit = divmod(k, self.base)
            perm = self.perms.get(prefix)
            if perm is None:
                perm = self.perms[prefix] = self.rng.sample(range(self.base), self.base)
            digit = perm[digit]
            scale /= self.base
            x += digit * scale
            prefix += (digit,)
        return x + scale * self.rng.random()


class _Stream:
    """The draws of one (kind, family) pair, one sequence per dimension."""

    def __init__(self, rng: random.Random):
        self.seq = {dim: _Stratified(rng, *bd) for dim, bd in _DIMS.items()}

    def draw(self, dim: str, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.seq[dim].next()

    def draw_int(self, dim: str, lo: int, hi: int) -> int:
        """Integer in [lo, hi], both ends included."""
        return min(hi, int(self.draw(dim, lo, hi + 1)))


def support(family: str, q: float) -> float:
    """Endpoint of the family's support: 1, or 1/sqrt(1 - q^2) for hermite."""
    return 1 / math.sqrt((1 + q) * (1 - q)) if family == "hermite" else 1.0


def family_argv(family: str, params: dict) -> list:
    if family == "ultraspherical":
        return ["--family", family, f"--alpha={params['alpha']!r}",
                f"--beta={params['beta']!r}"]
    if family == "hermite":
        return ["--family", family, f"--hermite-p={params['p']!r}"]
    return ["--family", family]


def _params(stream: _Stream, family: str, q: float, u_hi: float = 1.0) -> dict:
    if family == "ultraspherical":
        return {"alpha": stream.draw("a", -0.5, 2.0), "beta": stream.draw("b", -1.0, 2.0)}
    if family == "hermite":
        return {"p": stream.draw("a", -0.5, u_hi) / ((1 + q) * (1 - q))}
    return {}


class _Generator:
    def __init__(self, seed: int, tmpdir: str):
        self.rng = random.Random(seed)
        self.tmpdir = tmpdir
        self.streams: dict = {}
        self.used: set = set()
        self.count = 0

    def stream(self, *key) -> _Stream:
        if key not in self.streams:
            self.streams[key] = _Stream(self.rng)
        return self.streams[key]

    def unique(self, make):
        """Call make() until it returns an op with an unused triple."""
        while True:
            op = make()
            if op.key not in self.used:
                self.used.add(op.key)
                self.count += 1
                return op

    def families(self) -> list:
        order = list(FAMILIES)
        self.rng.shuffle(order)
        return order


def _check_op(gen: _Generator, family: str, q_lo: float, q_hi: float, extra: list) -> Op:
    s = gen.stream("check", family)

    def make():
        q = s.draw("q", q_lo, q_hi)
        params = _params(s, family, q)
        argv = ["check", "all", f"-q{q!r}"] + extra + family_argv(family, params)
        return Op("check", family, params, q, argv=argv)

    return gen.unique(make)


def check_deep_rounds(seed: int, tmpdir: str):
    """check all at q = 0.9 (drawn from [0.899, 0.901] so that the
    parameter-free chebyshev families never repeat a triple), depth 700."""
    gen = _Generator(seed, tmpdir)
    while True:
        yield [_check_op(gen, f, 0.899, 0.901, ["--n-terms", "700", "--n-max", "10"])
               for f in gen.families()]


def check_sweep_rounds(seed: int, tmpdir: str):
    """check all at the CLI defaults (depth 256, n-max 10), q in [0.3, 0.7]."""
    gen = _Generator(seed, tmpdir)
    while True:
        yield [_check_op(gen, f, 0.3, 0.7, []) for f in gen.families()]


def _evaluate_op(gen: _Generator, kind: str, family: str) -> Op:
    s = gen.stream(kind, family)

    def make():
        q = s.draw("q", 0.3, 0.9)
        if kind == "quadrature":
            params = _params(s, family, q, u_hi=min(1.0, QUAD_DECAY_MAX / q - 1))
            op = Op(kind, family, params, q, n=s.draw_int("n", *QUAD_N))
            op.n_terms = _quadrature_depth(op)
            return op
        params = _params(s, family, q)
        if kind == "eval":
            S = support(family, q)
            return Op(kind, family, params, q, n=s.draw_int("n", *EVAL_N),
                      grid=(-S, S, EVAL_POINTS))
        common = [f"-q{q!r}"] + family_argv(family, params)
        path = f"{gen.tmpdir}/op{gen.count}.json"
        if kind == "export-weight":
            return Op(kind, family, params, q, out_path=path,
                      argv=["export", "weight", "-o", path] + common)
        n = s.draw_int("n", 8, 64)
        if kind == "export-poly":
            return Op(kind, family, params, q, n=n, out_path=path,
                      argv=["export", "poly", "-n", str(n), "-o", path] + common)
        return Op(kind, family, params, q, n=n, argv=["table", "--n-max", str(n)] + common)

    return gen.unique(make)


EVALUATE_KINDS = ("eval", "table", "export-poly", "export-weight", "quadrature")
EVALUATE_SKIP = {("export-weight", "chebyshev5")}  # raises: one of known_defects()


def evaluate_rounds(seed: int, tmpdir: str):
    """Value-producing operations that never assemble a Gram matrix."""
    gen = _Generator(seed, tmpdir)
    while True:
        ops = [_evaluate_op(gen, k, f) for f in FAMILIES for k in EVALUATE_KINDS
               if (k, f) not in EVALUATE_SKIP]
        gen.rng.shuffle(ops)
        yield ops


def power_base(op: Op) -> float:
    """1 + d (q - 1) / b, the base of the weight's x-power; the Jackson
    sums of W* decay like (q * base)^j."""
    q = op.q
    if op.family == "hermite":
        return 1 + op.params["p"] * (1 + q) * (1 - q)
    if op.family == "ultraspherical":
        alpha = op.params["alpha"]
    else:
        alpha = 1.0
    return 1 - alpha * q * (1 + q) * (1 - q)


def _quadrature_depth(op: Op) -> int:
    """Grid depth that makes the truncated tail of the Jackson sum
    negligible, capped before the squared grid point x^2 underflows."""
    r = op.q * power_base(op)
    need = math.ceil(math.log(QUAD_TAIL * (1 - r)) / math.log(r))
    return max(256, min(need, int(-150 * math.log(10) / math.log(op.q))))


def known_defects(tmpdir: str) -> dict:
    """Fixed operations that fail at the baseline commit, by name.

    They are the failing ranges left out of the rounds, plus one the
    draws never reach (p = 0.5 exactly), and a run reports which of them
    still fail.
    """
    def cli(kind, family, params, q, argv, **fields):
        return Op(kind, family, params, q, **fields,
                  argv=argv + [f"-q{q!r}"] + family_argv(family, params))

    def cli_eval(family, params, q, n):
        S = support(family, q)
        return cli("eval", family, params, q,
                   ["eval", "-n", str(n), f"--grid={-S!r}:{S!r}:{EVAL_POINTS}"],
                   n=n, grid=(-S, S, EVAL_POINTS))

    quad = Op("quadrature", "chebyshev5", {}, 0.3, n=10)
    quad.n_terms = _quadrature_depth(quad)
    path = f"{tmpdir}/defect-export-weight.json"
    return {
        "export-weight-chebyshev5-endpoint": cli(
            "export-weight", "chebyshev5", {}, 0.5, ["export", "weight", "-o", path],
            out_path=path),
        "cli-eval-near-root": cli_eval("chebyshev6", {}, 0.5090498429095429, 8),
        "cli-eval-small-q": cli_eval("chebyshev6", {}, 0.4, 56),
        "cli-eval-hermite-top": cli_eval("hermite", {"p": 0.999 / ((1 + 0.9) * (1 - 0.9))}, 0.9, 26),
        "cli-eval-2phi1-overflow": cli_eval("chebyshev5", {}, 0.3, 60),
        "quadrature-off-favard-n10": quad,
        "check-hermite-p-half": cli("check", "hermite", {"p": 0.5}, 0.3, ["check", "all"]),
    }


WORKLOADS = {
    "check-deep": check_deep_rounds,
    "check-sweep": check_sweep_rounds,
    "evaluate": evaluate_rounds,
}
