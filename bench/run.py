"""qsympoly benchmark: seeded closed-loop workloads with checked outputs.

    python3 bench/run.py --workload check-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
./src.  One client issues one operation at a time and the next starts when
the previous returns, as a CLI user waits for each result.  The last line
of stdout is a JSON object with the keys correct, attempted, failed and
metrics: the gated end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  Every metric, the environment, the failure
reasons and the state of each known defect are printed above it and
written to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

import mpmath

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_SPAWNS = 7  # cold interpreters timed per run, spread over the run
SETUP_CODE = "import qsympoly.cli, mpmath; print(mpmath.libmp.BACKEND)"
DEPS_CODE = "import numpy, mpmath"  # the third-party part of SETUP_CODE
DEPS_NOMINAL_S = 0.25  # DEPS_CODE in a cold interpreter on the baseline 2-vCPU VM
REF_INTERVAL = 0.25  # seconds of wall time between reference samples
REF_WINDOW = 1.0  # samples this close to an operation set its reference time
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
LOG_FLOOR = 1e-300

# untimed operations that load what the workload's operations load lazily
WARMUP = {
    "check": [["check", "all", "-q", "0.25", "--n-max", "2", "--family", "chebyshev6"]],
    "evaluate": [["eval", "-n", "2", "-x", "0.5", "-q", "0.25", "--family", "chebyshev6"],
                 ["table", "--n-max", "2", "-q", "0.25", "--family", "chebyshev6"]],
}


def _fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def _parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def _spawn(code: str) -> tuple:
    """(wall seconds, stdout) of a fresh interpreter running `code`."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    seconds = perf_counter() - t0
    if proc.returncode != 0:
        _fail(f"interpreter failed: {proc.stderr.strip()}")
    return seconds, proc.stdout.strip()


def spawn_setup() -> tuple:
    """(seconds at the nominal host speed, seconds as measured) of a cold
    interpreter importing qsympoly.cli and mpmath.

    Spawn times drift with the host by up to 40% between runs a few
    minutes apart, and import-heavy start-ups drift by other amounts than
    bare ones or pure-Python loops.  So the time is divided by that of a
    cold interpreter importing only the third-party modules (DEPS_CODE),
    the same kind of work, just before and just after it, and scaled by
    DEPS_NOMINAL_S.  What qsympoly adds to start-up, or takes away from
    it by importing less, moves the ratio.
    """
    deps = _spawn(DEPS_CODE)[0]
    seconds = _spawn(SETUP_CODE)[0]
    deps = (deps + _spawn(DEPS_CODE)[0]) / 2
    return seconds * DEPS_NOMINAL_S / deps, seconds


def reference_kernel() -> float:
    """Seconds taken by a fixed piece of pure-Python work that shares no
    code with qsympoly: the speed of the machine at that moment.  Half of
    it is float and integer arithmetic, half 40-digit mpmath products, the
    two kinds of work the workloads do."""
    t0 = perf_counter()
    x, big = 0.5, 1
    for j in range(5_000):
        x = x * 0.999 + 1.0 / (1.0 + j * 1e-3)
        big = (big * 1_000_003 + j) & ((1 << 192) - 1)
    with mpmath.workdps(40):
        p, b, f = mpmath.mpf(1), mpmath.mpf(0.81), mpmath.mpf(1) / 3
        for _ in range(250):
            p *= 1 - f
            f *= b
    return perf_counter() - t0


class SpeedSampler:
    """Times the reference kernel every REF_INTERVAL seconds of wall time,
    from a SIGALRM handler, so also in the middle of long operations.

    The host's speed drifts by tens of percent within a minute, and process
    CPU time drifts with it.  An operation's time divided by the kernel
    samples taken during it (or next to it, for short operations) is its
    time in reference units, which stays put while the host drifts.  The
    handler's own time is recorded so that it can be taken out of the
    operations it interrupted.
    """

    def __init__(self):
        self.times: list = []  # perf_counter() at each sample
        self.kernel: list = []  # kernel seconds of each sample
        self.spent = 0.0  # seconds spent in the handler

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        self.kernel.append(reference_kernel())
        self.times.append(t0)
        self.spent += perf_counter() - t0

    def start(self) -> None:
        if not self.times:
            self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL, REF_INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def around(self, t0: float, t1: float) -> float:
        """Mean kernel time of the samples within REF_WINDOW of [t0, t1]."""
        lo = bisect.bisect_left(self.times, t0 - REF_WINDOW)
        hi = bisect.bisect_right(self.times, t1 + REF_WINDOW)
        if lo == hi:  # no sample near: take the nearest one
            lo, hi = max(0, lo - 1), min(len(self.times), lo + 1)
        return statistics.fmean(self.kernel[lo:hi])


def run_segment(rounds, seconds: float, results: list, tracer=None, spawns=0) -> list:
    """Issue whole rounds, one operation at a time, while the next round is
    expected to end within `seconds` of run time (at least one round).

    Returns `spawn_setup()` of `spawns` cold interpreters started between
    operations, spread over the run; neither they nor the sampler count as
    run time.
    """
    import ops

    sampler = SpeedSampler()
    setup: list = []
    paused = 0.0
    start = perf_counter()
    first = len(results)

    def run_time():
        return perf_counter() - start - paused - sampler.spent

    sampler.start()
    try:
        while True:
            round_start = run_time()
            for op in next(rounds):
                before = sampler.spent
                res = ops.execute(op, tracer, len(results))
                res.seconds -= sampler.spent - before  # the handler ran inside
                ops.classify(op, res)
                res.stdout = res.stderr = res.file = res.value = None  # keep memory flat
                results.append((op, res))
                if len(setup) < spawns and run_time() >= len(setup) * seconds / spawns:
                    t0 = perf_counter()
                    sampler.stop()
                    setup.append(spawn_setup())
                    sampler.start()
                    paused += perf_counter() - t0
            now = run_time()
            if now + (now - round_start) > seconds:
                break
    finally:
        sampler.stop()
    while len(setup) < spawns:
        setup.append(spawn_setup())
    for _, res in results[first:]:
        res.ref = sampler.around(res.start, res.end)
    return setup


def environment(seed: int, backend: str) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "qsympoly").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "mpmath": version("mpmath"),
        "mpmath_backend": backend,
        "numpy": version("numpy"),
        "nproc": nproc,
        "seed": seed,
    }


def _metric(value, unit, **extra) -> dict:
    return {"value": value, "unit": unit, **extra}


def tail(times: list) -> dict | None:
    """Highest standard percentile with at least 10 samples beyond it."""
    n = len(times)
    ordered = sorted(times)
    for level in TAIL_LEVELS:
        rank = math.ceil(level * n / 100)  # nearest rank
        if n - rank >= 10:
            return _metric(ordered[rank - 1], "s", percentile=level, samples=n)
    return None


def end_to_end(results: list, setup: list) -> tuple:
    """(gated metrics, report-only metrics) of an untraced segment."""
    times = [r.seconds for _, r in results]
    rel = [r.seconds / r.ref for _, r in results]
    values = sum(r.values for _, r in results)
    gated = {
        "setup_s": _metric(statistics.median(s for s, _ in setup), "s"),
        "op_p50_ref": _metric(statistics.median(rel), "ref"),
        "ops_per_ref": _metric(len(rel) / sum(rel), "1/ref"),
        "values_per_ref": _metric(values / sum(rel), "1/ref"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "setup_raw_s": _metric(statistics.median(raw for _, raw in setup), "s"),
        "op_p50_s": _metric(statistics.median(times), "s"),
        "ops_per_s": _metric(len(times) / sum(times), "1/s"),
        "values_per_s": _metric(values / sum(times), "1/s"),
        "ref_s": _metric(statistics.median(r.ref for _, r in results), "s"),
        "failed_ratio": _metric(sum(1 for _, r in results if r.failure) / len(results), "ratio"),
    }
    t = tail(times)
    if t:
        extra["op_tail_s"] = t
    checks = [r for op, r in results if op.kind == "check"]
    if checks:
        extra["check_fail_lines"] = _metric(sum(r.fail_lines for r in checks), "count")
        logs = [math.log10(max(r.ortho_residual, LOG_FLOOR)) for r in checks
                if r.ortho_residual is not None and math.isfinite(r.ortho_residual)]
        if logs:
            extra["ortho_residual_log10"] = _metric(statistics.median(logs), "log10",
                                                    nonfinite=len(checks) - len(logs))
    devs = [d for _, r in results for d in r.form_devs]
    if devs:
        extra["form_dev_log10"] = _metric(statistics.median(devs), "log10", points=len(devs))
    return gated, extra


def per_layer(tracer, results: list, untraced: list, ladder_delta: tuple) -> dict:
    """Per-operation means of the traced segment's span statistics."""
    from tracer import BOUNDARIES

    n_ops = len(results)
    calls = [0] * len(tracer.names)
    busy = [0.0] * len(tracer.names)
    own = [0.0] * len(tracer.names)
    for (name, start, end, _, _), self_s in zip(tracer.records(), tracer.self_times()):
        calls[name] += 1
        busy[name] += end - start
        own[name] += self_s
    out = {}
    for module, funcs in BOUNDARIES.items():
        total = 0.0
        for func in funcs:
            i = tracer.names.index(f"{module}.{func}")
            out[f"{module}.{func}.calls"] = _metric(calls[i] / n_ops, "calls/op")
            out[f"{module}.{func}.busy_s"] = _metric(busy[i] / n_ops, "s/op")
            out[f"{module}.{func}.self_s"] = _metric(own[i] / n_ops, "s/op")
            total += own[i]
        out[f"{module}.self_s"] = _metric(total / n_ops, "s/op")
    hits, misses = ladder_delta
    out["sympoly.monic_ladder.hit_ratio"] = _metric(
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    n_checks = sum(1 for op, _ in results if op.kind == "check")
    gram = calls[tracer.names.index("families.orthogonality_matrix")]
    out["families.gram_per_check"] = _metric(gram / n_checks if n_checks else 0.0, "calls/op")

    def p50(rs):
        return statistics.median(r.seconds / r.ref for _, r in rs)

    out["trace.overhead"] = _metric(p50(results) / p50(untraced), "ratio")
    return out


def _ladder_info(fn) -> tuple:
    info = getattr(fn, "cache_info", None)  # absent once the ladder cache is gone
    if info is None:
        return (0, 0)
    i = info()
    return (i.hits, i.misses)


def _warmup_op(argv):
    from workloads import Op

    return Op("warmup", "chebyshev6", {}, 0.25, argv=argv)


def main(argv=None) -> int:
    if not (SRC / "qsympoly" / "__init__.py").is_file():
        _fail(f"no qsympoly sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    args = _parse_args(argv)

    import ops
    import workloads
    from qsympoly import cli

    if Path(cli.__file__).resolve().parents[1] != SRC:
        _fail(f"qsympoly was imported from {cli.__file__}, not from {SRC}")

    out_dir = BENCH / "out"
    tmp = BENCH / "tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir.mkdir(exist_ok=True)
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        backend = _spawn(SETUP_CODE)[1]  # also writes the bytecode caches before timing
        env = environment(args.seed, backend)
        for argv_ in WARMUP["evaluate" if args.workload == "evaluate" else "check"]:
            ops.execute(_warmup_op(argv_))
        defects = {name: ops.classify(op, ops.execute(op))
                   for name, op in workloads.known_defects(str(tmp)).items()}
        rounds = workloads.WORKLOADS[args.workload](args.seed, str(tmp))
        results: list = []
        extra: dict = {}
        if args.trace:
            from qsympoly import sympoly
            from tracer import Tracer

            untraced: list = []
            run_segment(rounds, args.seconds / 2, untraced)
            before = _ladder_info(sympoly.monic_ladder)
            tracer = Tracer()
            tracer.install()
            try:
                run_segment(rounds, args.seconds / 2, results, tracer)
            finally:
                tracer.uninstall()
            after = _ladder_info(sympoly.monic_ladder)
            metrics = per_layer(tracer, results, untraced,
                                (after[0] - before[0], after[1] - before[1]))
            tracer.write(str(out_dir / f"spans-{args.workload}-s{args.seed}"))
            results = untraced + results
        else:
            setup = run_segment(rounds, args.seconds, results, spawns=SETUP_SPAWNS)
            metrics, extra = end_to_end(results, setup)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failures: dict = {}
    kinds: dict = {}
    for op, r in results:
        kinds[op.kind] = kinds.get(op.kind, 0) + 1
        if r.failure:
            key = f"{op.kind} {op.family}: {r.failure}"
            failures[key] = failures.get(key, 0) + 1
    failed = sum(failures.values())
    correct = not any(r.malformed for _, r in results) and \
        not any(r.malformed for r in defects.values())
    known = {name: r.failure or "passes" for name, r in defects.items()}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "operations": kinds,
        "failures": failures, "known_defects": known, "metrics": metrics,
        "report_only": extra,
    }
    name = f"report-{args.workload}-s{args.seed}-t{args.trace}.json"
    (out_dir / name).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  operations {len(results)}  "
          f"failed {failed}  correct {correct}")
    print("environment " + json.dumps(env, sort_keys=True))
    for reason, count in sorted(failures.items()):
        print(f"  failure x{count}: {reason}")
    for name, outcome in known.items():
        print(f"  known defect {name}: {outcome}")
    for key, m in {**metrics, **extra}.items():
        notes = ", ".join(f"{k} {v}" for k, v in m.items() if k not in ("value", "unit"))
        print(f"  {key:44s} {m['value']:.6g} {m['unit']}" + (f"  ({notes})" if notes else ""))
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
