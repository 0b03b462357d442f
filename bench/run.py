"""Layered benchmark for dutchbook.  Stdlib only.

Usage, from the root of a checkout:

    python3 bench/run.py --workload euro-market --seed 1 --seconds 32 --trace 0
    python3 bench/run.py --record          # re-record bench/answers.json

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1``
the per-layer ones, taken by wrapping the package's layer boundaries
from outside (see ``tracer.py``).  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Human-readable lines and a ``meta`` JSON line come before it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from calibrate import REFERENCE_S, kernel_seconds, scaled

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
ANSWERS = BENCH / "answers.json"

SETUP_RUNS = 5  # before the timed loop, and again after it
RECORDED_SEEDS = range(0, 24)
HELD_OUT_SEED = 7919  # never used while tuning: check claims on it too
TAIL_BEYOND = 10  # the tail percentile keeps this many samples beyond it
IMPORT_PROBES = 5

END_TO_END = (
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit, span whose self time it is, or None for a counter)
PER_LAYER = (
    ("io.parse_ms", "ms", "io.parse"),
    ("io.rows", "count", None),
    ("io.serialize_ms", "ms", "io.serialize"),
    ("sureloss.verdict_ms", "ms", "sureloss.verdict"),
    ("sureloss.verdicts", "count", None),
    ("coupons.sweep_ms", "ms", "coupons.sweep"),
    ("coupons.gamble_ms", "ms", "coupons.gamble"),
    ("coupons.price_ms", "ms", "coupons.price"),
    ("coupons.pairs", "count", None),
    ("coupons.exploitable_pairs", "count", None),
    ("choquet.price_ms", "ms", "choquet.price"),
    ("choquet.prices", "count", None),
    ("choquet.decompose_ms", "ms", "choquet.decompose"),
    ("choquet.levels", "count", None),
    ("strategy.best_ms", "ms", "strategy.best"),
    ("strategy.strategy_ms", "ms", "strategy.strategy"),
    ("strategy.dual_ms", "ms", "strategy.dual"),
    ("strategy.stakes_ms", "ms", "strategy.stakes"),
    ("strategy.certificate_ms", "ms", "strategy.certificate"),
    ("strategy.verify_ms", "ms", "strategy.verify"),
    ("strategy.strategies", "count", None),
    ("strategy.certificate_checks", "count", None),
    ("strategy.stake_rows", "count", None),
    ("strategy.stake_ops", "computed-ops", None),
    ("strategy.stake_retries", "count", None),
    ("cli.render_ms", "ms", "cli.main"),
    ("request.self_ms", "ms", "request"),
)

# per-layer metrics computed from the whole traced run
DERIVED = (
    ("coupons.exploitable_share", "ratio"),
    ("coupons.useful_ratio", "ratio"),
    ("cli.import_ms", "ms"),
    ("cli.startup_ms", "ms"),
    ("trace.requests", "count"),
    ("trace.rps_untraced", "1/s"),
    ("trace.rps_traced", "1/s"),
    ("trace.overhead_pct", "%"),
)


def _package_present() -> bool:
    return (ROOT / "src" / "dutchbook" / "__init__.py").is_file()


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _source_digest() -> str:
    """Identifies the measured code where the checkout has no git history."""
    from workloads import digest

    src = ROOT / "src" / "dutchbook"
    files = sorted(p for p in src.rglob("*") if p.suffix in (".py", ".csv"))
    return digest(
        b"".join(p.relative_to(src).as_posix().encode() + p.read_bytes() for p in files)
    )[:16]


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def _tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) for the highest percentile that
    still has ``TAIL_BEYOND`` samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, (n - 1) // 2)  # short runs: no lower than p50
    return ordered[n - 1 - beyond], 100 * (n - beyond) / n, beyond


def _setup(workload) -> tuple[list[float], list[float]]:
    """Wall times of ``SETUP_RUNS`` set-ups, and the kernel times around them."""
    times, kernels = [], [kernel_seconds()]
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)
        kernels.append(kernel_seconds())
    return times, kernels


def _check(workload, answers) -> tuple[list[str], int]:
    wrong = []
    failed = 0
    for item, answer in answers:
        if isinstance(answer, Exception):
            problems = [f"item {item}: {type(answer).__name__}: {answer}"]
        else:
            problems = workload.check(item, answer)
        failed += bool(problems)
        wrong += problems
    return wrong, failed


def run_untraced(workload, seconds: float) -> dict:
    setup_walls, setup_kernels = _setup(workload)
    n_items = workload.items()
    if workload.name == "cli":
        workload.request(0)  # untimed: warms the page cache for the child
    walls = []
    kernels = [kernel_seconds()]
    answers = []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        item = i % n_items
        t0 = time.perf_counter()
        try:
            answer = workload.request(item)
        except Exception as exc:  # counted as a failed request below
            answer = exc
        walls.append(time.perf_counter() - t0)
        answers.append((item, answer))
        kernels.append(kernel_seconds())
        i += 1
        # stop at the end of the cycle through the inputs that ends nearest
        # the deadline, so every input weighs the same in every run
        if i % n_items == 0:
            now = time.perf_counter()
            if now + (now - start) / (i // n_items) / 2 >= deadline:
                break
    wrong, failed = _check(workload, answers)
    wrong += workload.finish()
    # set up again a run's length later, so one burst of host noise cannot
    # move the median
    more_walls, more_kernels = _setup(workload)
    setups = scaled(setup_walls, setup_kernels) + scaled(more_walls, more_kernels)
    latencies = scaled(walls, kernels)
    tail, percentile, beyond = _tail(latencies)
    attempted = len(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "requests_per_s": attempted / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": _peak_rss_mb(children=workload.name == "cli"),
    }
    extra = {
        "failed_ratio": failed / attempted,
        "latency_tail": {
            "percentile": round(percentile, 2),
            "samples": attempted,
            "beyond": beyond,
        },
        "cycles": attempted // n_items,
        "reference_s": REFERENCE_S,
        "kernel_s_median": statistics.median(kernels),
        "wall": {
            "setup_s": statistics.median(setup_walls + more_walls),
            "requests_per_s": attempted / sum(walls),
            "latency_p50_ms": statistics.median(walls) * 1e3,
        },
    }
    if workload.name == "wide-positions":
        extra["exploitable_share"] = workload.exploitable / workload.priced
        extra["pinned"] = workload.expected is not None
    return dict(
        metrics=metrics,
        units=dict(END_TO_END),
        attempted=attempted,
        failed=failed,
        wrong=wrong,
        extra=extra,
    )


def _import_ms(env) -> float:
    """Median of (import dutchbook.cli) minus (pass), each a subprocess."""
    diffs = []
    for _ in range(IMPORT_PROBES):
        walls = []
        for code in ("import dutchbook.cli", "pass"):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
            walls.append(time.perf_counter() - t0)
        diffs.append(walls[0] - walls[1])
    return statistics.median(diffs) * 1e3


def run_traced(workload, seconds: float, spans_path: Path) -> dict:
    from tracer import Tracer

    workload.setup()
    tracer = Tracer()
    with tracer.installed(), tracer.root(-1, "setup"):
        workload.prepare()
    is_cli = workload.name == "cli"
    n_items = workload.items()
    if is_cli:
        workload.request(0)
    plain, traced, startup = [], [], []
    answers = []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i == 0:
        item = i % n_items
        try:
            if is_cli:
                t0 = time.perf_counter()
                answers.append((item, workload.request(item)))
                sub = time.perf_counter() - t0
            # alternate who goes first, and for each item from cycle to cycle
            traced_first = (i + i // n_items) % 2 == 1
            for with_trace in (traced_first, not traced_first):
                with tracer.installed() if with_trace else nullcontext():
                    t0 = time.perf_counter()
                    with tracer.root(i, "request") if with_trace else nullcontext():
                        answers.append((item, workload.inprocess(item)))
                    (traced if with_trace else plain).append(time.perf_counter() - t0)
        except Exception as exc:  # counted as a failed request below
            answers.append((item, exc))
        else:
            if is_cli:
                startup.append(sub - plain[-1])
        i += 1
    wrong, failed = _check(workload, answers)
    wrong += workload.finish()
    tracer.write(spans_path)

    selfs = tracer.self_times()
    roots = tracer.root_times()
    requests = [r for r in roots if r >= 0]
    for request, total in roots.items():
        if sum(selfs[request].values()) != total:
            wrong.append(f"request {request}: layer self times do not add up")

    def per_request(values) -> float:
        """Set-up's share once plus the mean over the traced requests."""
        return values.get(-1, 0) + sum(values.get(r, 0) for r in requests) / len(
            requests
        )

    metrics = {}
    for metric, _, span in PER_LAYER:
        if span is None:
            metrics[metric] = per_request({r: c[metric] for r, c in tracer.counts.items()})
        else:
            metrics[metric] = per_request({r: selfs[r].get(span, 0) for r in selfs}) / 1e6

    def total(name):
        return sum(c[name] for c in tracer.counts.values())

    pairs = total("coupons.pairs")
    if total("strategy.certificate_checks") != total("strategy.strategies"):
        wrong.append(
            f"certificate guard: {total('strategy.certificate_checks')} checks "
            f"for {total('strategy.strategies')} strategies"
        )
    metrics.update(
        {
            "coupons.exploitable_share": (
                total("coupons.exploitable_pairs") / pairs if pairs else 0.0
            ),
            "coupons.useful_ratio": total("strategy.strategies") / pairs if pairs else 0.0,
            "cli.import_ms": _import_ms(workload.env) if is_cli else 0.0,
            "cli.startup_ms": statistics.mean(startup) * 1e3 if startup else 0.0,
            "trace.requests": len(requests),
            "trace.rps_untraced": len(plain) / sum(plain),
            "trace.rps_traced": len(traced) / sum(traced),
            "trace.overhead_pct": 100 * (sum(traced) / sum(plain) - 1),
        }
    )
    units = {metric: unit for metric, unit, _ in PER_LAYER} | dict(DERIVED)
    return dict(
        metrics=metrics,
        units=units,
        attempted=len(answers),
        failed=failed,
        wrong=wrong,
        extra={"spans": str(spans_path.relative_to(ROOT)), "span_count": len(tracer.spans)},
    )


def record() -> None:
    """Write bench/answers.json from the code as it stands."""
    from workloads import Cli, EuroMarket, WidePositions, digest, strategy_text

    answers: dict = {}
    euro = EuroMarket(ROOT, 0, {})
    euro.setup()
    answers[euro.name] = {
        t.bookmaker: digest(strategy_text(euro.request(i)[1]))
        for i, t in enumerate(euro.tables)
    }
    cli = Cli(ROOT, 0, {})
    cli.setup()
    answers[cli.name] = {
        cli.commands[i][0]: cli.answer_digest(cli.request(i))
        for i in range(cli.items())
    }
    cli.finish()
    answers[WidePositions.name] = {}
    for seed in [*RECORDED_SEEDS, HELD_OUT_SEED]:
        wide = WidePositions(ROOT, seed, {})
        wide.setup()
        answers[wide.name][str(seed)] = [
            digest(wide.answer_text(wide.request(i))) for i in range(wide.items())
        ]
        print(f"recorded seed {seed}", file=sys.stderr)
    ANSWERS.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if not _package_present():
        print(f"error: no package at {ROOT / 'src' / 'dutchbook'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.record:
        record()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    answers = json.loads(ANSWERS.read_text())
    workload = WORKLOADS[args.workload](ROOT, args.seed, answers)
    if args.trace:
        spans = ROOT / ".bench_out" / f"spans-{args.workload}.csv"
        result = run_traced(workload, args.seconds, spans)
    else:
        result = run_untraced(workload, args.seconds)
    for problem in result["wrong"]:
        print(f"WRONG: {problem}", file=sys.stderr)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        **result["extra"],
    }
    for name, value in result["metrics"].items():
        print(f"{name:32} {value:14.4f} {result['units'][name]}")
    print("meta " + json.dumps(meta))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0 and not result["wrong"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": result["units"][name]}
                    for name, value in result["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
