#!/usr/bin/env python3
"""The autopark benchmark: one workload and one seed per invocation.

Run from the root of a checkout:

    python3 bench/run.py --workload churn_day --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing. ``--trace 1``
is the separate traced pass that gives the per-layer metrics. Metric names
and units come from ``BENCHMARK.json``; ``bench/README.md`` defines them.
Both passes run the correctness gate on every scenario of every round and
exit 1 if it fails. The last line of standard output is the result object;
the full result, with the trace and report hashes of every scenario, is
written to ``.bench_out/<workload>-seed<seed>-trace<0|1>.json``.
"""

import time

START = time.perf_counter()

# Set-up time counts from here, so the imports below are part of it.
import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "autopark"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 9  # fresh processes whose median set-up is setup_s
MIN_ROUNDS = 3


def load_package() -> None:
    """Import autopark from this checkout's source tree and nowhere else."""
    if not (PACKAGE / "__init__.py").is_file():
        sys.exit(f"bench: no package source at {PACKAGE}; run from the root of a checkout")
    sys.path.insert(0, str(PACKAGE.parent))
    import autopark

    if Path(autopark.__file__).resolve().parent != PACKAGE:
        sys.exit(f"bench: imported autopark from {autopark.__file__}, not {PACKAGE}")


def build_inputs(workload: str, seed: int) -> list:
    """The set-up every run pays before its first timed call.

    ``churn_day`` and ``big_garage`` go through the scenario file format, as
    a file given to ``autopark run`` would. The corpus generates each
    scenario inside the timed loop, because ``autopark check`` pays for that.
    """
    import workloads
    from autopark import parse_scenario, render_scenario

    if workload == "corpus":
        return []
    return [parse_scenario(render_scenario(s)) for s in workloads.build(workload, seed)]


def child(workload: str, seed: int, mode: str) -> dict[str, float]:
    """Run this script in a fresh process in one of its child modes."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
    command += ["--seed", str(seed), "--child", mode]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def child_main(mode: str, workload: str, seed: int, scenarios: list, setup_s: float) -> dict:
    """``setup``: this process's set-up, scaled by its own calibration.
    ``memory``: peak RSS of one unchecked run of every scenario with its CSV
    report, which is what ``autopark run --no-check`` (or ``autopark check``
    for the corpus) holds. ``churn_day`` runs a longer day here, so that its
    history, not the interpreter, makes up most of the peak.
    """
    from calibrate import Calibrator

    if mode == "setup":
        calibrator = Calibrator()
        for _ in range(3):
            calibrator.run()
        scale = calibrator.median_scale()
        return {"setup_s": scale * setup_s, "host_s": setup_s, "scale": scale}
    import workloads
    from autopark import format_report, run_scenario

    setup_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if workload == "corpus":
        count = workloads.scenario_count(workload)
        scenarios = (workloads.scenario(workload, seed, i) for i in range(count))
    elif workload == "churn_day":
        scenarios = [workloads.churn_day(seed, workloads.MEMORY_CHURN_CARS)]
    for scenario in scenarios:
        format_report(run_scenario(scenario, check=False).report, "csv")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"peak_rss_mb": peak_rss_mb, "setup_rss_mb": setup_rss_mb}


def run_rounds(seconds: float, one_round) -> list:
    """Repeat one round until the next would end past ``seconds``."""
    rounds = []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        rounds.append(one_round())
        now = time.perf_counter()
        if len(rounds) >= MIN_ROUNDS and (now - begin) + (now - start) > seconds:
            return rounds


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def round_metrics(one_round) -> dict[str, float]:
    """The end-to-end metrics one round measures on its own."""
    from measure import cost_exponent

    samples = one_round.samples
    events = sum(s.events for s in samples)
    return {
        "events_per_s": events / sum(s.run_s for s in samples),
        "events_per_s_nocheck": events / sum(s.nocheck_s for s in samples),
        "cost_exponent": cost_exponent(samples),
    }


def end_to_end(
    rounds: list, setup: list[float], peak_rss_mb: float
) -> tuple[dict[str, float], list[float]]:
    """End-to-end metrics, as medians over rounds, and the run_ms samples."""
    from measure import PIECES

    per_round = [round_metrics(r) for r in rounds]
    metrics = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
    # The unit of work a user waits for: on the corpus one scenario, generated
    # and run checked (`autopark check`); on a single long session one
    # run_until step, a tenth of it. Each unit's sample is its median over rounds.
    if len(rounds[0].samples) > 1:
        units = [
            [1000 * (r.samples[i].generate_s + r.samples[i].run_s) for r in rounds]
            for i in range(len(rounds[0].samples))
        ]
    else:
        cumulative = [[0.0] + [t for _, t in r.samples[0].pieces] for r in rounds]
        units = [[1000 * (c[k + 1] - c[k]) for c in cumulative] for k in range(PIECES)]
    samples = [statistics.median(u) for u in units]
    metrics.update(
        {
            "setup_s": statistics.median(setup),
            "run_p50_ms": percentile(samples, 50),
            "run_p95_ms": percentile(samples, 95),
            "peak_rss_mb": peak_rss_mb,
        }
    )
    return metrics, samples


def per_layer(rounds: list) -> dict[str, float]:
    """Per-layer metrics: medians over traced rounds (counts repeat exactly)."""
    names = rounds[0].layers
    return {name: statistics.median(r.layers[name] for r in rounds) for name in names}


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head.removeprefix("ref: ")
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    lines = packed.read_text().splitlines() if packed.is_file() else []
    return next((line.split()[0] for line in lines if line.endswith(" " + ref)), None)


def environment() -> dict:
    sources = sorted(PACKAGE.glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this pass."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="corpus, churn_day or big_garage")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "memory"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    load_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    scenarios = build_inputs(args.workload, args.seed)
    setup_s = time.perf_counter() - START
    if args.child:
        print(json.dumps(child_main(args.child, args.workload, args.seed, scenarios, setup_s)))
        return 0

    from calibrate import Calibrator
    from measure import GateError, traced_round, untraced_round

    calibrator = Calibrator()
    references = {}  # scenario index -> its reference run, made once per run
    tracer = None
    try:
        if args.trace:

            def one_round():
                nonlocal tracer
                traced, tracer = traced_round(args.workload, args.seed, references, calibrator)
                return traced

            rounds = run_rounds(args.seconds, one_round)
            metrics = per_layer(rounds)
            samples_note = ""
        else:
            setup = [child(args.workload, args.seed, "setup") for _ in range(SETUP_SAMPLES)]
            memory = child(args.workload, args.seed, "memory")
            rounds = run_rounds(
                args.seconds,
                lambda: untraced_round(args.workload, args.seed, scenarios, references, calibrator),
            )
            setup_times = [s["setup_s"] for s in setup]
            metrics, run_ms = end_to_end(rounds, setup_times, memory["peak_rss_mb"])
            samples_note = f" run_ms_samples={len(run_ms)} setup_samples={len(setup)}"
    except GateError as exc:
        print(f"bench: correctness gate failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    units = declared_metrics(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    refs = [references[i] for i in sorted(references)]
    accepted = sum(r.accepted for r in refs)
    stranded = sum(r.stranded for r in refs)
    env = environment()
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "rounds": len(rounds),
        "scenarios": len(refs),
        "input_events": sum(s.events for s in rounds[0].samples),
        "accepted": accepted,
        "stranded": stranded,
        "stranded_share": stranded / accepted,
        "metrics": metrics,
        "hashes": [
            {"scenario": i, "trace_sha256": r.digest[0], "report_sha256": r.digest[1]}
            for i, r in enumerate(refs)
        ],
        "reference_ms": [1000 * t for t in calibrator.samples],
    }
    if args.trace:
        tracer.write(OUT_DIR / f"{stem}-spans.csv")
    else:
        detail["setup_samples"] = setup
        detail["memory"] = memory
        detail["per_round"] = [round_metrics(r) for r in rounds]
        detail["run_ms_samples"] = run_ms
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")

    all_hashes = hashlib.sha256("".join(r.digest[0] + r.digest[1] for r in refs).encode()).hexdigest()
    print(
        f"bench: {args.workload} seed={args.seed} trace={args.trace} rounds={len(rounds)} "
        f"scenarios={len(refs)} input_events={detail['input_events']}{samples_note}"
    )
    print(
        f"bench: git={env['git_sha']} src_lines={env['src_lines']} "
        f"python={env['python']} nproc={env['nproc']}"
    )
    print(f"bench: accepted={accepted} stranded={stranded} stranded_share={stranded / accepted:.4f}")
    print(f"bench: gate passed; outputs sha256={all_hashes} (per scenario in .bench_out/{stem}.json)")
    for name, value in metrics.items():
        print(f"bench: {name} = {value:.6g} {units[name]}")
    result = {
        "correct": True,
        "attempted": accepted,
        "failed": stranded,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
