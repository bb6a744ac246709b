"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload depletion --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --trace 1

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` re-runs the first replications under the tracer and reports
the per-layer metrics (and prints the end-to-end figures of those
replications for context).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/METHODOLOGY.md``.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import clock  # noqa: E402
from perfbench import tracer as tracing  # noqa: E402
from perfbench import workloads as wl  # noqa: E402

OUT = ROOT / ".perfbench"
PINS = Path(__file__).resolve().parent / "expected_hashes.json"
DEFAULT_SEED = 0


perf = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_program() -> float:
    """Import the program and its lazily imported solvers; returns seconds."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perfbench: no program at {ROOT / 'src' / 'repro'}")
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401
    import repro.network.dynamics  # noqa: F401
    import repro.scenarios  # noqa: F401
    import repro.sim.concurrent  # noqa: F401
    import repro.sim.factories  # noqa: F401
    import repro.sim.runner  # noqa: F401
    from repro.network import compact

    compact.set_default_backend("python")
    # Imported on first use by split_payment_lp and bitcoin_size_distribution;
    # importing them here keeps their cost in set-up, not in the first scheme.
    import scipy.optimize  # noqa: F401
    import scipy.special  # noqa: F401

    return perf() - _START


def check_hashes(workload: str, seed: int, replications) -> None:
    """Flag replications whose record hashes differ from the pinned ones
    (default seed) or from an earlier run of the same seed in this checkout."""
    pinned = {}
    if seed == DEFAULT_SEED and PINS.exists():
        pinned = json.loads(PINS.read_text(encoding="utf-8")).get(workload, {})
    OUT.mkdir(exist_ok=True)
    seen_path = OUT / f"hashes-{workload}-{seed}.json"
    seen = json.loads(seen_path.read_text(encoding="utf-8")) if seen_path.exists() else {}
    for rep in replications:
        if rep.issues:
            continue
        key = f"{rep.seed}/{rep.payments}"
        hashes = rep.hashes()
        if key in pinned and pinned[key] != hashes:
            rep.issues.append(f"{key}: record hashes differ from the pinned ones")
        if key in seen and seen[key] != hashes:
            rep.issues.append(f"{key}: record hashes differ from an earlier run")
        seen.setdefault(key, hashes)
    seen_path.write_text(json.dumps(seen, indent=1, sort_keys=True), encoding="utf-8")


def emit(kind: str, values: dict, contract: dict) -> dict:
    """The contract's metrics of ``kind`` with their units, in order."""
    missing = [m["name"] for m in contract[kind] if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in contract[kind]
    }


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, metric in metrics.items():
        value = metric["value"]
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<38} {text:>14} {metric['unit']}")


def replicate(spec, seed: int, count: int, tracer):
    """Build and measure ``count`` replications (twice each when traced)."""
    schemes = wl.factories(spec)
    builds, plain, traced = [], [], []
    for index in range(count):
        sub_seed = wl.sub_seed(seed, index)
        if tracer is not None:
            untraced, with_trace, interval = wl.measure_traced(spec, sub_seed, schemes, tracer)
            plain.append(untraced)
            traced.append(with_trace)
        else:
            built, interval = wl.build_timed(spec, sub_seed)
            plain.append(wl.measure(spec, built, sub_seed, schemes))
            del built
        builds.append(interval)
    return builds, plain, traced


def run_workload(args, contract: dict) -> dict:
    with contextlib.ExitStack() as stack:
        # Traced runs report raw seconds; the probe thread would land in spans.
        speed = None if args.trace else stack.enter_context(clock.Speedometer())
        elapsed = speed.seconds if speed is not None else (lambda start, end: end - start)
        import_s = import_program()
        spec = wl.SPECS[args.workload]
        seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
        count = wl.replication_count(spec, seconds, traced=bool(args.trace))
        load_before = os.getloadavg()
        ready = perf()
        tracer = tracing.Tracer() if args.trace else None
        builds, plain, traced = replicate(spec, args.seed, count, tracer)

        routed = sum(rep.payments * len(rep.results) for rep in plain)
        timed = sum(elapsed(rep.started, rep.started + rep.wall) for rep in plain)
        raw = sum(rep.wall for rep in plain)
        e2e = {
            "payments_per_s": routed / timed if timed else 0.0,
            "setup_s": elapsed(_START, ready)
            + statistics.median(elapsed(start, end) for start, end in builds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **wl.pooled(plain),
        }

    check_hashes(spec.name, args.seed, plain)  # also creates OUT
    problems = [issue for rep in plain + traced for issue in rep.issues]
    sizes = [rep.payments * len(spec.schemes) for rep in plain + traced]
    attempted = sum(sizes)
    failed = sum(size for size, rep in zip(sizes, plain + traced) if rep.issues)

    provenance = {
        "workload": spec.name,
        "scenario": spec.scenario,
        "schemes": list(spec.schemes),
        "seed": args.seed,
        "replication_seeds": [rep.seed for rep in plain],
        "payments_per_replication": spec.payments,
        "payments_per_scheme": sum(rep.payments for rep in plain),
        "seconds": seconds,
        "trace": args.trace,
        "timed_wall_s": raw,
        "timed_reference_s": timed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "kernel_backend": sys.modules["repro.network.compact"].get_default_backend(),
        "commit": git_commit(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
    }
    why = {w["name"]: w["why"] for w in contract["workloads"]}[spec.name]
    print(f"perfbench {spec.name}: {why}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    by_scheme = wl.per_scheme_success(plain)
    print(
        f"{spec.name}: payments_per_s {e2e['payments_per_s']:.1f} 1/s "
        f"({routed / raw if raw else 0.0:.1f} by raw wall time) at success_ratio "
        f"{e2e['success_ratio']:.4f} ("
        + ", ".join(f"{scheme} {ratio:.4f}" for scheme, ratio in by_scheme.items())
        + ")"
    )
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    if not args.trace:
        metrics = emit("end_to_end", e2e, contract)
        print_metrics("end-to-end (untraced, reference-speed seconds):", metrics)
        # Printed, not gated: a few large payments carry most of the
        # volume, so it swings with the seed far beyond any bound.
        print(f"  {'success_volume_ratio':<38} {e2e['success_volume_ratio']:>14.6g} ratio (not gated)")
    else:
        print_metrics(
            f"end-to-end of the {len(plain)} untraced replications (raw seconds, context only):",
            {name: {"value": value, "unit": ""} for name, value in e2e.items()},
        )
        traced_wall = sum(rep.wall for rep in traced)
        layers = tracer.layer_metrics(
            traced_wall, sum(rep.payments * len(rep.results) for rep in traced)
        )
        layers["setup.import_s"] = import_s
        layers["setup.scenario_build_s"] = statistics.median(end - start for start, end in builds)
        layers["trace.overhead_ratio"] = traced_wall / raw if raw else 0.0
        tracer.write(OUT / f"trace-{spec.name}-{args.seed}.jsonl", traced_wall)
        metrics = emit("per_layer", layers, contract)
        print_metrics("per-layer (traced, raw seconds):", metrics)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    (OUT / f"result-{spec.name}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "provenance": provenance, "problems": problems}, indent=1),
        encoding="utf-8",
    )
    return result


def run_all(args, contract: dict) -> dict:
    """Every workload, each in its own process."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in contract_workloads(contract):
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--trace", str(args.trace)]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        child = subprocess.run(command, capture_output=True, text=True, timeout=900)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            sys.stderr.write(child.stderr)
            raise SystemExit(f"perfbench: workload {workload} failed")
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    return total


def contract_workloads(contract: dict) -> list[str]:
    return [workload["name"] for workload in contract["workloads"]]


def main(argv=None) -> int:
    args = parse_args(argv)
    contract = load_contract()
    if args.workload != "all" and args.workload not in contract_workloads(contract):
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    result = run_all(args, contract) if args.workload == "all" else run_workload(args, contract)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
