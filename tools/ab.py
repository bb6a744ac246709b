#!/usr/bin/env python3
"""A/B comparison of this tree against a base revision on perfbench.

Checks ``REV`` out into a temporary ``git worktree``, runs
``perfbench/run.py`` in both trees for every workload and seed,
alternating which side runs first from one pair to the next, and prints
one markdown table per workload::

    python3 tools/ab.py --base HEAD~1 --workloads churn,depletion \\
        --pairs 10 --seeds 12-21 [--seconds 20] [--trace]

Pair ``i`` runs seed ``A + i`` (cycling through ``A-B``).  Each run's
last JSON line is read; nothing under ``perfbench/`` changes.  For every
end-to-end metric of ``BENCHMARK.json`` a table row gives each side's
median [q1, q3], the ratio of the medians (this tree over the base) and
how many pairs this tree won, plus two verdicts:

* *claim*: this tree won at least 9 in 10 pairs and its median beats the
  base's by more than the base's interquartile range;
* *regression*: this tree's median is worse than the base's by more than
  the metric's ``bound`` (a fraction of the base median).

Below each table it flags every run that did not report ``correct``
(or failed payments) and every seed whose ``success_ratio`` or
``probe_messages_per_payment`` differs between the sides.

``--trace`` runs ``perfbench/run.py --trace 1`` instead and prints the
per-layer metrics of ``BENCHMARK.json`` that the runs report: each
side's median [q1, q3] and the ratio of the medians, with no verdict.
It flags incorrect runs and every count (a metric whose unit is
``count``, such as ``*.calls`` or ``trace.spans``) that differs between
the sides on one seed.

Each run's result line is echoed to stderr as one JSON object (pair,
workload, seed, side, result) as soon as it is read.  The worktree is
removed when the command ends, also on error.  The temporary directory
follows ``TMPDIR``.  Exit status: 0, or 1 when a run was flagged or a
metric regressed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Metrics that must be equal, seed for seed, on both sides.
IDENTICAL = ("success_ratio", "probe_messages_per_payment")

#: Share of pairs the change must win for a claim.
CLAIM_SHARE = 0.9


def parse_seeds(text: str) -> list[int]:
    """``"A-B"`` (inclusive) or ``"A"`` as a list of seeds."""
    first, _, last = text.partition("-")
    low = int(first)
    high = int(last) if last else low
    if high < low:
        raise ValueError(f"empty seed range {text!r}")
    return list(range(low, high + 1))


def last_json_line(output: str) -> dict:
    """The last line of ``output`` that parses as a JSON object."""
    for line in reversed(output.splitlines()):
        line = line.strip()
        if line.startswith("{"):
            try:
                return json.loads(line)
            except json.JSONDecodeError:
                continue
    raise ValueError("perfbench printed no JSON result line")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, linearly interpolated (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def better(a: float, b: float, direction: str) -> bool:
    """Whether ``a`` is strictly better than ``b``."""
    return a > b if direction == "higher" else a < b


def compare(base: list[float], change: list[float], spec: dict) -> dict:
    """Statistics and verdicts of one metric over paired runs.

    ``base[i]`` and ``change[i]`` are pair ``i``'s two runs; ``spec`` is
    the metric's ``end_to_end`` entry of ``BENCHMARK.json``.
    """
    direction = spec["better"]
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    won = sum(better(c, b, direction) for b, c in zip(base, change))
    gap = c_med - b_med if direction == "higher" else b_med - c_med
    claim = won >= CLAIM_SHARE * len(base) and gap > b_q3 - b_q1
    bound = spec["bound"]
    if direction == "higher":
        regressed = c_med < b_med * (1.0 - bound)
    else:
        regressed = c_med > b_med * (1.0 + bound)
    return {
        "base": (b_med, b_q1, b_q3),
        "change": (c_med, c_q1, c_q3),
        "ratio": c_med / b_med if b_med else float("inf"),
        "won": won,
        "pairs": len(base),
        "claim": claim,
        "regressed": regressed,
    }


def value(result: dict, workload: str, name: str) -> float | None:
    """A metric of one run's result line, or ``None`` when absent.

    A one-workload run names its metrics plainly (``payments_per_s``);
    ``--workload all`` prefixes the workload (``churn.payments_per_s``).
    """
    metrics = result.get("metrics", {})
    entry = metrics.get(name, metrics.get(f"{workload}.{name}"))
    return None if entry is None else entry["value"]


def flags(
    workload: str,
    runs: list[tuple[int, dict, dict]],
    identical=IDENTICAL,
) -> list[str]:
    """Problems in ``(seed, base result, change result)`` runs.

    A run that is not ``correct`` or failed payments, and a seed on which
    a metric named in ``identical`` differs between the sides.
    """
    found = []
    for seed, *sides in runs:
        for side, result in zip(("base", "this tree"), sides):
            if not result.get("correct") or result.get("failed", 0):
                found.append(
                    f"{side}, seed {seed}: correct={result.get('correct')}, "
                    f"failed={result.get('failed')}"
                )
        for name in identical:
            b, c = (value(result, workload, name) for result in sides)
            if b != c:
                found.append(f"seed {seed}: {name} differs ({b!r} vs {c!r})")
    return found


def _number(value: float) -> str:
    if abs(value) >= 100:
        return f"{value:,.1f}"
    return f"{value:.4g}"


def _side(stats: tuple[float, float, float]) -> str:
    median, q1, q3 = stats
    return f"{_number(median)} [{_number(q1)}, {_number(q3)}]"


def report(
    workload: str,
    runs: list[tuple[int, dict, dict]],
    contract: dict,
    header: str,
) -> tuple[str, bool]:
    """Markdown table and flags of one workload; ``True`` when clean."""
    lines = [
        f"{workload}: {header}",
        "",
        "| metric | base median [q1, q3] | this tree median [q1, q3] "
        "| ratio | pairs won | claim | regression |",
        "| --- | --- | --- | --- | --- | --- | --- |",
    ]
    clean = True
    for spec in contract["end_to_end"]:
        name = spec["name"]
        base = [value(result, workload, name) for _, result, _ in runs]
        change = [value(result, workload, name) for _, _, result in runs]
        stats = compare(base, change, spec)
        clean &= not stats["regressed"]
        lines.append(
            f"| `{spec['name']}` ({spec['unit']}) | {_side(stats['base'])} "
            f"| {_side(stats['change'])} | {stats['ratio']:.3f}x "
            f"| {stats['won']}/{stats['pairs']} "
            f"| {'holds' if stats['claim'] else 'no'} "
            f"| {'REGRESSED' if stats['regressed'] else 'within'} "
            f"{spec['bound']:.0%} |"
        )
    problems = flags(workload, runs)
    clean &= not problems
    lines.append("")
    lines.extend(f"FLAG {problem}" for problem in problems)
    if not problems:
        lines.append(
            "every run correct; "
            + " and ".join(IDENTICAL)
            + " identical per seed"
        )
    return "\n".join(lines), clean


def trace_report(
    workload: str,
    runs: list[tuple[int, dict, dict]],
    contract: dict,
    header: str,
) -> tuple[str, bool]:
    """Per-layer table and flags of one workload's traced runs."""
    lines = [
        f"{workload}: {header}",
        "",
        "| metric | base median [q1, q3] | this tree median [q1, q3] "
        "| ratio |",
        "| --- | --- | --- | --- |",
    ]
    counts = []
    for spec in contract["per_layer"]:
        name = spec["name"]
        base = [value(result, workload, name) for _, result, _ in runs]
        change = [value(result, workload, name) for _, _, result in runs]
        if None in base or None in change:
            continue
        if spec["unit"] == "count":
            counts.append(name)
        b_q1, b_med, b_q3 = quartiles(base)
        c_q1, c_med, c_q3 = quartiles(change)
        ratio = f"{c_med / b_med:.3f}x" if b_med else "-"
        lines.append(
            f"| `{name}` ({spec['unit']}) | {_side((b_med, b_q1, b_q3))} "
            f"| {_side((c_med, c_q1, c_q3))} | {ratio} |"
        )
    problems = flags(workload, runs, counts)
    lines.append("")
    lines.extend(f"FLAG {problem}" for problem in problems)
    if not problems:
        lines.append("every run correct; every count identical per seed")
    return "\n".join(lines), not problems


def run_perfbench(
    tree: Path, workload: str, seed: int, seconds, trace: bool = False
) -> dict:
    """One ``perfbench/run.py`` run in ``tree``; its last JSON line."""
    command = [
        sys.executable,
        "perfbench/run.py",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--trace",
        "1" if trace else "0",
    ]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        command, cwd=tree, env=env, capture_output=True, text=True
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
    return last_json_line(done.stdout)


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--base", required=True, help="base git revision")
    parser.add_argument(
        "--workloads", required=True, help="comma-separated workload names"
    )
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seeds", required=True, help="A-B, inclusive")
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="perfbench measuring time (default: its own)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="compare the per-layer metrics of traced runs",
    )
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    try:
        args.seeds = parse_seeds(args.seeds)
    except ValueError as error:
        parser.error(str(error))
    args.workloads = [name for name in args.workloads.split(",") if name]
    if not args.workloads:
        parser.error("--workloads names no workload")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    rev = subprocess.run(
        ["git", "rev-parse", "--short", args.base],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    runs: dict[str, list] = {name: [] for name in args.workloads}
    with tempfile.TemporaryDirectory(prefix="ab-") as scratch:
        base_tree = Path(scratch) / "base"
        subprocess.run(
            ["git", "worktree", "add", "--detach", str(base_tree), rev],
            cwd=ROOT, check=True, capture_output=True,
        )
        try:
            for pair in range(args.pairs):
                seed = args.seeds[pair % len(args.seeds)]
                order = [("base", base_tree), ("change", ROOT)]
                if pair % 2:
                    order.reverse()
                for workload in args.workloads:
                    result = {}
                    for side, tree in order:
                        result[side] = run_perfbench(
                            tree, workload, seed, args.seconds, args.trace
                        )
                        # Every raw result, so an interrupted comparison
                        # keeps what it measured.
                        print(
                            json.dumps(
                                {
                                    "pair": pair + 1,
                                    "workload": workload,
                                    "seed": seed,
                                    "side": side,
                                    "result": result[side],
                                }
                            ),
                            file=sys.stderr,
                            flush=True,
                        )
                    runs[workload].append(
                        (seed, result["base"], result["change"])
                    )
        finally:
            subprocess.run(
                ["git", "worktree", "remove", "--force", str(base_tree)],
                cwd=ROOT, capture_output=True,
            )
            subprocess.run(["git", "worktree", "prune"], cwd=ROOT)
    seconds = args.seconds or contract["run_seconds"]
    seeds = sorted({seed for seed, *_ in next(iter(runs.values()))})
    header = (
        f"{args.pairs} alternating pairs, seeds {seeds[0]}-{seeds[-1]}, "
        f"{seconds:g} s{', traced' if args.trace else ''}, base {rev}"
    )
    tabulate = trace_report if args.trace else report
    clean = True
    for workload in args.workloads:
        text, ok = tabulate(workload, runs[workload], contract, header)
        clean &= ok
        print(text)
        print()
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
