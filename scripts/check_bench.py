#!/usr/bin/env python3
"""Gate benchmark results against their recorded budgets.

Reads one or more BENCH_*.json files produced by the siesta-bench
harnesses and fails (exit 1) if any measured value violates its budget.

Every file is in format v2 (``"version": 2``): top-level
``budget_min_<metric>`` / ``budget_max_<metric>`` keys gate the sibling
``<metric>``, and each entry of ``points`` may carry
``budget_max_mean_ms`` (gates its ``mean_ms``) and
``budget_min_speedup_vs_1`` (gates its ``speedup_vs_1``). Speedup
budgets on points whose ``threads`` exceeds the file's
``host_parallelism`` are *skipped* — a single-core recording host
cannot exhibit parallel speedup; the gate arms itself automatically
where the cores exist.

Usage:
    scripts/check_bench.py BENCH_obs.json BENCH_grammar.json
    scripts/check_bench.py --slack 4.0 BENCH_obs_quick.json

``--slack`` loosens every budget (upper bounds are multiplied by it,
lower bounds divided) — CI smoke runs on shared, noisy runners gate
loosely; the checked-in full results gate at 1.0 (exact).
"""

import argparse
import json
import sys


def gate(path: str, label: str, measured: float, budget: float, slack: float,
         minimum: bool, violations: list[str]) -> None:
    """One budget comparison: print a line, record a violation on FAIL."""
    if minimum:
        eff = budget / slack
        ok = measured >= eff
        op = ">="
    else:
        eff = budget * slack
        ok = measured <= eff
        op = "<="
    status = "ok" if ok else "FAIL"
    print(
        f"{path}: {label:<44} {measured:9.4f} {op} {eff:9.4f}"
        f" (budget {budget:.4f} @ slack {slack:g})  {status}"
    )
    if not ok:
        violations.append(
            f"{path}: {label} = {measured:.4f} violates {op} "
            f"{budget:.4f} @ slack {slack:g} = {eff:.4f}"
        )


def check_v2(path: str, data: dict, slack: float) -> list[str]:
    violations: list[str] = []
    checked = 0
    host_par = int(data.get("host_parallelism", 1))

    for key, value in sorted(data.items()):
        for prefix, minimum in (("budget_min_", True), ("budget_max_", False)):
            if not key.startswith(prefix):
                continue
            metric = key[len(prefix):]
            if metric not in data:
                violations.append(f"{path}: {key} has no measured {metric}")
                continue
            checked += 1
            gate(path, metric, float(data[metric]), float(value), slack, minimum, violations)

    for point in data.get("points", []):
        phase = point.get("phase", "?")
        tag = f"@{point['threads']}t" if "threads" in point else ""
        memo = {True: ":memo", False: ":raw"}.get(point.get("memo"), "")
        label = f"{phase}{memo}{tag}"
        if "budget_max_mean_ms" in point:
            checked += 1
            gate(path, f"{label} mean_ms", float(point["mean_ms"]),
                 float(point["budget_max_mean_ms"]), slack, False, violations)
        if "budget_min_speedup_vs_1" in point:
            if int(point.get("threads", 1)) > host_par:
                print(
                    f"{path}: {label + ' speedup_vs_1':<44} skipped"
                    f" (threads {point['threads']} > host_parallelism {host_par})"
                )
                continue
            checked += 1
            gate(path, f"{label} speedup_vs_1", float(point["speedup_vs_1"]),
                 float(point["budget_min_speedup_vs_1"]), slack, True, violations)

    if checked == 0:
        violations.append(f"{path}: no budget keys found — nothing gated")
    return violations


def check_file(path: str, slack: float) -> list[str]:
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    if data.get("version") != 2:
        return [f"{path}: not a format v2 bench file (no \"version\": 2)"]
    return check_v2(path, data, slack)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="+", help="BENCH_*.json files to gate")
    parser.add_argument(
        "--slack",
        type=float,
        default=1.0,
        help="multiply every budget by this factor (default 1.0)",
    )
    args = parser.parse_args()
    if args.slack <= 0:
        parser.error("--slack must be positive")

    violations = []
    for path in args.files:
        try:
            violations.extend(check_file(path, args.slack))
        except (OSError, json.JSONDecodeError) as e:
            violations.append(f"{path}: {e}")

    if violations:
        print("\nbench gate FAILED:", file=sys.stderr)
        for v in violations:
            print(f"  {v}", file=sys.stderr)
        return 1
    print("bench gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
