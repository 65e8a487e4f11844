#!/usr/bin/env python3
"""Fail CI when a benchmark group regresses against its checked-in baseline.

Usage:
    check_bench_regression.py BASELINE.json FRESH.json \
        --group engine_estimate [--group fused_vs_raw ...] [--max-ratio 1.25] \
        [--pair obs_overhead:enabled_4k_trials:disabled_4k_trials:1.02 ...]

Both files are JSON-lines as written by the vendored criterion shim's
``CRITERION_JSON`` hook: one object per line with ``group``, ``bench``,
``ns_per_iter`` and ``yardstick_ns`` fields (lines without a group, bench
and ``ns_per_iter`` — e.g. the rare-event summary lines — are ignored).

Raw nanoseconds are not comparable across machines or across a busy and
an idle stretch of one machine. The shim measures each group in
interleaved rounds together with a fixed yardstick loop and records the
yardstick's time from the same rounds on every line. Each gated row's
fresh/baseline ratio is divided by that row's own yardstick ratio
(``fresh.yardstick_ns / baseline.yardstick_ns``), so "25% regression"
means 25% relative to what this machine, in those rounds, would have
scored on the baseline commit. A gated row without ``yardstick_ns`` on
either side is an error, as is a gated baseline row missing from the
fresh file: the gate fails closed.

``--pair GROUP:NUMERATOR:DENOMINATOR:MAX_RATIO`` gates a ratio taken
**within the fresh file alone** — two benches of the same group measured
in the same rounds, so no baseline or normalization is involved. This is
how the ≤2% instrumentation-overhead invariant is enforced:
``obs_overhead/enabled_4k_trials`` may cost at most 1.02× of
``obs_overhead/disabled_4k_trials``. Repeatable; may be combined with
``--group`` gating or used on its own.

On failure the exit message names every offending group/bench with its
baseline, current, and delta percentage, so the offender is identifiable
from the last line of a CI log alone.
"""

import argparse
import json
import sys


def load(path):
    """Parse a JSON-lines bench file into {(group, bench): record}."""
    out = {}
    try:
        with open(path, encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError:
                    continue
                group = obj.get("group")
                bench = obj.get("bench")
                if group is None or bench is None:
                    continue
                if not isinstance(obj.get("ns_per_iter"), (int, float)):
                    continue
                out[(group, bench)] = obj
    except OSError as e:
        sys.exit(f"error: cannot read {path}: {e}")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument(
        "--group",
        action="append",
        default=[],
        help="bench group to gate on against the baseline (repeatable)",
    )
    ap.add_argument(
        "--pair",
        action="append",
        default=[],
        metavar="GROUP:NUM:DEN:MAX_RATIO",
        help="gate fresh[GROUP/NUM] / fresh[GROUP/DEN] <= MAX_RATIO, "
        "measured within the fresh file only (repeatable)",
    )
    ap.add_argument(
        "--max-ratio",
        type=float,
        default=1.25,
        help="fail if normalized fresh/baseline exceeds this (default 1.25)",
    )
    args = ap.parse_args()
    if not args.group and not args.pair:
        ap.error("nothing to gate: pass --group and/or --pair")

    baseline = load(args.baseline)
    fresh = load(args.fresh)

    # Each failure is recorded as a full sentence so the final exit
    # message — often the only line a CI summary shows — names the
    # offending group/bench with baseline, current, and delta.
    failures = []
    gated = [k for k in baseline if k[0] in args.group]
    for group in args.group:
        if not any(k[0] == group for k in gated):
            sys.exit(f"error: baseline has no benches in group {group!r}")

    for key in sorted(gated):
        name = f"{key[0]}/{key[1]}"
        if key not in fresh:
            print(f"FAIL {name}: missing from the fresh run")
            failures.append(f"{name} missing from the fresh run")
            continue
        base, cur = baseline[key], fresh[key]
        yardsticks = (base.get("yardstick_ns"), cur.get("yardstick_ns"))
        if not all(isinstance(y, (int, float)) and y > 0 for y in yardsticks):
            print(f"FAIL {name}: no yardstick_ns (baseline {yardsticks[0]}, fresh {yardsticks[1]})")
            failures.append(f"{name} has no yardstick_ns to normalize by")
            continue
        factor = yardsticks[1] / yardsticks[0]
        base_ns, cur_ns = base["ns_per_iter"], cur["ns_per_iter"]
        ratio = cur_ns / base_ns / factor
        delta_pct = (ratio - 1.0) * 100.0
        status = "OK " if ratio <= args.max_ratio else "FAIL"
        print(
            f"{status} {name}: baseline {base_ns:.1f} ns, current {cur_ns:.1f} ns, "
            f"yardstick factor {factor:.3f}, normalized ratio {ratio:.3f} "
            f"({delta_pct:+.1f}%, limit {args.max_ratio})"
        )
        if ratio > args.max_ratio:
            failures.append(
                f"{name} baseline {base_ns:.1f} ns -> current {cur_ns:.1f} ns "
                f"({delta_pct:+.1f}% normalized, "
                f"limit {(args.max_ratio - 1.0) * 100.0:+.1f}%)"
            )

    for spec in args.pair:
        parts = spec.split(":")
        if len(parts) != 4:
            sys.exit(f"error: --pair wants GROUP:NUM:DEN:MAX_RATIO, got {spec!r}")
        group, num, den, limit = parts
        try:
            limit = float(limit)
        except ValueError:
            sys.exit(f"error: --pair max ratio must be a number, got {parts[3]!r}")
        missing = [b for b in (num, den) if (group, b) not in fresh]
        if missing:
            sys.exit(
                f"error: fresh run has no bench "
                f"{', '.join(f'{group}/{b}' for b in missing)} (needed by --pair)"
            )
        den_ns = fresh[(group, den)]["ns_per_iter"]
        if den_ns <= 0:
            sys.exit(f"error: {group}/{den} measured {den_ns} ns; cannot form a ratio")
        num_ns = fresh[(group, num)]["ns_per_iter"]
        ratio = num_ns / den_ns
        delta_pct = (ratio - 1.0) * 100.0
        status = "OK " if ratio <= limit else "FAIL"
        print(
            f"{status} {group}: {num} {num_ns:.1f} ns vs {den} {den_ns:.1f} ns, "
            f"ratio {ratio:.3f} ({delta_pct:+.1f}%, limit {limit})"
        )
        if ratio > limit:
            failures.append(
                f"{group}/{num} costs {ratio:.3f}x of {group}/{den} "
                f"({num_ns:.1f} ns vs {den_ns:.1f} ns, {delta_pct:+.1f}%, "
                f"limit {(limit - 1.0) * 100.0:+.1f}%)"
            )

    if failures:
        sys.exit("bench regression: " + "; ".join(failures))
    print("no regression detected")


if __name__ == "__main__":
    main()
