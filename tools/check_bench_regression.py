#!/usr/bin/env python3
"""Compare a fresh bench --json record against a committed baseline.

Usage:
    tools/check_bench_regression.py BASELINE.json FRESH.json
    tools/check_bench_regression.py --self-test

Both files follow the bench/harness.hpp record schema. The comparison
covers the "metrics" and "checks" dicts:

  * A check that was true in the baseline and false in the fresh run is a
    FAILURE (the bench's own self-check already failed, but this catches it
    even when the fresh run's exit code was swallowed by a wrapper).
  * A counted metric (pivot counts, solve counts, accepted steps, ...) that
    worsens by more than 10% prints a WARNING; more than 25% is a FAILURE.
    "Worsens" is direction-aware: for names that look like reductions or
    speedups (higher is better), a drop is the regression; for everything
    else a rise is.
  * A lower-is-better counted metric that falls from a nonzero baseline to
    exactly 0 is a FAILURE ("counter vanished"), not an improvement: work
    does not disappear, so a zero means the counting stopped — e.g. a
    solve path that no longer forwards its trace. Refresh the baseline if
    the work really is gone.
  * An exact metric (name starting "windowed_bound_": a lower bound's
    integer on a fixed generated instance) that changes at all, in either
    direction, is a FAILURE. The value is a pure function of the instance,
    so any drift means the bound's code changed its answer.
  * Timing-flavoured metrics (names mentioning ns/ms/wall/time/speed/
    throughput) and machine facts (hardware_cores, usable_cpus,
    parallel_capacity) are ADVISORY only: they are printed when they move
    but never gate the exit code, because the committed baselines come
    from whatever container happened to run them.
  * Rate metrics (names ending "_per_s" or "/s" and their "_sec" variants)
    are ADVISORY for the same reason: a rate is a deterministic count
    divided by this machine's wall clock. Gate on the count, not the rate.
  * Exact-search size metrics (names mentioning states/nodes/dominated/
    merged/pruned) are ADVISORY: lower is better, but any engine tweak —
    a new pruning rule, a different branching order — legitimately moves
    them by integer factors, so they are reported, never gated. Gate on
    what the search *achieves* instead: the "certified" frontier metrics
    (largest instance size an engine certifies) are higher-is-better and
    gate like other counted metrics.
  * One-sided entries never gate and never crash: a name present only in
    the baseline is a WARNING (coverage shrank), a name present only in
    the fresh run is an ADVISORY (a renamed or new counter — refresh the
    baseline when intentional). Non-numeric metric values are ADVISORY.

Exit code: 1 if any FAILURE was recorded, else 0. `--self-test` runs the
embedded fixture suite and exits 0/1 on its own verdict.
"""

import json
import sys

# Metric-name fragments that mark a value as wall-clock flavoured (never
# gating) or as higher-is-better (direction flip). The short unit suffixes
# match whole name parts only ("ns" must not fire on "instances").
TIMING_PARTS = ("ns", "ms", "us", "s")
TIMING_SUBSTRINGS = ("wall", "time", "speed", "throughput")
ADVISORY_NAMES = {"hardware_cores", "usable_cpus", "parallel_capacity",
                  "elapsed_ns"}
# "reuse": workspace-reuse hit counts — fewer warm arrivals is the
# regression, so the direction flips like the other higher-is-better names.
# "certified": exact-engine certified-size frontiers — a shrink means the
# engine stopped proving optima it used to prove.
HIGHER_IS_BETTER_FRAGMENTS = ("reduction", "speedup", "accepted", "solved",
                              "throughput", "reuse", "certified")

# Exact-search size counters: lower is better, but engine tweaks move them
# wildly (a new dominance rule can cut states 10x), so they never gate.
SEARCH_SIZE_FRAGMENTS = ("states", "nodes", "dominated", "merged", "pruned")

# Deterministic answers gated for exact equality (timing names excepted).
EXACT_PREFIXES = ("windowed_bound_",)

# Per-second rates. "pivots_per_s" also happens to match TIMING_PARTS via
# its trailing "s" part, but the slash spellings ("etas/s") do not split on
# "_", so rates get their own explicit suffix rule.
RATE_SUFFIXES = ("_per_s", "_per_sec", "/s", "/sec")

WARN_RATIO = 0.10
FAIL_RATIO = 0.25


def is_timing(name: str) -> bool:
    if name in ADVISORY_NAMES:
        return True
    lowered = name.lower()
    if any(fragment in lowered for fragment in TIMING_SUBSTRINGS):
        return True
    return any(part in TIMING_PARTS for part in lowered.replace("-", "_").split("_"))


def is_rate(name: str) -> bool:
    lowered = name.lower().replace("-", "_")
    return lowered.endswith(RATE_SUFFIXES)


def is_search_size(name: str) -> bool:
    # "certified" frontiers gate even though they may share a name part
    # with a search-size fragment (none do today; the guard is for drift).
    if higher_is_better(name):
        return False
    lowered = name.lower()
    return any(fragment in lowered for fragment in SEARCH_SIZE_FRAGMENTS)


def is_exact(name: str) -> bool:
    return name.startswith(EXACT_PREFIXES) and not is_timing(name)


def higher_is_better(name: str) -> bool:
    lowered = name.lower()
    return any(fragment in lowered for fragment in HIGHER_IS_BETTER_FRAGMENTS)


def is_number(value) -> bool:
    # bool is an int subclass; a true/false smuggled into "metrics" is a
    # schema drift we surface rather than average.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare(baseline: dict, fresh: dict):
    """Returns (failures, warnings, lines) for one baseline/fresh pair.

    Pure: never raises on shape drift (one-sided names, non-numeric
    values, missing sections) — every oddity becomes a reported line.
    """
    failures = 0
    warnings = 0
    lines = []

    base_checks = baseline.get("checks") or {}
    fresh_checks = fresh.get("checks") or {}
    for name, ok in sorted(base_checks.items()):
        if name not in fresh_checks:
            lines.append(f"WARNING: check '{name}' missing from fresh run "
                         "(gating may have skipped it)")
            warnings += 1
        elif ok and not fresh_checks[name]:
            lines.append(f"FAILURE: check '{name}' was true in baseline, "
                         "false in fresh run")
            failures += 1
    for name in sorted(set(fresh_checks) - set(base_checks)):
        lines.append(f"ADVISORY: check '{name}' is new in the fresh run; "
                     "refresh the baseline to start gating it")

    base_metrics = baseline.get("metrics") or {}
    fresh_metrics = fresh.get("metrics") or {}
    for name, base_value in sorted(base_metrics.items()):
        if name not in fresh_metrics:
            lines.append(f"WARNING: metric '{name}' missing from fresh run")
            warnings += 1
            continue
        fresh_value = fresh_metrics[name]
        if not is_number(base_value) or not is_number(fresh_value):
            lines.append(f"ADVISORY: metric '{name}' is not numeric "
                         f"({base_value!r} -> {fresh_value!r}); not gating")
            continue
        if base_value == 0.0:
            change = 0.0 if fresh_value == 0.0 else float("inf")
        else:
            change = (fresh_value - base_value) / abs(base_value)
        # Positive `worse` always means a regression.
        worse = -change if higher_is_better(name) else change
        moved = abs(change) > WARN_RATIO
        if is_rate(name) or is_timing(name) or is_search_size(name):
            if moved:
                kind = ("rate" if is_rate(name) else
                        "timing" if is_timing(name) else "search-size")
                lines.append(f"ADVISORY: {kind} metric '{name}' moved "
                             f"{base_value:g} -> {fresh_value:g} "
                             f"({change:+.1%}); not gating")
            continue
        if is_exact(name):
            if fresh_value != base_value:
                lines.append(f"FAILURE: exact metric '{name}' changed "
                             f"{base_value:g} -> {fresh_value:g}")
                failures += 1
            continue
        if base_value != 0.0 and fresh_value == 0.0 and \
                not higher_is_better(name):
            lines.append(f"FAILURE: metric '{name}' counter vanished "
                         f"{base_value:g} -> 0 (did the run stop counting?)")
            failures += 1
        elif worse > FAIL_RATIO:
            lines.append(f"FAILURE: metric '{name}' regressed "
                         f"{base_value:g} -> {fresh_value:g} ({change:+.1%})")
            failures += 1
        elif worse > WARN_RATIO:
            lines.append(f"WARNING: metric '{name}' regressed "
                         f"{base_value:g} -> {fresh_value:g} ({change:+.1%})")
            warnings += 1
        elif moved:
            lines.append(f"note: metric '{name}' improved "
                         f"{base_value:g} -> {fresh_value:g} ({change:+.1%})")
    for name in sorted(set(fresh_metrics) - set(base_metrics)):
        lines.append(f"ADVISORY: metric '{name}' is new in the fresh run; "
                     "refresh the baseline to start tracking it")

    return failures, warnings, lines


# --------------------------------------------------------------- self-test --

# Each fixture: (name, baseline, fresh, expected_failures, expected_warnings,
# substrings that must appear in the report).
SELF_TEST_FIXTURES = [
    ("identical",
     {"checks": {"ok": True}, "metrics": {"pivots": 100}},
     {"checks": {"ok": True}, "metrics": {"pivots": 100}},
     0, 0, []),
    ("check_flips_false",
     {"checks": {"verified": True}}, {"checks": {"verified": False}},
     1, 0, ["FAILURE: check 'verified'"]),
    ("metric_regresses",
     {"metrics": {"pivots": 100}}, {"metrics": {"pivots": 130}},
     1, 0, ["FAILURE: metric 'pivots'"]),
    ("metric_warns",
     {"metrics": {"pivots": 100}}, {"metrics": {"pivots": 115}},
     0, 1, ["WARNING: metric 'pivots'"]),
    ("higher_is_better_flips_direction",
     {"metrics": {"solved": 100}}, {"metrics": {"solved": 70}},
     1, 0, ["FAILURE: metric 'solved'"]),
    ("timing_never_gates",
     {"metrics": {"solve_wall_ns": 100}}, {"metrics": {"solve_wall_ns": 900}},
     0, 0, ["ADVISORY: timing metric 'solve_wall_ns'"]),
    ("baseline_only_metric_warns",
     {"metrics": {"gone": 5}}, {"metrics": {}},
     0, 1, ["WARNING: metric 'gone' missing"]),
    ("fresh_only_metric_is_advisory",
     {"metrics": {}}, {"metrics": {"brand_new": 5}},
     0, 0, ["ADVISORY: metric 'brand_new' is new"]),
    ("fresh_only_check_is_advisory",
     {"checks": {}}, {"checks": {"extra": True}},
     0, 0, ["ADVISORY: check 'extra' is new"]),
    ("non_numeric_does_not_crash",
     {"metrics": {"label": "fast", "count": 3}},
     {"metrics": {"label": 7, "count": True}},
     0, 0, ["ADVISORY: metric 'count' is not numeric",
            "ADVISORY: metric 'label' is not numeric"]),
    ("missing_sections_do_not_crash",
     {}, {"checks": None, "metrics": None},
     0, 0, []),
    ("zero_baseline_growth_fails",
     {"metrics": {"rejects": 0}}, {"metrics": {"rejects": 4}},
     1, 0, ["FAILURE: metric 'rejects'"]),
    ("per_s_rate_never_gates",
     {"metrics": {"pivots_per_s": 200000}},
     {"metrics": {"pivots_per_s": 80000}},
     0, 0, ["ADVISORY: rate metric 'pivots_per_s'"]),
    ("slash_rate_never_gates",
     {"metrics": {"etas/s": 1000}}, {"metrics": {"etas/s": 200}},
     0, 0, ["ADVISORY: rate metric 'etas/s'"]),
    ("rate_improvement_stays_silent",
     {"metrics": {"entries_per_sec": 100}},
     {"metrics": {"entries_per_sec": 105}},
     0, 0, []),
    ("counter_vanished_fails",
     {"metrics": {"t1_pivots": 11041, "t1_buffer_growths": 17}},
     {"metrics": {"t1_pivots": 0, "t1_buffer_growths": 0}},
     2, 0, ["FAILURE: metric 't1_pivots' counter vanished",
            "FAILURE: metric 't1_buffer_growths' counter vanished"]),
    ("counter_drop_short_of_zero_is_improvement",
     {"metrics": {"t1_pivots": 11041}}, {"metrics": {"t1_pivots": 9000}},
     0, 0, ["note: metric 't1_pivots' improved"]),
    ("vanished_rate_stays_advisory",
     {"metrics": {"warm_pivots_per_s": 120000}},
     {"metrics": {"warm_pivots_per_s": 0}},
     0, 0, ["ADVISORY: rate metric 'warm_pivots_per_s'"]),
    ("reuse_drop_is_the_regression",
     {"metrics": {"t1_workspace_reuses": 199}},
     {"metrics": {"t1_workspace_reuses": 120}},
     1, 0, ["FAILURE: metric 't1_workspace_reuses'"]),
    ("reuse_rise_is_fine",
     {"metrics": {"t1_workspace_reuses": 120}},
     {"metrics": {"t1_workspace_reuses": 199}},
     0, 0, ["note: metric 't1_workspace_reuses' improved"]),
    ("loadgen_req_rate_drop_is_advisory",
     {"metrics": {"flood_c64_received_per_s": 150000}},
     {"metrics": {"flood_c64_received_per_s": 50000}},
     0, 0, ["ADVISORY: rate metric 'flood_c64_received_per_s'"]),
    ("loadgen_latency_tail_never_gates",
     {"metrics": {"paced_latency_p999_ns": 100000}},
     {"metrics": {"paced_latency_p999_ns": 900000}},
     0, 0, ["ADVISORY: timing metric 'paced_latency_p999_ns'"]),
    ("loadgen_speedup_is_advisory_but_directional",
     {"metrics": {"epoll_vs_threads_speedup_c1024": 5.0}},
     {"metrics": {"epoll_vs_threads_speedup_c1024": 2.0}},
     0, 0, ["ADVISORY: timing metric 'epoll_vs_threads_speedup_c1024'"]),
    ("loadgen_order_violation_growth_fails",
     {"metrics": {"order_violations": 0}},
     {"metrics": {"order_violations": 3}},
     1, 0, ["FAILURE: metric 'order_violations'"]),
    ("search_size_never_gates",
     {"metrics": {"mm_states_created": 100}},
     {"metrics": {"mm_states_created": 900}},
     0, 0, ["ADVISORY: search-size metric 'mm_states_created'"]),
    ("search_size_drop_also_advisory",
     {"metrics": {"bnb_nodes": 1000000}}, {"metrics": {"bnb_nodes": 900}},
     0, 0, ["ADVISORY: search-size metric 'bnb_nodes'"]),
    ("certified_frontier_drop_fails",
     {"metrics": {"ise_max_certified_n_state": 200}},
     {"metrics": {"ise_max_certified_n_state": 100}},
     1, 0, ["FAILURE: metric 'ise_max_certified_n_state'"]),
    ("certified_frontier_rise_is_fine",
     {"metrics": {"mm_max_certified_n_state": 48}},
     {"metrics": {"mm_max_certified_n_state": 96}},
     0, 0, ["note: metric 'mm_max_certified_n_state' improved"]),
    ("competitive_ratio_rise_fails",
     {"metrics": {"competitive_ratio_mean_online-burst": 1.2}},
     {"metrics": {"competitive_ratio_mean_online-burst": 1.8}},
     1, 0, ["FAILURE: metric 'competitive_ratio_mean_online-burst'"]),
    ("competitive_ratio_drop_is_improvement",
     {"metrics": {"competitive_ratio_max_online-burst": 1.8}},
     {"metrics": {"competitive_ratio_max_online-burst": 1.2}},
     0, 0, ["note: metric 'competitive_ratio_max_online-burst' improved"]),
    ("online_solved_drop_fails",
     {"metrics": {"online_solved_online-poisson": 15}},
     {"metrics": {"online_solved_online-poisson": 9}},
     1, 0, ["FAILURE: metric 'online_solved_online-poisson'"]),
    ("exact_bound_rise_by_one_fails",
     {"metrics": {"windowed_bound_short_n800": 420}},
     {"metrics": {"windowed_bound_short_n800": 421}},
     1, 0, ["FAILURE: exact metric 'windowed_bound_short_n800'"]),
    ("exact_bound_drop_by_one_fails",
     {"metrics": {"windowed_bound_mixed_n400": 230}},
     {"metrics": {"windowed_bound_mixed_n400": 229}},
     1, 0, ["FAILURE: exact metric 'windowed_bound_mixed_n400'"]),
    ("exact_bound_unchanged_is_silent",
     {"metrics": {"windowed_bound_mixed_n400": 230}},
     {"metrics": {"windowed_bound_mixed_n400": 230}},
     0, 0, []),
    ("exact_bound_timing_stays_advisory",
     {"metrics": {"windowed_bound_short_n800_ms": 400}},
     {"metrics": {"windowed_bound_short_n800_ms": 90}},
     0, 0, ["ADVISORY: timing metric 'windowed_bound_short_n800_ms'"]),
    ("machine_capacity_facts_never_gate",
     {"metrics": {"usable_cpus": 4, "parallel_capacity": 3.9}},
     {"metrics": {"usable_cpus": 2, "parallel_capacity": 1.3}},
     0, 0, ["ADVISORY: timing metric 'parallel_capacity'"]),
]


def self_test() -> int:
    bad = 0
    for name, baseline, fresh, want_failures, want_warnings, needles in \
            SELF_TEST_FIXTURES:
        failures, warnings, lines = compare(baseline, fresh)
        report = "\n".join(lines)
        problems = []
        if failures != want_failures:
            problems.append(f"failures {failures} != {want_failures}")
        if warnings != want_warnings:
            problems.append(f"warnings {warnings} != {want_warnings}")
        for needle in needles:
            if needle not in report:
                problems.append(f"missing line {needle!r}")
        if problems:
            bad += 1
            print(f"self-test FAIL [{name}]: {'; '.join(problems)}")
            for line in lines:
                print(f"    {line}")
        else:
            print(f"self-test ok   [{name}]")
    print(f"self-test: {len(SELF_TEST_FIXTURES) - bad}/"
          f"{len(SELF_TEST_FIXTURES)} fixtures passed")
    return 1 if bad else 0


def main(argv):
    if len(argv) == 2 and argv[1] == "--self-test":
        return self_test()
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(argv[1], encoding="utf-8") as handle:
        baseline = json.load(handle)
    with open(argv[2], encoding="utf-8") as handle:
        fresh = json.load(handle)

    failures, warnings, lines = compare(baseline, fresh)
    for line in lines:
        print(line)
    bench = fresh.get("bench", baseline.get("bench", "?"))
    print(f"{bench}: {failures} failure(s), {warnings} warning(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
