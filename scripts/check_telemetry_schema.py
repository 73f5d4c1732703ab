#!/usr/bin/env python3
"""Validate xmlsort's telemetry export against the documented schema.

Runs `xmlsort --stats-json --trace-out` on a small fixture and checks that
the emitted JSON carries everything docs/OBSERVABILITY.md promises to
consumers: per-phase wall time and per-category I/O counts on every span,
the memory peak, the run count, and the run-size histogram. Wired into
ctest as `telemetry_schema_check` so a schema regression fails the suite.

With --service-stats, validates a `nexsortd-stats-v1` document instead
(the `stats` member of a `nexsortctl stats` response, see docs/SERVICE.md):
the shared-env description, the per-session attribution array, and the
queue / admission / tenant / job blocks the daemon reports.

Usage:
  check_telemetry_schema.py --xmlsort BIN --fixture FILE [--keep DIR]
  check_telemetry_schema.py --service-stats FILE
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

IO_CATEGORIES = [
    "input", "output", "data-stack", "path-stack", "output-stack",
    "run-write", "run-read", "sort-temp", "other",
]

FAILURES = []


def check(condition, message):
    if not condition:
        FAILURES.append(message)


def check_io_object(io, where, sparse_categories=False):
    """Validate one io object. `stats.io` carries all nine categories with
    zeros included; span io objects are sparse (only non-zero deltas)."""
    for key in ("reads", "writes", "total", "modeled_seconds", "categories"):
        check(key in io, f"{where}: missing io key '{key}'")
    categories = io.get("categories", {})
    if not sparse_categories:
        for name in IO_CATEGORIES:
            check(name in categories,
                  f"{where}: missing io category '{name}'")
    for name, entry in categories.items():
        check(name in IO_CATEGORIES,
              f"{where}: unknown io category '{name}'")
        check("reads" in entry and "writes" in entry,
              f"{where}: category '{name}' missing reads/writes")


def check_telemetry(telemetry):
    check(telemetry.get("schema") == "nexsort-telemetry-v1",
          f"telemetry schema is {telemetry.get('schema')!r}, "
          "expected 'nexsort-telemetry-v1'")
    check(isinstance(telemetry.get("elapsed_seconds"), (int, float)),
          "telemetry: missing elapsed_seconds")

    spans = telemetry.get("spans", [])
    check(len(spans) > 0, "telemetry: no spans recorded")
    names = [s.get("name") for s in spans]
    for expected in ("nexsort", "sorting_phase", "output_phase"):
        check(expected in names, f"telemetry: missing span '{expected}'")
    for span in spans:
        where = f"span '{span.get('name')}'"
        check(isinstance(span.get("wall_seconds"), (int, float)),
              f"{where}: missing wall_seconds")
        check(span.get("closed") is True, f"{where}: not closed")
        check("io" in span, f"{where}: missing io")
        if "io" in span:
            check_io_object(span["io"], where, sparse_categories=True)
        check("memory" in span, f"{where}: missing memory")
        for key in ("budget_used_open", "budget_used_close", "budget_peak"):
            check(key in span.get("memory", {}), f"{where}: missing {key}")

    run_events = telemetry.get("run_events", {})
    check("count" in run_events, "telemetry: run_events missing count")
    by_kind = run_events.get("by_kind", {})
    for kind in ("created", "fragment", "read-back", "merged", "freed"):
        check(kind in by_kind, f"telemetry: run_events missing kind '{kind}'")

    metrics = telemetry.get("metrics", {})
    histograms = metrics.get("histograms", {})
    check("run_size_bytes" in histograms,
          "telemetry: missing run_size_bytes histogram")
    for name, hist in histograms.items():
        for key in ("count", "sum", "min", "max", "mean", "p50", "p90",
                    "p95", "p99", "buckets"):
            check(key in hist, f"histogram '{name}': missing '{key}'")
        if all(isinstance(hist.get(k), (int, float))
               for k in ("p50", "p90", "p95", "p99")):
            check(hist["p50"] <= hist["p90"] <= hist["p95"] <= hist["p99"],
                  f"histogram '{name}': percentiles not non-decreasing")
        for bucket in hist.get("buckets", []):
            check(isinstance(bucket, list) and len(bucket) == 2,
                  f"histogram '{name}': bucket is not [upper_bound, count]")


CACHE_COUNTER_KEYS = ("hits", "misses", "evictions", "writebacks",
                      "writeback_failures", "prefetches")


def check_hit_rate_convention(counters, where):
    """`hit_rate` is defined only over observed accesses: present iff
    hits + misses > 0, and never 0/NaN standing in for 'no data'."""
    accesses = counters.get("hits", 0) + counters.get("misses", 0)
    if accesses > 0:
        check(isinstance(counters.get("hit_rate"), (int, float)),
              f"{where}: hit_rate missing despite {accesses} accesses")
    else:
        check("hit_rate" not in counters,
              f"{where}: hit_rate present with zero accesses "
              "(must be absent, not 0/NaN)")


def check_cache(cache, cache_enabled):
    """Validate the stats.cache block for a run with caching on or off."""
    for key in ("enabled", "frames", "readahead", "counters"):
        check(key in cache, f"stats.cache: missing key '{key}'")
    check(cache.get("enabled") is cache_enabled,
          f"stats.cache: enabled is {cache.get('enabled')!r}, "
          f"expected {cache_enabled}")
    counters = cache.get("counters", {})
    for key in CACHE_COUNTER_KEYS:
        check(key in counters, f"stats.cache.counters: missing '{key}'")
    check_hit_rate_convention(counters, "stats.cache.counters")
    if cache_enabled:
        check(cache.get("frames", 0) > 0,
              "stats.cache: enabled but frames == 0")
        accesses = counters.get("hits", 0) + counters.get("misses", 0)
        check(accesses > 0,
              "stats.cache: enabled but the pool saw no accesses")
    else:
        for key in ("hits", "misses", "evictions", "prefetches"):
            check(counters.get(key) == 0,
                  f"stats.cache.counters: '{key}' non-zero with cache off")


def check_cache_metrics(telemetry):
    """With caching on, the pool's counters must reach the metrics export."""
    metrics = telemetry.get("metrics", {})
    counters = metrics.get("counters", {})
    for name in ("cache_hits", "cache_misses"):
        check(name in counters, f"telemetry: missing counter '{name}'")
    gauges = metrics.get("gauges", {})
    check("cache_hit_rate_pct" in gauges,
          "telemetry: missing gauge 'cache_hit_rate_pct'")


def check_no_hit_rate_gauge(telemetry):
    """Zero cache accesses: the hit-rate gauge must not exist at all."""
    gauges = telemetry.get("metrics", {}).get("gauges", {})
    check("cache_hit_rate_pct" not in gauges,
          "telemetry: gauge 'cache_hit_rate_pct' present with cache off "
          "(must be absent when there were zero accesses)")


PARALLEL_COUNTER_KEYS = ("sync_spills", "parallel_sorts", "sort_partitions",
                         "prefetch_issued")


def check_parallel(parallel, parallel_enabled):
    """Validate the stats.parallel block in serial and parallel runs."""
    for key in ("enabled", "threads", "prefetch_depth", "counters"):
        check(key in parallel, f"stats.parallel: missing key '{key}'")
    check(parallel.get("enabled") is parallel_enabled,
          f"stats.parallel: enabled is {parallel.get('enabled')!r}, "
          f"expected {parallel_enabled}")
    counters = parallel.get("counters", {})
    for key in PARALLEL_COUNTER_KEYS:
        check(key in counters, f"stats.parallel.counters: missing '{key}'")
    if parallel_enabled:
        check(parallel.get("threads", 0) > 0
              or parallel.get("prefetch_depth", 0) > 0,
              "stats.parallel: enabled without threads or prefetch_depth")
    else:
        for key in ("parallel_sorts", "prefetch_issued"):
            check(counters.get(key) == 0,
                  f"stats.parallel.counters: '{key}' non-zero while serial")


def check_parallel_metrics(telemetry, expect_parallel_sorts=False):
    """With the pipeline on, parallel_* counters must reach the export.

    `expect_parallel_sorts`: the document was large enough for a worker
    run to partition its buffer sorts, so `parallel_sorts` must be > 0.
    """
    counters = telemetry.get("metrics", {}).get("counters", {})
    for name in ("parallel_sync_spills", "parallel_sorts",
                 "parallel_prefetch_issued"):
        check(name in counters, f"telemetry: missing counter '{name}'")
    if expect_parallel_sorts:
        check(counters.get("parallel_sorts", 0) > 0,
              "telemetry: parallel_sorts is 0 on a worker-thread run")


ENV_KEYS = ("block_size", "memory_blocks", "device", "layers",
            "cache_frames", "readahead", "threads", "prefetch_depth",
            "sort_memory_blocks", "sample_interval_ms")

KNOWN_LAYERS = ("throttle", "fault")


def check_env(env, stats):
    """Validate the stats.env block: the composed SortEnv configuration.

    Must agree with the sibling top-level fields (block_size,
    memory_blocks) and with the cache/parallel blocks derived from the
    same SortEnvOptions.
    """
    for key in ENV_KEYS:
        check(key in env, f"stats.env: missing key '{key}'")
    check(env.get("block_size") == stats.get("block_size"),
          "stats.env.block_size disagrees with stats.block_size")
    check(env.get("memory_blocks") == stats.get("memory_blocks"),
          "stats.env.memory_blocks disagrees with stats.memory_blocks")
    check(env.get("device") in ("memory", "file"),
          f"stats.env.device is {env.get('device')!r}, "
          "expected 'memory' or 'file'")
    layers = env.get("layers", None)
    check(isinstance(layers, list), "stats.env.layers is not a list")
    for layer in layers or []:
        check(layer in KNOWN_LAYERS,
              f"stats.env.layers: unknown layer {layer!r}")
    cache = stats.get("cache", {})
    check(env.get("cache_frames") == cache.get("frames"),
          "stats.env.cache_frames disagrees with stats.cache.frames")
    check(env.get("readahead") == cache.get("readahead"),
          "stats.env.readahead disagrees with stats.cache.readahead")
    parallel = stats.get("parallel", {})
    check(env.get("threads") == parallel.get("threads"),
          "stats.env.threads disagrees with stats.parallel.threads")
    check(env.get("prefetch_depth") == parallel.get("prefetch_depth"),
          "stats.env.prefetch_depth disagrees with "
          "stats.parallel.prefetch_depth")


SESSION_KEYS = ("id", "active", "start_seconds", "wall_seconds", "io",
                "runs_created", "spilled_bytes", "budget_peak_blocks")


def check_sessions(sessions, allow_idle=False):
    """Validate the stats.sessions array (per-session attribution).

    xmlsort runs exactly one job, so its export must carry a session that
    did I/O; a daemon snapshot (`allow_idle`) may legitimately be empty or
    hold sessions that have not touched the device yet.
    """
    check(isinstance(sessions, list), "stats.sessions is not a list")
    if not isinstance(sessions, list):
        return
    if not allow_idle:
        check(len(sessions) >= 1,
              "stats.sessions: empty (xmlsort runs one job)")
    ids = [s.get("id") for s in sessions]
    check(len(ids) == len(set(ids)), "stats.sessions: duplicate session ids")
    for session in sessions:
        where = f"stats.sessions[id={session.get('id')!r}]"
        for key in SESSION_KEYS:
            check(key in session, f"{where}: missing key '{key}'")
        check(isinstance(session.get("active"), bool),
              f"{where}: active is not a bool")
        for key in ("start_seconds", "wall_seconds"):
            value = session.get(key)
            check(isinstance(value, (int, float)) and value >= 0,
                  f"{where}: {key} is not a non-negative number")
        if "io" in session:
            check_io_object(session["io"], f"{where}.io")
            if not allow_idle:
                check(session["io"].get("total", 0) > 0,
                      f"{where}: session recorded no I/O")


RUN_FORMATION_POLICIES = ("quicksort_chunks", "replacement_selection")

MERGE_POLICIES = ("greedy", "planned")

MERGE_PLAN_KEYS = ("policy", "plans", "steps", "input_runs", "fanin_min",
                   "fanin_max", "fanin_total", "predicted_bytes",
                   "actual_bytes")


def check_merge_plan(plan, where, runs_formed=None, expect_merge_policy=None):
    """Validate a merge_plan block (docs/MERGE_PLANNING.md): the aggregated
    merge-schedule accounting of every external sort that ran merge steps.

    Cross-field invariant: every run that enters a merge is consumed by
    exactly one step, and every step's output except each plan's root is
    consumed downstream, so fanin_total == input_runs + steps - plans.
    """
    for key in MERGE_PLAN_KEYS:
        check(key in plan, f"{where}: missing key '{key}'")
    check(plan.get("policy") in MERGE_POLICIES,
          f"{where}: unknown policy {plan.get('policy')!r}")
    if expect_merge_policy is not None:
        check(plan.get("policy") == expect_merge_policy,
              f"{where}: policy is {plan.get('policy')!r}, "
              f"expected {expect_merge_policy!r}")
    for key in MERGE_PLAN_KEYS[1:]:
        check(isinstance(plan.get(key), int),
              f"{where}: '{key}' is not an integer")
    if not all(isinstance(plan.get(k), int) for k in MERGE_PLAN_KEYS[1:]):
        return
    check(plan["plans"] > 0, f"{where}: present but records no plans")
    check(plan["steps"] >= plan["plans"],
          f"{where}: fewer steps than plans")
    check(plan["input_runs"] >= 2 * plan["plans"],
          f"{where}: a plan must merge at least two runs")
    check(plan["fanin_min"] >= 1 and plan["fanin_max"] >= plan["fanin_min"],
          f"{where}: fan-in bounds are inconsistent")
    if plan.get("policy") == "planned":
        # The planner never emits copy steps; only the greedy baseline
        # carries fan-in-1 trailing groups.
        check(plan["fanin_min"] >= 2,
              f"{where}: planned policy emitted a fan-in < 2 step")
    check(plan["fanin_total"] ==
          plan["input_runs"] + plan["steps"] - plan["plans"],
          f"{where}: fanin_total {plan['fanin_total']} != input_runs "
          f"{plan['input_runs']} + steps {plan['steps']} - plans "
          f"{plan['plans']} (every input consumed exactly once)")
    check(plan["actual_bytes"] > 0,
          f"{where}: merge steps ran but actual_bytes == 0")
    if runs_formed is not None:
        check(plan["input_runs"] <= runs_formed,
              f"{where}: input_runs exceeds runs_formed {runs_formed}")


def check_sort_block(sort, expect_policy=None, expect_streaming=None,
                     expect_merge_policy=None):
    """Validate the stats.sort block: run-formation counters plus the
    streaming output measurements (docs/RUN_FORMATION.md)."""
    for key in ("run_formation", "runs_formed", "avg_run_blocks",
                "max_run_blocks", "merge_passes", "merge_policy",
                "dfs_placement", "streaming",
                "time_to_first_byte_ms", "wall_ms"):
        check(key in sort, f"stats.sort: missing key '{key}'")
    check(sort.get("merge_policy") in MERGE_POLICIES,
          f"stats.sort: unknown merge_policy {sort.get('merge_policy')!r}")
    if expect_merge_policy is not None:
        check(sort.get("merge_policy") == expect_merge_policy,
              f"stats.sort: merge_policy is {sort.get('merge_policy')!r}, "
              f"expected {expect_merge_policy!r}")
    check(isinstance(sort.get("dfs_placement"), bool),
          "stats.sort: dfs_placement is not a bool")
    # merge_plan accounting exists exactly when merge steps actually ran.
    if sort.get("merge_passes", 0) > 0:
        check("merge_plan" in sort,
              "stats.sort: merge passes ran but merge_plan is missing")
        if "merge_plan" in sort:
            check_merge_plan(sort["merge_plan"], "stats.sort.merge_plan",
                             runs_formed=sort.get("runs_formed"),
                             expect_merge_policy=expect_merge_policy)
    else:
        check("merge_plan" not in sort,
              "stats.sort: merge_plan present though no merge pass ran")
    check(sort.get("run_formation") in RUN_FORMATION_POLICIES,
          f"stats.sort: unknown run_formation "
          f"{sort.get('run_formation')!r}")
    if expect_policy is not None:
        check(sort.get("run_formation") == expect_policy,
              f"stats.sort: run_formation is {sort.get('run_formation')!r}, "
              f"expected {expect_policy!r}")
    for key in ("runs_formed", "max_run_blocks", "merge_passes"):
        check(isinstance(sort.get(key), int),
              f"stats.sort: '{key}' is not an integer")
    check(isinstance(sort.get("avg_run_blocks"), (int, float)),
          "stats.sort: avg_run_blocks is not numeric")
    if isinstance(sort.get("runs_formed"), int) and sort["runs_formed"] > 0:
        check(sort.get("avg_run_blocks", 0) > 0,
              "stats.sort: runs formed but avg_run_blocks == 0")
        check(sort.get("max_run_blocks", 0) >= sort.get("avg_run_blocks", 0),
              "stats.sort: max_run_blocks below avg_run_blocks")
        if sort["runs_formed"] == 1:
            check(sort.get("merge_passes") == 0,
                  "stats.sort: single run but merge_passes != 0 "
                  "(the merge phase must be skipped)")
    check(isinstance(sort.get("streaming"), bool),
          "stats.sort: streaming is not a bool")
    if expect_streaming is not None:
        check(sort.get("streaming") is expect_streaming,
              f"stats.sort: streaming is {sort.get('streaming')!r}, "
              f"expected {expect_streaming}")
    for key in ("time_to_first_byte_ms", "wall_ms"):
        value = sort.get(key)
        check(isinstance(value, (int, float)) and value >= 0,
              f"stats.sort: {key} is not a non-negative number")
    if sort.get("streaming") is True:
        ttfb = sort.get("time_to_first_byte_ms", -1)
        wall = sort.get("wall_ms", 0)
        check(isinstance(ttfb, (int, float)) and ttfb > 0,
              "stats.sort: streaming run recorded no time_to_first_byte_ms")
        if isinstance(ttfb, (int, float)) and isinstance(wall, (int, float)):
            check(ttfb <= wall,
                  "stats.sort: time_to_first_byte_ms exceeds wall_ms")


def check_stats(stats, cache_enabled=False, parallel_enabled=False,
                expect_policy=None, expect_streaming=None,
                expect_merge_policy=None):
    check(stats.get("schema") == "nexsort-stats-v1",
          f"stats schema is {stats.get('schema')!r}, "
          "expected 'nexsort-stats-v1'")
    for key in ("tool", "input", "block_size", "memory_blocks",
                "memory_peak_blocks", "run_count", "env", "io", "cache",
                "parallel", "sessions", "sort", "nexsort", "telemetry"):
        check(key in stats, f"stats: missing top-level key '{key}'")
    if "sort" in stats:
        check_sort_block(stats["sort"], expect_policy=expect_policy,
                         expect_streaming=expect_streaming,
                         expect_merge_policy=expect_merge_policy)
    nexsort = stats.get("nexsort", {})
    sorts = nexsort.get("sorts", {}) if isinstance(nexsort, dict) else {}
    for key in ("runs_formed", "avg_run_blocks", "max_run_blocks",
                "merge_passes", "merge_plan"):
        check(key in sorts, f"stats.nexsort.sorts: missing key '{key}'")
    # The nexsort block's merge_plan mirrors stats.sort.merge_plan but is
    # unconditional (all-zero when no external sort merged).
    if isinstance(sorts.get("merge_plan"), dict) and \
            sorts["merge_plan"].get("plans", 0) > 0:
        check_merge_plan(sorts["merge_plan"], "stats.nexsort.sorts.merge_plan",
                         expect_merge_policy=expect_merge_policy)
    if "env" in stats:
        check_env(stats["env"], stats)
    check(isinstance(stats.get("memory_peak_blocks"), int),
          "stats: memory_peak_blocks is not an integer")
    check(isinstance(stats.get("run_count"), int),
          "stats: run_count is not an integer")
    if "io" in stats:
        check_io_object(stats["io"], "stats.io")
    if "cache" in stats:
        check_cache(stats["cache"], cache_enabled)
    if "parallel" in stats:
        check_parallel(stats["parallel"], parallel_enabled)
    if "sessions" in stats:
        check_sessions(stats["sessions"])
    if "telemetry" in stats:
        check_telemetry(stats["telemetry"])
        if cache_enabled:
            check_cache_metrics(stats["telemetry"])
        else:
            check_no_hit_rate_gauge(stats["telemetry"])
        if parallel_enabled:
            check_parallel_metrics(stats["telemetry"])


JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

JOB_KINDS = ("sort", "merge", "batch_update")


def check_service_stats(stats):
    """Validate a `nexsortd-stats-v1` document (docs/SERVICE.md): the
    daemon's live snapshot of its shared env, session attribution, queue
    and admission counters, tenant fair-share state, and job table."""
    check(stats.get("schema") == "nexsortd-stats-v1",
          f"service stats schema is {stats.get('schema')!r}, "
          "expected 'nexsortd-stats-v1'")
    uptime = stats.get("uptime_seconds")
    check(isinstance(uptime, (int, float)) and uptime >= 0,
          "service stats: uptime_seconds is not a non-negative number")
    for key in ("env", "sessions", "queue", "admission", "tenants", "jobs"):
        check(key in stats, f"service stats: missing top-level key '{key}'")

    env = stats.get("env", {})
    check(isinstance(env, dict), "service stats: env is not an object")
    if isinstance(env, dict):
        for key in ENV_KEYS:
            check(key in env, f"service stats env: missing key '{key}'")

    check_sessions(stats.get("sessions", []), allow_idle=True)

    queue = stats.get("queue", {})
    for key in ("depth", "max_depth", "dispatched", "rejected"):
        check(isinstance(queue.get(key), int),
              f"service stats queue: '{key}' is not an integer")
    if isinstance(queue.get("depth"), int) and \
            isinstance(queue.get("max_depth"), int):
        check(queue["depth"] <= queue["max_depth"],
              "service stats queue: depth exceeds max_depth")

    admission = stats.get("admission", {})
    for key in ("grant_blocks", "admissible_blocks", "ledger_blocks",
                "admitted_jobs", "swept_orphans"):
        check(isinstance(admission.get(key), int),
              f"service stats admission: '{key}' is not an integer")
    if isinstance(admission.get("ledger_blocks"), int) and \
            isinstance(admission.get("admissible_blocks"), int):
        check(admission["ledger_blocks"] <= admission["admissible_blocks"],
              "service stats admission: ledger exceeds the admissible pool")

    tenants = stats.get("tenants", [])
    check(isinstance(tenants, list), "service stats: tenants is not a list")
    for tenant in tenants if isinstance(tenants, list) else []:
        where = f"service stats tenant {tenant.get('tenant')!r}"
        check(isinstance(tenant.get("tenant"), str) and tenant.get("tenant"),
              f"{where}: missing tenant name")
        for key in ("weight", "pass"):
            check(isinstance(tenant.get(key), (int, float)),
                  f"{where}: '{key}' is not numeric")
        check(tenant.get("weight", 0) > 0, f"{where}: weight is not positive")
        for key in ("in_flight", "bytes_in_flight", "queued", "dispatched"):
            check(isinstance(tenant.get(key), int),
                  f"{where}: '{key}' is not an integer")

    jobs = stats.get("jobs", [])
    check(isinstance(jobs, list), "service stats: jobs is not a list")
    job_ids = [j.get("id") for j in jobs] if isinstance(jobs, list) else []
    check(len(job_ids) == len(set(job_ids)),
          "service stats: duplicate job ids")
    for job in jobs if isinstance(jobs, list) else []:
        where = f"service stats job {job.get('id')!r}"
        check(isinstance(job.get("id"), int), f"{where}: id is not an integer")
        check(job.get("kind") in JOB_KINDS,
              f"{where}: unknown kind {job.get('kind')!r}")
        check(job.get("state") in JOB_STATES,
              f"{where}: unknown state {job.get('state')!r}")
        check(isinstance(job.get("tenant"), str) and job.get("tenant"),
              f"{where}: missing tenant")
        check(isinstance(job.get("submit_seconds"), (int, float)),
              f"{where}: submit_seconds is not numeric")
        for key in ("input_bytes", "output_bytes"):
            check(isinstance(job.get(key), int),
                  f"{where}: '{key}' is not an integer")
        if job.get("state") in ("done", "failed", "cancelled"):
            check(isinstance(job.get("finish_seconds"), (int, float)),
                  f"{where}: terminal job is missing finish_seconds")
        if job.get("state") == "failed":
            check(isinstance(job.get("error"), str) and job.get("error"),
                  f"{where}: failed job carries no error text")
        if "streamed" in job:
            check(job.get("streamed") is True,
                  f"{where}: streamed must be true when present")
            check(job.get("kind") == "sort",
                  f"{where}: streamed on a non-sort job")
            if job.get("state") == "done":
                ttfb = job.get("time_to_first_byte_ms")
                check(isinstance(ttfb, (int, float)) and ttfb >= 0,
                      f"{where}: streamed done job is missing "
                      "time_to_first_byte_ms")


def check_trace(path):
    lines = path.read_text().splitlines()
    check(len(lines) > 0, "trace: empty JSONL stream")
    for i, line in enumerate(lines, 1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as err:
            check(False, f"trace line {i}: invalid JSON ({err})")
            continue
        check(record.get("type") in ("span", "run_event"),
              f"trace line {i}: unknown type {record.get('type')!r}")


TIMELINE_REQUIRED_GAUGES = ("budget_used_blocks", "budget_total_blocks",
                            "io_logical_total", "io_physical_total",
                            "sessions_active", "runs_live")


def check_timeline(path, expect_interval_ms):
    """Validate a nexsort-timeline-v1 JSONL stream: one self-describing
    header record, then samples with non-decreasing timestamps, numeric
    gauges, monotone I/O totals, and the hit-rate absence convention."""
    try:
        lines = path.read_text().splitlines()
    except OSError as err:
        check(False, f"timeline: cannot read {path}: {err}")
        return
    check(len(lines) >= 2, "timeline: expected a header plus >= 1 sample")
    if not lines:
        return
    records = []
    for i, line in enumerate(lines, 1):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as err:
            check(False, f"timeline line {i}: invalid JSON ({err})")
            return

    header = records[0]
    check(header.get("type") == "header",
          f"timeline: first record type is {header.get('type')!r}")
    check(header.get("schema") == "nexsort-timeline-v1",
          f"timeline schema is {header.get('schema')!r}, "
          "expected 'nexsort-timeline-v1'")
    check(header.get("sample_interval_ms") == expect_interval_ms,
          f"timeline header: sample_interval_ms is "
          f"{header.get('sample_interval_ms')!r}, expected "
          f"{expect_interval_ms}")
    env = header.get("env")
    check(isinstance(env, dict), "timeline header: missing env description")
    if isinstance(env, dict):
        for key in ENV_KEYS:
            check(key in env, f"timeline header env: missing key '{key}'")

    prev_t = -1.0
    prev_logical = -1.0
    prev_physical = -1.0
    for i, record in enumerate(records[1:], 2):
        where = f"timeline line {i}"
        check(record.get("type") == "sample",
              f"{where}: unknown type {record.get('type')!r}")
        t_seconds = record.get("t_seconds")
        check(isinstance(t_seconds, (int, float)) and t_seconds >= 0,
              f"{where}: t_seconds is not a non-negative number")
        if isinstance(t_seconds, (int, float)):
            check(t_seconds >= prev_t,
                  f"{where}: t_seconds went backwards")
            prev_t = t_seconds
        gauges = record.get("gauges")
        check(isinstance(gauges, dict), f"{where}: gauges is not an object")
        if not isinstance(gauges, dict):
            continue
        for name, value in gauges.items():
            check(isinstance(value, (int, float)),
                  f"{where}: gauge '{name}' is not numeric")
        for name in TIMELINE_REQUIRED_GAUGES:
            check(name in gauges, f"{where}: missing gauge '{name}'")
        # Lifetime totals only ever grow.
        logical = gauges.get("io_logical_total", 0)
        physical = gauges.get("io_physical_total", 0)
        check(logical >= prev_logical, f"{where}: io_logical_total fell")
        check(physical >= prev_physical, f"{where}: io_physical_total fell")
        prev_logical, prev_physical = logical, physical
        # The hit-rate gauge only exists once the pool saw an access.
        accesses = gauges.get("cache_hits", 0) + gauges.get("cache_misses", 0)
        if accesses == 0:
            check("cache_hit_rate_pct" not in gauges,
                  f"{where}: cache_hit_rate_pct present with zero accesses")
        else:
            check("cache_hit_rate_pct" in gauges,
                  f"{where}: cache_hit_rate_pct missing despite accesses")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--xmlsort", help="path to the xmlsort binary")
    parser.add_argument("--fixture", help="small XML document to sort")
    parser.add_argument("--keep", default=None,
                        help="write artifacts into this directory and keep "
                             "them (default: a temp dir)")
    parser.add_argument("--service-stats", default=None,
                        help="validate this nexsortd-stats-v1 document "
                             "instead of driving xmlsort")
    args = parser.parse_args()

    if args.service_stats:
        try:
            stats = json.loads(Path(args.service_stats).read_text())
        except (OSError, json.JSONDecodeError) as err:
            print(f"FAIL: cannot parse {args.service_stats}: {err}",
                  file=sys.stderr)
            return 1
        # `nexsortctl stats` wraps the document in a wire response; accept
        # either the raw stats object or that envelope.
        if "stats" in stats and "schema" not in stats:
            stats = stats["stats"]
        check_service_stats(stats)
        if FAILURES:
            for failure in FAILURES:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print("service stats schema OK")
        return 0

    if not args.xmlsort or not args.fixture:
        parser.error("--xmlsort and --fixture are required unless "
                     "--service-stats is given")

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(args.keep) if args.keep else Path(tmp)
        workdir.mkdir(parents=True, exist_ok=True)

        # Seven runs: the default (cache and pipeline off, the stats blocks
        # must say so), a cached run (cache counters populated and mirrored
        # into the telemetry), a parallel run (worker threads + merge
        # prefetching; parallel counters populated, output byte-identical
        # to the serial runs), a sampled run (live sampler on, timeline
        # JSONL validated record-by-record; sampling must not change the
        # sorted bytes either), a replacement-selection run (the sort block
        # names the policy; output still byte-identical), a streamed
        # run (pull-based output; time_to_first_byte_ms recorded and
        # bounded by the wall time, bytes identical again), and a greedy
        # merge-policy run with placement off (the A/B baseline of
        # docs/MERGE_PLANNING.md; output byte-identical once more).
        sample_interval_ms = 2
        outputs = {}
        for (label, extra, cache_enabled, parallel_enabled,
             expect_policy, expect_streaming, expect_merge_policy) in (
            ("default", [], False, False, "quicksort_chunks", False,
             "planned"),
            ("cached", ["--cache-blocks", "32", "--readahead", "4"],
             True, False, "quicksort_chunks", False, "planned"),
            ("parallel", ["--cache-blocks", "32", "--threads", "2",
                          "--prefetch-depth", "4"], True, True,
             "quicksort_chunks", False, "planned"),
            ("sampled", ["--cache-blocks", "32", "--threads", "2",
                         "--sample-interval-ms", str(sample_interval_ms)],
             True, True, "quicksort_chunks", False, "planned"),
            ("replacement", ["--run-formation", "replacement"],
             False, False, "replacement_selection", False, "planned"),
            ("streamed", ["--stream"], False, False,
             "quicksort_chunks", True, "planned"),
            ("greedy", ["--merge-policy", "greedy", "--no-dfs-placement"],
             False, False, "quicksort_chunks", False, "greedy"),
        ):
            stats_path = workdir / f"stats-{label}.json"
            trace_path = workdir / f"trace-{label}.jsonl"
            output_path = workdir / f"sorted-{label}.xml"
            timeline_path = workdir / f"timeline-{label}.jsonl"

            command = [
                args.xmlsort, "--numeric", *extra,
                "--stats-json", str(stats_path),
                "--trace-out", str(trace_path),
                args.fixture, str(output_path),
            ]
            if label == "sampled":
                command[-2:-2] = ["--timeline-out", str(timeline_path)]
            result = subprocess.run(command, capture_output=True, text=True)
            if result.returncode != 0:
                print(f"FAIL: xmlsort ({label}) exited {result.returncode}",
                      file=sys.stderr)
                sys.stderr.write(result.stderr)
                return 1

            try:
                stats = json.loads(stats_path.read_text())
            except (OSError, json.JSONDecodeError) as err:
                print(f"FAIL: cannot parse {stats_path}: {err}",
                      file=sys.stderr)
                return 1
            check_stats(stats, cache_enabled=cache_enabled,
                        parallel_enabled=parallel_enabled,
                        expect_policy=expect_policy,
                        expect_streaming=expect_streaming,
                        expect_merge_policy=expect_merge_policy)
            check(output_path.exists() and output_path.stat().st_size > 0,
                  f"xmlsort ({label}) produced no output document")
            check_trace(trace_path)
            if label == "sampled":
                check_timeline(timeline_path, sample_interval_ms)
            outputs[label] = output_path.read_bytes()

        for label, data in outputs.items():
            check(data == outputs["default"],
                  f"output of run '{label}' differs from the default run")

    if FAILURES:
        for failure in FAILURES:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("telemetry schema OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
