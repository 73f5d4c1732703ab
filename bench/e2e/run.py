#!/usr/bin/env python3
"""End-to-end benchmark of NEXSORT on real files (see README.md).

  python3 bench/e2e/run.py [--seed S] [--seconds N] [--scale F] [--out FILE]
      Build, then run all four workloads, each with a traced job, and print
      every end-to-end and per-layer metric by name and unit. Exits non-zero
      on any failed job or wrong output.

  python3 bench/e2e/run.py --workload W --seed S --seconds N --trace 0|1
      One workload. The last line of stdout is one JSON object with the keys
      correct, attempted, failed and metrics: the end-to-end metrics with
      --trace 0, the per-layer metrics with --trace 1.

  python3 bench/e2e/run.py compare PARENT.json CHANGE.json
  python3 bench/e2e/run.py compare --self-test
      Judge a change against its parent from two results files (--out).

  python3 bench/e2e/run.py selftest
      Every workload at --scale 0.01, an injected output corruption that must
      be caught, and the compare self-test; under a minute after the build.

Metric names, units, directions and bounds come from BENCHMARK.json at the
root of the repository. Everything the benchmark writes lives under
build/bench-e2e/.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

PKG = Path(__file__).resolve().parent
ROOT = PKG.parent.parent
BUILD = ROOT / "build" / "bench-e2e"
DATA = BUILD / "data"
RESULTS = BUILD / "results"
RUNNER = BUILD / "e2e_runner"
GEN = BUILD / "e2e_gen"
DAEMON = BUILD / "nexsortd"

BLOCK = 64 * 1024
MIB = float(1 << 20)
GIB = float(1 << 30)
MIN_JOBS = 3          # timed jobs of a file run, however short --seconds is
MIN_ROUNDS = 2        # daemon lifetimes of a service run
SETUP_PROBES = 7      # extra spawn -> ready probes of a file run
DAEMON_PROBES = 5     # extra spawn -> first ping probes of a service run
CHILD_TIMEOUT_S = 150

# Block size is 64 KiB and the order *:attr(id)n everywhere (both fixed in
# runner.cc). Why each workload exists is in README.md.
WORKLOADS = {
    "deep-file": {"kind": "file", "shape": "deep", "mib": 128,
                  "env": {"memory-blocks": 32}},
    "flat-file": {"kind": "file", "shape": "flat", "mib": 96,
                  "env": {"memory-blocks": 32}},
    "flat-overlap": {"kind": "file", "shape": "flat", "mib": 96,
                     "env": {"memory-blocks": 96, "sort-memory-blocks": 29,
                             "threads": 2, "cache-frames": 64,
                             "readahead": 4, "prefetch-depth": 4}},
    "service-mixed": {"kind": "service", "docs": 8, "doc_mib": 1.5,
                      "bulk_mib": 16, "jobs_per_client": 60},
}
SERIAL = {"deep-file", "flat-file"}
DAEMON_FLAGS = ["--memory-mb", "32", "--cache-blocks", "128",
                "--executors", "2", "--tenant", "interactive:1:2",
                "--tenant", "bulk:0.25:1"]
# The daemon's SortEnv, re-created by the runner to time SortEnv::Create.
DAEMON_ENV = {"memory-blocks": 512, "cache-frames": 128}
IO_CATEGORIES = ["input", "output", "data-stack", "path-stack",
                 "output-stack", "run-write", "run-read", "sort-temp"]


class BenchError(Exception):
    """A failure that stops the run before any result is printed."""


# -- Statistics -------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, pct):
    """Inclusive-method percentile, as statistics.quantiles computes it."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def quartiles(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# -- Build, guards, context ---------------------------------------------------

def catalogue():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    steps = [["cmake", "-S", str(PKG), "-B", str(BUILD)],
             ["cmake", "--build", str(BUILD), "-j",
              str(min(4, os.cpu_count() or 1))]]
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out,
                              stderr=subprocess.STDOUT).returncode != 0:
                raise BenchError(f"build failed; see {log}")


def build_info():
    info = json.loads(subprocess.run([str(RUNNER), "info"], check=True,
                                     capture_output=True, text=True).stdout)
    if info["dcheck"] or info["sanitized"] or not info["optimized"] \
            or not info["ndebug"]:
        raise BenchError(f"refusing to time a debug or sanitizer build: {info}")
    return info


def fs_type(path):
    path, best, found = str(path), "", "unknown"
    with open("/proc/mounts") as mounts:
        for line in mounts:
            fields = line.split()
            mount = fields[1].replace("\\040", " ")
            inside = path == mount or path.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) >= len(best):
                best, found = mount, fields[2]
    return found


def data_fs():
    DATA.mkdir(parents=True, exist_ok=True)
    found = fs_type(DATA.resolve())
    if found in ("tmpfs", "ramfs"):
        raise BenchError(f"data dir {DATA} is on {found}; the benchmark "
                         "times a real file-backed device")
    return found


def context(seed, scale, seconds, fstype, info):
    cpu = "unknown"
    with open("/proc/cpuinfo") as cpuinfo:
        for line in cpuinfo:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    revision = "unknown"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            revision = git.stdout.strip()
    return {"nproc": os.cpu_count(), "kernel": platform.release(),
            "fs_type": fstype, "cpu_model": cpu, "git_revision": revision,
            "seed": seed, "scale": scale, "seconds": seconds,
            "page_cache": "warm", "build": info}


def prepare():
    build()
    return build_info(), data_fs()


# -- Child processes ----------------------------------------------------------

def spawn(cmd, cwd=None, log=None):
    """Run cmd to completion. Returns (seconds from spawn to its "ready"
    line or None, its other stdout lines, its rusage, its exit code)."""
    start = time.perf_counter()
    proc = subprocess.Popen([str(c) for c in cmd], cwd=cwd,
                            stdout=subprocess.PIPE,
                            stderr=log or subprocess.DEVNULL)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    ready, lines = None, []
    try:
        for raw in proc.stdout:
            line = raw.decode(errors="replace").rstrip("\n")
            if line == "ready" and ready is None:
                ready = time.perf_counter() - start
            else:
                lines.append(line)
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
    return ready, lines, usage, proc.returncode


def run_json(cmd, cwd=None, log=None):
    """The JSON last line of a child that must succeed, or None."""
    _, lines, _, code = spawn(cmd, cwd=cwd, log=log)
    if code != 0 or not lines:
        return None
    return json.loads(lines[-1])


def cpu_seconds(usage):
    return usage.ru_utime + usage.ru_stime


def generate(shape, mib, seed, path):
    """Write one input in a separate process, before anything is timed."""
    meta = run_json([GEN, "--shape", shape, "--mib", f"{mib:.6f}",
                     "--seed", seed % (1 << 64), "--out", path])
    if meta is None:
        raise BenchError(f"generating {path} failed")
    meta.update(shape=shape, sha256=sha256(path))
    return meta


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as data:
        for chunk in iter(lambda: data.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def check_doc(path, log=None):
    return run_json([RUNNER, "check", "--input", path], log=log)


def env_flags(env):
    return [arg for key, value in env.items()
            for arg in (f"--{key}", str(value))]


def reset_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


def flip_byte(path):
    """Corrupt one byte in the middle of a file (selftest only)."""
    with open(path, "r+b") as data:
        data.seek(os.path.getsize(path) // 2)
        byte = data.read(1)
        data.seek(-1, os.SEEK_CUR)
        data.write(bytes([byte[0] ^ 0x01]))


class Verifier:
    """Outputs of one input: the first must pass CheckSorted with the
    generated element count and the input's content fingerprint; every later
    one must have the first one's SHA-256."""

    def __init__(self, elements, fingerprint, log):
        self.elements, self.fingerprint, self.log = elements, fingerprint, log
        self.digest = None

    def verify(self, path):
        digest = sha256(path)
        if self.digest is not None:
            return digest == self.digest
        check = check_doc(path, self.log)
        if check is None or not check["sorted"] \
                or check["elements"] != self.elements \
                or check["fingerprint"] != self.fingerprint:
            return False
        self.digest = digest
        return True


class Tally:
    def __init__(self):
        self.attempted = self.failed = self.wrong = 0

    def record(self, ran, correct):
        self.attempted += 1
        if not ran:
            self.failed += 1
        elif not correct:
            self.wrong += 1

    def as_dict(self):
        return {"correct": self.wrong == 0, "attempted": self.attempted,
                "failed": self.failed + self.wrong}


# -- File workloads ------------------------------------------------------------

def run_file(name, seed, seconds, trace, scale, corrupt_job=None):
    cfg = WORKLOADS[name]
    work = DATA / name
    reset_dir(work)
    log = open(work / "stderr.log", "wb")
    try:
        return file_jobs(name, cfg, work, log, seed, seconds, trace, scale,
                         corrupt_job)
    finally:
        log.close()
        shutil.rmtree(work, ignore_errors=True)


def file_jobs(name, cfg, work, log, seed, seconds, trace, scale, corrupt_job):
    source = work / "input.xml"
    meta = generate(cfg["shape"], cfg["mib"] * scale, seed, source)
    reference = check_doc(source, log)
    if reference is None or reference["elements"] != meta["elements"]:
        raise BenchError(f"{name}: generated input does not parse as expected")
    verifier = Verifier(meta["elements"], reference["fingerprint"], log)
    flags = env_flags(cfg["env"])
    tally = Tally()
    setup = []
    output, scratch = work / "output.xml", work / "output.xml.work"
    os.sync()

    def job(traced=False):
        index = tally.attempted
        cmd = [RUNNER, "sort", "--input", source, "--output", output,
               "--work", scratch, *flags] + (["--trace"] if traced else [])
        ready, lines, usage, code = spawn(cmd, log=log)
        record = None
        if code == 0 and ready is not None and lines:
            record = json.loads(lines[-1])
            record.update(ready_s=ready, cpu_s=cpu_seconds(usage),
                          maxrss_mib=usage.ru_maxrss / 1024.0)
            if corrupt_job == index:
                flip_byte(output)
        correct = record is not None and verifier.verify(output)
        tally.record(record is not None, correct)
        # Outside the timed region: a stale .work would make the next
        # SortEnv::Create truncate it, which costs seconds on ext4.
        for path in (output, scratch):
            path.unlink(missing_ok=True)
        os.sync()
        return record if correct else None

    job()  # warm-up: page cache, binary, first output check
    for _ in range(SETUP_PROBES):
        ready, _, _, code = spawn([RUNNER, "ready", "--input", source,
                                   "--work", scratch, *flags], log=log)
        scratch.unlink(missing_ok=True)
        if code == 0 and ready is not None:
            setup.append(ready)
    jobs = []
    start = time.perf_counter()
    while tally.attempted - 1 < MIN_JOBS or \
            time.perf_counter() - start < seconds:
        record = job()
        if record is not None:
            jobs.append(record)
            setup.append(record["ready_s"])
    result = {"tally": tally, "inputs": [meta], "output_sha256":
              verifier.digest, "jobs": jobs, "setup": setup}
    if trace:
        result["traced"] = job(traced=True)
        result["parse"] = run_json([RUNNER, "parse", "--input", source],
                                   log=log)
        result["scan"] = run_json([RUNNER, "scan", "--input", source],
                                  log=log)
    return result


def file_metrics(result):
    jobs = result["jobs"]
    if not jobs:
        return {}
    walls = [j["wall_s"] for j in jobs]
    return {
        "sort_mb_s": median([j["input_bytes"] / MIB / j["wall_s"]
                             for j in jobs]),
        "ttfb_s": median([j["ttfb_s"] for j in jobs]),
        "ios_per_input_block": median(
            [(j["io"]["reads"] + j["io"]["writes"]) /
             (j["input_bytes"] / BLOCK) for j in jobs]),
        "cpu_s_per_gib": median([j["cpu_s"] / (j["input_bytes"] / GIB)
                                 for j in jobs]),
        "peak_rss_mib": median([j["maxrss_mib"] for j in jobs]),
        "setup_s": median(result["setup"]),
        "job_p50_ms": median(walls) * 1e3,
        # A run times about 9 jobs, too few for a tail of job walls; the
        # tail is that of a streaming reader's wait for each later chunk.
        "wait_p95_ms": median([j["next_wait_p95_s"] for j in jobs]) * 1e3,
        "jobs_s": len(jobs) / sum(walls),
    }


def span(spans, name, key):
    return spans.get(name, {}).get(key, 0.0)


def file_layers(name, result):
    jobs, traced = result["jobs"], result.get("traced")
    if not jobs or traced is None:
        return {}
    by_wall = sorted(jobs, key=lambda j: j["wall_s"])
    job = by_wall[len(by_wall) // 2]  # counters and deltas of the median job
    io, proc, spans = job["io"], job["proc"], traced.get("spans", {})
    ios = io["reads"] + io["writes"]
    cache = job["cache"]
    lookups = cache["hits"] + cache["misses"]
    layers = {
        "env.create_s": median([j["env_create_s"] for j in jobs]),
        "xml.parse_mb_s": pass_rate(result["parse"]),
        "core.scan_mb_s": pass_rate(result["scan"]),
        "core.sorting_phase_s": span(spans, "sorting_phase", "total_s"),
        "core.scan_self_s": span(spans, "sorting_phase", "self_s"),
        "core.sort_region_s": span(spans, "sort_region", "total_s"),
        "core.sort_region_self_s": span(spans, "sort_region", "self_s"),
        "core.data_stack_peak_mib":
            job["core"]["data_stack_peak_bytes"] / MIB,
        "core.output_phase_s": span(spans, "output_phase", "total_s"),
        "core.output_chunks": job["next_calls"] - 1,
        "sort.merge_mib": job["sort"]["merge_bytes"] / MIB,
        "sort.run_formation_s": span(spans, "run_formation", "total_s"),
        "sort.sort_partition_s": span(spans, "sort_partition", "total_s"),
        "sort.merge_pass_s": span(spans, "merge_pass", "total_s"),
        "extmem.ios": ios,
        "extmem.reads": io["reads"],
        "extmem.writes": io["writes"],
        "extmem.seq_frac": io["sequential"] / ios if ios else 0.0,
        "extmem.modeled_s": io["modeled_s"],
        "extmem.budget_peak_blocks": job["budget_peak_blocks"],
        "proc.user_s": proc["user_s"],
        "proc.sys_s": proc["sys_s"],
        "proc.offcpu_s": max(0.0, job["wall_s"] - proc["user_s"] -
                             proc["sys_s"]) if name in SERIAL else 0.0,
        "proc.syscr": proc.get("syscr", 0),
        "proc.syscw": proc.get("syscw", 0),
        "proc.rchar_mib": proc.get("rchar", 0) / MIB,
        "proc.wchar_mib": proc.get("wchar", 0) / MIB,
        "proc.disk_write_mib": proc.get("write_bytes", 0) / MIB,
        "proc.vol_csw": proc["vol_csw"],
        "proc.invol_csw": proc["invol_csw"],
        "io.input_read_s": job["input_read_s"],
        "io.input_reads": job["input_reads"],
        "io.output_append_s": job["output_append_s"],
        "io.output_appends": job["output_appends"],
        "cache.hit_rate": cache["hits"] / lookups if lookups else 0.0,
        "cache.physical_per_logical":
            ios / job["logical_ios"] if job["logical_ios"] else 0.0,
        "obs.trace_overhead_frac":
            traced["wall_s"] / median([j["wall_s"] for j in jobs]) - 1.0,
    }
    for key in ("subtree_sorts", "internal_sorts", "external_sorts",
                "pointer_units"):
        layers[f"core.{key}"] = job["core"][key]
    for key in ("runs_formed", "avg_run_blocks", "merge_passes",
                "merge_steps", "fanin_max"):
        layers[f"sort.{key}"] = job["sort"][key]
    for category in IO_CATEGORIES:
        layers["extmem.io." + category.replace("-", "_")] = \
            io["categories"][category]
    for key in ("hits", "misses", "evictions", "writebacks", "prefetches"):
        layers[f"cache.{key}"] = cache[key]
    for key, value in job["parallel"].items():
        layers[f"parallel.{key}"] = value
    return layers


def pass_rate(record):
    return record["bytes"] / MIB / record["seconds"] if record else 0.0


# -- The service workload -------------------------------------------------------

def unix_call(path, request):
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
        conn.settimeout(5)
        conn.connect(path)
        conn.sendall(json.dumps(request).encode() + b"\n")
        reply = b""
        while not reply.endswith(b"\n"):
            chunk = conn.recv(65536)
            if not chunk:
                raise OSError("daemon hung up")
            reply += chunk
    return json.loads(reply)


class Daemon:
    """nexsortd in `work`, from spawn until its first ping is answered
    (setup_s) until SIGTERM; its rusage is read when it has exited."""

    def __init__(self, work, log, timeline=False):
        self.args = [str(DAEMON), "--socket", "nd.sock", *DAEMON_FLAGS,
                     "--scratch-dir", "scratch"]
        if timeline:
            self.args += ["--timeline-out", "timeline.jsonl",
                          "--sample-interval-ms", "50"]
        self.work, self.log = work, log
        self.usage = None
        # A unix socket path must fit in 108 bytes; a deep checkout's
        # absolute path may not, so use whichever form is shorter.
        sock = work / "nd.sock"
        self.sock = min(str(sock), os.path.relpath(sock), key=len)

    def __enter__(self):
        start = time.perf_counter()
        self.proc = subprocess.Popen(self.args, cwd=self.work,
                                     stdout=subprocess.DEVNULL,
                                     stderr=self.log)
        try:
            while True:
                try:
                    if unix_call(self.sock, {"op": "ping"}).get("ok"):
                        break
                except OSError:
                    pass
                if time.perf_counter() - start > 10:
                    raise BenchError("nexsortd did not answer a ping in 10 s")
                time.sleep(0.001)
            self.setup_s = time.perf_counter() - start
        except BaseException:
            self.stop()
            raise
        return self

    def __exit__(self, *exc):
        self.stop()

    def proc_io(self):
        counters = {}
        try:
            with open(f"/proc/{self.proc.pid}/io") as io:
                for line in io:
                    key, value = line.split(":")
                    counters[key] = int(value)
        except OSError:
            pass
        return counters

    def stop(self):
        if self.usage is not None:
            return
        os.kill(self.proc.pid, signal.SIGTERM)
        timer = threading.Timer(20, self.proc.kill)
        timer.start()
        _, status, self.usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()


def run_service(name, seed, seconds, trace, scale):
    cfg = WORKLOADS[name]
    work = DATA / name
    reset_dir(work)
    log = open(work / "stderr.log", "wb")
    try:
        return service_rounds(cfg, work, log, seed, seconds, trace, scale)
    finally:
        log.close()
        shutil.rmtree(work, ignore_errors=True)


def service_rounds(cfg, work, log, seed, seconds, trace, scale):
    docs = []
    for i in range(cfg["docs"]):
        docs.append(generate("deep", cfg["doc_mib"] * scale, seed * 16 + i,
                             work / f"interactive-{i}.xml"))
    bulk = generate("flat", cfg["bulk_mib"] * scale, seed * 16 + cfg["docs"],
                    work / "bulk.xml")
    (work / "out").mkdir()
    spec = {"socket": "nd.sock", "out_dir": str((work / "out").resolve()),
            "jobs_per_client": max(4, round(cfg["jobs_per_client"] * scale)),
            "interactive": [{"path": str(work / f"interactive-{i}.xml"),
                             "elements": d["elements"]}
                            for i, d in enumerate(docs)],
            "bulk": {"path": str(work / "bulk.xml"),
                     "elements": bulk["elements"]}}
    (work / "spec.json").write_text(json.dumps(spec))
    os.sync()
    tally, setup, rounds = Tally(), [], []

    def load(timeline=False):
        with Daemon(work, log, timeline) as daemon:
            if not timeline:
                setup.append(daemon.setup_s)
            io_before = daemon.proc_io()
            record = run_json([RUNNER, "service", "--spec", "spec.json"],
                              cwd=work, log=log)
            io_after = daemon.proc_io()
        if record is None:
            tally.record(False, False)
            return None
        for job in record["interactive"] + record["bulk"]:
            tally.record(job["done"], not job["wrong"])
        record.update(cpu_s=cpu_seconds(daemon.usage),
                      maxrss_mib=daemon.usage.ru_maxrss / 1024.0,
                      vol_csw=daemon.usage.ru_nvcsw,
                      invol_csw=daemon.usage.ru_nivcsw,
                      user_s=daemon.usage.ru_utime,
                      sys_s=daemon.usage.ru_stime,
                      io={k: v - io_before.get(k, 0)
                          for k, v in io_after.items()})
        if timeline:
            record["timeline"] = last_sample(work / "timeline.jsonl")
        shutil.rmtree(work / "scratch", ignore_errors=True)
        return record

    for _ in range(DAEMON_PROBES):
        with Daemon(work, log) as daemon:
            setup.append(daemon.setup_s)
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        record = load()
        if record is None:
            break
        rounds.append(record)
    result = {"tally": tally, "inputs": docs + [bulk], "rounds": rounds,
              "setup": setup}
    if trace:
        result["traced"] = load(timeline=True)
        result["env_create"] = []
        for _ in range(SETUP_PROBES):
            probe = run_json([RUNNER, "ready", "--input", work / "bulk.xml",
                              "--work", work / "probe.work",
                              *env_flags(DAEMON_ENV)], log=log)
            (work / "probe.work").unlink(missing_ok=True)
            if probe is not None:
                result["env_create"].append(probe["env_create_s"])
        result["parse"] = combined_pass(work, docs, "parse", log)
        result["scan"] = combined_pass(work, docs, "scan", log)
    return result


def combined_pass(work, docs, mode, log):
    total = {"bytes": 0, "seconds": 0.0}
    for i in range(len(docs)):
        record = run_json([RUNNER, mode, "--input",
                           work / f"interactive-{i}.xml"], log=log)
        if record is None:
            return None
        total["bytes"] += record["bytes"]
        total["seconds"] += record["seconds"]
    return total


def last_sample(path):
    sample = {}
    try:
        with open(path) as timeline:
            for line in timeline:
                record = json.loads(line)
                if record.get("type") == "sample":
                    sample = record["gauges"]
    except OSError:
        pass
    return sample


def ok_jobs(rounds, kind):
    return [job for r in rounds for job in r[kind]
            if job["done"] and not job["wrong"]]


def service_metrics(result):
    rounds = result["rounds"]
    interactive = ok_jobs(rounds, "interactive")
    bulk = ok_jobs(rounds, "bulk")
    if not interactive or not bulk:
        return {}
    latencies = [job["latency_ms"] for job in interactive]
    per_round_cpu = []
    for r in rounds:
        sorted_bytes = sum(j["input_bytes"] for j in
                           ok_jobs([r], "interactive") + ok_jobs([r], "bulk"))
        if sorted_bytes:
            per_round_cpu.append(r["cpu_s"] / (sorted_bytes / GIB))
    interactive_blocks = sum(r["interactive_input_bytes"]
                             for r in rounds) / BLOCK
    return {
        "sort_mb_s": median([j["input_bytes"] / MIB / (j["latency_ms"] / 1e3)
                             for j in bulk]),
        "ttfb_s": median([j["ttfb_ms"] for j in interactive]) / 1e3,
        "ios_per_input_block": sum(r["interactive_session_ios"]
                                   for r in rounds) / interactive_blocks,
        "cpu_s_per_gib": median(per_round_cpu),
        "peak_rss_mib": median([r["maxrss_mib"] for r in rounds]),
        "setup_s": median(result["setup"]),
        "job_p50_ms": median(latencies),
        "wait_p95_ms": percentile(latencies, 95),
        "jobs_s": len(interactive) / sum(r["interactive_s"] for r in rounds),
    }


def service_layers(result):
    rounds, traced = result["rounds"], result.get("traced")
    if not rounds or not traced:
        return {}
    first = rounds[0]
    interactive = ok_jobs([first], "interactive")
    gauges = traced.get("timeline", {})
    hits, misses = gauges.get("cache_hits", 0), gauges.get("cache_misses", 0)
    hit_rate = hits / (hits + misses) if hits + misses else 0.0
    physical = gauges.get("io_physical_total", 0)
    logical = gauges.get("io_logical_total", 0)
    untraced_p50 = median([j["latency_ms"] for j in interactive])
    traced_p50 = median([j["latency_ms"] for j in
                         ok_jobs([traced], "interactive")])
    layers = {
        "env.create_s": median(result["env_create"]),
        "xml.parse_mb_s": pass_rate(result["parse"]),
        "core.scan_mb_s": pass_rate(result["scan"]),
        "extmem.ios": physical,
        "extmem.reads": gauges.get("io_physical_reads", 0),
        "extmem.writes": gauges.get("io_physical_writes", 0),
        "extmem.budget_peak_blocks": gauges.get("budget_peak_blocks", 0),
        "proc.user_s": first["user_s"],
        "proc.sys_s": first["sys_s"],
        "proc.syscr": first["io"].get("syscr", 0),
        "proc.syscw": first["io"].get("syscw", 0),
        "proc.rchar_mib": first["io"].get("rchar", 0) / MIB,
        "proc.wchar_mib": first["io"].get("wchar", 0) / MIB,
        "proc.disk_write_mib": first["io"].get("write_bytes", 0) / MIB,
        "proc.vol_csw": first["vol_csw"],
        "proc.invol_csw": first["invol_csw"],
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_rate": hit_rate,
        "cache.physical_per_logical": physical / logical if logical else 0.0,
        "service.ping_rtt_ms_p50": median(first["pings_ms"]),
        "service.queue_wait_ms_p50":
            median([j["queue_ms"] for j in interactive]),
        "service.queue_wait_ms_p95":
            percentile([j["queue_ms"] for j in interactive], 95),
        "service.run_ms_p50": median([j["run_ms"] for j in interactive]),
        "service.run_ms_p95":
            percentile([j["run_ms"] for j in interactive], 95),
        "service.client_overhead_ms_p50":
            median([j["latency_ms"] - j["service_ms"] for j in interactive]),
        "service.rejects": sum(j["rejected"] for j in
                               first["interactive"] + first["bulk"]),
        "service.bulk_jobs": len(ok_jobs([first], "bulk")),
        "service.daemon_cpu_s": first["cpu_s"],
        "service.session_ios": first["session_ios"],
        "service.cache_hit_rate": hit_rate,
        "obs.trace_overhead_frac": traced_p50 / untraced_p50 - 1.0
        if untraced_p50 else 0.0,
    }
    for category in IO_CATEGORIES:
        key = "io_physical_" + category
        layers["extmem.io." + category.replace("-", "_")] = \
            gauges.get(key + "_reads", 0) + gauges.get(key + "_writes", 0)
    return layers


# -- One workload, one full run -------------------------------------------------

def run_workload(name, seed, seconds, trace, scale, corrupt_job=None):
    """Run one workload; returns its results-file entry."""
    if WORKLOADS[name]["kind"] == "file":
        result = run_file(name, seed, seconds, trace, scale, corrupt_job)
        metrics = file_metrics(result)
        layers = file_layers(name, result) if trace else {}
        spans = (result.get("traced") or {}).get("spans", {})
    else:
        result = run_service(name, seed, seconds, trace, scale)
        metrics = service_metrics(result)
        layers = service_layers(result) if trace else {}
        spans = {}
    spec = catalogue()
    entry = result["tally"].as_dict()
    entry["metrics"] = with_units(metrics, spec["end_to_end"])
    if trace:
        entry["layers"] = with_units(layers, spec["per_layer"], fill=True)
        entry["spans"] = spans
    entry["inputs"] = result["inputs"]
    entry["output_sha256"] = result.get("output_sha256")
    entry["samples"] = samples(result)
    return entry


def samples(result):
    """The per-job values the medians were taken over."""
    if "jobs" in result:
        return {"setup_s": result["setup"],
                "wall_s": [j["wall_s"] for j in result["jobs"]],
                "ttfb_s": [j["ttfb_s"] for j in result["jobs"]],
                "next_wait_p95_s": [j["next_wait_p95_s"]
                                    for j in result["jobs"]]}
    return {"setup_s": result["setup"],
            "latency_ms": [j["latency_ms"] for j in
                           ok_jobs(result["rounds"], "interactive")],
            "bulk_latency_ms": [j["latency_ms"] for j in
                                ok_jobs(result["rounds"], "bulk")]}


def with_units(values, specs, fill=False):
    """Attach each metric's unit from BENCHMARK.json. A per-layer metric a
    workload bypasses reads 0 (fill); an end-to-end metric never does."""
    out = {}
    for spec in specs:
        if spec["name"] in values or fill:
            out[spec["name"]] = {"value": float(values.get(spec["name"], 0)),
                                 "unit": spec["unit"]}
    return out


def write_results(path, run):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"schema": "nexsort-e2e-v1", "runs": []}
    if path.exists():
        doc = json.loads(path.read_text())
    doc["runs"].append(run)
    path.write_text(json.dumps(doc, indent=1) + "\n")


def print_report(name, entry):
    print(f"== {name}: attempted {entry['attempted']}, failed "
          f"{entry['failed']}, outputs {'correct' if entry['correct'] else 'WRONG'}")
    for meta in entry["inputs"]:
        print(f"   input {meta['shape']} {meta['bytes'] / MIB:.2f} MiB "
              f"sha256 {meta['sha256']}")
    for title, key in (("end-to-end", "metrics"), ("per-layer", "layers")):
        if key not in entry:
            continue
        print(f"   {title}:")
        for metric, value in entry[key].items():
            print(f"     {metric:34s} {value['value']:>16.6g} {value['unit']}")
    if entry.get("spans"):
        print("   spans of the traced job (count, total s, self s):")
        for span_name, agg in entry["spans"].items():
            print(f"     {span_name:34s} {agg['count']:>8} "
                  f"{agg['total_s']:>10.4f} {agg['self_s']:>10.4f}")


def run_main(args):
    info, fstype = prepare()
    seconds = args.seconds if args.seconds is not None \
        else catalogue()["run_seconds"]
    names = [args.workload] if args.workload else list(WORKLOADS)
    trace = bool(args.trace) if args.workload else True
    run = {"context": context(args.seed, args.scale, seconds, fstype, info),
           "workloads": {}}
    for name in names:
        run["workloads"][name] = run_workload(name, args.seed, seconds, trace,
                                              args.scale)
    entries = run["workloads"]
    if "flat-file" in entries and "flat-overlap" in entries and \
            entries["flat-file"]["output_sha256"] != \
            entries["flat-overlap"]["output_sha256"]:
        entries["flat-overlap"]["correct"] = False
    out = args.out or RESULTS / (f"{args.workload or 'all'}-seed{args.seed}-"
                                 f"{time.strftime('%Y%m%d-%H%M%S')}.json")
    write_results(out, run)
    ok = all(e["correct"] and e["failed"] == 0 for e in entries.values())
    if args.workload:
        entry = entries[args.workload]
        print(json.dumps({"correct": entry["correct"],
                          "attempted": entry["attempted"],
                          "failed": entry["failed"],
                          "metrics": entry["layers" if trace else "metrics"]}))
    else:
        for name, entry in entries.items():
            print_report(name, entry)
        print(f"results: {out} (warm page cache, {fstype})")
    return 0 if ok else 1


# -- compare -------------------------------------------------------------------

def load_runs(path):
    return json.loads(Path(path).read_text())["runs"]


def judge(parent, change, better, bound, pairs):
    """One verdict by the rules of the choosing-metrics guide, section 8."""
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = median(parent), median(change)
    p_q1, p_q3 = quartiles(parent)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    won = wins / len(pairs) if pairs else 0.0
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else 0.0
    worse = sign * (p_med - c_med) / abs(p_med) if p_med else 0.0
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    all_worse = all(sign * (p - c) > 0 for c in change for p in parent)
    if won >= 0.9 and worse < 0 and abs(c_med - p_med) > p_q3 - p_q1:
        verdict = "improved"
    elif worse > bound and (spread <= bound or all_worse):
        verdict = "regressed"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {"parent": (p_med, p_q1, p_q3), "change": (c_med,) +
            quartiles(change), "won": won, "verdict": verdict}


def compare(parent_runs, change_runs, spec):
    """Rows of (workload, metric, judgement) plus a list of failure notes."""
    rows, notes = [], []
    by_seed = {r["context"]["seed"]: r for r in parent_runs}
    paired = [(by_seed[r["context"]["seed"]], r) for r in change_runs
              if r["context"]["seed"] in by_seed]
    if len(paired) < min(len(parent_runs), len(change_runs)):
        paired = list(zip(parent_runs, change_runs))
    def present(runs):
        return [w for r in runs for w in r["workloads"]]
    workloads = [w for w in dict.fromkeys(present(parent_runs))
                 if w in present(change_runs)]
    for workload in workloads:
        failed = {side: sum(r["workloads"][workload]["failed"] +
                            (not r["workloads"][workload]["correct"])
                            for r in runs if workload in r["workloads"])
                  for side, runs in (("parent", parent_runs),
                                     ("change", change_runs))}
        if failed["change"] > failed["parent"]:
            notes.append(f"{workload}: {failed['change']} failed or wrong "
                         f"jobs in the change against {failed['parent']}")
        for metric in spec["end_to_end"]:
            def value(run, name=metric["name"]):
                entry = run["workloads"].get(workload, {"metrics": {}})
                return entry["metrics"].get(name, {}).get("value")
            parent = [v for v in map(value, parent_runs) if v is not None]
            change = [v for v in map(value, change_runs) if v is not None]
            pairs = [(value(p), value(c)) for p, c in paired
                     if value(p) is not None and value(c) is not None]
            if parent and change:
                rows.append((workload, metric["name"],
                             judge(parent, change, metric["better"],
                                   metric["bound"], pairs)))
    return rows, notes


def summary(stats):
    return f"{stats[0]:.4g} [{stats[1]:.4g}, {stats[2]:.4g}]"


def compare_main(argv):
    if argv == ["--self-test"]:
        compare_self_test()
        print("compare self-test passed")
        return 0
    if len(argv) != 2:
        print("usage: run.py compare PARENT.json CHANGE.json", file=sys.stderr)
        return 2
    rows, notes = compare(load_runs(argv[0]), load_runs(argv[1]), catalogue())
    print(f"{'workload':14s} {'metric':20s} {'parent median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s} {'won':>5s}  verdict")
    for workload, name, j in rows:
        print(f"{workload:14s} {name:20s} {summary(j['parent']):>32s} "
              f"{summary(j['change']):>32s} {j['won']:>5.2f}  {j['verdict']}")
    for note in notes:
        print("FAIL: " + note)
    regressed = any(j["verdict"] == "regressed" for _, _, j in rows)
    return 1 if regressed or notes else 0


def compare_self_test():
    spec = {"end_to_end": [
        {"name": "sort_mb_s", "unit": "MiB/s", "better": "higher",
         "bound": 0.10},
        {"name": "ttfb_s", "unit": "s", "better": "lower", "bound": 0.10},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mib", "unit": "MiB", "better": "lower",
         "bound": 0.10}]}
    rng = random.Random(7)

    def runs(scales, noise, failed=0):
        out = []
        for seed in range(10):
            metrics = {name: {"value": base * scale *
                              (1 + noise[name] * rng.uniform(-1, 1)),
                              "unit": "x"}
                       for name, base, scale in
                       (("sort_mb_s", 100.0, scales[0]),
                        ("ttfb_s", 2.0, scales[1]),
                        ("setup_s", 0.01, scales[2]),
                        ("peak_rss_mib", 20.0, scales[3]))}
            out.append({"context": {"seed": seed}, "workloads": {"w": {
                "correct": True, "failed": failed if seed == 0 else 0,
                "metrics": metrics}}})
        return out

    quiet = {"sort_mb_s": 0.01, "ttfb_s": 0.01, "setup_s": 0.6,
             "peak_rss_mib": 0.0}
    parent = runs((1, 1, 1, 1), quiet)
    rows, notes = compare(parent, runs((1.2, 1.3, 1, 1), quiet), spec)
    verdicts = {name: j["verdict"] for _, name, j in rows}
    assert verdicts == {"sort_mb_s": "improved", "ttfb_s": "regressed",
                        "setup_s": "unresolved",
                        "peak_rss_mib": "unchanged"}, verdicts
    assert not notes, notes
    rows, notes = compare(parent, runs((1, 1, 1, 1), quiet, failed=1), spec)
    assert {j["verdict"] for _, name, j in rows if name != "setup_s"} == \
        {"unchanged"}, rows
    assert notes and "failed or wrong" in notes[0], notes


# -- selftest ------------------------------------------------------------------

def selftest():
    compare_self_test()
    prepare()
    spec = catalogue()
    problems = []
    start = time.perf_counter()
    for name in WORKLOADS:
        entry = run_workload(name, seed=1, seconds=0.2, trace=True, scale=0.01)
        if not entry["correct"] or entry["failed"]:
            problems.append(f"{name}: failed or wrong outputs")
        for key, specs in (("metrics", spec["end_to_end"]),
                           ("layers", spec["per_layer"])):
            for metric in specs:
                got = entry[key].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{name}: {metric['name']} missing")
                elif key == "metrics" and not got["value"] > 0:
                    problems.append(f"{name}: {metric['name']} is "
                                    f"{got['value']}")
    for job in (0, 2):  # the first output (full check), a later one (digest)
        entry = run_workload("deep-file", seed=1, seconds=0.2, trace=False,
                             scale=0.01, corrupt_job=job)
        if entry["correct"]:
            problems.append(f"a one-byte corruption of job {job} went "
                            "unnoticed")
    elapsed = time.perf_counter() - start
    if elapsed > 60:
        problems.append(f"selftest took {elapsed:.1f} s, over 60 s")
    for problem in problems:
        print("selftest: " + problem)
    print(f"selftest {'FAILED' if problems else 'passed'} in {elapsed:.1f} s")
    return 1 if problems else 0


def main(argv):
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", nargs="?", choices=["selftest"])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", help="results file to append this run to")
    args = parser.parse_args(argv)
    try:
        if args.mode == "selftest":
            return selftest()
        return run_main(args)
    except BenchError as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
