#!/usr/bin/env python3
"""nexsort_lint: project-specific correctness linter for the nexsort tree.

Rules (see docs/STATIC_ANALYSIS.md for rationale and examples):

  nodiscard-status      Every function in a src/ header returning Status or
                        StatusOr<T> by value carries [[nodiscard]].
  unchecked-status      No call site silently discards a Status/StatusOr
                        (no bare `Foo();` statement when Foo returns one).
  void-discard-comment  An intentional `(void)Foo();` discard of a Status
                        must carry an explanatory comment on the same line.
  io-category           Device-level Read/Write calls in src/ pass an
                        explicit IoCategory argument (scope-based category
                        attribution races under concurrency).
  no-stdio              No std::cout / printf / abort in library code
                        (src/). Errors travel as Status; stderr logging and
                        snprintf-to-buffer are allowed.
  no-raw-random         No rand()/srand()/time()/std::random_device outside
                        src/util/random.* — all randomness is seeded and
                        deterministic.
  include-first         Every src/ .cc includes its own header first.
  direct-include        Files using a core project type include its
                        canonical header directly (no transitive reliance);
                        forward declarations and the paired-header
                        allowance for .cc files are accepted.
  env-construction      MemoryBudget / BufferPool / WorkerPool are
                        constructed only inside src/env/ (and their own
                        defining files); everything else obtains them from
                        a SortEnv. Tests are outside the linted tree.
  raw-mutex             No raw std::mutex / std::lock_guard /
                        std::unique_lock / std::condition_variable /
                        std::shared_mutex (etc.) in src/ outside
                        src/util/thread_annotations.{h,cc}: all locking
                        goes through the annotated, ranked Mutex /
                        MutexLock / CondVar / SharedMutex wrappers so the
                        Clang capability analysis and the debug lock-order
                        checker both see every acquisition.
  guarded-by            Every Mutex / SharedMutex member must have at
                        least one NEXSORT_GUARDED_BY(that mutex) field in
                        the same file, or a `// lint-ok: guarded-by`
                        rationale on or directly above the declaration
                        (a mutex guarding nothing is either dead or its
                        guarded data is unannotated).
  py-hygiene            scripts/*.py compile, start with a python3 shebang,
                        carry a module docstring, and keep lines <= 100.

A finding on one line can be suppressed with `// lint-ok: <rule-id>`
(attach it to the first line of a multi-line statement). Exit status is 1
when findings are printed, 0 on a clean tree.

Usage:
  nexsort_lint.py [--root DIR]               # lint the whole tree
  nexsort_lint.py [--rule ID] [--treat-as src] FILE...   # fixture mode
"""

import argparse
import ast
import os
import py_compile
import re
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import lint_common  # noqa: E402  (shared path/message normalization)

CXX_EXTS = (".h", ".cc", ".cpp")

# Canonical header of each core project type/macro the direct-include rule
# tracks. Types not listed here are not checked.
CANONICAL_HEADER = {
    "Status": "util/status.h",
    "StatusOr": "util/status.h",
    "RETURN_IF_ERROR": "util/status.h",
    "ASSIGN_OR_RETURN": "util/status.h",
    "NEXSORT_DCHECK": "util/dcheck.h",
    "NEXSORT_DCHECK_OK": "util/dcheck.h",
    "BlockDevice": "extmem/block_device.h",
    "IoCategory": "extmem/block_device.h",
    "IoCategoryScope": "extmem/block_device.h",
    "IoStats": "extmem/block_device.h",
    "DiskModel": "extmem/block_device.h",
    "MemoryBudget": "extmem/memory_budget.h",
    "BudgetReservation": "extmem/memory_budget.h",
    "ExtStack": "extmem/ext_stack.h",
    "ExtByteStack": "extmem/ext_stack.h",
    "RunStore": "extmem/run_store.h",
    "RunHandle": "extmem/run_store.h",
    "RunWriter": "extmem/run_store.h",
    "RunReader": "extmem/run_store.h",
    "ByteSource": "extmem/stream.h",
    "ByteSink": "extmem/stream.h",
    "ByteRange": "extmem/stream.h",
    "BlockStreamReader": "extmem/stream.h",
    "BlockStreamWriter": "extmem/stream.h",
    "BufferPool": "cache/buffer_pool.h",
    "CachedBlockDevice": "cache/buffer_pool.h",
    "CacheOptions": "cache/buffer_pool.h",
    "CacheStats": "cache/buffer_pool.h",
    "LoserTree": "sort/loser_tree.h",
    "MergeSource": "sort/loser_tree.h",
    "Tracer": "obs/tracer.h",
    "JsonWriter": "obs/json_writer.h",
    "JsonReader": "nested/json_reader.h",
    "JsonEvent": "nested/json_reader.h",
    "MetricsRegistry": "obs/metrics.h",
    "WorkerPool": "parallel/worker_pool.h",
    "BoundedQueue": "parallel/bounded_queue.h",
    "RunPrefetcher": "parallel/run_prefetcher.h",
    "SortEnv": "env/sort_env.h",
    "SortEnvOptions": "env/sort_env.h",
    "SortEnvBuilder": "env/sort_env.h",
    "DeviceLayer": "env/sort_env.h",
    "ThrottleModel": "extmem/device_wrappers.h",
    "CancellationToken": "util/cancellation.h",
    "ScratchNamespace": "extmem/run_store.h",
    "JsonValue": "service/wire.h",
    "FairScheduler": "service/scheduler.h",
    "AdmissionController": "service/scheduler.h",
    "TenantQuota": "service/scheduler.h",
    "SortService": "service/service.h",
    "ServiceOptions": "service/service.h",
    "JobRequest": "service/service.h",
    "SocketServer": "service/server.h",
    "ServiceClient": "service/client.h",
    "RunFormationPolicy": "sort/run_formation.h",
    "RunFormationStats": "sort/run_formation.h",
    "MergePlan": "sort/merge_plan.h",
    "MergePlanner": "sort/merge_plan.h",
    "MergeStep": "sort/merge_plan.h",
    "MergePlanStats": "sort/merge_plan.h",
    "PlacementHint": "extmem/run_store.h",
    "ReplacementSelectionFormer": "sort/replacement_selection.h",
    "ReplacementHeapSlot": "sort/replacement_selection.h",
    "SortedStream": "sort/sorted_stream.h",
    "Mutex": "util/thread_annotations.h",
    "MutexLock": "util/thread_annotations.h",
    "CondVar": "util/thread_annotations.h",
    "SharedMutex": "util/thread_annotations.h",
    "WriterMutexLock": "util/thread_annotations.h",
    "ReaderMutexLock": "util/thread_annotations.h",
    "NEXSORT_GUARDED_BY": "util/thread_annotations.h",
    "NEXSORT_REQUIRES": "util/thread_annotations.h",
    "NEXSORT_EXCLUDES": "util/thread_annotations.h",
}

# Receiver identifiers that denote a BlockDevice for the io-category rule.
DEVICE_RECEIVER = re.compile(r"(?:device|dev|disk)\w*$|^base_?$", re.IGNORECASE)

SPECIFIERS = ("virtual", "static", "inline", "constexpr", "explicit", "friend")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text):
    """Blank out comments and string/char literal contents, preserving
    newlines and overall offsets so line numbers survive."""
    out = list(text)
    i, n = 0, len(text)

    def blank(a, b):
        for j in range(a, b):
            if out[j] != "\n":
                out[j] = " "

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            blank(i, j)
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            blank(i, j)
            i = j
        elif c == "R" and text[i : i + 2] == 'R"':
            m = re.match(r'R"([^(\s]*)\(', text[i:])
            if not m:
                i += 1
                continue
            close = ")" + m.group(1) + '"'
            j = text.find(close, i + m.end())
            j = n if j == -1 else j + len(close)
            blank(i + m.end(), j)
            i = j
        elif c == '"' or c == "'":
            j = i + 1
            while j < n and text[j] != c:
                if text[j] == "\\":
                    j += 1
                j += 1
            j = min(j + 1, n)
            blank(i + 1, j - 1)
            i = j
        else:
            i += 1
    return "".join(out)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def suppressed(raw_lines, lineno, rule):
    line = raw_lines[lineno - 1] if lineno - 1 < len(raw_lines) else ""
    m = re.search(r"//\s*lint-ok:\s*([\w,\s-]+)", line)
    return bool(m) and rule in [r.strip() for r in m.group(1).split(",")]


# ---------------------------------------------------------------------------
# Status-returning function collection (shared by nodiscard-status and
# unchecked-status).

STATUS_DECL = re.compile(
    r"(?:Status|StatusOr<[^;{}()]*>)\s+(?:[A-Za-z_]\w*::)*([A-Za-z_]\w*)\s*\("
)

# Declarations with one of these return types make a name ambiguous: the
# linter matches call sites by name only, so a name with both a Status and
# a non-Status declaration (e.g. SaxParser's private `void Advance(size_t)`
# vs MergeSource::Advance) is excluded rather than risk false positives.
NONSTATUS_DECL = re.compile(
    r"\b(?:void|bool|int|unsigned|char|float|double|size_t|ssize_t"
    r"|u?int(?:8|16|32|64)_t|auto)\s+(?:[A-Za-z_]\w*::)*([A-Za-z_]\w*)\s*\("
)


def collect_status_functions(files):
    """Names of functions declared to return Status/StatusOr by value,
    minus names that also have a non-Status-returning declaration."""
    names = set()
    ambiguous = set()
    for path in files:
        try:
            text = strip_comments_and_strings(read(path))
        except OSError:
            continue
        for m in STATUS_DECL.finditer(text):
            prev = text[: m.start()].rstrip()
            # Skip when Status is qualified (::nexsort::Status locals in
            # macros won't match anyway) or preceded by identifier chars
            # (e.g. "MyStatus").
            if prev.endswith(("::", "<", ",", "(")):
                continue
            names.add(m.group(1))
        for m in NONSTATUS_DECL.finditer(text):
            ambiguous.add(m.group(1))
    return names - ambiguous


def read(path):
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


# ---------------------------------------------------------------------------
# Rules. Each takes (relpath, raw, stripped, raw_lines, ctx) and yields
# Finding objects. `relpath` is repo-relative with forward slashes.


def rule_nodiscard_status(relpath, raw, stripped, raw_lines, ctx):
    if not relpath.endswith(".h"):
        return
    for m in STATUS_DECL.finditer(stripped):
        prev = stripped[: m.start()].rstrip()
        if prev.endswith(("::", "<", ",", "(", "&", "*")):
            continue
        # Walk back over declaration specifiers to find where attributes
        # would sit.
        changed = True
        while changed:
            changed = False
            for kw in SPECIFIERS:
                if prev.endswith(kw):
                    prev = prev[: -len(kw)].rstrip()
                    changed = True
        lineno = line_of(stripped, m.start())
        if prev.endswith("[[nodiscard]]"):
            continue
        if suppressed(raw_lines, lineno, "nodiscard-status"):
            continue
        yield Finding(
            relpath,
            lineno,
            "nodiscard-status",
            f"'{m.group(1)}' returns Status/StatusOr but is not "
            "[[nodiscard]]",
        )


CALL_BOUNDARY = ";{}"


def _statement_prefix_ok(stripped, call_start):
    """True when the text between the previous statement boundary and the
    call consists only of receiver qualification (the call result is the
    whole statement => discarded)."""
    i = call_start - 1
    while i >= 0 and stripped[i] not in CALL_BOUNDARY + ")":
        i -= 1
    if i >= 0 and stripped[i] == ")":
        # `(void)Foo();` is the sanctioned explicit discard (the
        # void-discard-comment rule polices it); any other cast or
        # control-flow close-paren still starts a fresh statement.
        if re.search(r"\(\s*void\s*\)$", stripped[: i + 1]):
            return False
    prefix = stripped[i + 1 : call_start].strip()
    for kw in ("else", "do"):
        if prefix.startswith(kw + " ") or prefix == kw:
            prefix = prefix[len(kw) :].strip()
    return re.fullmatch(r"(?:[A-Za-z_]\w*\s*(?:\.|->|::)\s*)*", prefix) is not None


def _matching_paren(stripped, open_paren):
    depth = 0
    for j in range(open_paren, len(stripped)):
        if stripped[j] == "(":
            depth += 1
        elif stripped[j] == ")":
            depth -= 1
            if depth == 0:
                return j
    return -1


def rule_unchecked_status(relpath, raw, stripped, raw_lines, ctx):
    names = ctx["status_functions"]
    for m in re.finditer(r"\b([A-Za-z_]\w*)\s*\(", stripped):
        name = m.group(1)
        if name not in names:
            continue
        call_start = m.start()
        # The statement-prefix check accepts only receiver qualification
        # before the call, which also excludes declarations (`Status Foo(`
        # has the bare type token in the prefix and fails the check).
        if not _statement_prefix_ok(stripped, call_start):
            continue
        close = _matching_paren(stripped, m.end() - 1)
        if close == -1:
            continue
        rest = stripped[close + 1 :].lstrip()
        if not rest.startswith(";"):
            continue  # chained (.ok(), .status()), assigned, etc.
        lineno = line_of(stripped, call_start)
        if suppressed(raw_lines, lineno, "unchecked-status"):
            continue
        yield Finding(
            relpath,
            lineno,
            "unchecked-status",
            f"result of '{name}' (returns Status/StatusOr) is discarded; "
            "check it, propagate with RETURN_IF_ERROR, or use an explicit "
            "(void) cast with a comment",
        )


def rule_void_discard_comment(relpath, raw, stripped, raw_lines, ctx):
    names = ctx["status_functions"]
    pattern = re.compile(
        r"\(\s*void\s*\)\s*(?:[A-Za-z_]\w*\s*(?:\.|->|::)\s*)*([A-Za-z_]\w*)\s*\("
    )
    for m in pattern.finditer(stripped):
        if m.group(1) not in names:
            continue
        lineno = line_of(stripped, m.start())
        raw_line = raw_lines[lineno - 1] if lineno - 1 < len(raw_lines) else ""
        prev_line = raw_lines[lineno - 2].strip() if lineno >= 2 else ""
        # The explanation may sit on the same line or the line above.
        if "//" in raw_line or prev_line.startswith("//"):
            continue
        if suppressed(raw_lines, lineno, "void-discard-comment"):
            continue
        yield Finding(
            relpath,
            lineno,
            "void-discard-comment",
            f"intentional (void) discard of '{m.group(1)}' needs a "
            "same-line comment explaining why the Status may be ignored",
        )


def rule_io_category(relpath, raw, stripped, raw_lines, ctx):
    pattern = re.compile(r"([A-Za-z_]\w*)\s*(?:->|\.)\s*(Read|Write)\s*\(")
    for m in pattern.finditer(stripped):
        if not DEVICE_RECEIVER.search(m.group(1)):
            continue
        close = _matching_paren(stripped, m.end() - 1)
        if close == -1:
            continue
        args = stripped[m.end() : close]
        if "IoCategory::" in args or re.search(r"\b(?:\w*category\w*|cat)\b", args):
            continue
        lineno = line_of(stripped, m.start())
        if suppressed(raw_lines, lineno, "io-category"):
            continue
        yield Finding(
            relpath,
            lineno,
            "io-category",
            f"BlockDevice {m.group(2)} on '{m.group(1)}' without an "
            "explicit IoCategory argument (scope-based attribution races "
            "under concurrency)",
        )


STDIO_PATTERNS = [
    (re.compile(r"std::cout\b"), "std::cout"),
    (re.compile(r"(?<![A-Za-z_])printf\s*\("), "printf"),
    (re.compile(r"(?<![A-Za-z_])abort\s*\("), "abort"),
    (re.compile(r"(?<![A-Za-z_:.>])exit\s*\("), "exit"),
]


def rule_no_stdio(relpath, raw, stripped, raw_lines, ctx):
    for pattern, what in STDIO_PATTERNS:
        for m in pattern.finditer(stripped):
            lineno = line_of(stripped, m.start())
            if suppressed(raw_lines, lineno, "no-stdio"):
                continue
            yield Finding(
                relpath,
                lineno,
                "no-stdio",
                f"'{what}' in library code; report errors via Status "
                "(stderr logging and snprintf-to-buffer are allowed)",
            )


RANDOM_PATTERNS = [
    (re.compile(r"(?<![A-Za-z_])s?rand\s*\("), "rand/srand"),
    (re.compile(r"std::random_device\b"), "std::random_device"),
    (re.compile(r"(?<![A-Za-z_])time\s*\("), "time()"),
]


def rule_no_raw_random(relpath, raw, stripped, raw_lines, ctx):
    if re.match(r"src/util/random\.(h|cc)$", relpath):
        return
    for pattern, what in RANDOM_PATTERNS:
        for m in pattern.finditer(stripped):
            lineno = line_of(stripped, m.start())
            if suppressed(raw_lines, lineno, "no-raw-random"):
                continue
            yield Finding(
                relpath,
                lineno,
                "no-raw-random",
                f"'{what}' outside src/util/random.*; all randomness "
                "must be seeded and deterministic",
            )


STEADY_CLOCK_PATTERN = re.compile(r"\bsystem_clock\b")


def rule_steady_clock(relpath, raw, stripped, raw_lines, ctx):
    # Durations and timestamps in measurement paths must come from the
    # monotonic clock: system_clock jumps under NTP/DST and would corrupt
    # span durations, sampler timelines, and modeled-vs-wall comparisons.
    for m in STEADY_CLOCK_PATTERN.finditer(stripped):
        lineno = line_of(stripped, m.start())
        if suppressed(raw_lines, lineno, "steady-clock"):
            continue
        yield Finding(
            relpath,
            lineno,
            "steady-clock",
            "'system_clock' in a measurement path; use "
            "std::chrono::steady_clock (monotonic) so durations and "
            "timelines survive wall-clock jumps",
        )


def rule_include_first(relpath, raw, stripped, raw_lines, ctx):
    if not relpath.endswith((".cc", ".cpp")):
        return
    stem = re.sub(r"\.(cc|cpp)$", "", relpath)
    own = stem + ".h"
    if not os.path.exists(os.path.join(ctx["root"], own)):
        return
    expected = own[len("src/") :] if own.startswith("src/") else own
    includes = re.findall(r'^\s*#\s*include\s+["<]([^">]+)[">]', raw, re.M)
    if not includes:
        return
    if includes[0] != expected:
        lineno = next(
            (
                idx + 1
                for idx, line in enumerate(raw_lines)
                if re.match(r"\s*#\s*include", line)
            ),
            1,
        )
        if suppressed(raw_lines, lineno, "include-first"):
            return
        yield Finding(
            relpath,
            lineno,
            "include-first",
            f'first include must be the paired header "{expected}" '
            f'(found "{includes[0]}")',
        )


def rule_direct_include(relpath, raw, stripped, raw_lines, ctx):
    includes = set(re.findall(r'^\s*#\s*include\s+"([^"]+)"', raw, re.M))
    # Plain (`class X;`) and elaborated (`class X* p`) forward declarations
    # both satisfy the rule: the file names its dependency explicitly.
    forward_decls = set(
        re.findall(r"\b(?:class|struct)\s+([A-Za-z_]\w*)\s*[;*&]", stripped)
    )
    paired_includes = set()
    if relpath.endswith((".cc", ".cpp")):
        own = re.sub(r"\.(cc|cpp)$", ".h", relpath)
        own_path = os.path.join(ctx["root"], own)
        if os.path.exists(own_path):
            paired_includes = set(
                re.findall(r'^\s*#\s*include\s+"([^"]+)"', read(own_path), re.M)
            )
    for type_name, header in CANONICAL_HEADER.items():
        if relpath == "src/" + header or relpath == "src/" + header[:-2] + ".cc":
            continue
        if header in includes or header in paired_includes:
            continue
        if type_name in forward_decls:
            continue
        m = re.search(r"\b" + re.escape(type_name) + r"\b", stripped)
        if not m:
            continue
        lineno = line_of(stripped, m.start())
        if suppressed(raw_lines, lineno, "direct-include"):
            continue
        yield Finding(
            relpath,
            lineno,
            "direct-include",
            f"uses '{type_name}' without directly including "
            f'"{header}" (transitive includes are not a contract)',
        )


# The three shared-resource types only SortEnv may build. Each maps to the
# file stem whose header/impl pair is allowed to construct it (its own
# definition); src/env/** is allowed to construct all of them.
ENV_OWNED_TYPES = {
    "MemoryBudget": "src/extmem/memory_budget",
    "BufferPool": "src/cache/buffer_pool",
    "WorkerPool": "src/parallel/worker_pool",
}

ENV_CONSTRUCTION = re.compile(
    r"(?:\bnew\s+(MemoryBudget|BufferPool|WorkerPool)\b"
    r"|\bmake_(?:unique|shared)<\s*(MemoryBudget|BufferPool|WorkerPool)\s*>"
    r"|\b(MemoryBudget|BufferPool|WorkerPool)\s+[A-Za-z_]\w*\s*[({])"
)


def rule_env_construction(relpath, raw, stripped, raw_lines, ctx):
    if relpath.startswith("src/env/"):
        return
    for m in ENV_CONSTRUCTION.finditer(stripped):
        type_name = next(g for g in m.groups() if g)
        owner = ENV_OWNED_TYPES[type_name]
        if relpath in (owner + ".h", owner + ".cc"):
            continue
        lineno = line_of(stripped, m.start())
        if suppressed(raw_lines, lineno, "env-construction"):
            continue
        yield Finding(
            relpath,
            lineno,
            "env-construction",
            f"direct construction of '{type_name}' outside src/env/; "
            "resources are owned by the execution environment — build a "
            "SortEnv and use its accessors (docs/ARCHITECTURE.md)",
        )


# The one file allowed to touch the raw primitives: it defines the
# wrappers everything else must use.
RAW_MUTEX_ALLOWED = (
    "src/util/thread_annotations.h",
    "src/util/thread_annotations.cc",
)

RAW_MUTEX_PATTERN = re.compile(
    r"std::(?:(?:recursive_|timed_|recursive_timed_)?mutex"
    r"|shared_(?:timed_)?mutex"
    r"|condition_variable(?:_any)?"
    r"|lock_guard|unique_lock|scoped_lock|shared_lock)\b"
)


def rule_raw_mutex(relpath, raw, stripped, raw_lines, ctx):
    if relpath in RAW_MUTEX_ALLOWED:
        return
    for m in RAW_MUTEX_PATTERN.finditer(stripped):
        lineno = line_of(stripped, m.start())
        if suppressed(raw_lines, lineno, "raw-mutex"):
            continue
        yield Finding(
            relpath,
            lineno,
            "raw-mutex",
            f"'{m.group(0)}' outside util/thread_annotations.*; use the "
            "annotated Mutex / MutexLock / CondVar / SharedMutex wrappers "
            "so the capability analysis and the lock-order checker see "
            "the acquisition",
        )


# A Mutex/SharedMutex member: brace-initialized (the wrappers have no
# default constructor — every instance carries a name and a rank).
# `MutexLock lock(&mu)` uses parens and never matches.
MUTEX_MEMBER = re.compile(r"\b(?:Mutex|SharedMutex)\s+([A-Za-z_]\w*)\s*\{")


def rule_guarded_by(relpath, raw, stripped, raw_lines, ctx):
    if relpath in RAW_MUTEX_ALLOWED:
        return
    for m in MUTEX_MEMBER.finditer(stripped):
        name = m.group(1)
        lineno = line_of(stripped, m.start())
        # The rationale comment conventionally sits on the declaration
        # line or at the end of the doc comment directly above it.
        if suppressed(raw_lines, lineno, "guarded-by") or (
            lineno >= 2 and suppressed(raw_lines, lineno - 1, "guarded-by")
        ):
            continue
        user = re.compile(
            r"NEXSORT_(?:PT_)?GUARDED_BY\(\s*" + re.escape(name) + r"\s*\)"
        )
        if user.search(stripped):
            continue
        yield Finding(
            relpath,
            lineno,
            "guarded-by",
            f"mutex '{name}' has no NEXSORT_GUARDED_BY({name}) field in "
            "this file; annotate what it guards or attach a "
            "`// lint-ok: guarded-by` rationale",
        )


def check_python_file(relpath, path):
    findings = []
    try:
        with tempfile.TemporaryDirectory() as tmp:
            py_compile.compile(path, cfile=os.path.join(tmp, "lint.pyc"), doraise=True)
    except py_compile.PyCompileError as err:
        findings.append(Finding(relpath, 1, "py-hygiene", f"does not compile: {err.msg}"))
        return findings
    text = read(path)
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#!/usr/bin/env python3"):
        findings.append(
            Finding(relpath, 1, "py-hygiene", "missing '#!/usr/bin/env python3' shebang")
        )
    try:
        if ast.get_docstring(ast.parse(text)) is None:
            findings.append(Finding(relpath, 1, "py-hygiene", "missing module docstring"))
    except SyntaxError:
        pass  # unreachable: py_compile above would have failed
    for idx, line in enumerate(lines, start=1):
        if len(line) > 100:
            findings.append(
                Finding(relpath, idx, "py-hygiene", f"line longer than 100 chars ({len(line)})")
            )
        if "\t" in line:
            findings.append(Finding(relpath, idx, "py-hygiene", "tab character"))
    return findings


# Rule registry: id -> (function, scope predicate over repo-relative path).
def _in_src(relpath):
    return relpath.startswith("src/")


def _in_status_scope(relpath):
    return relpath.startswith(("src/", "bench/", "examples/"))


RULES = {
    "nodiscard-status": (rule_nodiscard_status, _in_src),
    "unchecked-status": (rule_unchecked_status, _in_status_scope),
    "void-discard-comment": (rule_void_discard_comment, _in_status_scope),
    "io-category": (rule_io_category, _in_src),
    "no-stdio": (rule_no_stdio, _in_src),
    "no-raw-random": (rule_no_raw_random, _in_src),
    "steady-clock": (rule_steady_clock, _in_src),
    "include-first": (rule_include_first, _in_src),
    "direct-include": (rule_direct_include, _in_src),
    "env-construction": (rule_env_construction, _in_status_scope),
    "raw-mutex": (rule_raw_mutex, _in_src),
    "guarded-by": (rule_guarded_by, _in_src),
}


def cxx_files_under(root, subdirs):
    out = []
    for sub in subdirs:
        base = os.path.join(root, sub)
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(CXX_EXTS):
                    out.append(
                        os.path.relpath(os.path.join(dirpath, name), root).replace(
                            os.sep, "/"
                        )
                    )
    return sorted(out)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser.add_argument("--root", default=default_root)
    parser.add_argument("--rule", action="append", help="restrict to these rule ids")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument(
        "--treat-as",
        default=None,
        help="pretend explicit FILEs live under this tree (src/bench/examples) "
        "so scope-limited rules apply to them (fixture testing)",
    )
    parser.add_argument("files", nargs="*", help="explicit files (default: whole tree)")
    args = parser.parse_args()

    if args.list_rules:
        for rule in sorted(RULES) + ["py-hygiene"]:
            print(rule)
        return 0

    root = os.path.abspath(args.root)
    active = set(args.rule) if args.rule else set(RULES) | {"py-hygiene"}
    unknown = active - set(RULES) - {"py-hygiene"}
    if unknown:
        parser.error(f"unknown rule(s): {', '.join(sorted(unknown))}")

    if args.files:
        targets = [(os.path.abspath(f), None) for f in args.files]
    else:
        targets = [
            (os.path.join(root, rel), rel)
            for rel in cxx_files_under(root, ["src", "bench", "examples"])
        ]
        scripts_dir = os.path.join(root, "scripts")
        py_files = [
            os.path.join(scripts_dir, f)
            for f in sorted(os.listdir(scripts_dir))
            if f.endswith(".py")
        ]
        targets += [(p, lint_common.rel_to_root(root, p)) for p in py_files]

    # Status-returning names come from all src headers plus whatever is
    # being linted (so fixtures contribute their own declarations).
    name_sources = [
        os.path.join(root, rel) for rel in cxx_files_under(root, ["src"])
    ] + [p for p, _rel in targets if p.endswith(CXX_EXTS)]
    ctx = {"root": root, "status_functions": collect_status_functions(name_sources)}

    findings = []
    for path, rel in targets:
        if rel is None:
            rel = lint_common.rel_to_root(root, path)
            if args.treat_as and not rel.startswith(args.treat_as + "/"):
                rel = args.treat_as + "/" + os.path.basename(path)
        if path.endswith(".py"):
            if "py-hygiene" in active:
                findings += check_python_file(rel, path)
            continue
        raw = read(path)
        stripped = strip_comments_and_strings(raw)
        raw_lines = raw.splitlines()
        for rule_id, (fn, scope) in RULES.items():
            if rule_id not in active or not scope(rel):
                continue
            findings += list(fn(rel, raw, stripped, raw_lines, ctx))

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for finding in findings:
        print(finding)
    if findings:
        print(f"nexsort_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
