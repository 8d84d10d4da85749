#!/usr/bin/env python3
"""Repo-specific concurrency invariant linter for calcdb.

Enforces rules no off-the-shelf tool knows about this codebase (see
ISSUE/CONTRIBUTING "Correctness tooling"):

  atomic-explicit-order   Every std::atomic access and atomic_thread_fence
                          names an explicit std::memory_order. Implicit
                          seq_cst hides the author's intent and makes
                          relaxed-by-accident regressions unreviewable.
  refcount-acq-rel        fetch_sub on a refcount member (refs_, *refcount*)
                          must be memory_order_acq_rel or seq_cst: the
                          freeing thread has to synchronize with every other
                          thread's final reads (src/storage/value.h).
  naked-lock              Direct .Lock()/.Unlock()/.LockShared()/
                          .UnlockShared() calls outside src/util/latch.h
                          must sit in a function annotated with
                          CALCDB_ACQUIRE/CALCDB_RELEASE/
                          CALCDB_NO_THREAD_SAFETY_ANALYSIS (clang's analysis
                          or its documented opt-out), or carry a
                          naked-lock-ok(<reason>) comment. Everything else
                          uses SpinLatchGuard. Recognizes striped latch
                          members — lock calls on indexed latch-array
                          elements (stripes_[stripe].Lock(),
                          stripes_[shard][stripe].Lock() and kin,
                          txn/lock_manager.h) — and reminds about the
                          canonical acquisition order those arrays
                          require.
  phase-token-latch       PhaseController::SetPhase is only called from
                          CommitLog::AppendPhaseTransition (under the
                          commit-log latch): phase visibility must be atomic
                          with the token append (paper §2.2). Matches
                          member, indexed per-shard controller
                          (phases_[s]->SetPhase) and implicit-this
                          spellings.
  header-guard            Header guards follow CALCDB_<PATH>_<FILE>_H_
                          with a matching trailing '#endif  // GUARD'.
  include-hygiene         Project includes are root-relative (no "../", no
                          "src/" prefix), no 'using namespace' at file
                          scope, and files touching std::atomic/std::thread/
                          std::mutex include the matching standard header
                          themselves.
  obs-relaxed-order       Observability code (src/obs/) must not add memory
                          fences to the code paths it measures: no
                          memory_order_seq_cst anywhere, and counter-style
                          RMWs (fetch_add/fetch_sub) must be
                          memory_order_relaxed. Acquire/release is allowed
                          for loads/stores/exchange (the trace-ring seqlock
                          and reporter-thread handshakes need it).
  crash-point-registered  Every name passed to CALCDB_CRASH_POINT /
                          CALCDB_FAULT_STATUS / CALCDB_FAULT_POINT must
                          appear in the registry in
                          src/util/fault_injection.cc: an unregistered
                          probe would abort at arm time and can't be
                          covered by the torture matrix or documented in
                          docs/DURABILITY.md's survival table.

A finding can be waived per line with a trailing comment:
    // lint:allow(<rule-id>): <justification>

Fixture mode: `--fixtures <dir>` lints every .cc/.h under <dir>, where
each file's leading `// expect-lint: <rules...>` header declares the
exact rule set that must fire on it (`none` for a clean exemplar); any
mismatch in either direction fails the run.

Usage:
    lint_concurrency.py [--self-test] [--fixtures dir] [paths...]
Paths default to the src/ directory next to this script's repo root.
Exit status: 0 clean, 1 findings (or self-test/fixture failure).
"""

import os
import re
import sys

ATOMIC_OPS = (
    "load",
    "store",
    "exchange",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "compare_exchange_weak",
    "compare_exchange_strong",
)

ATOMIC_CALL_RE = re.compile(
    r"(?:\.|->)(" + "|".join(ATOMIC_OPS) + r")\s*\(|"
    r"\batomic_thread_fence\s*\("
)
LOCK_CALL_RE = re.compile(
    r"(?:\.|->)(Lock|Unlock|LockShared|UnlockShared)\s*\(\s*\)"
)
REFCOUNT_SUB_RE = re.compile(
    r"(?:\.|->)?(\w*(?:refs?_|refcount\w*|ref_count\w*))\s*"
    r"(?:\.|->)fetch_sub\s*\("
)
# Member calls (pc->SetPhase, phases_[s].SetPhase) and implicit-this
# calls (SetPhase(...) inside a controller method). The 1-char negative
# lookbehind still admits '.' and '>' receivers while rejecting both
# longer identifiers (MySetPhase) and '::'-qualified out-of-line
# definitions.
SET_PHASE_RE = re.compile(r"(?<![\w:])SetPhase\s*\(")
ANNOTATION_RE = re.compile(
    r"CALCDB_(?:NO_THREAD_SAFETY_ANALYSIS|ACQUIRE|RELEASE|"
    r"ACQUIRE_SHARED|RELEASE_SHARED|TRY_ACQUIRE)"
)
ALLOW_RE = re.compile(r"lint:allow\((?P<rule>[\w-]+)\)|naked-lock-ok\(")

# How far back (lines) a thread-safety annotation on the enclosing
# function's signature may sit from a naked lock call.
ANNOTATION_LOOKBACK = 25

STD_HEADER_FOR = {
    re.compile(r"\bstd::atomic\b|\batomic_thread_fence\b"): "<atomic>",
    re.compile(r"\bstd::thread\b|\bstd::this_thread\b"): "<thread>",
    re.compile(r"\bstd::mutex\b|\bstd::condition_variable\b|"
               r"\bstd::lock_guard\b|\bstd::unique_lock\b"): "<mutex>",
}


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving layout.

    Returns (code, raw_lines) where `code` has the same line structure as
    `text` but with comment/string contents replaced by spaces, so regexes
    can't match inside them and line numbers stay aligned.
    """
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append("'")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state == "string":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "code"
                out.append('"')
            else:
                out.append("\n" if c == "\n" else " ")
        elif state == "char":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == "'":
                state = "code"
                out.append("'")
            else:
                out.append(" ")
        i += 1
    code = "".join(out)
    return code, text.splitlines()


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def call_args(code, open_paren_pos):
    """Returns the argument text of the call whose '(' is at the given
    position, following nested parens across lines. None if unbalanced."""
    depth = 0
    for i in range(open_paren_pos, len(code)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                return code[open_paren_pos + 1 : i]
    return None


def waived(raw_lines, lineno, rule):
    if lineno - 1 >= len(raw_lines):
        return False
    for probe in (lineno - 1, lineno):  # the line itself or the one above
        if 0 <= probe - 1 < len(raw_lines):
            m = ALLOW_RE.search(raw_lines[probe - 1])
            if m and (m.group("rule") in (None, rule) or
                      m.group(0).startswith("naked-lock-ok")):
                return True
    return False


class Finding:
    def __init__(self, path, lineno, rule, message):
        self.path = path
        self.lineno = lineno
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.lineno}: [{self.rule}] {self.message}"


def check_atomic_order(path, code, raw_lines):
    findings = []
    for m in ATOMIC_CALL_RE.finditer(code):
        open_paren = code.index("(", m.end() - 1)
        args = call_args(code, open_paren)
        lineno = line_of(code, m.start())
        if args is None:
            continue  # unbalanced (macro soup); don't guess
        op = m.group(1) or "atomic_thread_fence"
        if op == "store" and "memory_order" not in args:
            # Heuristic guard against non-atomic .store() members is not
            # needed in this repo: the only store() methods are atomics'.
            pass
        if "memory_order" not in args:
            if not waived(raw_lines, lineno, "atomic-explicit-order"):
                findings.append(Finding(
                    path, lineno, "atomic-explicit-order",
                    f"atomic '{op}' without an explicit std::memory_order "
                    "argument (implicit seq_cst hides intent; spell it "
                    "out)"))
    return findings


def check_refcount_order(path, code, raw_lines):
    findings = []
    for m in REFCOUNT_SUB_RE.finditer(code):
        open_paren = code.index("(", m.end() - 1)
        args = call_args(code, open_paren)
        lineno = line_of(code, m.start())
        if args is None:
            continue
        if ("memory_order_acq_rel" not in args and
                "memory_order_seq_cst" not in args):
            if not waived(raw_lines, lineno, "refcount-acq-rel"):
                findings.append(Finding(
                    path, lineno, "refcount-acq-rel",
                    f"refcount decrement on '{m.group(1)}' must be "
                    "memory_order_acq_rel or stronger: the freeing thread "
                    "must synchronize with all other threads' final reads "
                    "(see src/storage/value.h)"))
    return findings


OBS_RMW_RE = re.compile(r"[.\s>](fetch_add|fetch_sub)\s*\(")


def check_obs_relaxed(path, code, raw_lines):
    norm = path.replace(os.sep, "/")
    if "/obs/" not in norm and not norm.startswith("obs/"):
        return []
    findings = []
    for m in re.finditer(r"\bmemory_order_seq_cst\b", code):
        lineno = line_of(code, m.start())
        if waived(raw_lines, lineno, "obs-relaxed-order"):
            continue
        findings.append(Finding(
            path, lineno, "obs-relaxed-order",
            "memory_order_seq_cst in obs instrumentation: the "
            "observability hot path must not insert full fences into the "
            "code it measures (use relaxed, or acquire/release for the "
            "trace-ring seqlock)"))
    for m in OBS_RMW_RE.finditer(code):
        open_paren = code.index("(", m.end() - 1)
        args = call_args(code, open_paren)
        lineno = line_of(code, m.start())
        if args is None:
            continue
        if "memory_order_relaxed" not in args:
            if not waived(raw_lines, lineno, "obs-relaxed-order"):
                findings.append(Finding(
                    path, lineno, "obs-relaxed-order",
                    f"obs counter '{m.group(1)}' must be "
                    "memory_order_relaxed: metrics are monotonic sums read "
                    "via independent per-slot loads, so any stronger order "
                    "only taxes the instrumented path"))
    return findings


def receiver_is_indexed(code, match_start):
    """True when the lock call's receiver is an indexed array element
    (a per-shard / striped latch array: stripes_[shard][stripe].Lock()).
    Skims back over whitespace to the character before the '.'/'->'."""
    i = match_start - 1
    while i >= 0 and code[i] in " \t\n":
        i -= 1
    return i >= 0 and code[i] == "]"


def check_naked_lock(path, code, raw_lines):
    if path.replace(os.sep, "/").endswith("util/latch.h"):
        return []  # the primitive's own definition
    findings = []
    code_lines = code.splitlines()
    for m in LOCK_CALL_RE.finditer(code):
        lineno = line_of(code, m.start())
        if waived(raw_lines, lineno, "naked-lock"):
            continue
        lo = max(0, lineno - 1 - ANNOTATION_LOOKBACK)
        context = "\n".join(code_lines[lo:lineno])
        if ANNOTATION_RE.search(context):
            continue
        if receiver_is_indexed(code, m.start()):
            findings.append(Finding(
                path, lineno, "naked-lock",
                f"naked {m.group(1)}() on an indexed per-shard latch "
                "member: striped latch arrays are acquired in canonical "
                "(ascending) order from annotated LockManager methods "
                "only (txn/lock_manager.h); annotate the "
                "enclosing function with CALCDB_ACQUIRE/CALCDB_RELEASE/"
                "CALCDB_NO_THREAD_SAFETY_ANALYSIS or add "
                "// naked-lock-ok(<reason>)"))
            continue
        findings.append(Finding(
            path, lineno, "naked-lock",
            f"naked {m.group(1)}() call: use SpinLatchGuard, or annotate "
            "the enclosing function with CALCDB_ACQUIRE/CALCDB_RELEASE/"
            "CALCDB_NO_THREAD_SAFETY_ANALYSIS, or add "
            "// naked-lock-ok(<reason>)"))
    return findings


FAULT_MACRO_RE = re.compile(
    r'CALCDB_(?:CRASH_POINT|FAULT_STATUS|FAULT_POINT)\s*\(\s*"')


def load_fault_registry(root):
    """Returns the set of registered crash-point names parsed out of
    util/fault_injection.cc under `root`, or None if unavailable."""
    path = os.path.join(root, "util", "fault_injection.cc")
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError:
        return None
    m = re.search(r"kRegistry\[\]\s*=\s*\{(.*?)\n\};", text, re.S)
    if not m:
        return None
    return set(re.findall(r'\{\s*"([^"]+)"', m.group(1)))


def check_crash_point_registered(path, code, raw_lines, root):
    norm = path.replace(os.sep, "/")
    if norm.endswith(("util/fault_injection.h", "util/fault_injection.cc")):
        return []  # the macro definitions / the registry itself
    if not FAULT_MACRO_RE.search(code):
        return []
    registry = load_fault_registry(root)
    # `code` blanks string contents but preserves every offset, so the
    # probe name is read from the raw text at the matched quote position
    # (matching raw lines directly would also fire on prose in comments).
    raw = "\n".join(raw_lines)
    findings = []
    for m in FAULT_MACRO_RE.finditer(code):
        lineno = line_of(code, m.start())
        if waived(raw_lines, lineno, "crash-point-registered"):
            continue
        if registry is None:
            findings.append(Finding(
                path, lineno, "crash-point-registered",
                "fault probe used but util/fault_injection.cc's registry "
                "was not found under the lint root"))
            continue
        quote = m.end() - 1
        close = raw.find('"', quote + 1)
        name = raw[quote + 1:close] if close != -1 else ""
        if name not in registry:
            findings.append(Finding(
                path, lineno, "crash-point-registered",
                f'crash point "{name}" is not in the kRegistry table of '
                "src/util/fault_injection.cc: register it (and document "
                "it in docs/DURABILITY.md, and cover it in the torture "
                "matrix) or fix the typo"))
    return findings


def check_phase_token(path, code, raw_lines):
    norm = path.replace(os.sep, "/")
    if norm.endswith("log/commit_log.cc"):
        return []  # the one sanctioned call site (under the log latch)
    if norm.endswith("checkpoint/phase.h"):
        return []  # the method's own declaration/definition
    findings = []
    for m in SET_PHASE_RE.finditer(code):
        lineno = line_of(code, m.start())
        if waived(raw_lines, lineno, "phase-token-latch"):
            continue
        findings.append(Finding(
            path, lineno, "phase-token-latch",
            "SetPhase() outside CommitLog::AppendPhaseTransition: phase "
            "transitions — per-shard controllers included — must be "
            "written under the commit-log latch, atomically with their "
            "log token (paper §2.2; see src/checkpoint/phase.h)"))
    return findings


def expected_guard(path, root):
    rel = os.path.relpath(path, root).replace(os.sep, "/")
    token = re.sub(r"[^A-Za-z0-9]", "_", rel).upper()
    return f"CALCDB_{token}_"


def check_header_guard(path, code, raw_lines, root):
    if not path.endswith(".h"):
        return []
    guard = expected_guard(path, root)
    directives = [(i + 1, ln.strip()) for i, ln in enumerate(raw_lines)
                  if ln.lstrip().startswith("#")]
    findings = []
    if (len(directives) < 2 or
            directives[0][1] != f"#ifndef {guard}" or
            directives[1][1] != f"#define {guard}"):
        findings.append(Finding(
            path, directives[0][0] if directives else 1, "header-guard",
            f"header guard must open with '#ifndef {guard}' / "
            f"'#define {guard}'"))
    tail = [ln.strip() for ln in raw_lines if ln.strip()]
    if not tail or tail[-1] != f"#endif  // {guard}":
        findings.append(Finding(
            path, len(raw_lines), "header-guard",
            f"header must close with '#endif  // {guard}'"))
    return findings


def check_include_hygiene(path, code, raw_lines):
    findings = []
    includes = []
    for i, ln in enumerate(raw_lines):
        m = re.match(r'\s*#include\s+(["<][^">]+[">])', ln)
        if m:
            includes.append((i + 1, m.group(1)))
    for lineno, inc in includes:
        if inc.startswith('"../') or '/../' in inc:
            findings.append(Finding(
                path, lineno, "include-hygiene",
                f"relative include {inc}: include project headers "
                "root-relative (e.g. \"checkpoint/calc.h\")"))
        elif inc.startswith('"src/'):
            findings.append(Finding(
                path, lineno, "include-hygiene",
                f"include {inc} must not carry the src/ prefix"))
    for m in re.finditer(r"^\s*using\s+namespace\s+\w", code, re.M):
        lineno = line_of(code, m.start())
        if not waived(raw_lines, lineno, "include-hygiene"):
            findings.append(Finding(
                path, lineno, "include-hygiene",
                "'using namespace' is banned in src/"))
    included = {inc for _, inc in includes}
    for pattern, header in STD_HEADER_FOR.items():
        if pattern.search(code) and header not in included:
            findings.append(Finding(
                path, 1, "include-hygiene",
                f"uses {pattern.pattern.split('|')[0].strip(chr(92)+'b')} "
                f"but does not include {header} itself (no transitive "
                "includes for threading primitives)"))
    return findings


def lint_file(path, root):
    with open(path, encoding="utf-8") as f:
        text = f.read()
    code, raw_lines = strip_comments_and_strings(text)
    findings = []
    findings += check_atomic_order(path, code, raw_lines)
    findings += check_refcount_order(path, code, raw_lines)
    findings += check_naked_lock(path, code, raw_lines)
    findings += check_phase_token(path, code, raw_lines)
    findings += check_header_guard(path, code, raw_lines, root)
    findings += check_include_hygiene(path, code, raw_lines)
    findings += check_obs_relaxed(path, code, raw_lines)
    findings += check_crash_point_registered(path, code, raw_lines, root)
    return findings


def lint_tree(root):
    findings = []
    for dirpath, _, filenames in os.walk(root):
        for name in sorted(filenames):
            if name.endswith((".h", ".cc")):
                findings.extend(lint_file(os.path.join(dirpath, name),
                                          root))
    return findings


# --------------------------------------------------------------------------
# Self-test: every rule must fire on a seeded violation and stay quiet on
# the compliant twin. Guards the linter against silent rot.
# --------------------------------------------------------------------------

SELF_TEST_CASES = [
    # (rule, should_fire, filename, snippet)
    ("atomic-explicit-order", True, "a.cc",
     "void F() { x_.store(1); }\n"),
    ("atomic-explicit-order", True, "a.cc",
     "void F() { n = x_.fetch_add(\n      1); }\n"),
    ("atomic-explicit-order", False, "a.cc",
     "void F() { x_.store(1, std::memory_order_release); }\n"),
    ("atomic-explicit-order", False, "a.cc",
     "void F() { n = x_.fetch_add(\n"
     "      1, std::memory_order_relaxed); }\n"),
    ("atomic-explicit-order", False, "a.cc",
     "// comment: x_.store(1) in prose\n"),
    ("refcount-acq-rel", True, "b.cc",
     "void F(V* v) { v->refs_.fetch_sub(1, std::memory_order_relaxed); }\n"),
    ("refcount-acq-rel", True, "b.cc",
     "void F(V* v) { v->refs_.fetch_sub(1, std::memory_order_release); }\n"),
    ("refcount-acq-rel", False, "b.cc",
     "void F(V* v) { v->refs_.fetch_sub(1, std::memory_order_acq_rel); }\n"),
    ("naked-lock", True, "c.cc",
     "void F() { latch_.Lock(); latch_.Unlock(); }\n"),
    ("naked-lock", False, "c.cc",
     "void F() CALCDB_NO_THREAD_SAFETY_ANALYSIS {\n"
     "  latch_.Lock();\n  latch_.Unlock();\n}\n"),
    ("naked-lock", False, "c.cc",
     "void F() {\n  latch_.Lock();  // naked-lock-ok(guard type itself)\n"
     "  latch_.Unlock();  // naked-lock-ok(guard type itself)\n}\n"),
    ("naked-lock", True, "c.cc",
     "void F(size_t s, size_t j) { stripes_[s][j].Lock(); }\n"),
    ("naked-lock", True, "c.cc",
     "void F(const StripeLock& sl) {\n"
     "  shards_[sl.shard][sl.stripe]\n      .LockShared();\n}\n"),
    ("naked-lock", False, "c.cc",
     "void F(const LockSet& set) CALCDB_NO_THREAD_SAFETY_ANALYSIS {\n"
     "  for (const StripeLock& sl : set) {\n"
     "    shards_[sl.shard][sl.stripe].Lock();\n"
     "  }\n}\n"),
    ("phase-token-latch", True, "checkpoint/x.cc",
     "void F(PhaseController* pc) { pc->SetPhase(Phase::kRest); }\n"),
    ("phase-token-latch", True, "checkpoint/x.cc",
     "void F(uint32_t s) { phases_[s]->SetPhase(Phase::kRest); }\n"),
    ("phase-token-latch", True, "checkpoint/x.cc",
     "void PhaseFanout::F(Phase p) { SetPhase(p); }\n"),
    ("phase-token-latch", False, "checkpoint/x.cc",
     "void F(PhaseController* pc) { pc->MySetPhase(Phase::kRest); }\n"),
    ("phase-token-latch", False, "checkpoint/phase.h",
     "#ifndef CALCDB_CHECKPOINT_PHASE_H_\n"
     "#define CALCDB_CHECKPOINT_PHASE_H_\n"
     "class PhaseController {\n"
     " public:\n  void SetPhase(Phase p) { phase_ = p; }\n};\n"
     "#endif  // CALCDB_CHECKPOINT_PHASE_H_\n"),
    ("phase-token-latch", False, "log/commit_log.cc",
     "void F(PhaseController* pc) { pc->SetPhase(Phase::kRest); }\n"),
    ("header-guard", True, "util/bad.h",
     "#ifndef WRONG_GUARD_H_\n#define WRONG_GUARD_H_\n"
     "#endif  // WRONG_GUARD_H_\n"),
    ("header-guard", False, "util/good.h",
     "#ifndef CALCDB_UTIL_GOOD_H_\n#define CALCDB_UTIL_GOOD_H_\n"
     "#endif  // CALCDB_UTIL_GOOD_H_\n"),
    ("include-hygiene", True, "d.cc",
     '#include "../util/latch.h"\n'),
    ("include-hygiene", True, "d.cc",
     "#include <vector>\nusing namespace std;\n"),
    ("include-hygiene", True, "d.cc",
     "#include <cstdint>\nstd::atomic<int> x;\n"),
    ("include-hygiene", False, "d.cc",
     '#include <atomic>\n#include "util/latch.h"\nstd::atomic<int> x;\n'),
    ("obs-relaxed-order", True, "obs/e.cc",
     "void F() { c_.fetch_add(1, std::memory_order_seq_cst); }\n"),
    ("obs-relaxed-order", True, "obs/e.cc",
     "void F() { c_.fetch_add(1, std::memory_order_acq_rel); }\n"),
    ("obs-relaxed-order", False, "obs/e.cc",
     "void F() {\n  c_.fetch_add(1, std::memory_order_relaxed);\n"
     "  seq_.store(2, std::memory_order_release);\n"
     "  bool was = running_.exchange(false, std::memory_order_acq_rel);\n"
     "  (void)was;\n}\n"),
    ("obs-relaxed-order", False, "txn/e.cc",
     "void F() { c_.fetch_add(1, std::memory_order_seq_cst); }\n"),
    ("crash-point-registered", True, "checkpoint/f.cc",
     'void F() { CALCDB_CRASH_POINT("never.registered"); }\n'),
    ("crash-point-registered", True, "checkpoint/f.cc",
     'Status F() {\n'
     '  CALCDB_FAULT_POINT("also.unknown");\n'
     '  return Status::OK();\n}\n'),
    ("crash-point-registered", False, "checkpoint/f.cc",
     'void F() { CALCDB_CRASH_POINT("test.registered"); }\n'),
    ("crash-point-registered", False, "checkpoint/f.cc",
     'Status F() { return CALCDB_FAULT_STATUS("test.registered"); }\n'),
    ("crash-point-registered", False, "checkpoint/f.cc",
     '// prose: CALCDB_CRASH_POINT("never.registered") in a comment\n'),
]

# A minimal registry seeded next to every self-test snippet so the
# crash-point-registered rule has something to resolve against.
SELF_TEST_REGISTRY = (
    "constexpr FaultPointInfo kRegistry[] = {\n"
    '    {"test.registered", "self-test stub"},\n'
    "};\n"
)


def self_test():
    import tempfile

    failures = []
    for idx, (rule, should_fire, filename, snippet) in enumerate(
            SELF_TEST_CASES):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, filename)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(snippet)
            registry_path = os.path.join(tmp, "util", "fault_injection.cc")
            os.makedirs(os.path.dirname(registry_path), exist_ok=True)
            with open(registry_path, "w", encoding="utf-8") as f:
                f.write(SELF_TEST_REGISTRY)
            fired = {f.rule for f in lint_file(path, tmp)}
        if should_fire and rule not in fired:
            failures.append(
                f"case {idx}: expected [{rule}] to fire on:\n{snippet}")
        if not should_fire and rule in fired:
            failures.append(
                f"case {idx}: [{rule}] fired unexpectedly on:\n{snippet}")
    if failures:
        print("lint_concurrency self-test FAILED:")
        for f in failures:
            print("  " + f.replace("\n", "\n  "))
        return 1
    print(f"lint_concurrency self-test: {len(SELF_TEST_CASES)} cases ok")
    return 0


CONCURRENCY_RULES = {
    "atomic-explicit-order", "refcount-acq-rel", "naked-lock",
    "phase-token-latch", "header-guard", "include-hygiene",
    "obs-relaxed-order", "crash-point-registered",
}

EXPECT_RE = re.compile(r"expect-lint:\s*([\w\- ]+)")


def run_fixtures(fixture_dir):
    """Every fixture file must fire exactly its declared rule set."""
    failures = []
    checked = 0
    for dirpath, _, filenames in os.walk(fixture_dir):
        for name in sorted(filenames):
            if not name.endswith((".h", ".cc")):
                continue
            path = os.path.join(dirpath, name)
            with open(path, encoding="utf-8") as f:
                head = f.read(4096)
            m = EXPECT_RE.search(head)
            if not m:
                failures.append(
                    f"{path}: missing '// expect-lint:' header")
                continue
            expected = set(m.group(1).split()) - {"none"}
            unknown = expected - CONCURRENCY_RULES
            if unknown:
                failures.append(
                    f"{path}: unknown rule(s) {sorted(unknown)}")
                continue
            findings = lint_file(path, fixture_dir)
            fired = {f.rule for f in findings}
            if fired != expected:
                failures.append(
                    f"{path}: expected {sorted(expected) or ['none']}, "
                    f"fired {sorted(fired) or ['none']}:\n    " +
                    "\n    ".join(str(f) for f in findings))
            checked += 1
    if failures:
        print("lint_concurrency fixtures FAILED:")
        for f in failures:
            print("  " + f)
        return 1
    print(f"lint_concurrency fixtures: {checked} file(s) behaved as "
          "declared")
    return 0


def main(argv):
    if "--self-test" in argv:
        return self_test()
    if "--fixtures" in argv:
        idx = argv.index("--fixtures")
        if idx + 1 >= len(argv):
            print("lint_concurrency: --fixtures needs a directory",
                  file=sys.stderr)
            return 2
        return run_fixtures(argv[idx + 1])
    paths = [a for a in argv if not a.startswith("-")]
    if not paths:
        repo_root = os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))
        paths = [os.path.join(repo_root, "src")]
    findings = []
    for p in paths:
        if os.path.isdir(p):
            findings.extend(lint_tree(p))
        elif os.path.isfile(p):
            # Header-guard paths are relative to the source root: walk up
            # to the nearest 'src' ancestor so `lint_concurrency.py
            # src/util/latch.h` expects CALCDB_UTIL_LATCH_H_, matching
            # directory mode.
            root = os.path.dirname(os.path.abspath(p))
            parts = root.split(os.sep)
            if "src" in parts:
                cut = len(parts) - 1 - parts[::-1].index("src")
                root = os.sep.join(parts[:cut + 1])
            findings.extend(lint_file(p, root))
        else:
            print(f"lint_concurrency: no such file or directory: {p}",
                  file=sys.stderr)
            return 2
    for f in findings:
        print(f)
    if findings:
        print(f"lint_concurrency: {len(findings)} finding(s)")
        return 1
    print("lint_concurrency: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
