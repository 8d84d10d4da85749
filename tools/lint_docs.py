#!/usr/bin/env python3
"""Doc-drift guards: mechanically diff documentation claims against code.

Two checks, each runnable alone (both run by default):

  options-table       docs/RECOVERY.md §6 lists the recovery/replay
                      Options knobs as a table of (name, default). Every
                      row must name a real field of calcdb::Options in
                      src/db/options.h with *exactly* the declared
                      default, and a required set of recovery-relevant
                      fields must all be present in the table — so a
                      renamed knob, a changed default, or a dropped row
                      fails the build instead of silently lying.

  crash-matrix        EXPERIMENTS.md's crash-matrix section claims "The
                      enumerated matrix (N entries) covers all M
                      registered points". N must equal the number of
                      entries in kMatrix (tests/crash_torture_test.cc)
                      and M the number of points in kRegistry
                      (src/util/fault_injection.cc).

Usage:
    lint_docs.py [--self-test] [--check options-table|crash-matrix] [root]
Root defaults to the repository containing this script.
Exit status: 0 clean, 1 findings (or self-test failure).
"""

import os
import re
import sys
import tempfile

# Fields whose rows must be present in the RECOVERY.md table; other
# Options fields may appear too (they are validated the same way).
REQUIRED_OPTIONS = [
    "checkpoint_dir",
    "recovery_threads",
    "replay_threads",
    "storage_shards",
    "command_log_path",
    "command_log_flush_ms",
]

OPTIONS_HEADER = os.path.join("src", "db", "options.h")
RECOVERY_DOC = os.path.join("docs", "RECOVERY.md")
EXPERIMENTS_DOC = "EXPERIMENTS.md"
TORTURE_TEST = os.path.join("tests", "crash_torture_test.cc")
FAULT_REGISTRY = os.path.join("src", "util", "fault_injection.cc")


def read(root, rel):
    with open(os.path.join(root, rel), encoding="utf-8") as f:
        return f.read()


def normalize(expr):
    """Comparison form of a default-value expression: whitespace-free."""
    return re.sub(r"\s+", "", expr)


def parse_options_struct(text):
    """Field -> default-value text for `struct Options { ... };`.

    Understands the two declaration shapes the struct uses:
    `type name = default;` and `type name;` (no initializer — default
    constructed; reported as "" for std::string, 0 otherwise).
    """
    match = re.search(r"struct Options \{(.*)\n\};", text, re.DOTALL)
    if match is None:
        return None
    body = match.group(1)
    # Drop comments so commented-out examples can't parse as fields.
    body = re.sub(r"//[^\n]*", "", body)
    fields = {}
    for decl in re.finditer(
        r"^\s*([A-Za-z_][\w:<>]*(?:\s+[\w:<>]+)*)\s+(\w+)\s*"
        r"(?:=\s*([^;]+?))?\s*;",
        body,
        re.MULTILINE,
    ):
        type_text, name, default = decl.groups()
        if default is None:
            default = '""' if "string" in type_text else "0"
        fields[name] = default.strip()
    return fields


def parse_doc_table(text):
    """(name, default) rows of the §6 knobs table in RECOVERY.md."""
    rows = []
    for line in text.splitlines():
        m = re.match(r"\|\s*`(\w+)`\s*\|\s*`([^`]*)`\s*\|", line)
        if m:
            rows.append((m.group(1), m.group(2)))
    return rows


def check_options_table(root):
    errors = []
    fields = parse_options_struct(read(root, OPTIONS_HEADER))
    if fields is None:
        return [f"{OPTIONS_HEADER}: could not locate `struct Options`"]
    rows = parse_doc_table(read(root, RECOVERY_DOC))
    if not rows:
        return [f"{RECOVERY_DOC}: no `option` | `default` table rows found"]
    documented = {name for name, _ in rows}
    for name, doc_default in rows:
        if name not in fields:
            errors.append(
                f"{RECOVERY_DOC}: documents Options::{name}, which does "
                f"not exist in {OPTIONS_HEADER}"
            )
        elif normalize(doc_default) != normalize(fields[name]):
            errors.append(
                f"{RECOVERY_DOC}: Options::{name} default documented as "
                f"`{doc_default}` but {OPTIONS_HEADER} declares "
                f"`{fields[name]}`"
            )
    for name in REQUIRED_OPTIONS:
        if name not in documented:
            errors.append(
                f"{RECOVERY_DOC}: recovery knob Options::{name} is "
                f"missing from the §6 table"
            )
    return errors


def count_matrix_entries(text):
    match = re.search(r"kMatrix\[\]\s*=\s*\{(.*?)\n\};", text, re.DOTALL)
    if match is None:
        return None
    return len(re.findall(r'\{\s*"[^"]+"', match.group(1)))


def count_registry_points(text):
    match = re.search(r"kRegistry\[\]\s*=\s*\{(.*?)\n\};", text, re.DOTALL)
    if match is None:
        return None
    return len(re.findall(r'\{\s*"([^"]+)"', match.group(1)))


def check_crash_matrix(root):
    errors = []
    doc = read(root, EXPERIMENTS_DOC)
    claim = re.search(
        r"matrix \((\d+) entries\) covers all (\d+) registered points", doc
    )
    if claim is None:
        return [
            f"{EXPERIMENTS_DOC}: crash-matrix claim sentence "
            f'("matrix (N entries) covers all M registered points") '
            f"not found"
        ]
    doc_entries, doc_points = int(claim.group(1)), int(claim.group(2))
    entries = count_matrix_entries(read(root, TORTURE_TEST))
    points = count_registry_points(read(root, FAULT_REGISTRY))
    if entries is None:
        errors.append(f"{TORTURE_TEST}: could not locate kMatrix[]")
    elif entries != doc_entries:
        errors.append(
            f"{EXPERIMENTS_DOC}: claims {doc_entries} matrix entries but "
            f"{TORTURE_TEST} kMatrix has {entries}"
        )
    if points is None:
        errors.append(f"{FAULT_REGISTRY}: could not locate kRegistry[]")
    elif points != doc_points:
        errors.append(
            f"{EXPERIMENTS_DOC}: claims {doc_points} registered points "
            f"but {FAULT_REGISTRY} kRegistry has {points}"
        )
    return errors


CHECKS = {
    "options-table": check_options_table,
    "crash-matrix": check_crash_matrix,
}


# --- self-test -----------------------------------------------------------

GOOD_OPTIONS = """\
struct Options {
  std::string checkpoint_dir = "/tmp/x";
  size_t ckpt_read_ahead_bytes = 1 << 20;
  int recovery_threads = 0;
  int replay_threads = 0;
  int storage_shards = 0;
  size_t log_read_ahead_bytes = 1 << 20;
  std::string command_log_path;
  int command_log_flush_ms = 10;
};
"""

GOOD_DOC = """\
| Option | Default | Role |
|---|---|---|
| `checkpoint_dir` | `"/tmp/x"` | d |
| `ckpt_read_ahead_bytes` | `1 << 20` | d |
| `recovery_threads` | `0` | d |
| `replay_threads` | `0` | d |
| `storage_shards` | `0` | d |
| `log_read_ahead_bytes` | `1 << 20` | d |
| `command_log_path` | `""` | d |
| `command_log_flush_ms` | `10` | d |
"""

GOOD_EXPERIMENTS = "The enumerated matrix (2 entries) covers all 2 " \
    "registered points —\n"

GOOD_MATRIX = """\
const MatrixEntry kMatrix[] = {
    {"a.b", 1, "calc", 1, 0},
    {"c.d", 2, "calc", 1, 0},
};
"""

GOOD_REGISTRY = """\
constexpr FaultPointInfo kRegistry[] = {
    {"a.b", "site one"},
    {"c.d", "site two"},
};
"""

# (mutator, failing check, expected error fragment)
SELF_TEST_CASES = [
    # Default drifted in code.
    (
        lambda fs: fs.update(
            {OPTIONS_HEADER: GOOD_OPTIONS.replace(
                "replay_threads = 0", "replay_threads = 2")}
        ),
        "options-table",
        "default documented as",
    ),
    # Field renamed/removed in code.
    (
        lambda fs: fs.update(
            {OPTIONS_HEADER: GOOD_OPTIONS.replace(
                "log_read_ahead_bytes", "log_readahead_bytes")}
        ),
        "options-table",
        "does not exist",
    ),
    # Required row dropped from the doc.
    (
        lambda fs: fs.update(
            {RECOVERY_DOC: "\n".join(
                line for line in GOOD_DOC.splitlines()
                if "`replay_threads`" not in line) + "\n"}
        ),
        "options-table",
        "missing from the §6 table",
    ),
    # Matrix grew without the doc count.
    (
        lambda fs: fs.update(
            {TORTURE_TEST: GOOD_MATRIX.replace(
                "};", '    {"e.f", 1, "calc", 1, 0},\n};')}
        ),
        "crash-matrix",
        "kMatrix has 3",
    ),
    # A new fault point registered without the doc count.
    (
        lambda fs: fs.update(
            {FAULT_REGISTRY: GOOD_REGISTRY.replace(
                "};", '    {"e.f", "site three"},\n};')}
        ),
        "crash-matrix",
        "kRegistry has 3",
    ),
    # Claim sentence deleted entirely.
    (
        lambda fs: fs.update({EXPERIMENTS_DOC: "no claim here\n"}),
        "crash-matrix",
        "not found",
    ),
]


def write_tree(root, files):
    for rel, content in files.items():
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(content)


def self_test():
    base = {
        OPTIONS_HEADER: GOOD_OPTIONS,
        RECOVERY_DOC: GOOD_DOC,
        EXPERIMENTS_DOC: GOOD_EXPERIMENTS,
        TORTURE_TEST: GOOD_MATRIX,
        FAULT_REGISTRY: GOOD_REGISTRY,
    }
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        write_tree(tmp, base)
        for name, check in CHECKS.items():
            errors = check(tmp)
            if errors:
                failures.append(f"clean tree tripped {name}: {errors}")
    for i, (mutate, check_name, fragment) in enumerate(SELF_TEST_CASES):
        files = dict(base)
        mutate(files)
        with tempfile.TemporaryDirectory() as tmp:
            write_tree(tmp, files)
            errors = CHECKS[check_name](tmp)
            if not errors:
                failures.append(
                    f"case {i}: {check_name} missed the seeded drift")
            elif not any(fragment in e for e in errors):
                failures.append(
                    f"case {i}: {check_name} fired, but no error mentions "
                    f"{fragment!r}: {errors}")
    if failures:
        print("lint_docs self-test FAILED:")
        for f in failures:
            print("  " + f)
        return 1
    print(f"lint_docs self-test: {len(SELF_TEST_CASES)} cases ok")
    return 0


def main(argv):
    if "--self-test" in argv:
        return self_test()
    checks = list(CHECKS)
    if "--check" in argv:
        idx = argv.index("--check")
        name = argv[idx + 1]
        if name not in CHECKS:
            print(f"unknown check {name!r}; have: {', '.join(CHECKS)}")
            return 2
        checks = [name]
        argv = argv[:idx] + argv[idx + 2:]
    positional = [a for a in argv[1:] if not a.startswith("--")]
    root = positional[0] if positional else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    errors = []
    for name in checks:
        errors.extend(CHECKS[name](root))
    for e in errors:
        print("lint_docs: " + e)
    if errors:
        print(f"lint_docs: {len(errors)} doc-drift finding(s)")
        return 1
    print(f"lint_docs: {', '.join(checks)} in sync")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
