#!/usr/bin/env python3
"""Repo-invariant lint suite: machine-checks the concurrency and hot-path
rules the codebase relies on but a compiler alone cannot see (or, for the
Clang thread-safety rules, cannot see on the tier-1 GCC toolchain).

Rules
-----
rcu-publish-under-guard
    No `RcuSnapshot::publish()` call may be reachable while the calling
    scope holds its *own* ReadGuard on the same cell: publish() may wait
    for readers to drain, and a guard pinned by the caller never drains
    (the PR 8 fabric deadlock). Guards on *other* cells are fine —
    revive_shard legitimately publishes ring_ under a keys_ ReadGuard.

hot-path-heap-alloc
    Functions taking a `SolveScratch&` in core/ffc.cpp, core/repair.cpp
    and core/mixed_fault.cpp are the allocation-free solve paths (the
    PR 7 guarantee): no heap-allocating container may be *constructed*
    inside them. Reference bindings to scratch members
    (`std::vector<Word>& x = s.foo;`) are allowed.

naked-mutex
    All of src/ must lock through the annotated wrappers in
    util/thread_annotations.hpp (util::Mutex, util::MutexLock, ...);
    naked std::mutex / std::lock_guard / std::condition_variable et al.
    are invisible to Clang's -Wthread-safety analysis.

verify-includes-core
    src/verify/ is the independent oracle: it must not include anything
    from core/ or butterfly/, or it could inherit the very bugs it
    exists to catch.

bare-analysis-escape
    `DBR_NO_THREAD_SAFETY_ANALYSIS` opts a function out of the analysis;
    every use must carry a justifying comment on the same or preceding
    line.

strategy-dispatch
    Which fault kind, n, solve and repair each strategy takes is written
    once, in the strategy table (src/service/strategy.{hpp,cpp}): no
    `case Strategy::` label may appear anywhere else under src/. src/verify/
    is exempt, because the oracle keeps its own independent table.

context-backed-core
    Every construction in src/core/ takes `const InstanceContext&`: no
    `InstanceContext*` parameter, member or local may appear there, so a
    nullable context (and the context-less second solve path it exists to
    serve) cannot come back.

Suppressions
------------
A violation is suppressed by a `// lint:allow(<rule>): <reason>` comment
on the offending line or the line directly above it; the reason is
mandatory. Fixture files may carry `// lint:pretend-path: <path>` to be
linted as if they lived at <path> (so tests/lint_fixtures can exercise
path-scoped rules), and `// expect-violation: <rule>` markers that
--self-test checks against the rules actually fired.

Exit status: 0 clean, 1 violations (or a failed --self-test), 2 usage.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_ROOTS = ["src"]
FIXTURE_DIR = REPO / "tests" / "lint_fixtures"
SOURCE_SUFFIXES = {".cpp", ".hpp", ".h", ".cc", ".hh"}

# The one header allowed to name the std lock primitives directly.
WRAPPER_HEADER = "src/util/thread_annotations.hpp"

# Files whose SolveScratch&-taking functions are arena hot paths.
HOT_PATH_FILES = (
    "src/core/ffc.cpp",
    "src/core/repair.cpp",
    "src/core/mixed_fault.cpp",
)

NAKED_LOCK_TOKENS = re.compile(
    r"\bstd::(mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"condition_variable(_any)?|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock)\b"
)

HEAP_CONTAINERS = (
    "vector",
    "unordered_map",
    "unordered_set",
    "map",
    "set",
    "deque",
    "list",
    "string",
    "basic_string",
)
HEAP_CONTAINER_RE = re.compile(
    r"\bstd::(" + "|".join(HEAP_CONTAINERS) + r")\s*(<|\b)"
)

# The one module allowed to switch on Strategy (src/verify/ is exempt too).
STRATEGY_MODULE = ("src/service/strategy.hpp", "src/service/strategy.cpp")
STRATEGY_CASE_RE = re.compile(r"\bcase\s+(?:[\w:]+::)?Strategy\s*::")

# src/core/ takes its instance context by reference only.
CORE_DIR = "/src/core/"
CONTEXT_POINTER_RE = re.compile(r"\bInstanceContext\s*(?:const\s*)?\*")

READ_GUARD_RE = re.compile(
    r"\bReadGuard\s+\w+\s*[({]\s*([^;(){}]+?)\s*[)}]\s*;"
)
PUBLISH_RE = re.compile(r"([\w.\->\[\]]+)\s*\.\s*publish\s*\(")

ALLOW_RE = re.compile(r"//\s*lint:allow\(([\w-]+)\)\s*:\s*(\S.*)")
PRETEND_RE = re.compile(r"//\s*lint:pretend-path:\s*(\S+)")
EXPECT_RE = re.compile(r"//\s*expect-violation:\s*([\w-]+)")


class Violation:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving line
    structure, so rule regexes never match inside either."""
    out = []
    i, n = 0, len(text)
    mode = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode == "code":
            if c == "/" and nxt == "/":
                mode = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                mode = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                mode = "str"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                mode = "chr"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif mode == "line":
            if c == "\n":
                mode = "code"
                out.append(c)
            else:
                out.append(" ")
        elif mode == "block":
            if c == "*" and nxt == "/":
                mode = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        else:  # str | chr
            quote = '"' if mode == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                mode = "code"
                out.append(" ")
            elif c == "\n":  # unterminated; resync
                mode = "code"
                out.append(c)
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def normalize_expr(expr: str) -> str:
    return re.sub(r"\s+", "", expr)


class SourceFile:
    def __init__(self, path: pathlib.Path):
        self.real_path = path
        self.text = path.read_text(encoding="utf-8", errors="replace")
        self.raw_lines = self.text.splitlines()
        self.code = strip_comments_and_strings(self.text)
        self.code_lines = self.code.splitlines()
        m = PRETEND_RE.search(self.text)
        rel = path.resolve()
        try:
            rel = rel.relative_to(REPO)
        except ValueError:
            pass
        self.lint_path = m.group(1) if m else str(rel)

    def allowed(self, rule: str, line: int) -> bool:
        """True when line (1-based) or the one above carries a matching
        lint:allow with a reason."""
        for idx in (line - 1, line - 2):
            if 0 <= idx < len(self.raw_lines):
                m = ALLOW_RE.search(self.raw_lines[idx])
                if m and m.group(1) == rule:
                    return True
        return False


def check_rcu_publish_under_guard(f: SourceFile) -> list[Violation]:
    """Tracks live ReadGuards by brace depth; flags a publish() whose
    receiver expression matches a guard's cell expression."""
    out = []
    depth = 0
    guards: list[tuple[str, int, int]] = []  # (cell, scope_depth, line)
    for lineno, line in enumerate(f.code_lines, start=1):
        opens = line.count("{")
        closes = line.count("}")
        depth_after = depth + opens - closes
        for m in READ_GUARD_RE.finditer(line):
            guards.append((normalize_expr(m.group(1)), depth_after, lineno))
        for m in PUBLISH_RE.finditer(line):
            receiver = normalize_expr(m.group(1))
            for cell, _, gline in guards:
                if cell == receiver and not f.allowed(
                    "rcu-publish-under-guard", lineno
                ):
                    out.append(
                        Violation(
                            f.lint_path,
                            lineno,
                            "rcu-publish-under-guard",
                            f"publish() on '{receiver}' while the ReadGuard "
                            f"declared at line {gline} pins the same cell "
                            "(self-deadlock when the retire list drains: "
                            "scope the guard so it ends before the publish)",
                        )
                    )
        depth = depth_after
        guards = [g for g in guards if depth >= g[1]]
    return out


def body_span(code: str, open_brace: int) -> int:
    """Index one past the matching close brace of code[open_brace] == '{'."""
    depth = 0
    for i in range(open_brace, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(code)


def check_hot_path_heap_alloc(f: SourceFile) -> list[Violation]:
    if not any(f.lint_path.endswith(p) for p in HOT_PATH_FILES):
        return []
    out = []
    code = f.code
    for m in re.finditer(r"\bSolveScratch\s*&", code):
        # A definition's parameter list ends in ')' then '{' before any ';'.
        j = m.end()
        while j < len(code) and code[j] not in ";{":
            j += 1
        if j >= len(code) or code[j] != "{":
            continue  # declaration only
        end = body_span(code, j)
        body = code[j:end]
        body_start_line = code.count("\n", 0, j) + 1
        for lm in HEAP_CONTAINER_RE.finditer(body):
            lineno = body_start_line + body.count("\n", 0, lm.start())
            line = f.code_lines[lineno - 1]
            if is_reference_binding(line, lm.group(0)):
                continue
            if f.allowed("hot-path-heap-alloc", lineno):
                continue
            out.append(
                Violation(
                    f.lint_path,
                    lineno,
                    "hot-path-heap-alloc",
                    f"'{lm.group(0).strip()}' constructed inside a "
                    "SolveScratch-backed solve path (the PR 7 allocation-free "
                    "guarantee): use a scratch arena member instead",
                )
            )
    return out


def is_reference_binding(line: str, token: str) -> bool:
    """True when the std:: container on `line` is used as a reference (or
    pointer) binding rather than constructed: the character after the
    template argument list (or the bare type) is '&' or '*'."""
    pos = line.find(token.strip().rstrip("<").rstrip())
    if pos < 0:
        return False
    i = pos
    # Skip the qualified name.
    while i < len(line) and (line[i].isalnum() or line[i] in ":_"):
        i += 1
    while i < len(line) and line[i].isspace():
        i += 1
    if i < len(line) and line[i] == "<":
        depth = 0
        while i < len(line):
            if line[i] == "<":
                depth += 1
            elif line[i] == ">":
                depth -= 1
                if depth == 0:
                    i += 1
                    break
            i += 1
    while i < len(line) and line[i].isspace():
        i += 1
    return i < len(line) and line[i] in "&*"


def check_naked_mutex(f: SourceFile) -> list[Violation]:
    if f.lint_path.replace("\\", "/").endswith(WRAPPER_HEADER):
        return []
    out = []
    for lineno, line in enumerate(f.code_lines, start=1):
        for m in NAKED_LOCK_TOKENS.finditer(line):
            if f.allowed("naked-mutex", lineno):
                continue
            out.append(
                Violation(
                    f.lint_path,
                    lineno,
                    "naked-mutex",
                    f"'{m.group(0)}' bypasses the annotated wrappers in "
                    "util/thread_annotations.hpp (invisible to "
                    "-Wthread-safety): use util::Mutex / util::MutexLock / "
                    "util::UniqueLock / util::CondVar",
                )
            )
    return out


def check_verify_includes(f: SourceFile) -> list[Violation]:
    path = f.lint_path.replace("\\", "/")
    if "/verify/" not in f"/{path}":
        return []
    out = []
    inc = re.compile(r'#\s*include\s*"((?:core|butterfly)/[^"]+)"')
    # Includes survive in stripped code as blanks; scan the raw lines and
    # require the include to start the line (not inside a comment).
    for lineno, line in enumerate(f.raw_lines, start=1):
        m = inc.search(line)
        if not m or line.lstrip().startswith("//"):
            continue
        if f.allowed("verify-includes-core", lineno):
            continue
        out.append(
            Violation(
                f.lint_path,
                lineno,
                "verify-includes-core",
                f'oracle independence: src/verify must not include '
                f'"{m.group(1)}" (it would inherit the bugs it exists to '
                "catch)",
            )
        )
    return out


def check_bare_analysis_escape(f: SourceFile) -> list[Violation]:
    if f.lint_path.replace("\\", "/").endswith(WRAPPER_HEADER):
        return []
    out = []
    for lineno, line in enumerate(f.code_lines, start=1):
        if "DBR_NO_THREAD_SAFETY_ANALYSIS" not in line:
            continue
        prev = f.raw_lines[lineno - 2].strip() if lineno >= 2 else ""
        same = f.raw_lines[lineno - 1]

        def justifying(comment_text: str) -> bool:
            # Lint directives (expect-violation markers, pretend-path) are
            # test plumbing, not justification.
            return bool(comment_text) and not re.search(
                r"expect-violation|lint:", comment_text
            )

        same_comment = same.split("//", 1)[1] if "//" in same else ""
        prev_comment = (
            prev[2:] if prev.startswith("//")
            else prev[1:] if prev.startswith("*")
            else ""
        )
        has_comment = justifying(same_comment) or justifying(prev_comment)
        if has_comment or f.allowed("bare-analysis-escape", lineno):
            continue
        out.append(
            Violation(
                f.lint_path,
                lineno,
                "bare-analysis-escape",
                "DBR_NO_THREAD_SAFETY_ANALYSIS without a justifying comment "
                "on the same or preceding line",
            )
        )
    return out


def check_strategy_dispatch(f: SourceFile) -> list[Violation]:
    path = "/" + f.lint_path.replace("\\", "/")
    if (
        "/src/" not in path
        or "/src/verify/" in path
        or path.endswith(tuple("/" + m for m in STRATEGY_MODULE))
    ):
        return []
    out = []
    for lineno, line in enumerate(f.code_lines, start=1):
        for m in STRATEGY_CASE_RE.finditer(line):
            if f.allowed("strategy-dispatch", lineno):
                continue
            out.append(
                Violation(
                    f.lint_path,
                    lineno,
                    "strategy-dispatch",
                    f"'{m.group(0).strip()}' outside the strategy table: "
                    "look the strategy up with service::strategy_ops() "
                    "(src/service/strategy.hpp) instead of switching on it",
                )
            )
    return out


def check_context_backed_core(f: SourceFile) -> list[Violation]:
    if CORE_DIR not in "/" + f.lint_path.replace("\\", "/"):
        return []
    out = []
    for lineno, line in enumerate(f.code_lines, start=1):
        for m in CONTEXT_POINTER_RE.finditer(line):
            if f.allowed("context-backed-core", lineno):
                continue
            out.append(
                Violation(
                    f.lint_path,
                    lineno,
                    "context-backed-core",
                    f"'{m.group(0).strip()}' in src/core: take the instance "
                    "context as 'const InstanceContext&' (a nullable context "
                    "means a second, context-less solve path)",
                )
            )
    return out


CHECKS = [
    check_rcu_publish_under_guard,
    check_hot_path_heap_alloc,
    check_naked_mutex,
    check_verify_includes,
    check_bare_analysis_escape,
    check_strategy_dispatch,
    check_context_backed_core,
]


def lint_file(path: pathlib.Path) -> list[Violation]:
    f = SourceFile(path)
    out = []
    for check in CHECKS:
        out.extend(check(f))
    return out


def collect(roots: list[str]) -> list[pathlib.Path]:
    files = []
    for root in roots:
        p = (REPO / root) if not pathlib.Path(root).is_absolute() else pathlib.Path(root)
        if p.is_file():
            files.append(p)
            continue
        for child in sorted(p.rglob("*")):
            if child.suffix in SOURCE_SUFFIXES and child.is_file():
                files.append(child)
    return files


def run_scan(roots: list[str]) -> int:
    violations = []
    files = collect(roots)
    for path in files:
        violations.extend(lint_file(path))
    for v in violations:
        print(v)
    print(
        f"check_invariants: {len(files)} files scanned, "
        f"{len(violations)} violation(s)"
    )
    return 1 if violations else 0


def run_self_test() -> int:
    """Asserts every fixture produces exactly its expected violations, then
    that the real tree is clean."""
    failed = False
    fixtures = sorted(
        p for p in FIXTURE_DIR.rglob("*") if p.suffix in SOURCE_SUFFIXES
    )
    if not fixtures:
        print(f"self-test: no fixtures under {FIXTURE_DIR}", file=sys.stderr)
        return 1
    for path in fixtures:
        text = path.read_text(encoding="utf-8", errors="replace")
        expected = sorted(EXPECT_RE.findall(text))
        got = sorted(v.rule for v in lint_file(path))
        name = path.relative_to(REPO)
        if expected == got:
            print(f"self-test: {name}: OK ({', '.join(expected) or 'clean'})")
        else:
            failed = True
            print(
                f"self-test: {name}: FAIL — expected {expected}, got {got}",
                file=sys.stderr,
            )
    print("self-test: scanning the real tree (must be clean)")
    if run_scan(DEFAULT_ROOTS) != 0:
        failed = True
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "roots",
        nargs="*",
        default=DEFAULT_ROOTS,
        help="files or directories to scan (default: src)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="check tests/lint_fixtures expectations, then the real tree",
    )
    args = parser.parse_args()
    if args.self_test:
        return run_self_test()
    return run_scan(args.roots)


if __name__ == "__main__":
    sys.exit(main())
