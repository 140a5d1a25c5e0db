#!/usr/bin/env python3
"""Project-specific lint rules for the GeoProof tree.

Ten rules, each enforcing a discipline the type system cannot:

  clock      std::chrono::steady_clock / system_clock only in the clock
             abstraction and the explicitly real-time sites (net transport,
             engine pacing, wall-clock test deadlines). Everything else must
             go through common/clock.hpp so simulations stay deterministic.
  raw-sleep  std::this_thread::sleep_for / sleep_until only in the
             track-stream pacing and the wall-clock tests/benches. Library
             code — including the src/track streaming layer and the
             serving daemons, whose delays are loop timers — must never
             block a thread on wall time: simulated worlds advance via
             SimClock/EventQueue, a sleeping shard worker stalls a whole
             sweep, and a sleeping server loop stalls every connection.
  raw-close  ::close on file descriptors only inside the net Socket RAII
             wrapper; a stray close elsewhere double-closes or leaks.
  raw-rng    std::mt19937 / rand() / srand() only inside common/rng; all
             other code takes a seeded geoproof::Rng so runs replay.
  raw-mutex  std::mutex only inside common/thread_annotations.hpp; all
             other code locks a geoproof::Mutex through MutexLock, which
             Clang's -Wthread-safety analysis can see.
  isa        <immintrin.h>, __attribute__((target(...))) and the
             _mm_sha256* intrinsics only in src/crypto/sha256.cpp, so
             ISA-specific code stays in the one file that probes CPUID
             before running it and keeps a portable fallback.
  test-reg   every tests/*_test.cpp must be registered in
             tests/CMakeLists.txt, or it silently never runs in CI.
  func-reg   every tests/functional/test_*.py must be registered in
             tests/functional/CMakeLists.txt, for the same reason.
  metric-name  every literal metric name handed to obs::Registry
             (.counter/.gauge/.histogram/.add_snapshot) must match
             geoproof_[a-z0-9_]+(_seconds|_bytes|_total)? so the
             /metrics namespace stays one greppable, unit-suffixed
             family. The runtime validates charset; the lint also pins
             the geoproof_ prefix, which the runtime cannot (tests
             register foreign prefixes deliberately).
  layer      a #include "<mod>/..." in src/<m>/ names <m> itself or a
             library on src/<m>/CMakeLists.txt's target_link_libraries
             line (geoproof_X or geoproof::X). CMake stays the one source
             of truth for the layering, and a module cannot lean on a
             header it only reaches transitively or not at all.

The pattern rules also cover the daemon binaries under apps/ — spawned
processes are where an unreplayable RNG or a stray wall-clock read hides
longest.

Comments and string literals are stripped before matching, so prose about
steady_clock does not trip the rules. Stdlib only; runs as a CTest entry
and as the CI lint gate.

Usage: geoproof_lint.py [--root DIR] [--list-rules]
Exit status: 0 clean, 1 violations, 2 usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Iterable, List, NamedTuple

SCAN_DIRS = ("src", "apps", "tests", "examples", "bench", "fuzz")
CXX_SUFFIXES = {".hpp", ".cpp", ".h", ".cc"}


class Violation(NamedTuple):
    path: str  # repo-relative, posix separators
    line: int  # 1-based; 0 for file-level findings
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class Rule(NamedTuple):
    name: str
    pattern: re.Pattern
    allowlist: frozenset  # repo-relative posix paths where the match is fine
    message: str


RULES = [
    Rule(
        name="clock",
        pattern=re.compile(
            r"std::chrono::(?:steady_clock|system_clock)"
            r"|(?<![A-Za-z0-9_:])(?:steady_clock|system_clock)::"
        ),
        allowlist=frozenset(
            {
                # The abstraction itself.
                "src/common/clock.hpp",
                # Real-time transport: RTTs are measured against the wall.
                "src/net/channel.hpp",
                "src/net/channel.cpp",
                # EventLoop's exact timers run on the monotonic clock.
                "src/net/async.hpp",
                "src/net/async.cpp",
                # Engine sweep pacing is wall-clock by design.
                "src/core/sharded_engine.hpp",
                "src/core/sharded_engine.cpp",
                # Log timestamps are wall-clock metadata, not measured time.
                "src/common/log.cpp",
                # Real-thread tests/benches need wall-clock deadlines.
                "tests/net_async_test.cpp",
                "bench/bench_setup_overhead.cpp",
            }
        ),
        message=(
            "raw std::chrono clock outside the allowlist; take a "
            "geoproof::Clock (common/clock.hpp) so simulated time works"
        ),
    ),
    Rule(
        name="raw-sleep",
        pattern=re.compile(
            r"std::this_thread::sleep_(?:for|until)"
            r"|(?<![A-Za-z0-9_:])this_thread::sleep_(?:for|until)"
        ),
        allowlist=frozenset(
            {
                # Track-stream sweep pacing is wall-clock by design (it
                # models a real monitor, not a simulated one). The serving
                # daemons wait on loop timers instead.
                "src/daemon/track_stream.cpp",
                # Real-thread tests/benches/demos exercise wall-clock
                # behaviour over live sockets.
                "tests/daemon_roundtrip_integration_test.cpp",
                "tests/net_async_test.cpp",
                "tests/net_tcp_test.cpp",
                "bench/bench_async_net.cpp",
            }
        ),
        message=(
            "thread sleep outside the real-time allowlist; library code "
            "must advance time through SimClock/EventQueue, not block the "
            "thread on the wall"
        ),
    ),
    Rule(
        name="raw-close",
        pattern=re.compile(r"(?<![A-Za-z0-9_])::close\s*\("),
        allowlist=frozenset(
            {
                "src/net/async.cpp",
                # Plays a foreign Prometheus scraper: raw POSIX client on
                # purpose, so /metrics is proven reachable without our
                # own socket wrapper in the loop.
                "tests/obs_server_test.cpp",
            }
        ),
        message=(
            "raw ::close outside net::Socket; use the RAII Socket wrapper "
            "so descriptors cannot double-close or leak"
        ),
    ),
    Rule(
        name="raw-rng",
        pattern=re.compile(
            r"std::mt19937|(?<![A-Za-z0-9_])mt19937(?![A-Za-z0-9_])"
            r"|(?<![A-Za-z0-9_.:>])s?rand\s*\("
        ),
        allowlist=frozenset({"src/common/rng.hpp", "src/common/rng.cpp"}),
        message=(
            "raw std RNG outside common/rng; take a seeded geoproof::Rng "
            "so runs are replayable"
        ),
    ),
    Rule(
        name="raw-mutex",
        pattern=re.compile(r"std::mutex(?![A-Za-z0-9_])"),
        allowlist=frozenset({"src/common/thread_annotations.hpp"}),
        message=(
            "raw std::mutex outside common/thread_annotations.hpp; use "
            "geoproof::Mutex + MutexLock so -Wthread-safety sees the lock"
        ),
    ),
    Rule(
        name="isa",
        pattern=re.compile(
            r"#\s*include\s*<immintrin\.h>"
            r"|__attribute__\s*\(\s*\(\s*target\s*\("
            r"|(?<![A-Za-z0-9_])_mm_sha256"
        ),
        allowlist=frozenset({"src/crypto/sha256.cpp"}),
        message=(
            "ISA-specific intrinsics or target attribute outside "
            "src/crypto/sha256.cpp; keep CPU-dispatched code behind its "
            "CPUID probe and scalar fallback there"
        ),
    ),
]


def is_digit_separator(text: str, i: int) -> bool:
    """Is the ' at text[i] a C++14 digit separator (60'000, 0xFF'FF)?

    It is when the token it sits in starts with a digit; a char literal's
    quote follows an operator, a space, or a u8/u/U/L prefix instead.
    """
    j = i
    while j > 0 and (text[j - 1].isalnum() or text[j - 1] in "_.'"):
        j -= 1
    return j < i and text[j].isdigit()


def strip_comments_and_strings(text: str, keep_strings: bool = False) -> str:
    """Blank out comments and string/char literals, preserving newlines.

    Replaced characters become spaces so line and column positions of the
    surviving code are unchanged. Handles //, /* */, "...", '...' with
    backslash escapes, and leaves digit separators (1'000) in place.
    Raw strings get the simple-delimiter treatment,
    which covers every use in this tree. With keep_strings=True only
    comments are blanked and literals survive verbatim (the metric-name
    rule reads the literal but must ignore prose in comments).
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out.append(" ")
                i += 1
        elif c == "/" and nxt == "*":
            out.append("  ")
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append("  ")
                i += 2
        elif c == "'" and is_digit_separator(text, i):
            out.append(c)
            i += 1
        elif c in "\"'":
            quote = c
            out.append(quote if keep_strings else " ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append(text[i : i + 2] if keep_strings else "  ")
                    i += 2
                else:
                    if keep_strings:
                        out.append(text[i])
                    else:
                        out.append("\n" if text[i] == "\n" else " ")
                    i += 1
            if i < n:
                out.append(quote if keep_strings else " ")
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def iter_cxx_files(root: Path) -> Iterable[Path]:
    for dirname in SCAN_DIRS:
        base = root / dirname
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in CXX_SUFFIXES and path.is_file():
                yield path


def check_patterns(root: Path) -> List[Violation]:
    violations = []
    for path in iter_cxx_files(root):
        rel = path.relative_to(root).as_posix()
        try:
            text = path.read_text(encoding="utf-8", errors="replace")
        except OSError as err:
            violations.append(Violation(rel, 0, "io", f"unreadable: {err}"))
            continue
        code = strip_comments_and_strings(text)
        for rule in RULES:
            if rel in rule.allowlist:
                continue
            for lineno, line in enumerate(code.splitlines(), start=1):
                if rule.pattern.search(line):
                    violations.append(
                        Violation(rel, lineno, rule.name, rule.message)
                    )
    return violations


def check_test_registration(root: Path) -> List[Violation]:
    tests_dir = root / "tests"
    cmake = tests_dir / "CMakeLists.txt"
    if not tests_dir.is_dir() or not cmake.is_file():
        return []
    registered = set(
        re.findall(r"([A-Za-z0-9_]+_test\.cpp)", cmake.read_text(encoding="utf-8"))
    )
    violations = []
    for path in sorted(tests_dir.glob("*_test.cpp")):
        if path.name not in registered:
            violations.append(
                Violation(
                    f"tests/{path.name}",
                    0,
                    "test-reg",
                    "not registered in tests/CMakeLists.txt; it will never "
                    "run in CI",
                )
            )
    return violations


def check_functional_registration(root: Path) -> List[Violation]:
    func_dir = root / "tests" / "functional"
    cmake = func_dir / "CMakeLists.txt"
    if not func_dir.is_dir() or not cmake.is_file():
        return []
    registered = set(
        re.findall(r"(test_[A-Za-z0-9_]+\.py)", cmake.read_text(encoding="utf-8"))
    )
    violations = []
    for path in sorted(func_dir.glob("test_*.py")):
        if path.name not in registered:
            violations.append(
                Violation(
                    f"tests/functional/{path.name}",
                    0,
                    "func-reg",
                    "not registered in tests/functional/CMakeLists.txt; it "
                    "will never run in CI",
                )
            )
    return violations


# Registration sites on an obs::Registry (or pointer to one) with a literal
# first argument. \s crosses newlines, so clang-format's wrapped calls
# (`registry.add_snapshot(\n    "geoproof_track", ...)`) still match;
# non-literal names (histogram(name_, ...)) are the caller's contract with
# the runtime validator and are out of scope here.
METRIC_CALL_PATTERN = re.compile(
    r'(?:\.|->)\s*(?:counter|gauge|histogram|add_snapshot)\s*\(\s*"([^"\n]*)"'
)
METRIC_NAME_PATTERN = re.compile(r"geoproof_[a-z0-9_]+(?:_seconds|_bytes|_total)?")
METRIC_NAME_ALLOWLIST = frozenset(
    {
        # Exercises the runtime validator with deliberately bad names.
        "tests/obs_metrics_test.cpp",
    }
)
METRIC_NAME_MESSAGE = (
    "metric name must match geoproof_[a-z0-9_]+(_seconds|_bytes|_total)? "
    "so every series shares the greppable geoproof_ prefix and unit suffix"
)


def check_metric_names(root: Path) -> List[Violation]:
    violations = []
    for path in iter_cxx_files(root):
        rel = path.relative_to(root).as_posix()
        if rel in METRIC_NAME_ALLOWLIST:
            continue
        try:
            text = path.read_text(encoding="utf-8", errors="replace")
        except OSError:
            continue  # check_patterns already reports unreadable files
        code = strip_comments_and_strings(text, keep_strings=True)
        for match in METRIC_CALL_PATTERN.finditer(code):
            name = match.group(1)
            if METRIC_NAME_PATTERN.fullmatch(name):
                continue
            lineno = code.count("\n", 0, match.start()) + 1
            violations.append(
                Violation(
                    rel,
                    lineno,
                    "metric-name",
                    f'"{name}": {METRIC_NAME_MESSAGE}',
                )
            )
    return violations


# A src/<m>/CMakeLists.txt link line, and the geoproof libraries it names.
LINK_CALL_PATTERN = re.compile(r"target_link_libraries\s*\(([^)]*)\)")
LINKED_LIBRARY_PATTERN = re.compile(r"geoproof(?:_|::)([a-z0-9_]+)")
MODULE_INCLUDE_PATTERN = re.compile(r'^[ \t]*#[ \t]*include[ \t]*"([A-Za-z0-9_]+)/')
LAYER_MESSAGE = (
    "is not linked by this module's CMakeLists.txt; link the library "
    "(if the layering allows it) or move the code to the layer that does"
)


def check_layering(root: Path) -> List[Violation]:
    src = root / "src"
    if not src.is_dir():
        return []
    modules = {p.name for p in src.iterdir() if (p / "CMakeLists.txt").is_file()}
    violations = []
    for module in sorted(modules):
        cmake = (src / module / "CMakeLists.txt").read_text(encoding="utf-8")
        cmake = re.sub(r"#[^\n]*", "", cmake)
        allowed = {module}
        for args in LINK_CALL_PATTERN.findall(cmake):
            allowed.update(LINKED_LIBRARY_PATTERN.findall(args))
        for path in sorted((src / module).rglob("*")):
            if path.suffix not in CXX_SUFFIXES or not path.is_file():
                continue
            rel = path.relative_to(root).as_posix()
            text = path.read_text(encoding="utf-8", errors="replace")
            code = strip_comments_and_strings(text, keep_strings=True)
            for lineno, line in enumerate(code.splitlines(), start=1):
                match = MODULE_INCLUDE_PATTERN.match(line)
                if match is None:
                    continue
                included = match.group(1)
                if included in modules and included not in allowed:
                    violations.append(
                        Violation(
                            rel,
                            lineno,
                            "layer",
                            f'"{included}/": geoproof_{included} {LAYER_MESSAGE}',
                        )
                    )
    return violations


def collect_violations(root: Path) -> List[Violation]:
    return (
        check_patterns(root)
        + check_test_registration(root)
        + check_functional_registration(root)
        + check_metric_names(root)
        + check_layering(root)
    )


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="repository root (default: parent of tools/)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print rule names and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.name}: {rule.message}")
        print("test-reg: every tests/*_test.cpp registered in CMakeLists.txt")
        print(
            "func-reg: every tests/functional/test_*.py registered in "
            "tests/functional/CMakeLists.txt"
        )
        print(f"metric-name: {METRIC_NAME_MESSAGE}")
        print(
            "layer: src/<m>/ includes only <m>/ and the libraries its "
            "CMakeLists.txt links"
        )
        return 0

    root = args.root.resolve()
    if not root.is_dir():
        print(f"geoproof_lint: no such directory: {root}", file=sys.stderr)
        return 2

    violations = collect_violations(root)
    for violation in violations:
        print(violation.render())
    if violations:
        print(f"geoproof_lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("geoproof_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
