"""Self-test for geoproof_lint.py: feed violating and clean snippets
through the rule engine on synthetic trees and assert each rule fires
exactly where it should. Stdlib unittest so it runs anywhere python3 does
(registered as the `lint_selftest` CTest entry).
"""

import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import geoproof_lint  # noqa: E402


def make_tree(files):
    """Create a temp repo-shaped tree: {relpath: content} -> root Path."""
    root = Path(tempfile.mkdtemp(prefix="geoproof_lint_test_"))
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")
    return root


def rules_hit(violations):
    return sorted({v.rule for v in violations})


class StripTest(unittest.TestCase):
    def test_line_comments_blanked(self):
        code = "int x;  // steady_clock here\nint y;\n"
        stripped = geoproof_lint.strip_comments_and_strings(code)
        self.assertNotIn("steady_clock", stripped)
        self.assertIn("int y;", stripped)

    def test_block_comments_preserve_line_numbers(self):
        code = "a\n/* one\ntwo */\nb\n"
        stripped = geoproof_lint.strip_comments_and_strings(code)
        self.assertEqual(code.count("\n"), stripped.count("\n"))
        self.assertNotIn("two", stripped)

    def test_string_literals_blanked(self):
        code = 'auto s = "::close(fd) mt19937";\n'
        stripped = geoproof_lint.strip_comments_and_strings(code)
        self.assertNotIn("close", stripped)
        self.assertNotIn("mt19937", stripped)

    def test_digit_separator_is_not_a_char_literal(self):
        code = (
            "auto d = Millis{60'000.0}; auto m = 0xFF'FF;\n"
            "std::this_thread::sleep_for(d);\n"
            "char c = 'x'; auto w = u8'y'; // steady_clock\n"
        )
        stripped = geoproof_lint.strip_comments_and_strings(code)
        self.assertIn("60'000.0", stripped)
        self.assertIn("0xFF'FF", stripped)
        self.assertIn("std::this_thread::sleep_for(d);", stripped)
        self.assertNotIn("x", stripped.splitlines()[2])
        self.assertNotIn("steady_clock", stripped)

    def test_code_after_digit_separator_is_scanned(self):
        root = make_tree(
            {
                "src/core/engine.cpp":
                    "auto d = Millis{60'000.0};\n"
                    "std::this_thread::sleep_for(d);\n",
            }
        )
        violations = geoproof_lint.check_patterns(root)
        self.assertEqual(rules_hit(violations), ["raw-sleep"])
        self.assertEqual(violations[0].line, 2)

    def test_escaped_quote_does_not_end_string(self):
        code = 'auto s = "a\\"b steady_clock";\nint keep;\n'
        stripped = geoproof_lint.strip_comments_and_strings(code)
        self.assertNotIn("steady_clock", stripped)
        self.assertIn("int keep;", stripped)


class ClockRuleTest(unittest.TestCase):
    def test_flags_raw_clock_outside_allowlist(self):
        root = make_tree(
            {"src/core/policy.cpp": "auto t = std::chrono::steady_clock::now();\n"}
        )
        violations = geoproof_lint.check_patterns(root)
        self.assertEqual(rules_hit(violations), ["clock"])
        self.assertEqual(violations[0].path, "src/core/policy.cpp")
        self.assertEqual(violations[0].line, 1)

    def test_allowlisted_file_is_clean(self):
        root = make_tree(
            {"src/common/clock.hpp": "using C = std::chrono::steady_clock;\n"}
        )
        self.assertEqual(geoproof_lint.check_patterns(root), [])

    def test_comment_mention_is_clean(self):
        root = make_tree(
            {"src/core/policy.cpp": "// steady_clock over TCP\nint x;\n"}
        )
        self.assertEqual(geoproof_lint.check_patterns(root), [])


class RawSleepRuleTest(unittest.TestCase):
    def test_flags_sleep_in_library_code(self):
        root = make_tree(
            {
                "src/track/service.cpp":
                    "std::this_thread::sleep_for(std::chrono::seconds(1));\n",
                "src/core/engine.cpp":
                    "this_thread::sleep_until(deadline);\n",
            }
        )
        violations = geoproof_lint.check_patterns(root)
        self.assertEqual(rules_hit(violations), ["raw-sleep"])
        self.assertEqual(len(violations), 2)

    def test_daemon_pacing_is_allowlisted(self):
        root = make_tree(
            {
                "src/daemon/track_stream.cpp":
                    "std::this_thread::sleep_for(interval);\n",
            }
        )
        self.assertEqual(geoproof_lint.check_patterns(root), [])

    def test_serving_daemons_may_not_sleep(self):
        # Their delays are loop timers: a sleep would stall every
        # connection the serving loop holds.
        root = make_tree(
            {
                "src/daemon/prover_daemon.cpp":
                    "std::this_thread::sleep_for(stall);\n",
                "src/daemon/vantage_daemon.cpp":
                    "std::this_thread::sleep_for(delay);\n",
            }
        )
        violations = geoproof_lint.check_patterns(root)
        self.assertEqual(rules_hit(violations), ["raw-sleep"])
        self.assertEqual(len(violations), 2)

    def test_comment_and_lookalike_are_clean(self):
        root = make_tree(
            {
                "src/track/service.cpp":
                    "// never sleep_for in shard workers\n"
                    "clock.sleep_for(tick); sim::this_thread::sleep_for(t);\n",
            }
        )
        self.assertEqual(geoproof_lint.check_patterns(root), [])


class RawCloseRuleTest(unittest.TestCase):
    def test_flags_global_close(self):
        root = make_tree({"src/core/engine.cpp": "void f(int fd) { ::close(fd); }\n"})
        self.assertEqual(rules_hit(geoproof_lint.check_patterns(root)), ["raw-close"])

    def test_member_close_is_clean(self):
        root = make_tree(
            {"src/core/engine.cpp": "void g(Socket& s) { s.close(); Socket::close(s); }\n"}
        )
        self.assertEqual(geoproof_lint.check_patterns(root), [])

    def test_socket_impl_is_allowlisted(self):
        root = make_tree({"src/net/async.cpp": "if (fd >= 0) ::close(fd);\n"})
        self.assertEqual(geoproof_lint.check_patterns(root), [])


class RawRngRuleTest(unittest.TestCase):
    def test_flags_mt19937_and_rand(self):
        root = make_tree(
            {
                "tests/foo_test.cpp": "std::mt19937 gen(42);\n",
                "src/core/bar.cpp": "int r = rand();\n",
            }
        )
        violations = geoproof_lint.check_patterns(root)
        self.assertEqual(rules_hit(violations), ["raw-rng"])
        self.assertEqual(len(violations), 2)

    def test_rng_module_and_lookalikes_are_clean(self):
        root = make_tree(
            {
                "src/common/rng.cpp": "std::mt19937 impl(seed);\n",
                "src/core/ok.cpp": "auto b = random_buffer(rng); o.brand(x);\n",
            }
        )
        self.assertEqual(geoproof_lint.check_patterns(root), [])


class RawMutexRuleTest(unittest.TestCase):
    def test_flags_std_mutex_outside_annotations_header(self):
        root = make_tree(
            {
                "src/core/engine.hpp": "std::map<int, std::unique_ptr<std::mutex>> mu_;\n",
                "tests/foo_test.cpp": "std::mutex m; // std::mutex in prose\n",
            }
        )
        violations = geoproof_lint.check_patterns(root)
        self.assertEqual(rules_hit(violations), ["raw-mutex"])
        self.assertEqual(len(violations), 2)

    def test_annotations_header_and_wrappers_are_clean(self):
        root = make_tree(
            {
                "src/common/thread_annotations.hpp": "std::mutex mu_;\n",
                "src/core/engine.hpp": (
                    "Mutex mu_; // not a std::mutex\n"
                    "std::unique_lock<std::mutex_like> l; std::shared_mutex s;\n"
                ),
            }
        )
        self.assertEqual(geoproof_lint.check_patterns(root), [])


class IsaRuleTest(unittest.TestCase):
    def test_flags_intrinsics_outside_sha256(self):
        root = make_tree(
            {
                "src/crypto/hmac.cpp": (
                    "#include <immintrin.h>\n"
                    '__attribute__((target("sha"))) void f();\n'
                    "auto s = _mm_sha256rnds2_epu32(a, b, k);\n"
                ),
                "bench/bench_x.cpp": "#  include <immintrin.h>\n",
            }
        )
        violations = geoproof_lint.check_patterns(root)
        self.assertEqual(rules_hit(violations), ["isa"])
        self.assertEqual(
            sorted((v.path, v.line) for v in violations),
            [
                ("bench/bench_x.cpp", 1),
                ("src/crypto/hmac.cpp", 1),
                ("src/crypto/hmac.cpp", 2),
                ("src/crypto/hmac.cpp", 3),
            ],
        )

    def test_sha256_source_and_lookalikes_are_clean(self):
        root = make_tree(
            {
                "src/crypto/sha256.cpp": (
                    "#include <immintrin.h>\n"
                    '__attribute__((target("sha,sse4.1"))) void f();\n'
                    "auto s = _mm_sha256msg1_epu32(a, b);\n"
                ),
                "src/crypto/aes.cpp": (
                    "// _mm_sha256rnds2 lives in sha256.cpp\n"
                    "#include <cpuid.h>\n"
                    "auto t = my_mm_sha256(x); __attribute__((unused)) int y;\n"
                ),
            }
        )
        self.assertEqual(geoproof_lint.check_patterns(root), [])


class TestRegistrationRuleTest(unittest.TestCase):
    def test_unregistered_test_is_flagged(self):
        root = make_tree(
            {
                "tests/CMakeLists.txt": "set(S\n  core_a_test.cpp)\n",
                "tests/core_a_test.cpp": "int main() {}\n",
                "tests/core_b_test.cpp": "int main() {}\n",
            }
        )
        violations = geoproof_lint.check_test_registration(root)
        self.assertEqual(len(violations), 1)
        self.assertEqual(violations[0].path, "tests/core_b_test.cpp")
        self.assertEqual(violations[0].rule, "test-reg")

    def test_fully_registered_tree_is_clean(self):
        root = make_tree(
            {
                "tests/CMakeLists.txt": "set(S core_a_test.cpp core_b_test.cpp)\n",
                "tests/core_a_test.cpp": "int main() {}\n",
                "tests/core_b_test.cpp": "int main() {}\n",
            }
        )
        self.assertEqual(geoproof_lint.check_test_registration(root), [])


class FunctionalRegistrationRuleTest(unittest.TestCase):
    def test_unregistered_script_is_flagged(self):
        root = make_tree(
            {
                "tests/functional/CMakeLists.txt":
                    "set(F\n  test_lifecycle.py)\n",
                "tests/functional/test_lifecycle.py": "pass\n",
                "tests/functional/test_orphan.py": "pass\n",
                "tests/functional/framework.py": "pass\n",
            }
        )
        violations = geoproof_lint.check_functional_registration(root)
        self.assertEqual(len(violations), 1)
        self.assertEqual(violations[0].path, "tests/functional/test_orphan.py")
        self.assertEqual(violations[0].rule, "func-reg")

    def test_helpers_without_test_prefix_are_ignored(self):
        root = make_tree(
            {
                "tests/functional/CMakeLists.txt": "set(F test_a.py)\n",
                "tests/functional/test_a.py": "pass\n",
                "tests/functional/wire.py": "pass\n",
            }
        )
        self.assertEqual(geoproof_lint.check_functional_registration(root), [])

    def test_tree_without_functional_dir_is_clean(self):
        root = make_tree({"tests/CMakeLists.txt": "set(S)\n"})
        self.assertEqual(geoproof_lint.check_functional_registration(root), [])


class MetricNameRuleTest(unittest.TestCase):
    def test_flags_unprefixed_and_uppercase_names(self):
        root = make_tree(
            {
                "src/core/engine.cpp":
                    'registry.counter("audits_total").inc();\n'
                    'metrics_->gauge("geoproof_Bad");\n',
            }
        )
        violations = geoproof_lint.check_metric_names(root)
        self.assertEqual(rules_hit(violations), ["metric-name"])
        self.assertEqual(len(violations), 2)
        self.assertEqual(violations[0].line, 1)
        self.assertIn('"audits_total"', violations[0].message)
        self.assertEqual(violations[1].line, 2)

    def test_conforming_names_are_clean(self):
        root = make_tree(
            {
                "src/core/engine.cpp":
                    'registry.counter("geoproof_audits_total").inc();\n'
                    'metrics_->histogram("geoproof_vantage_rtt_seconds",\n'
                    '                    {{"vantage", name}});\n'
                    'registry.add_snapshot("geoproof_track", fn);\n',
            }
        )
        self.assertEqual(geoproof_lint.check_metric_names(root), [])

    def test_wrapped_call_reports_the_call_site_line(self):
        root = make_tree(
            {
                "src/core/engine.cpp":
                    "int x;\n"
                    "auto& h = metrics_->histogram(\n"
                    '    "engine_sweep_seconds", {});\n',
            }
        )
        violations = geoproof_lint.check_metric_names(root)
        self.assertEqual(len(violations), 1)
        self.assertEqual(violations[0].line, 2)

    def test_comments_and_non_literal_names_are_ignored(self):
        root = make_tree(
            {
                "src/core/engine.cpp":
                    '// registry.counter("BadName") would be rejected\n'
                    "registry.counter(dynamic_name_).inc();\n",
            }
        )
        self.assertEqual(geoproof_lint.check_metric_names(root), [])

    def test_validator_test_file_is_allowlisted(self):
        root = make_tree(
            {
                "tests/obs_metrics_test.cpp":
                    'EXPECT_THROW(registry.counter("audits_total"), Error);\n',
            }
        )
        self.assertEqual(geoproof_lint.check_metric_names(root), [])


class LayerRuleTest(unittest.TestCase):
    MODULES = {
        "src/net/CMakeLists.txt": "target_link_libraries(geoproof_net)\n",
        "src/geoloc/CMakeLists.txt":
            "target_link_libraries(geoproof_geoloc PUBLIC geoproof_net)\n",
    }

    def test_flags_include_of_unlinked_module(self):
        root = make_tree(
            {
                **self.MODULES,
                # A comment naming the library does not link it.
                "src/core/CMakeLists.txt":
                    "# core no longer needs geoproof_geoloc\n"
                    "target_link_libraries(geoproof_core\n"
                    "  PUBLIC geoproof_net)\n",
                "src/core/gps.hpp":
                    '#include "net/geo.hpp"\n#include "geoloc/schemes.hpp"\n',
            }
        )
        violations = geoproof_lint.check_layering(root)
        self.assertEqual(rules_hit(violations), ["layer"])
        self.assertEqual(len(violations), 1)
        self.assertEqual(violations[0].path, "src/core/gps.hpp")
        self.assertEqual(violations[0].line, 2)

    def test_linked_own_and_non_module_includes_are_clean(self):
        root = make_tree(
            {
                **self.MODULES,
                "src/locate/CMakeLists.txt":
                    "target_link_libraries(geoproof_locate\n"
                    "  PUBLIC geoproof::geoloc geoproof_net)\n",
                "src/locate/composite.cpp":
                    '#include "locate/composite.hpp"\n'
                    '#include "geoloc/schemes.hpp"\n'
                    '#include "net/geo.hpp"\n'
                    '#include "detail/helper.hpp"\n'
                    '// #include "core/scheme.hpp" is not needed here\n',
            }
        )
        self.assertEqual(geoproof_lint.check_layering(root), [])


class AppsScanTest(unittest.TestCase):
    def test_apps_sources_are_scanned(self):
        root = make_tree(
            {"apps/mydaemon.cpp": "auto t = std::chrono::system_clock::now();\n"}
        )
        violations = geoproof_lint.check_patterns(root)
        self.assertEqual(rules_hit(violations), ["clock"])
        self.assertEqual(violations[0].path, "apps/mydaemon.cpp")


class RealTreeTest(unittest.TestCase):
    def test_repository_is_clean(self):
        repo = Path(__file__).resolve().parent.parent
        self.assertEqual(
            [v.render() for v in geoproof_lint.collect_violations(repo)], []
        )


if __name__ == "__main__":
    unittest.main()
