#!/usr/bin/env python3
"""Self-test for tools/tcq_lint.py against the fixture tree.

Each fixture file under tools/lint_fixtures/ mimics a path inside the
real repository (the rules are path-scoped) and must produce exactly the
findings listed in EXPECTED — no more, no fewer. Run directly or via
ctest (registered as tcq_lint_selftest).
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tcq_lint  # noqa: E402

FIXTURE_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "lint_fixtures")

# relpath -> sorted list of (line, rule) that linting it must produce.
EXPECTED = {
    "src/exec/bad_rng.cc": [
        (7, "unseeded-rng"),
        (8, "unseeded-rng"),
    ],
    "src/exec/bad_rand.cc": [
        (7, "unseeded-rng"),
        (8, "unseeded-rng"),
    ],
    "src/engine/bad_clock.cc": [
        (8, "wall-clock"),
        (9, "wall-clock"),
    ],
    "src/estimator/bad_print.cc": [
        (8, "stdout-in-lib"),
        (9, "stdout-in-lib"),
    ],
    "src/api/bad_nodiscard.h": [
        (13, "nodiscard-status"),
        (14, "nodiscard-status"),
        (15, "nodiscard-status"),
    ],
    "src/exec/bad_thread.cc": [
        (7, "thread-outside-parallel"),
        (8, "thread-outside-parallel"),
    ],
    "src/engine/bad_cache_key.cc": [
        (9, "cache-key-canonical"),
        (10, "cache-key-canonical"),
    ],
    "src/engine/bad_trace_format.cc": [
        (8, "trace-format-outside-obs"),
        (14, "trace-format-outside-obs"),
        (15, "trace-format-outside-obs"),
    ],
    "src/storage/bad_discard.cc": [
        (7, "status-discarded-in-storage"),
        (8, "status-discarded-in-storage"),
        (9, "status-discarded-in-storage"),
    ],
    "src/serve/bad_unannotated.h": [
        (14, "unannotated-guarded-field"),
        (20, "unannotated-guarded-field"),
    ],
    "src/engine/bad_ledger_charge.cc": [
        (7, "ledger-category-charged"),
        (8, "ledger-category-charged"),
    ],
    "src/engine/bad_metric_name.cc": [
        (6, "metric-name-registry"),
        (7, "metric-name-registry"),
    ],
    "src/exec/stale_allow.cc": [
        (6, "stale-allow"),
        (7, "stale-allow"),
    ],
    # Scope and suppression cases: must come back clean.
    "src/util/random.cc": [],
    "src/timectrl/ok_clock.cc": [],
    "src/parallel/ok_thread.cc": [],
    "bench/ok_print.cc": [],
    "src/exec/suppressed_rng.cc": [],
    "src/api/ok_nodiscard.h": [],
    "src/obs/ok_trace_format.cc": [],
    "src/cache/signature.cc": [],
    "src/storage/ok_discard.cc": [],
    "src/serve/ok_annotated.h": [],
    "src/util/ok_mutex_wrapper.h": [],
    "src/engine/ok_ledger_charge.cc": [],
    "src/sim/ok_ledger_internal.cc": [],
    "src/engine/ok_metric_name.cc": [],
    "src/exec/ok_allow.cc": [],
    # The fixture registry headers the cross-file rules resolve against;
    # both must themselves lint clean.
    "src/sim/ledger.h": [],
    "src/obs/metric_names.h": [],
}


class TcqLintTest(unittest.TestCase):
    maxDiff = None

    def test_every_fixture_has_an_expectation(self):
        on_disk = sorted(
            f for f in tcq_lint.collect_files(FIXTURE_ROOT, []))
        self.assertEqual(on_disk, sorted(EXPECTED))

    def test_fixture_findings(self):
        for relpath, want in EXPECTED.items():
            with self.subTest(fixture=relpath):
                findings = tcq_lint.lint_file(FIXTURE_ROOT, relpath)
                got = sorted((f.line, f.rule) for f in findings)
                self.assertEqual(got, sorted(want))

    def test_cli_exit_codes(self):
        # Violating tree -> 1; clean subtree -> 0.
        self.assertEqual(
            tcq_lint.main(["--root", FIXTURE_ROOT, "src/exec/bad_rng.cc"]), 1)
        self.assertEqual(
            tcq_lint.main(["--root", FIXTURE_ROOT, "src/parallel"]), 0)

    def test_disable_file_suppression(self):
        lines = [
            "// tcq-lint: disable-file(unseeded-rng)",
            "#include <random>",
            "static std::mt19937 gen(1);",
        ]
        path = os.path.join(FIXTURE_ROOT, "src", "exec", "tmp_disable.cc")
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
        try:
            findings = tcq_lint.lint_file(FIXTURE_ROOT,
                                          "src/exec/tmp_disable.cc")
            self.assertEqual(findings, [])
        finally:
            os.remove(path)

    def test_real_tree_is_clean(self):
        repo_root = os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))
        findings = []
        for rel in tcq_lint.collect_files(repo_root, []):
            findings.extend(tcq_lint.lint_file(repo_root, rel))
        self.assertEqual([str(f) for f in findings], [])


if __name__ == "__main__":
    unittest.main()
