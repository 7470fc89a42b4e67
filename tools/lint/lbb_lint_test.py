#!/usr/bin/env python3
"""Tests for lbb_lint.py: each rule must fire on its committed fixture
(with the expected findings and no others), the allow-comment and
workspace-provenance escapes must hold, and the real src/ tree must be
clean.  Run directly or via `ctest -L lint` (test name: lint_fixtures)."""

import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
LINT = os.path.join(HERE, "lbb_lint.py")
TESTDATA = os.path.join(HERE, "testdata")
ROOT = os.path.dirname(os.path.dirname(HERE))


def run_lint(*argv):
    proc = subprocess.run(
        [sys.executable, LINT, *argv],
        capture_output=True, text=True, cwd=ROOT)
    return proc.returncode, proc.stdout, proc.stderr


def fixture(name):
    return os.path.join(TESTDATA, name)


class FixtureRules(unittest.TestCase):
    """Every rule fires on its fixture; clean shapes stay clean."""

    def findings(self, name, rule):
        code, out, _err = run_lint(fixture(name))
        self.assertEqual(code, 1, f"{name} must fail lint:\n{out}")
        lines = [l for l in out.splitlines() if f"[{rule}]" in l]
        # The fixture must not trip rules it isn't about (fixtures are
        # single-rule by construction).
        others = [l for l in out.splitlines()
                  if "[" in l and f"[{rule}]" not in l]
        self.assertEqual(others, [], f"unexpected cross-rule findings: "
                                     f"{others}")
        return [int(l.split(":")[1]) for l in lines], out

    def test_hot_alloc_fires(self):
        lines, out = self.findings("bad_hot_alloc.cpp", "hot-alloc")
        # 5 direct bad sites in hot_kernel + 1 in the transitive helper.
        self.assertEqual(len(lines), 6, out)
        self.assertIn("operator new", out)
        self.assertIn("'malloc'", out)
        self.assertIn("'make_unique'", out)
        self.assertIn("helper_grows", out, "closure must reach the helper")

    def test_hot_alloc_escapes_hold(self):
        _lines, out = self.findings("bad_hot_alloc.cpp", "hot-alloc")
        self.assertNotIn("ws.frames", out, "ws-rooted receiver is exempt")
        self.assertNotIn("heap.push_back", out, "ws alias is exempt")
        self.assertNotIn("bisect", out, "problem calls are opaque")

    def test_hot_alloc_covers_batch_kernels(self):
        # The trial kernels (HF's tree walk in src/core/hf.hpp
        # among them) are inside the hot-alloc closure; this fixture proves
        # the rule fires on such code: kernel-local container growth and a
        # spill helper are flagged while the workspace's recycled buffers
        # stay exempt.
        lines, out = self.findings("bad_batch_alloc.cpp", "hot-alloc")
        self.assertEqual(len(lines), 3, out)
        self.assertIn("spill_lane", out, "closure must reach the lane helper")
        self.assertNotIn("slot_weight", out, "ws vector is exempt")
        self.assertNotIn("heap.emplace_back", out, "ws alias is exempt")

    def test_raw_rng_fires(self):
        lines, out = self.findings("bad_rng.cpp", "raw-rng")
        self.assertEqual(len(lines), 6, out)
        for token in ("std::srand", "std::rand", "std::mt19937",
                      "std::random_device", "std::default_random_engine",
                      "lrand48"):
            self.assertIn(f"'{token}'", out)
        # Line 22 holds the allow-suppressed std::rand; line 16 the string
        # literal mention.  Neither may appear.
        self.assertNotIn(":22:", out)
        self.assertNotIn(":16:", out)

    def test_memory_order_fires(self):
        lines, out = self.findings("bad_memory_order.cpp", "memory-order")
        self.assertEqual(len(lines), 5, out)
        self.assertIn("memory_order::relaxed", out, "enum form must match")
        self.assertIn("memory_order_acq_rel", out)

    def test_raw_simd_fires(self):
        lines, out = self.findings("bad_raw_simd.cpp", "raw-simd")
        # 1 include + 4 _mm256_* call sites + 1 __builtin_ia32 builtin; the
        # commented mention and the allow-suppressed site stay silent, and
        # the __m256d type name (one 'm') must not match the _mm* pattern.
        self.assertEqual(len(lines), 6, out)
        self.assertIn("'<immintrin.h>'", out)
        self.assertIn("'_mm256_loadu_pd'", out)
        self.assertIn("'__builtin_ia32_pause'", out)
        self.assertIn("DESIGN.md section 11", out,
                      "message must point to the measurement")
        self.assertNotIn(":31:", out, "allow-comment must suppress")

    def test_registry_key_fires(self):
        lines, out = self.findings("bad_registry_key.cpp", "registry-key")
        self.assertEqual(len(lines), 4, out)
        self.assertIn("'BA Star'", out)
        self.assertIn("duplicate registry key 'sim:ba'", out)
        self.assertIn("duplicate registry key 'hf'", out)
        self.assertIn("'par:ba2!'", out)


class AllowComment(unittest.TestCase):
    def test_bare_allow_is_an_error(self):
        path = os.path.join(TESTDATA, "tmp_bare_allow.cpp")
        with open(path, "w") as f:
            f.write("// lbb-lint: allow(raw-rng)\n"
                    "inline int f() { return std::rand(); }\n")
        try:
            code, out, _ = run_lint(path)
            self.assertEqual(code, 1)
            self.assertIn("allow-syntax", out)
            self.assertIn("without a reason", out)
        finally:
            os.unlink(path)

    def test_trailing_allow_suppresses(self):
        path = os.path.join(TESTDATA, "tmp_trailing_allow.cpp")
        with open(path, "w") as f:
            f.write("inline int f() {\n"
                    "  return std::rand();"
                    "  // lbb-lint: allow(raw-rng): trailing form\n"
                    "}\n")
        try:
            code, out, _ = run_lint(path)
            self.assertEqual(code, 0, out)
        finally:
            os.unlink(path)


class RepoIsClean(unittest.TestCase):
    def test_src_tree_passes(self):
        code, out, err = run_lint()
        self.assertEqual(code, 0,
                         f"src/ must be lint-clean:\n{out}\n{err}")

    def test_hot_roots_are_marked(self):
        code, out, _ = run_lint(
            "--list-hot",
            *sorted(os.path.join(ROOT, "src/core", f)
                    for f in os.listdir(os.path.join(ROOT, "src/core"))
                    if f.endswith(".hpp")),
            *sorted(os.path.join(ROOT, "src/core/detail", f)
                    for f in os.listdir(os.path.join(ROOT,
                                                     "src/core/detail"))
                    if f.endswith(".hpp")))
        self.assertEqual(code, 0)
        hot = {l.split("LBB_HOT ")[1] for l in out.splitlines() if l}
        # The per-bisection kernels and workspace helpers must stay marked;
        # losing a marker silently disables the closure for that root.
        for name in ("hf_run", "ba_run", "ba_hf_run", "hf_partition",
                     "ba_partition", "ba_star_partition", "ba_hf_partition",
                     "take_pieces", "recycle", "piece", "bisected",
                     "push", "pop"):
            self.assertIn(name, hot, f"{name} lost its LBB_HOT marker")


class CliContract(unittest.TestCase):
    def test_missing_file_is_usage_error(self):
        code, _out, err = run_lint("no/such/file.cpp")
        self.assertEqual(code, 2)
        self.assertIn("no such file", err)

    def test_explicit_clang_engine_skips_when_unavailable(self):
        try:
            import clang.cindex  # noqa: F401
            self.skipTest("libclang available; engine would run")
        except ImportError:
            pass
        code, _out, err = run_lint("--engine", "clang",
                                   fixture("bad_rng.cpp"))
        self.assertEqual(code, 77, "unavailable engine must exit 77")
        self.assertIn("libclang", err)


if __name__ == "__main__":
    unittest.main()
