#!/usr/bin/env python3
"""lbb-lint: project-specific static checks for lbb's runtime contracts.

The repo makes three promises that ordinary compilers cannot check:

  determinism  -- all randomness flows through stats/rng.hpp (seeded
                  Xoshiro256 streams); any stray std::rand / mt19937 /
                  random_device breaks run-to-run byte identity.
  memory order -- the cross-thread protocol is sequentially consistent by
                  policy; weaker std::memory_order_* arguments are not
                  allowed anywhere.
  hot-path alloc -- functions marked LBB_HOT (the per-bisection kernels,
                  HF's tree walk among them, and their workspace helpers)
                  must not allocate except
                  through workspace-recycled storage; the runtime alloc gate
                  (tests/perf/alloc_gate_test.cpp) proves the steady state,
                  this lint pins the provenance statically.

plus a ban on raw x86 intrinsics (hand-vectorized lane kernels were
measured, found not to pay, and removed; DESIGN.md section 11) and one
registry hygiene rule (partitioner keys are unique and machine-friendly: lowercase
with '_', ':' and '\'' only).

Rules (ids used in messages and allow-comments):

  hot-alloc     allocation reachable from an LBB_HOT function
  raw-rng       raw RNG primitive outside src/stats/rng.hpp
  memory-order  non-seq_cst memory order anywhere
  raw-simd      raw x86 intrinsic (<immintrin.h>, _mm*/__builtin_ia32_*)
                anywhere
  registry-key  malformed or duplicate partitioner registry key

Suppression: put `lbb-lint: allow(<rule>): <reason>` in a `//` comment on
the offending line or in the contiguous comment block directly above it.
The reason is mandatory -- a bare allow() is itself an error.

Engines: --engine regex (default, no dependencies) masks comments/strings
with a small scanner; --engine clang uses libclang's token stream for the
masking when the python bindings are importable (the rule logic is shared).
--engine auto picks clang when available, else regex.  Exit codes: 0 clean,
1 findings, 2 usage error, 77 requested engine unavailable.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, field

REPO_MARKERS = ("CMakeLists.txt", "ROADMAP.md")

RNG_EXEMPT = "src/stats/rng.hpp"

# Problem-polymorphic calls the hot-alloc closure must not descend into:
# their cost (and any allocation) belongs to the problem instance, which the
# runtime alloc gate measures for the shipped problems.
OPAQUE_CALLEES = {"bisect", "weight"}

# C++ keywords and common non-call identifiers that precede '(' in code.
NON_CALL_NAMES = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "alignas", "decltype", "noexcept", "static_assert", "catch", "throw",
    "new", "delete", "case", "default", "do", "else", "operator",
    "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast",
    "assert", "defined", "typeid", "requires", "explicit", "template",
}

ALLOC_FN = re.compile(
    r"\b(malloc|calloc|realloc|strdup|aligned_alloc|posix_memalign)\s*\(|"
    r"\b(make_unique_for_overwrite|make_unique|make_shared)\b"
)
ALLOC_NEW = re.compile(r"\bnew\b(?!\s*\()")  # plain and array new; not a call
ALLOC_MEMBER = re.compile(
    r"([A-Za-z_][\w.\->]*?)\s*(?:\.|->)\s*"
    r"(push_back|emplace_back|resize|reserve|insert|emplace|append|"
    r"push_front|emplace_front)\s*\("
)
# `auto& frames = ws.frames;` style aliases inside a hot body.
WS_ALIAS = re.compile(r"\bauto\s*&\s*([A-Za-z_]\w*)\s*=\s*ws\s*\.\s*[\w.]+\s*;")

RNG_TOKENS = re.compile(
    r"\b(?:std\s*::\s*)?"
    r"(rand|srand|mt19937|mt19937_64|minstd_rand|minstd_rand0|"
    r"default_random_engine|random_device|ranlux24|ranlux48|knuth_b|"
    r"drand48|lrand48|mrand48|random_shuffle)\b"
)
# `rand` / `srand` without std:: qualification match C library use too, but
# bare identifiers named e.g. `strand` must not trip the rule: \b handles it.

MEMORY_ORDER = re.compile(
    r"\bmemory_order(?:_|\s*::\s*)"
    r"(relaxed|consume|acquire|release|acq_rel)\b"
)

# Raw x86 intrinsics: the vector headers and every _mm*/__builtin_ia32
# builtin.  AVX2/AVX-512 lane kernels did not beat the portable build end
# to end (DESIGN.md section 11), so none are allowed; a new one must first
# show a measured win and its bit-identity argument.
# __builtin_prefetch / __builtin_cpu_supports are portable GNU builtins,
# not ISA intrinsics, and intentionally do not match.
SIMD_TOKENS = re.compile(
    r"(<immintrin\.h>|<x86intrin\.h>|__builtin_ia32_\w+|\b_mm(?:256|512)?_\w+)"
)

REGISTRY_KEY_SITES = (
    re.compile(r"\breg\(\s*\"([^\"]*)\""),       # core/partitioner.cpp lambda
    re.compile(r"\{\{\s*\"([^\"]*)\""),            # PartitionerInfo entry arrays
)
REGISTRY_KEY_SHAPE = re.compile(r"^[a-z_:']+$")

ALLOW = re.compile(r"lbb-lint:\s*allow\(([a-z-]+)\)(:?)\s*(\S?)")

CPP_EXTENSIONS = (".hpp", ".h", ".cpp", ".cc", ".cxx")


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def render(self, root: str) -> str:
        rel = os.path.relpath(self.path, root)
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class SourceFile:
    path: str
    rel: str
    text: str           # original contents
    masked: str         # comments and string/char literals blanked
    lines: list = field(default_factory=list)         # original lines
    masked_lines: list = field(default_factory=list)  # masked lines

    def __post_init__(self):
        self.lines = self.text.split("\n")
        self.masked_lines = self.masked.split("\n")


# --------------------------------------------------------------------------
# Masking engines
# --------------------------------------------------------------------------

def mask_regex(text: str) -> str:
    """Replaces comment bodies and string/char literal contents with spaces,
    preserving length and line structure so offsets and line numbers map
    1:1 onto the original text."""
    out = list(text)
    i, n = 0, len(text)
    state = "code"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == '"':
                # Raw strings: find the delimiter and skip to its closer.
                m = re.match(r'R"([^\s()\\]{0,16})\(', text[i - 1 : i + 20]) \
                    if i > 0 and text[i - 1] == "R" else None
                if m:
                    delim = m.group(1)
                    end = text.find(')' + delim + '"', i)
                    end = n if end == -1 else end + len(delim) + 2
                    for j in range(i + 1, min(end, n)):
                        if text[j] != "\n":
                            out[j] = " "
                    i = end
                    continue
                state = "string"
                i += 1
                continue
            if c == "'":
                state = "char"
                i += 1
                continue
            i += 1
            continue
        if state == "line_comment":
            if c == "\n":
                state = "code"
            else:
                out[i] = " "
            i += 1
            continue
        if state == "block_comment":
            if c == "*" and nxt == "/":
                out[i] = out[i + 1] = " "
                state = "code"
                i += 2
                continue
            if c != "\n":
                out[i] = " "
            i += 1
            continue
        # string / char literals: keep the quotes, blank the contents.
        quote = '"' if state == "string" else "'"
        if c == "\\":
            out[i] = " "
            if i + 1 < n and text[i + 1] != "\n":
                out[i + 1] = " "
            i += 2
            continue
        if c == quote:
            state = "code"
            i += 1
            continue
        if c != "\n":
            out[i] = " "
        i += 1
    return "".join(out)


def mask_clang(text: str, path: str) -> str:
    """libclang-backed masking: identical contract to mask_regex but driven
    by the clang token stream (exact comment/literal boundaries).  Raises
    ImportError when the bindings are missing."""
    from clang import cindex  # noqa: F401  (import error handled by caller)

    index = cindex.Index.create()
    tu = index.parse(
        path,
        args=["-std=c++20", "-fsyntax-only"],
        unsaved_files=[(path, text)],
        options=cindex.TranslationUnit.PARSE_DETAILED_PROCESSING_RECORD,
    )
    out = list(text)
    data = text.encode("utf-8")

    def blank(lo: int, hi: int, keep_quotes: bool) -> None:
        span = range(lo + 1, hi - 1) if keep_quotes else range(lo, hi)
        for j in span:
            if j < len(out) and out[j] != "\n":
                out[j] = " "

    for tok in tu.get_tokens(extent=tu.cursor.extent):
        lo = tok.extent.start.offset
        hi = tok.extent.end.offset
        if tok.kind == cindex.TokenKind.COMMENT:
            blank(lo, hi, keep_quotes=False)
        elif tok.kind == cindex.TokenKind.LITERAL and hi - lo >= 2:
            lexeme = data[lo:hi].decode("utf-8", "replace")
            if lexeme[:1] in "\"'" or lexeme[:2] in ('L"', 'u"', 'U"') \
                    or lexeme.startswith('R"'):
                blank(lo, hi, keep_quotes=True)
    return "".join(out)


def load_file(path: str, root: str, engine: str) -> SourceFile:
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    if engine == "clang":
        masked = mask_clang(text, path)
    else:
        masked = mask_regex(text)
    if len(masked) != len(text):  # masking must be offset-preserving
        masked = mask_regex(text)
    return SourceFile(path=path, rel=os.path.relpath(path, root).replace(
        os.sep, "/"), text=text, masked=masked)


# --------------------------------------------------------------------------
# Allow-comments
# --------------------------------------------------------------------------

def allow_rules_for_line(sf: SourceFile, line_idx: int, findings) -> set:
    """Rules suppressed at 0-based `line_idx`: from a trailing comment on
    the line itself or the contiguous `//` comment block directly above."""
    rules = set()

    def collect(text: str, lineno: int) -> None:
        for m in ALLOW.finditer(text):
            rule, colon, reason_head = m.group(1), m.group(2), m.group(3)
            if not colon or not reason_head:
                findings.append(Finding(
                    sf.path, lineno + 1, "allow-syntax",
                    "allow() without a reason -- write "
                    "'lbb-lint: allow(%s): <why this site is exempt>'"
                    % rule))
                continue
            rules.add(rule)

    collect(sf.lines[line_idx], line_idx)
    i = line_idx - 1
    while i >= 0 and sf.lines[i].strip().startswith("//"):
        collect(sf.lines[i], i)
        i -= 1
    return rules


# --------------------------------------------------------------------------
# Function index (regex-parsed) for the hot-alloc closure
# --------------------------------------------------------------------------

@dataclass
class FnDef:
    name: str
    sf: SourceFile
    header_start: int  # offset where the match began
    body_start: int    # offset of the '{'
    body_end: int      # offset one past the matching '}'
    hot: bool

    def body_masked(self) -> str:
        return self.sf.masked[self.body_start:self.body_end]

    def start_line(self) -> int:
        return self.sf.masked.count("\n", 0, self.header_start) + 1


DEF_HEAD = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*\(")


def match_paren(masked: str, open_idx: int) -> int:
    """Offset one past the ')' matching the '(' at open_idx, or -1."""
    depth = 0
    for i in range(open_idx, len(masked)):
        c = masked[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def match_brace(masked: str, open_idx: int) -> int:
    depth = 0
    for i in range(open_idx, len(masked)):
        c = masked[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


TRAILER_TOKEN = re.compile(
    r"\s*(const|noexcept|override|final|mutable|&&?|->\s*[^\{;]+|"
    r"LBB_[A-Z_]+\s*(?:\([^()]*\))?|\[\[[^\]]*\]\])"
)


def find_function_defs(sf: SourceFile) -> list:
    """Best-effort scan for function definitions with bodies.  Good enough
    for this codebase's style (clang-format, no K&R surprises); the clang
    engine shares this logic because libclang without full include paths
    cannot resolve template bodies any better."""
    defs = []
    masked = sf.masked
    for m in DEF_HEAD.finditer(masked):
        name = m.group(1)
        if name in NON_CALL_NAMES:
            continue
        close = match_paren(masked, m.end() - 1)
        if close == -1:
            continue
        # Swallow declaration trailers (const, noexcept, attributes,
        # trailing return, constructor init lists) up to '{' or give up.
        i = close
        while True:
            t = TRAILER_TOKEN.match(masked, i)
            if t:
                i = t.end()
                continue
            break
        rest = masked[i:i + 400]
        stripped = rest.lstrip()
        off = i + (len(rest) - len(stripped))
        if stripped.startswith(":"):
            # constructor init list: scan forward to the first '{' at
            # paren-depth 0.
            depth = 0
            j = off + 1
            while j < len(masked):
                c = masked[j]
                if c in "(":
                    depth += 1
                elif c == ")":
                    depth -= 1
                elif c == "{" and depth == 0:
                    off = j
                    stripped = "{"
                    break
                elif c == ";" and depth == 0:
                    stripped = ";"
                    break
                j += 1
        if not stripped.startswith("{"):
            continue
        body_end = match_brace(masked, off if stripped == "{" else
                               masked.index("{", off))
        if body_end == -1:
            continue
        body_start = masked.index("{", off)
        # Hot marker: LBB_HOT in the declaration header (from the previous
        # statement/brace boundary to the function name).
        lo = max(masked.rfind(";", 0, m.start()),
                 masked.rfind("}", 0, m.start()),
                 masked.rfind("{", 0, m.start()))
        header = masked[lo + 1:m.start()]
        defs.append(FnDef(name=name, sf=sf, header_start=m.start(),
                          body_start=body_start, body_end=body_end,
                          hot="LBB_HOT" in header))
    return defs


CALL = re.compile(r"(?<![\w.])([A-Za-z_][A-Za-z0-9_]*)\s*\(")
MEMBER_CALL = re.compile(r"(?:\.|->)\s*([A-Za-z_][A-Za-z0-9_]*)\s*\(")


def callees(body_masked: str) -> set:
    names = set()
    for m in CALL.finditer(body_masked):
        if m.group(1) not in NON_CALL_NAMES:
            names.add(m.group(1))
    for m in MEMBER_CALL.finditer(body_masked):
        if m.group(1) not in NON_CALL_NAMES:
            names.add(m.group(1))
    return names - OPAQUE_CALLEES


# --------------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------------

def check_raw_rng(sf: SourceFile, findings: list) -> None:
    if sf.rel == RNG_EXEMPT:
        return
    for idx, line in enumerate(sf.masked_lines):
        for m in RNG_TOKENS.finditer(line):
            if "raw-rng" in allow_rules_for_line(sf, idx, findings):
                continue
            findings.append(Finding(
                sf.path, idx + 1, "raw-rng",
                f"raw RNG primitive '{m.group(0)}' -- all randomness must "
                f"flow through {RNG_EXEMPT} (seeded Xoshiro256 streams) so "
                "runs stay deterministic"))


def check_memory_order(sf: SourceFile, findings: list) -> None:
    for idx, line in enumerate(sf.masked_lines):
        for m in MEMORY_ORDER.finditer(line):
            if "memory-order" in allow_rules_for_line(sf, idx, findings):
                continue
            findings.append(Finding(
                sf.path, idx + 1, "memory-order",
                f"non-seq_cst memory order '{m.group(0)}' -- the "
                "cross-thread protocol is seq_cst by policy"))


def check_raw_simd(sf: SourceFile, findings: list) -> None:
    for idx, line in enumerate(sf.masked_lines):
        for m in SIMD_TOKENS.finditer(line):
            if "raw-simd" in allow_rules_for_line(sf, idx, findings):
                continue
            findings.append(Finding(
                sf.path, idx + 1, "raw-simd",
                f"raw x86 intrinsic '{m.group(0)}' -- hand-vectorized "
                "kernels were measured no faster end to end and removed "
                "(DESIGN.md section 11); write portable C++"))


def check_registry_keys(files: list, findings: list) -> None:
    seen = {}
    for sf in files:
        for pat in REGISTRY_KEY_SITES:
            for idx, line in enumerate(sf.masked_lines):
                # Keys live in string literals, which masking blanks; match
                # against the original line but only where the masked line
                # has the surrounding syntax.
                for m in pat.finditer(sf.lines[idx]):
                    if not pat.search(sf.masked_lines[idx]):
                        continue  # whole site is inside a comment
                    key = m.group(1)
                    if "registry-key" in allow_rules_for_line(
                            sf, idx, findings):
                        continue
                    if not REGISTRY_KEY_SHAPE.match(key):
                        findings.append(Finding(
                            sf.path, idx + 1, "registry-key",
                            f"registry key '{key}' must match "
                            "[a-z_:']+ (lowercase machine name, not a "
                            "display string)"))
                    prior = seen.get(key)
                    if prior is not None:
                        findings.append(Finding(
                            sf.path, idx + 1, "registry-key",
                            f"duplicate registry key '{key}' (first "
                            f"registered at {prior})"))
                    else:
                        seen[key] = (f"{sf.rel}:{idx + 1}")


def check_hot_alloc(files: list, findings: list) -> None:
    index = {}
    all_defs = []
    for sf in files:
        for fd in find_function_defs(sf):
            index.setdefault(fd.name, []).append(fd)
            all_defs.append(fd)

    # Transitive closure from LBB_HOT roots over the definition index.
    # Unresolved names (std::, other layers, problem types) are opaque.
    work = [fd for fd in all_defs if fd.hot]
    closure, seen = [], set()
    while work:
        fd = work.pop()
        key = (fd.sf.path, fd.body_start)
        if key in seen:
            continue
        seen.add(key)
        closure.append(fd)
        for name in callees(fd.body_masked()):
            for callee in index.get(name, ()):
                work.append(callee)

    for fd in closure:
        base_line = fd.sf.masked.count("\n", 0, fd.body_start)
        body_lines = fd.body_masked().split("\n")
        aliases = {m.group(1) for m in WS_ALIAS.finditer(fd.body_masked())}

        def flag(rel_idx: int, what: str) -> None:
            idx = base_line + rel_idx
            if "hot-alloc" in allow_rules_for_line(fd.sf, idx, findings):
                return
            findings.append(Finding(
                fd.sf.path, idx + 1, "hot-alloc",
                f"{what} reachable from LBB_HOT '{fd.name}' -- hot-path "
                "storage must come from the TrialWorkspace (receiver "
                "rooted at 'ws.') or carry 'lbb-lint: allow(hot-alloc): "
                "<reason>'"))

        for rel_idx, line in enumerate(body_lines):
            if ALLOC_NEW.search(line):
                flag(rel_idx, "operator new")
            for m in ALLOC_FN.finditer(line):
                flag(rel_idx, f"allocation call '{m.group(m.lastindex)}'")
            for m in ALLOC_MEMBER.finditer(line):
                recv, method = m.group(1), m.group(2)
                root = re.split(r"\.|->", recv)[0]
                if root == "ws" or root in aliases:
                    continue  # workspace-recycled storage
                flag(rel_idx, f"container growth '{recv}.{method}(...)'")


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def find_repo_root(start: str) -> str:
    d = os.path.abspath(start)
    while True:
        if all(os.path.exists(os.path.join(d, m)) for m in REPO_MARKERS):
            return d
        parent = os.path.dirname(d)
        if parent == d:
            return os.path.abspath(start)
        d = parent


def collect_sources(root: str) -> list:
    out = []
    src = os.path.join(root, "src")
    for dirpath, _dirnames, filenames in os.walk(src):
        for fn in sorted(filenames):
            if fn.endswith(CPP_EXTENSIONS):
                out.append(os.path.join(dirpath, fn))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="lbb project lint (determinism / alloc / memory-order "
                    "/ registry contracts)")
    ap.add_argument("paths", nargs="*",
                    help="files to lint (default: all of src/)")
    ap.add_argument("--root", default=None,
                    help="repo root (default: discovered from this script)")
    ap.add_argument("--engine", choices=("auto", "regex", "clang"),
                    default="auto",
                    help="comment/string masking backend (default: auto)")
    ap.add_argument("--list-hot", action="store_true",
                    help="print the LBB_HOT closure and exit")
    args = ap.parse_args(argv)

    root = os.path.abspath(args.root) if args.root else find_repo_root(
        os.path.dirname(os.path.abspath(__file__)))

    engine = args.engine
    if engine in ("auto", "clang"):
        try:
            import clang.cindex  # noqa: F401
            engine = "clang"
        except ImportError:
            if engine == "clang":
                print("lbb-lint: --engine clang requested but python "
                      "libclang bindings are not importable", file=sys.stderr)
                return 77
            engine = "regex"

    explicit = bool(args.paths)
    paths = [os.path.abspath(p) for p in args.paths] or collect_sources(root)
    missing = [p for p in paths if not os.path.isfile(p)]
    if missing:
        for p in missing:
            print(f"lbb-lint: no such file: {p}", file=sys.stderr)
        return 2

    files = [load_file(p, root, engine) for p in paths]

    findings: list = []
    if args.list_hot:
        index_files = files
        for sf in index_files:
            for fd in find_function_defs(sf):
                if fd.hot:
                    print(f"{sf.rel}:{fd.start_line()}: LBB_HOT {fd.name}")
        return 0

    for sf in files:
        check_raw_rng(sf, findings)
        check_memory_order(sf, findings)
        check_raw_simd(sf, findings)
    # Registry keys: uniqueness is global, so the rule runs over the whole
    # scan set; on a default (repo) scan only registration sites match.
    check_registry_keys(files, findings)
    # Hot-alloc closure: on a repo scan the index covers src/core (all
    # LBB_HOT roots live there and short method names like push/pop would
    # otherwise collide with other layers' containers); explicit paths are
    # indexed as given so fixtures are self-contained.
    if explicit:
        check_hot_alloc(files, findings)
    else:
        core = [sf for sf in files if sf.rel.startswith("src/core/")]
        check_hot_alloc(core, findings)

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for f in findings:
        print(f.render(root))
    if findings:
        print(f"lbb-lint: {len(findings)} finding(s) "
              f"[engine={engine}]", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    try:
        import signal
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    except (ImportError, AttributeError, ValueError):
        pass  # non-POSIX host; harmless
    sys.exit(main())
