#!/usr/bin/env python3
"""tcq_lint: project-specific invariant lint for the TCQ codebase.

The estimator's statistical guarantees (unbiasedness, the adaptive cost
model's overspend-risk bound, bit-identical parallel reduction) rest on
low-level source invariants that generic tools cannot see. This pass
enforces them statically:

  unseeded-rng       All randomness flows through tcq::Rng (src/util/random.*).
                     std::mt19937 / std::random_device / rand() / srand()
                     anywhere else silently breaks seed-reproducibility of
                     every experiment.
  wall-clock         Time is budgeted, not observed: only src/timectrl/ and
                     the simulation clock may talk to a clock at all, and
                     nothing outside src/timectrl/ may read *wall-clock*
                     (non-monotonic) time. std::chrono::system_clock,
                     time(), gettimeofday(), clock() elsewhere make the
                     hard-deadline accounting unfalsifiable.
  stdout-in-lib      Library code under src/ must not write to stdout
                     (std::cout, printf, puts). Reporting belongs to
                     examples/, bench/, and callers; stray prints corrupt
                     the JSON emitted by the bench harness.
  nodiscard-status   Every function declared in a src/ header that returns
                     tcq::Status or tcq::Result<T> must carry
                     [[nodiscard]]. The library has no exceptions; a
                     dropped Status is a swallowed error.
  thread-outside-parallel
                     std::thread / std::jthread / std::async / .detach()
                     outside src/parallel/. All concurrency goes through
                     ThreadPool so the fixed-order reduction contract (and
                     the TSan story) covers it. Reading thread *identity*
                     (std::thread::id, std::this_thread) is fine — it does
                     not create concurrency.
  cache-key-canonical
                     Direct CacheKey construction in library code outside
                     src/cache/. Warm-start cache keys must come from
                     CanonicalSignature(expr) so semantically equal
                     queries (commutted intersections, reordered project
                     columns) share pool/prior entries; a hand-built key
                     silently splits the cache.
  trace-format-outside-obs
                     Trace-output formatting (ExportChromeJson,
                     AppendTraceEventJson, a "traceEvents" literal) in
                     library code outside src/obs/. The Chrome trace_event
                     schema lives in exactly one place so the golden-schema
                     test covers every byte any query can emit; other
                     layers record through the Tracer API and export via
                     Tracer::ExportToFile.
  status-discarded-in-storage
                     A storage I/O call (SaveRelation, LoadCatalog,
                     EncodePage, ...) used as a bare statement — or behind
                     a (void) cast — inside src/storage/. Every entry
                     point there returns Status/Result precisely because
                     disk corruption (checksum mismatch -> DataLoss) and
                     injected faults surface through those values; a
                     dropped return turns a detectable corrupt page into
                     silent wrong data. Wrap in TCQ_RETURN_NOT_OK /
                     TCQ_ASSIGN_OR_RETURN or branch on .ok().
  unannotated-guarded-field
                     A class under src/ (src/util/ excepted — the wrapper
                     types live there) that declares a tcq::Mutex /
                     tcq::SharedMutex field but puts TCQ_GUARDED_BY on
                     nothing, or that declares a raw std::mutex /
                     std::shared_mutex field at all. GCC has no
                     -Wthread-safety; this rule is what keeps capability
                     annotation coverage from regressing when the tree is
                     developed without clang.
  ledger-category-charged
                     A CostLedger Charge()/ChargeN() call site under src/
                     (src/sim/ excepted — the ledger's own internals)
                     whose category argument is not a declared
                     CostCategory::k... enumerator from the single
                     registry enum in src/sim/ledger.h. Cost accounting
                     (and simulated time itself) partitions by category;
                     a charge routed through an unvetted expression is
                     unauditable.
  metric-name-registry
                     A string literal passed to Metrics::counter() /
                     gauge() / histogram() that does not appear in
                     src/obs/metric_names.h. The registry is what
                     dashboards are built against; an unregistered name
                     drifts silently. Dynamically composed names (a
                     non-literal first argument) are exempt.
  stale-allow        A `// tcq-lint: allow(rule)` suppression that
                     suppresses nothing — the finding it silenced is gone,
                     or the rule name does not exist. Stale allows
                     accumulate silently and hide future regressions on
                     the same line. Not itself suppressible.

The engine tokenizes each file once (comments and string literals are
tracked across lines, unlike a per-line regex pass) and builds per-root
cross-file state first — the CostCategory enumerators from
src/sim/ledger.h and the metric-name registry from
src/obs/metric_names.h — before any call-site rule runs.

Usage:
  tools/tcq_lint.py [--root DIR] [--list-rules] [--report-json PATH]
                    [PATHS...]

With no PATHS, scans src/ bench/ examples/ tests/ under --root (default:
repository root, i.e. the parent of this script's directory).

Suppressions (use sparingly, justify in a comment):
  // tcq-lint: allow(rule-name)         -- suppress on this line
  // tcq-lint: disable-file(rule-name)  -- suppress in the whole file

Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field

CXX_EXTENSIONS = (".cc", ".cpp", ".cxx", ".h", ".hpp")
DEFAULT_SCAN_DIRS = ("src", "bench", "examples", "tests")

LEDGER_REGISTRY_HEADER = "src/sim/ledger.h"
METRIC_REGISTRY_HEADER = "src/obs/metric_names.h"

ALLOW_RE = re.compile(r"//\s*tcq-lint:\s*allow\(([\w-]+(?:\s*,\s*[\w-]+)*)\)")
DISABLE_FILE_RE = re.compile(
    r"//\s*tcq-lint:\s*disable-file\(([\w-]+(?:\s*,\s*[\w-]+)*)\)")


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# ---------------------------------------------------------------------------
# Tokenizer. One pass over the file text producing
#   lines       raw source lines,
#   code_lines  lines with comments and string/char literals blanked
#               (layout preserved, so column-sensitive regexes still work),
#   tokens      a flat (line, kind, text) stream, kind in
#               {"id", "num", "str", "punct"}; "str" tokens carry the
#               literal's inner text.
# Unlike the old per-line stripper this tracks /* */ comments and string
# literals across line boundaries, so a rule can never fire on prose.
# ---------------------------------------------------------------------------

@dataclass
class Token:
    line: int
    kind: str
    text: str


_MULTI_PUNCT = ("::", "->", "++", "--", "<<=", ">>=", "<<", ">>", "<=", ">=",
                "==", "!=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
                "&&", "||")


def tokenize(text: str) -> tuple[list[str], list[str], list[Token]]:
    lines = text.splitlines()
    n_lines = len(lines)
    code_rows = [list(l) for l in lines]
    tokens: list[Token] = []

    def blank(row: int, col: int) -> None:
        if row < n_lines and col < len(code_rows[row]):
            code_rows[row][col] = " "

    row, col = 0, 0

    def cur() -> str:
        return lines[row][col] if row < n_lines and col < len(lines[row]) \
            else ""

    def peek(k: int = 1) -> str:
        if row >= n_lines:
            return ""
        line = lines[row]
        return line[col + k] if col + k < len(line) else ""

    def advance() -> None:
        nonlocal row, col
        col += 1
        while row < n_lines and col >= len(lines[row]):
            row += 1
            col = 0

    while row < n_lines:
        c = cur()
        if c == "":
            advance()
            continue
        if c == "/" and peek() == "/":  # line comment
            line = lines[row]
            for k in range(col, len(line)):
                blank(row, k)
            row += 1
            col = 0
            continue
        if c == "/" and peek() == "*":  # block comment, possibly multi-line
            blank(row, col)
            advance()
            blank(row, col)
            advance()
            while row < n_lines and not (cur() == "*" and peek() == "/"):
                blank(row, col)
                advance()
            if row < n_lines:
                blank(row, col)
                advance()
                blank(row, col)
                advance()
            continue
        if c == '"' or c == "'":
            # String/char literal (handles escapes; raw strings R"(...)"
            # via the delimiter form). The whole literal is blanked from
            # code_lines; its inner text becomes one "str" token.
            quote = c
            start_line = row + 1
            is_raw = (quote == '"' and col > 0 and lines[row][col - 1] == "R"
                      and (col < 2 or not (lines[row][col - 2].isalnum()
                                           or lines[row][col - 2] == "_")))
            blank(row, col)
            advance()
            content: list[str] = []
            if is_raw:
                delim = []
                while row < n_lines and cur() not in ("(", ""):
                    delim.append(cur())
                    blank(row, col)
                    advance()
                blank(row, col)
                advance()  # consume '('
                closer = ")" + "".join(delim) + '"'
                window = ""
                while row < n_lines:
                    window = (window + cur())[-len(closer):]
                    blank(row, col)
                    ch = cur()
                    advance()
                    if window == closer:
                        content = content[:-(len(closer) - 1)] or []
                        break
                    content.append(ch)
            else:
                while row < n_lines and cur() != quote:
                    if cur() == "\\":
                        content.append(cur())
                        blank(row, col)
                        advance()
                    if cur() == "":
                        break
                    content.append(cur())
                    blank(row, col)
                    advance()
                if row < n_lines:
                    blank(row, col)
                    advance()  # closing quote
            if quote == '"':
                tokens.append(Token(start_line, "str", "".join(content)))
            continue
        if c.isalpha() or c == "_":
            start_line = row + 1
            ident = []
            while cur() and (cur().isalnum() or cur() == "_"):
                ident.append(cur())
                advance()
            tokens.append(Token(start_line, "id", "".join(ident)))
            continue
        if c.isdigit():
            start_line = row + 1
            num = []
            while cur() and (cur().isalnum() or cur() in "._'"):
                # Digit separators and suffixes lumped together; rules
                # never inspect numeric internals.
                if cur() == "'" and not peek().isdigit():
                    break
                num.append(cur())
                advance()
            tokens.append(Token(start_line, "num", "".join(num)))
            continue
        if c.isspace():
            advance()
            continue
        matched = None
        for p in _MULTI_PUNCT:
            if c == p[0]:
                rest = all(peek(k) == p[k] for k in range(1, len(p)))
                if rest:
                    matched = p
                    break
        start_line = row + 1
        if matched:
            for _ in matched:
                advance()
            tokens.append(Token(start_line, "punct", matched))
        else:
            advance()
            tokens.append(Token(start_line, "punct", c))

    code_lines = ["".join(r) for r in code_rows]
    return lines, code_lines, tokens


def _norm(path: str) -> str:
    return path.replace(os.sep, "/")


# ---------------------------------------------------------------------------
# Cross-file state, built once per root and shared by every lint_file call
# against that root: the declared CostCategory enumerators and the metric
# name registry. Token streams are cached so linting a registry header
# itself does not re-tokenize it.
# ---------------------------------------------------------------------------

@dataclass
class LintContext:
    root: str
    ledger_categories: set[str] = field(default_factory=set)
    has_ledger_registry: bool = False
    metric_names: set[str] = field(default_factory=set)
    has_metric_registry: bool = False


_CONTEXTS: dict[str, LintContext] = {}


def _read(root: str, relpath: str) -> str | None:
    try:
        with open(os.path.join(root, relpath), encoding="utf-8",
                  errors="replace") as f:
            return f.read()
    except OSError:
        return None


def _parse_ledger_categories(tokens: list[Token]) -> set[str]:
    """Enumerators of `enum class CostCategory { ... }`, sentinel
    excluded."""
    cats: set[str] = set()
    for i, t in enumerate(tokens):
        if t.kind != "id" or t.text != "CostCategory":
            continue
        if not (i >= 2 and tokens[i - 1].text == "class"
                and tokens[i - 2].text == "enum"):
            continue
        j = i + 1
        while j < len(tokens) and tokens[j].text != "{":
            j += 1
        depth = 0
        for k in range(j, len(tokens)):
            tk = tokens[k]
            if tk.text == "{":
                depth += 1
            elif tk.text == "}":
                depth -= 1
                if depth == 0:
                    break
            elif (tk.kind == "id" and depth == 1
                  and tk.text.startswith("k")
                  and tokens[k - 1].text in ("{", ",")):
                cats.add(tk.text)
        break
    cats.discard("kNumCategories")
    return cats


def context_for_root(root: str) -> LintContext:
    root = os.path.abspath(root)
    ctx = _CONTEXTS.get(root)
    if ctx is not None:
        return ctx
    ctx = LintContext(root=root)
    text = _read(root, LEDGER_REGISTRY_HEADER)
    if text is not None:
        ctx.has_ledger_registry = True
        ctx.ledger_categories = _parse_ledger_categories(tokenize(text)[2])
    text = _read(root, METRIC_REGISTRY_HEADER)
    if text is not None:
        ctx.has_metric_registry = True
        ctx.metric_names = {t.text for t in tokenize(text)[2]
                            if t.kind == "str"}
    _CONTEXTS[root] = ctx
    return ctx


# ---------------------------------------------------------------------------
# Line-scoped rules (ported from the regex engine; they consume the
# tokenizer's blanked code_lines). Each takes (relpath, lines, code_lines)
# and yields (line_no, message).
# ---------------------------------------------------------------------------

RNG_TOKENS = re.compile(
    r"std::mt19937|std::minstd_rand|std::default_random_engine"
    r"|std::random_device|\bsrand\s*\(|(?<![\w:.>])rand\s*\(")


def rule_unseeded_rng(relpath, lines, code_lines):
    if _norm(relpath).startswith("src/util/random"):
        return
    for no, code in enumerate(code_lines, 1):
        m = RNG_TOKENS.search(code)
        if m:
            yield no, (f"'{m.group(0).strip()}' — all randomness must flow "
                       "through tcq::Rng (src/util/random.h) so runs are "
                       "reproducible from a single seed")


WALL_CLOCK_TOKENS = re.compile(
    r"std::chrono::system_clock|\bgettimeofday\s*\(|\blocaltime\s*\("
    r"|\bgmtime\s*\(|(?<![\w:.>])time\s*\(|(?<![\w:.>])clock\s*\(")


def rule_wall_clock(relpath, lines, code_lines):
    p = _norm(relpath)
    if not p.startswith("src/") or p.startswith("src/timectrl/"):
        return
    for no, code in enumerate(code_lines, 1):
        m = WALL_CLOCK_TOKENS.search(code)
        if m:
            yield no, (f"'{m.group(0).strip()}' — wall-clock reads outside "
                       "src/timectrl/ break the hard-deadline accounting; "
                       "use the ledger/VirtualClock or a monotonic clock "
                       "owned by timectrl")


STDOUT_TOKENS = re.compile(
    r"std::cout|(?<![\w:])\bprintf\s*\(|(?<![\w:])\bputs\s*\("
    r"|\bfprintf\s*\(\s*stdout")


def rule_stdout_in_lib(relpath, lines, code_lines):
    if not _norm(relpath).startswith("src/"):
        return
    for no, code in enumerate(code_lines, 1):
        m = STDOUT_TOKENS.search(code)
        if m:
            yield no, (f"'{m.group(0).strip()}' — library code must not "
                       "write to stdout; return strings/Status and let "
                       "examples/bench do the printing")


# std::thread::id is an identity read, not thread creation, and is the
# sanctioned way for per-thread data structures (e.g. the tracer's
# lock-free buffers) to key on the current thread.
THREAD_TOKENS = re.compile(
    r"std::thread\b(?!::id)|std::jthread\b|std::async\b|\.detach\s*\(")


def rule_thread_outside_parallel(relpath, lines, code_lines):
    p = _norm(relpath)
    if p.startswith("src/parallel/"):
        return
    for no, code in enumerate(code_lines, 1):
        m = THREAD_TOKENS.search(code)
        if m:
            yield no, (f"'{m.group(0).strip()}' — raw threads outside "
                       "src/parallel/ escape the ThreadPool's fixed-order "
                       "reduction and shutdown contracts; use "
                       "tcq::ThreadPool / RunTasks")


# Constructor-style uses only: `CacheKey(...)` / `CacheKey{...}`.
# Declarations that merely hold a returned key (`CacheKey k = ...;`) and
# the factory's own signature (`CacheKey CanonicalSignature(...)`) have an
# identifier between the type name and the parenthesis and do not match.
CACHE_KEY_TOKENS = re.compile(r"\bCacheKey\s*[({]")


def rule_cache_key_canonical(relpath, lines, code_lines):
    p = _norm(relpath)
    if not p.startswith("src/") or p.startswith("src/cache/"):
        return
    for no, code in enumerate(code_lines, 1):
        m = CACHE_KEY_TOKENS.search(code)
        if m:
            yield no, (f"'{m.group(0).strip()}' — warm-start cache keys are "
                       "built only by CanonicalSignature(expr) in "
                       "src/cache/signature.*; a hand-constructed key skips "
                       "canonicalization and splits the cache for "
                       "semantically equal queries")


TRACE_FORMAT_TOKENS = re.compile(
    r"\bExportChromeJson\b|\bAppendTraceEventJson\b")
# The schema key appears inside a string literal, which code_lines blanks
# out, so the raw line is checked. The leading (possibly escaped) quote
# keeps prose mentions of traceEvents from firing.
TRACE_FORMAT_LITERAL = re.compile(r'\\?"traceEvents')


def rule_trace_format_outside_obs(relpath, lines, code_lines):
    p = _norm(relpath)
    if not p.startswith("src/") or p.startswith("src/obs/"):
        return
    for no, (line, code) in enumerate(zip(lines, code_lines), 1):
        m = TRACE_FORMAT_TOKENS.search(code) or TRACE_FORMAT_LITERAL.search(
            line)
        if m:
            yield no, (f"'{m.group(0)}' — trace JSON is formatted only in "
                       "src/obs/ so the golden-schema test covers every "
                       "byte a query can emit; record through the Tracer "
                       "API and export with Tracer::ExportToFile")


# A declaration line returning Status or Result<...>. Anchored at the start
# of the declaration so fields (`Status parse_status_;`) and callable-type
# aliases (`std::function<Result<double>(double)>`) do not match.
NODISCARD_DECL_RE = re.compile(
    r"^\s*(?:(?:static|virtual|friend|inline|constexpr|explicit)\s+)*"
    r"(Status|Result<[^;={}]*>)\s+([A-Za-z_]\w*)\s*\(")


def rule_nodiscard_status(relpath, lines, code_lines):
    p = _norm(relpath)
    if not p.startswith("src/") or not p.endswith((".h", ".hpp")):
        return
    for no, code in enumerate(code_lines, 1):
        m = NODISCARD_DECL_RE.match(code)
        if not m:
            continue
        # Headers in this codebase only contain declarations at class /
        # namespace scope. Accept annotation on the same line or the
        # immediately preceding non-blank line.
        head = code[:m.start(1)]
        if "[[nodiscard]]" in head:
            continue
        prev = ""
        for back in range(no - 2, max(-1, no - 4), -1):
            stripped = lines[back].strip() if back >= 0 else ""
            if stripped:
                prev = stripped
                break
        if "[[nodiscard]]" in prev:
            continue
        yield no, (f"'{m.group(2)}' returns {m.group(1).split('<')[0]} but is "
                   "not [[nodiscard]]; a dropped Status is a swallowed error "
                   "in an exception-free library")


# The Status/Result-returning storage entry points (page_codec.h,
# relation.h). All carry [[nodiscard]], but a `(void)` cast compiles
# cleanly and a missed wrapper macro is easy to write; with per-page
# checksums these returns are the *only* channel a corrupt/injected-fault
# page reports through, so discarding one in storage code converts a
# detectable DataLoss into silent wrong data.
STORAGE_STATUS_CALLS = (
    "SaveRelation", "SaveCatalog", "LoadRelation", "LoadCatalog",
    "EncodeTuple", "DecodeTuple", "EncodePage", "DecodePage",
    "ReadBlock", "Append", "Register", "ValidateTuple",
)
# A call that *starts* a statement: optional `(void)` cast, optional
# receiver (`rel.` / `catalog->` / `tcq::`), then the name and its
# opening parenthesis. Uses as a subexpression (`return Save...`,
# `Status s = Save...`, `if (!Save...`) have other tokens before the
# name and never match.
STORAGE_CALL_RE = re.compile(
    r"^\s*(?:\(\s*void\s*\)\s*)?(?:[A-Za-z_]\w*\s*(?:\.|->)\s*|tcq::)?"
    r"(" + "|".join(STORAGE_STATUS_CALLS) + r")\s*\(")


def rule_status_discarded_in_storage(relpath, lines, code_lines):
    if not _norm(relpath).startswith("src/storage/"):
        return
    for no, code in enumerate(code_lines, 1):
        m = STORAGE_CALL_RE.match(code)
        if not m:
            continue
        # Walk the call's parentheses (the statement may span lines). The
        # first non-space character after the matching close decides:
        # `;` means the return value was discarded; an extra `)` (depth
        # going negative) means this line only continues a wrapper such
        # as TCQ_RETURN_NOT_OK( opened on a previous line; anything else
        # (`.ok()`, `,`) is a real use.
        depth = 0
        tail = code[m.end() - 1:]  # from the call's opening paren
        verdict = None
        row = no - 1
        while verdict is None and row < len(code_lines) and row < no + 9:
            for ch in tail:
                if ch == "(":
                    depth += 1
                elif ch == ")":
                    depth -= 1
                    if depth < 0:
                        verdict = "wrapped"
                        break
                elif depth == 0 and not ch.isspace():
                    verdict = "discarded" if ch == ";" else "used"
                    break
            row += 1
            tail = code_lines[row] if row < len(code_lines) else ""
        if verdict == "discarded":
            yield no, (f"'{m.group(1)}' returns Status/Result but the call "
                       "is a bare statement; in src/storage/ that return "
                       "is the only channel a corrupt page (checksum "
                       "DataLoss) or injected fault reports through — wrap "
                       "in TCQ_RETURN_NOT_OK / TCQ_ASSIGN_OR_RETURN or "
                       "branch on .ok()")


# ---------------------------------------------------------------------------
# Token-stream rules. Each takes (ctx, relpath, tokens) and yields
# (line_no, message).
# ---------------------------------------------------------------------------

_MUTEX_WRAPPERS = ("Mutex", "SharedMutex")
_RAW_MUTEXES = ("mutex", "shared_mutex")
_GUARD_ANNOTATIONS = ("TCQ_GUARDED_BY", "TCQ_PT_GUARDED_BY")


def _class_spans(tokens: list[Token]):
    """Yields (name, body_start, body_end) token-index spans of every
    class/struct body, innermost classes included (each nested body is
    yielded separately; a field match is attributed to the innermost
    enclosing span by taking the tightest span later)."""
    i = 0
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if t.kind == "id" and t.text in ("class", "struct") \
                and not (i > 0 and tokens[i - 1].text == "enum"):
            # Skip over the name (possibly qualified: Server::Impl)
            # and any base-class list up to the opening brace; bail on a
            # forward declaration or a template parameter use. The name
            # scan stops at the base-class colon.
            j = i + 1
            name = None
            naming = True
            while j < n and tokens[j].text not in ("{", ";", "(", ")"):
                if tokens[j].text == ":":
                    naming = False
                elif naming and tokens[j].kind == "id" \
                        and tokens[j].text != "final":
                    name = tokens[j].text
                j += 1
            if j < n and tokens[j].text == "{":
                depth = 0
                k = j
                while k < n:
                    if tokens[k].text == "{":
                        depth += 1
                    elif tokens[k].text == "}":
                        depth -= 1
                        if depth == 0:
                            break
                    k += 1
                yield (name or "<anonymous>", j, k)
        i += 1


def _innermost_span(spans, idx):
    best = None
    for name, s, e in spans:
        if s < idx < e and (best is None or s > best[1]):
            best = (name, s, e)
    return best


def rule_unannotated_guarded_field(ctx, relpath, tokens):
    p = _norm(relpath)
    if not p.startswith("src/") or p.startswith("src/util/"):
        return
    spans = list(_class_spans(tokens))
    if not spans:
        return
    # Per innermost class: the wrapper-mutex fields and whether any
    # TCQ_GUARDED_BY appears.
    mutex_fields: dict[tuple, list] = {}
    annotated: set[tuple] = set()
    n = len(tokens)
    for i, t in enumerate(tokens):
        if t.kind != "id":
            continue
        span = _innermost_span(spans, i)
        if span is None:
            continue
        if t.text in _GUARD_ANNOTATIONS:
            annotated.add(span)
            continue
        if t.text in _MUTEX_WRAPPERS:
            # Field shape: [mutable] [tcq ::] Mutex name ; — a reference
            # or pointer declarator, or a following '(', is a parameter
            # or local construction, not a field.
            if i + 2 < n and tokens[i + 1].kind == "id" \
                    and tokens[i + 2].text == ";":
                mutex_fields.setdefault(span, []).append(
                    (t.line, t.text, tokens[i + 1].text))
        elif t.text in _RAW_MUTEXES and i >= 2 \
                and tokens[i - 1].text == "::" \
                and tokens[i - 2].text == "std":
            if i + 2 < n and tokens[i + 1].kind == "id" \
                    and tokens[i + 2].text == ";":
                yield t.line, (
                    f"raw std::{t.text} field '{tokens[i + 1].text}' in "
                    f"class '{span[0]}' — use tcq::Mutex/tcq::SharedMutex "
                    "(util/mutex.h) so clang -Wthread-safety can see the "
                    "acquire/release and TCQ_GUARDED_BY can name it")
    for span, fields in mutex_fields.items():
        if span in annotated:
            continue
        line, mtype, fname = fields[0]
        yield line, (
            f"class '{span[0]}' declares {mtype} '{fname}' but no field "
            "is TCQ_GUARDED_BY it; under GCC the capability annotations "
            "are the only record of the lock discipline — annotate the "
            "guarded fields (util/thread_annotations.h)")


def rule_ledger_category_charged(ctx, relpath, tokens):
    p = _norm(relpath)
    if not p.startswith("src/") or p.startswith("src/sim/"):
        return
    if not ctx.has_ledger_registry:
        return
    n = len(tokens)
    for i, t in enumerate(tokens):
        if t.kind != "id" or t.text not in ("Charge", "ChargeN"):
            continue
        if i == 0 or tokens[i - 1].text not in (".", "->"):
            continue  # declarations / free functions, not ledger calls
        if i + 1 >= n or tokens[i + 1].text != "(":
            continue
        # First argument must be the qualified enumerator
        # CostCategory::kSomething declared in src/sim/ledger.h.
        if i + 4 < n and tokens[i + 2].text == "CostCategory" \
                and tokens[i + 3].text == "::" \
                and tokens[i + 4].kind == "id":
            cat = tokens[i + 4].text
            if cat in ctx.ledger_categories:
                continue
            yield t.line, (
                f"'{t.text}(CostCategory::{cat}, ...)' charges an "
                "undeclared category; declared categories live in the "
                f"single registry enum in {LEDGER_REGISTRY_HEADER}")
        else:
            first = tokens[i + 2].text if i + 2 < n else "?"
            yield t.line, (
                f"'{t.text}({first}...)' does not name its CostCategory "
                "at the call site; every ledger charge must spell "
                "CostCategory::k... (registry: "
                f"{LEDGER_REGISTRY_HEADER}) so cost accounting stays "
                "auditable")


_METRIC_LOOKUPS = ("counter", "gauge", "histogram")


def rule_metric_name_registry(ctx, relpath, tokens):
    if not ctx.has_metric_registry:
        return
    if _norm(relpath) == METRIC_REGISTRY_HEADER:
        return
    n = len(tokens)
    for i, t in enumerate(tokens):
        if t.kind != "id" or t.text not in _METRIC_LOOKUPS:
            continue
        if i == 0 or tokens[i - 1].text not in (".", "->"):
            continue
        if i + 2 >= n or tokens[i + 1].text != "(":
            continue
        arg = tokens[i + 2]
        if arg.kind != "str":
            continue  # dynamically composed name — exempt
        if arg.text in ctx.metric_names:
            continue
        yield arg.line, (
            f'metric name "{arg.text}" is not declared in '
            f"{METRIC_REGISTRY_HEADER}; dashboards are built against the "
            "registry, so an unregistered instrument name drifts "
            "silently — add the constant there (or use it)")


TOKEN_RULES = {
    "unannotated-guarded-field": rule_unannotated_guarded_field,
    "ledger-category-charged": rule_ledger_category_charged,
    "metric-name-registry": rule_metric_name_registry,
}

LINE_RULES = {
    "unseeded-rng": rule_unseeded_rng,
    "wall-clock": rule_wall_clock,
    "stdout-in-lib": rule_stdout_in_lib,
    "nodiscard-status": rule_nodiscard_status,
    "thread-outside-parallel": rule_thread_outside_parallel,
    "cache-key-canonical": rule_cache_key_canonical,
    "trace-format-outside-obs": rule_trace_format_outside_obs,
    "status-discarded-in-storage": rule_status_discarded_in_storage,
}

# stale-allow is synthesized from the suppression pass itself (see
# lint_file); it has no standalone rule function and is not suppressible.
RULES = {**LINE_RULES, **TOKEN_RULES, "stale-allow": None}


def lint_file(root: str, relpath: str) -> list[Finding]:
    text = _read(root, relpath)
    if text is None:
        return [Finding(relpath, 0, "io-error",
                        f"cannot read {os.path.join(root, relpath)}")]
    ctx = context_for_root(root)

    lines, code_lines, tokens = tokenize(text)

    disabled = set()
    for line in lines[:20]:
        m = DISABLE_FILE_RE.search(line)
        if m:
            disabled.update(r.strip() for r in m.group(1).split(","))

    line_allows: dict[int, set] = {}
    for no, line in enumerate(lines, 1):
        m = ALLOW_RE.search(line)
        if m:
            line_allows[no] = {r.strip() for r in m.group(1).split(",")}

    raw: list[Finding] = []
    for name, rule in LINE_RULES.items():
        if name in disabled:
            continue
        for no, message in rule(relpath, lines, code_lines):
            raw.append(Finding(relpath, no, name, message))
    for name, rule in TOKEN_RULES.items():
        if name in disabled:
            continue
        for no, message in rule(ctx, relpath, tokens):
            raw.append(Finding(relpath, no, name, message))

    findings = []
    consumed: dict[int, set] = {}
    for f in raw:
        if f.rule in line_allows.get(f.line, ()):
            consumed.setdefault(f.line, set()).add(f.rule)
            continue
        findings.append(f)

    # Suppression hygiene: every allow() entry must have silenced a
    # finding on its own line, and must name a real rule. (disable-file
    # is whole-file policy and is not checked for staleness.)
    if "stale-allow" not in disabled:
        for no, allowed in sorted(line_allows.items()):
            for rule_name in sorted(allowed):
                if rule_name not in RULES:
                    findings.append(Finding(
                        relpath, no, "stale-allow",
                        f"allow({rule_name}) names an unknown rule; run "
                        "--list-rules for the valid names"))
                elif rule_name not in consumed.get(no, ()):
                    findings.append(Finding(
                        relpath, no, "stale-allow",
                        f"allow({rule_name}) suppresses nothing on this "
                        "line; the finding it silenced is gone — delete "
                        "the stale suppression"))
    findings.sort(key=lambda f: (f.line, f.rule))
    return findings


def collect_files(root: str, paths: list[str]) -> list[str]:
    rels = []
    if not paths:
        paths = [d for d in DEFAULT_SCAN_DIRS
                 if os.path.isdir(os.path.join(root, d))]
    for p in paths:
        full = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isfile(full):
            rels.append(os.path.relpath(full, root))
            continue
        for dirpath, dirnames, filenames in os.walk(full):
            dirnames[:] = sorted(d for d in dirnames
                                 if d not in ("build", ".git")
                                 and not d.startswith("build-"))
            for fn in sorted(filenames):
                if fn.endswith(CXX_EXTENSIONS):
                    rels.append(
                        os.path.relpath(os.path.join(dirpath, fn), root))
    return rels


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                 prog="tcq_lint.py")
    ap.add_argument("paths", nargs="*",
                    help="files or directories (default: src bench examples "
                         "tests under --root)")
    ap.add_argument("--root", default=None,
                    help="repository root (default: parent of tools/)")
    ap.add_argument("--list-rules", action="store_true",
                    help="print rule names and exit")
    ap.add_argument("--report-json", default=None, metavar="PATH",
                    help="write per-rule hit counts as JSON to PATH")
    args = ap.parse_args(argv)

    if args.list_rules:
        for name in RULES:
            print(name)
        return 0

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    files = collect_files(root, args.paths)
    if not files:
        print("tcq_lint: no input files", file=sys.stderr)
        return 2

    findings: list[Finding] = []
    for rel in files:
        findings.extend(lint_file(root, rel))

    by_rule = {name: 0 for name in RULES}
    for f in findings:
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1

    if args.report_json:
        report = {
            "files_scanned": len(files),
            "findings": len(findings),
            "rules": by_rule,
        }
        report_dir = os.path.dirname(args.report_json)
        if report_dir:
            os.makedirs(report_dir, exist_ok=True)
        with open(args.report_json, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")

    for f in findings:
        print(f)
    if findings:
        summary = ", ".join(f"{k}: {v}" for k, v in sorted(by_rule.items())
                            if v > 0)
        print(f"tcq_lint: {len(findings)} finding(s) in {len(files)} files "
              f"({summary})", file=sys.stderr)
        return 1
    print(f"tcq_lint: OK ({len(files)} files, {len(RULES)} rules)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
