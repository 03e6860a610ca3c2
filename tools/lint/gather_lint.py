#!/usr/bin/env python3
"""gather-lint: determinism & correctness lint for the gather tree.

The simulator's headline guarantee is bit-for-bit reproducibility: the same
sim_spec and seed must produce the same trajectory, the same event stream,
and the same CSV/JSONL bytes on every machine and at every --jobs level.
This pass rejects the source patterns that quietly break that contract.

Rules (diagnosed as path:line: Rn: message):

  R1  No wall-clock or nondeterministic entropy in the deterministic core
      (src/sim, src/runner, src/config): rand(), std::random_device,
      time(), std::chrono::system_clock.  All randomness must come from the
      seeded splitmix64 stream (src/sim/rng.h); timing for reports belongs
      in the obs layer.

  R2  No iteration over std::unordered_map / std::unordered_set inside a
      function that feeds an output path (writes to an event_sink, builds
      metrics JSON via to_json, or emits CSV/JSONL).  Hash-table iteration
      order is implementation-defined, so output paths must use sorted or
      ordered containers.

  R3  No bare ==/!= against floating-point literals outside src/geometry.
      Proximity and equality decisions must go through the tolerance
      helpers (geom::tol); src/geometry owns those helpers and is exempt.
      Deliberate exact-representation guards (division-by-zero checks on
      values that are exactly 0.0 by construction) carry an allow comment.

  R4  No std::cout / printf / puts in library code (src/** except
      src/obs): stdout belongs to the obs layer and the CLI tools, and a
      stray print interleaves with --trace-jsonl streams.  stderr
      diagnostics (fprintf(stderr, ...)) and snprintf formatting are fine.

  R5  No configuration-internals access outside src/config: the
      derived-geometry cache (configuration::derived(), the
      derived_geometry struct) is an implementation detail of the config
      layer.  Consumers go through the public wrappers (classify,
      weber_point, all_views, ...) and the invalidating mutation API; a
      deliberate exception carries an allow comment.  (The deprecated
      raw-point-access shim this rule used to flag was removed in PR 7;
      the fixture keeps the dead token as a negative case.)

  R9  No GTEST_SKIP under tests/: a skipped tier-1 test reports as a pass,
      so a data-dependent skip silently drops its check.  Tests assert
      their preconditions, or construct inputs that meet them.  R9 cannot
      be suppressed.

Suppression: append `// gather-lint: allow(Rn)` to the offending line, or
put it in a comment on the line directly above.  Multiple rules:
`allow(R2,R3)`.

Usage:
  gather_lint.py [--root DIR] [PATH...]   lint PATHs (default: src tools
                                          bench tests) relative to DIR
  gather_lint.py --self-test              run the fixture corpus under
                                          tools/lint/fixtures

Exit status: 0 clean, 1 diagnostics emitted, 2 usage error.

Known lexical limitations (by design — this is a grep-with-context pass,
not a compiler plugin): R2 tracks variables declared with a spelled-out
unordered_* type in the same file, not through type aliases; R3 only sees
comparisons with a literal operand.  clang-tidy covers the type-aware
remainder where available.
"""

import argparse
import bisect
import os
import re
import sys

CXX_EXTENSIONS = (".h", ".hpp", ".cpp", ".cc")
DEFAULT_PATHS = ["src", "tools", "bench", "tests"]

# ---------------------------------------------------------------------------
# Source preprocessing
# ---------------------------------------------------------------------------

_STRIP_RE = re.compile(
    r"""
      //[^\n]*                              # line comment
    | /\*.*?\*/                             # block comment
    | "(?:\\.|[^"\\\n])*"                   # string literal
    | '(?:\\.|[^'\\\n])*'                   # char literal
    """,
    re.VERBOSE | re.DOTALL,
)


def strip_comments_and_strings(text):
    """Blank out comments and literals, preserving offsets and newlines."""

    def blank(m):
        return re.sub(r"[^\n]", " ", m.group(0))

    return _STRIP_RE.sub(blank, text)


class source_file:
    def __init__(self, rel, text):
        self.rel = rel.replace(os.sep, "/")
        self.raw = text
        self.code = strip_comments_and_strings(text)
        self._newlines = [m.start() for m in re.finditer(r"\n", text)]
        self.allowed = self._parse_allowlist(text)

    def line_of(self, offset):
        return bisect.bisect_right(self._newlines, offset - 1) + 1

    @staticmethod
    def _parse_allowlist(text):
        allowed = {}
        pat = re.compile(r"gather-lint:\s*allow\(\s*([A-Za-z0-9_,\s]+?)\s*\)")
        for lineno, line in enumerate(text.splitlines(), start=1):
            m = pat.search(line)
            if m:
                rules = {r.strip() for r in m.group(1).split(",")}
                allowed.setdefault(lineno, set()).update(rules)
        return allowed

    def is_allowed(self, rule, lineno):
        return rule in self.allowed.get(lineno, ()) or rule in self.allowed.get(
            lineno - 1, ()
        )


# ---------------------------------------------------------------------------
# R1: wall clock / nondeterministic entropy in the deterministic core
# ---------------------------------------------------------------------------

R1_DIRS = ("src/sim/", "src/runner/", "src/config/")
R1_PATTERNS = [
    (re.compile(r"(?<!\w)rand\s*\("), "rand() — draw from the seeded splitmix64 stream"),
    (re.compile(r"\brandom_device\b"), "std::random_device is nondeterministic entropy"),
    (re.compile(r"(?<!\w)time\s*\("), "time() is wall clock; it breaks replay"),
    (re.compile(r"\bsystem_clock\b"), "std::chrono::system_clock is wall clock; it breaks replay"),
]


def check_r1(src, report):
    for pat, msg in R1_PATTERNS:
        for m in pat.finditer(src.code):
            report("R1", src.line_of(m.start()), msg)


# ---------------------------------------------------------------------------
# R2: unordered-container iteration on output paths
# ---------------------------------------------------------------------------

_UNORDERED_DECL = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\s*<")
_OUTPUT_MARKER = re.compile(r"\bevent_sink\b|\bon_event\s*\(|\bto_json\b|(?i:csv|jsonl)")
_BODY_KEYWORDS = {"if", "for", "while", "switch", "catch", "return", "do", "else"}


def _unordered_names(code):
    """Names of variables/parameters declared with a spelled-out unordered type."""
    names = set()
    for m in _UNORDERED_DECL.finditer(code):
        i, depth = m.end(), 1
        while i < len(code) and depth:
            if code[i] == "<":
                depth += 1
            elif code[i] == ">":
                depth -= 1
            i += 1
        dm = re.match(r"[\s&*]*([A-Za-z_]\w*)", code[i : i + 160])
        if dm and dm.group(1) not in ("const", "constexpr"):
            names.add(dm.group(1))
    return names


def _match_brace(code, open_idx):
    depth = 0
    for i in range(open_idx, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(code)


def _function_bodies(code):
    """Yield (start, end) offsets of top-level function-ish bodies.

    A body is a `{` preceded (modulo cv/noexcept/trailing-return clutter) by
    a `)` whose matching `(` does not follow a control-flow keyword.  Nested
    constructs inside a recognized body are covered by that body's span.
    """
    opener = re.compile(
        r"\)\s*(?:const\b\s*)?(?:noexcept\b\s*(?:\([^()]*\)\s*)?)?"
        r"(?:->\s*[\w:<>,\s&*]+?)?\{"
    )
    pos = 0
    while True:
        m = opener.search(code, pos)
        if not m:
            return
        # Walk back from the ')' to its matching '('.
        depth, i = 0, m.start()
        while i >= 0:
            if code[i] == ")":
                depth += 1
            elif code[i] == "(":
                depth -= 1
                if depth == 0:
                    break
            i -= 1
        ident = re.search(r"([A-Za-z_]\w*)\s*$|(\])\s*$", code[max(0, i - 160) : i])
        is_lambda = bool(ident and ident.group(2))
        name = ident.group(1) if ident and ident.group(1) else ""
        if not is_lambda and (not name or name in _BODY_KEYWORDS):
            pos = m.start() + 1
            continue
        brace = code.index("{", m.start())
        end = _match_brace(code, brace)
        yield brace, end
        pos = end


_RANGE_FOR = re.compile(r"\bfor\s*\(")
_BEGIN_CALL = re.compile(r"\b([A-Za-z_]\w*)\s*\.\s*c?begin\s*\(")


def _range_for_target(code, start):
    """For a range-for at `start`, return (offset, range-expr) or None."""
    i = code.index("(", start)
    depth, j = 0, i
    while j < len(code):
        if code[j] == "(":
            depth += 1
        elif code[j] == ")":
            depth -= 1
            if depth == 0:
                break
        j += 1
    header = code[i + 1 : j]
    if ";" in header:
        return None  # classic for
    # The range-for ':' is a single colon (not '::').
    k = 0
    while k < len(header):
        if header[k] == ":" and header[k - 1 : k] != ":" and header[k + 1 : k + 2] != ":":
            return i + 1 + k, header[k + 1 :]
        k += 1
    return None


def check_r2(src, report):
    unordered = _unordered_names(src.code)
    for body_start, body_end in _function_bodies(src.code):
        body = src.code[body_start:body_end]
        if not _OUTPUT_MARKER.search(body):
            continue
        for m in _RANGE_FOR.finditer(body):
            tgt = _range_for_target(body, m.start())
            if tgt is None:
                continue
            off, expr = tgt
            tokens = set(re.findall(r"[A-Za-z_]\w*", expr))
            if tokens & unordered or "unordered_map" in expr or "unordered_set" in expr:
                report(
                    "R2",
                    src.line_of(body_start + m.start()),
                    "iteration over an unordered container on an output path; "
                    "hash order is implementation-defined — use a sorted/ordered "
                    "container",
                )
        for m in _BEGIN_CALL.finditer(body):
            if m.group(1) in unordered:
                report(
                    "R2",
                    src.line_of(body_start + m.start()),
                    f"{m.group(1)}.begin() on an unordered container in an output "
                    "path; hash order is implementation-defined",
                )


# ---------------------------------------------------------------------------
# R3: bare float equality outside src/geometry
# ---------------------------------------------------------------------------

_FLOAT_LIT = r"[-+]?(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?[fF]?"
R3_PATTERNS = [
    re.compile(r"(?:==|!=)\s*" + _FLOAT_LIT),
    re.compile(_FLOAT_LIT + r"\s*(?:==|!=)(?!=)"),
]


def check_r3(src, report):
    seen = set()
    for pat in R3_PATTERNS:
        for m in pat.finditer(src.code):
            line = src.line_of(m.start())
            if line in seen:
                continue
            seen.add(line)
            report(
                "R3",
                line,
                "bare ==/!= against a floating-point literal; use the geom::tol "
                "helpers (or annotate a deliberate exact-representation guard)",
            )


# ---------------------------------------------------------------------------
# R4: stdout in library code
# ---------------------------------------------------------------------------

R4_PATTERNS = [
    (re.compile(r"\bstd\s*::\s*cout\b"), "std::cout in library code"),
    (re.compile(r"(?<!\w)printf\s*\("), "printf() in library code"),
    (re.compile(r"(?<!\w)puts\s*\("), "puts() in library code"),
]


def check_r4(src, report):
    for pat, what in R4_PATTERNS:
        for m in pat.finditer(src.code):
            report(
                "R4",
                src.line_of(m.start()),
                what + "; stdout belongs to the obs layer (src/obs) and the CLI "
                "tools — emit events or report via an event_sink",
            )


# ---------------------------------------------------------------------------
# R5: configuration internals outside src/config
# ---------------------------------------------------------------------------

R5_PATTERNS = [
    (
        re.compile(r"(?:\.|->)\s*derived\s*\(\s*\)"),
        "direct derived-geometry cache access; use the public wrappers "
        "(classify, weber_point, all_views, safe_occupied_points, ...)",
    ),
    (
        re.compile(r"\bderived_geometry\b"),
        "derived_geometry is internal to src/config; consumers use the "
        "public wrappers",
    ),
]


def check_r5(src, report):
    for pat, what in R5_PATTERNS:
        for m in pat.finditer(src.code):
            report("R5", src.line_of(m.start()), what)


# ---------------------------------------------------------------------------
# R9: skipped tests under tests/
# ---------------------------------------------------------------------------

R9_PATTERN = re.compile(r"\bGTEST_SKIP\b")
# Rules an allow() annotation cannot silence.
UNSUPPRESSIBLE = {"R9"}


def check_r9(src, report):
    for m in R9_PATTERN.finditer(src.code):
        report(
            "R9",
            src.line_of(m.start()),
            "GTEST_SKIP in a test: a skip reports as a pass and drops the "
            "check; assert the precondition or construct an input that meets it",
        )


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def rules_for(rel):
    rel = rel.replace(os.sep, "/")
    rules = []
    if rel.startswith(R1_DIRS):
        rules.append(check_r1)
    rules.append(check_r2)
    if not rel.startswith("src/geometry/"):
        rules.append(check_r3)
    if rel.startswith("src/") and not rel.startswith("src/obs/"):
        rules.append(check_r4)
    if not rel.startswith("src/config/"):
        rules.append(check_r5)
    if rel.startswith("tests/"):
        rules.append(check_r9)
    return rules


def lint_tree(root, paths):
    """Returns a sorted list of (rel, line, rule, message)."""
    diagnostics = []
    for top in paths:
        top_abs = os.path.join(root, top)
        if os.path.isfile(top_abs):
            files = [top_abs]
        else:
            files = []
            for dirpath, dirnames, filenames in os.walk(top_abs):
                dirnames.sort()
                for fn in sorted(filenames):
                    if fn.endswith(CXX_EXTENSIONS):
                        files.append(os.path.join(dirpath, fn))
        for path in files:
            rel = os.path.relpath(path, root)
            # The fixture corpus is deliberately full of violations; it is
            # linted by --self-test, not by tree runs.
            if "lint/fixtures/" in rel.replace(os.sep, "/"):
                continue
            with open(path, "r", encoding="utf-8", errors="replace") as fh:
                src = source_file(rel, fh.read())

            def report(rule, line, message, src=src):
                if rule in UNSUPPRESSIBLE or not src.is_allowed(rule, line):
                    diagnostics.append((src.rel, line, rule, message))

            for check in rules_for(src.rel):
                check(src, report)
    return sorted(set(diagnostics))


# ---------------------------------------------------------------------------
# Self-test over the fixture corpus
# ---------------------------------------------------------------------------


def self_test():
    """Fixtures declare expectations inline: a line whose comment contains
    `expect(Rn)` must produce exactly that diagnostic; every other line must
    be clean (allow-comment suppressions included)."""
    fixtures = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
    if not os.path.isdir(fixtures):
        print(f"self-test: fixture directory missing: {fixtures}")
        return 1

    # Only this pass's own rules: R6-R8 markers in the shared fixture corpus
    # belong to gather_analyze.py --self-test.
    expect_pat = re.compile(r"expect\((R[1-5]|R9)\)")
    expected = set()
    n_allow = 0
    for dirpath, _, filenames in os.walk(fixtures):
        for fn in sorted(filenames):
            if not fn.endswith(CXX_EXTENSIONS):
                continue
            path = os.path.join(dirpath, fn)
            rel = os.path.relpath(path, fixtures).replace(os.sep, "/")
            with open(path, "r", encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, start=1):
                    for m in expect_pat.finditer(line):
                        expected.add((rel, lineno, m.group(1)))
                    if "gather-lint: allow(" in line:
                        n_allow += 1

    got = {
        (rel, line, rule)
        for rel, line, rule, _ in lint_tree(fixtures, ["src", "tests"])
    }

    ok = True
    for miss in sorted(expected - got):
        print("self-test: MISSING diagnostic %s:%d: %s" % miss)
        ok = False
    for extra in sorted(got - expected):
        print("self-test: UNEXPECTED diagnostic %s:%d: %s" % extra)
        ok = False
    if not expected:
        print("self-test: no expectations found in fixtures")
        ok = False
    if n_allow == 0:
        print("self-test: fixtures exercise no allow() suppression")
        ok = False
    rules_seen = {rule for _, _, rule in expected}
    for rule in ("R1", "R2", "R3", "R4", "R5", "R9"):
        if rule not in rules_seen:
            print(f"self-test: no fixture fires {rule}")
            ok = False
    if ok:
        print(
            f"self-test: OK ({len(expected)} diagnostics across "
            f"{len(rules_seen)} rules, {n_allow} allow-suppressed line(s))"
        )
    return 0 if ok else 1


def main(argv):
    ap = argparse.ArgumentParser(prog="gather_lint.py", add_help=True)
    ap.add_argument("--root", default=".", help="tree root (default: cwd)")
    ap.add_argument("--self-test", action="store_true", help="run the fixture corpus")
    ap.add_argument("paths", nargs="*", help="paths under root (default: %s)" % " ".join(DEFAULT_PATHS))
    args = ap.parse_args(argv[1:])

    if args.self_test:
        return self_test()

    root = os.path.abspath(args.root)
    paths = args.paths or DEFAULT_PATHS
    for p in paths:
        if not os.path.exists(os.path.join(root, p)):
            print(f"gather-lint: no such path under {root}: {p}")
            return 2

    diagnostics = lint_tree(root, paths)
    for rel, line, rule, message in diagnostics:
        print(f"{rel}:{line}: {rule}: {message}")
    if diagnostics:
        print(f"gather-lint: {len(diagnostics)} diagnostic(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
