#!/usr/bin/env python3
"""gather-analyze: scope-aware static analysis for the gather tree.

gather_lint.py (rules R1-R5) is a line-scanner: it strips comments and
strings and pattern-matches single lines.  The three rules here need more
than that -- they reason about *statement order inside a scope* and about
the *include graph* -- so this pass carries a real (if lightweight) C++
front half: a tokenizer, a brace-matched block tree, and a per-statement
walk that tracks reference bindings and held locks.

Rules (diagnosed as path:line: Rn: message, same contract as gather-lint):

  R6  Reference invalidation.  A local reference or pointer obtained from a
      generation-cached accessor (`configuration::all_views`,
      `config::detail::angles_about_center_slot`, `config::angular_order_ref`,
      `configuration::derived`) or from `columnar_table::add_column` must
      not be used after a statement that calls an invalidating mutator on
      the same object (`set_position`, `apply_moves`, `insert_robot`,
      `remove_robot`, `set_tol_refresh`; another `add_column` for columnar
      tables) within the enclosing scope.  Value copies are fine;
      re-acquiring a fresh reference after the mutation is fine.  Two
      mutation-report refinements: a mutator call probed in-statement for
      its cache-keeping fields (`...).no_op` / `...).cache_kept`) is the
      fast-path check itself and does not stale bindings, and a by-value
      `polar_ref` bound from `angular_order_ref` IS tracked (the handle may
      alias cache storage) unless the statement detaches it via `.take()`.

  R7  Lock discipline.  Scope: src/util, src/runner and tools (the
      concurrency surfaces: thread_pool -- now a util header so the config
      layer can shard across it -- the campaign service, gather_campaignd).
      Fields carrying a `// gather-lint: guarded_by(mutex_name)` annotation
      (same line or the line above the declaration) may only be read or
      written inside a scope where that mutex is held via
      `lock_guard` / `unique_lock` / `scoped_lock` / `shared_lock`, or
      via a raw `m.lock()` .. `m.unlock()` window.  `unique_lock::unlock()`
      suspends the hold until the matching `.lock()`; `std::defer_lock`
      starts disengaged.

  R8  Layer enforcement.  Every `#include "..."` edge inside src/ is
      checked against the layer DAG in tools/lint/layers.toml (module ->
      rank; self-contained leaf headers may carry per-header overrides).
      An include may only point at a strictly lower-ranked module (or stay
      inside its own module), and the file-level graph must be acyclic.
      Violations render the offending path; `--dump-graph` emits the
      module-level graph as DOT.

Stale-suppression audit (`--stale-allows`): every `// gather-lint:
allow(Rn)` annotation in the scanned tree must actually suppress at least
one diagnostic of rule Rn (R1-R5 are recomputed via gather_lint.py for
this purpose).  A suppression that no longer fires is reported as
`path:line: stale: allow(Rn) suppresses nothing` so dead annotations
cannot accumulate.

Suppression: `// gather-lint: allow(Rn)` on the offending line or the line
above, exactly as for R1-R5.

Usage:
  gather_analyze.py [--root DIR] [--stale-allows] [PATH...]
  gather_analyze.py --dump-graph PATH|-  [--root DIR]
  gather_analyze.py --self-test

Exit status: 0 clean, 1 diagnostics emitted, 2 usage error.

Known soundness limits (documented in docs/STATIC_ANALYSIS.md): the walk
is linear and intra-procedural -- a mutation behind a conditional is
treated as happening (may over-report; annotate deliberate cases), calls
that mutate through another alias are invisible (may under-report), R6
tracks names, not objects, so distinct objects with one name across
sibling scopes are merged conservatively, and R7's guard map is file-wide
by field name.
"""

import argparse
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import gather_lint as gl  # tokens share gl.source_file's offsets/allowlist

try:
    import tomllib
except ImportError:  # pragma: no cover - Python < 3.11
    tomllib = None

CXX_EXTENSIONS = gl.CXX_EXTENSIONS
DEFAULT_PATHS = gl.DEFAULT_PATHS
LAYERS_TOML = os.path.join(os.path.dirname(os.path.abspath(__file__)), "layers.toml")

# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
      [A-Za-z_]\w*                                    # identifier / keyword
    | (?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?[A-Za-z]*   # numeric literal
    | ::|->|\+\+|--|<<=|>>=|<=|>=|==|!=|&&|\|\||<<|>>
    | [-+*/%&|^!~<>=]=?
    | [?:;,.(){}\[\]#\\]
    | \S
    """,
    re.VERBOSE,
)


class token:
    __slots__ = ("text", "line")

    def __init__(self, text, line):
        self.text = text
        self.line = line

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"tok({self.text!r}@{self.line})"


def tokenize(src, start, end):
    """Tokens of src.code[start:end] with absolute line numbers."""
    out = []
    for m in _TOKEN_RE.finditer(src.code, start, end):
        out.append(token(m.group(0), src.line_of(m.start())))
    return out


_IDENT_RE = re.compile(r"[A-Za-z_]\w*\Z")


def is_ident(text):
    return bool(_IDENT_RE.match(text))


# ---------------------------------------------------------------------------
# R6: reference invalidation across cache-invalidating mutations
# ---------------------------------------------------------------------------

# Accessors whose result points into generation-stamped storage.  Free
# functions take the owning object as their first argument; `derived` and
# `add_column` are member calls.
R6_SOURCES = {
    "all_views",
    "angles_about_center_slot",
    "angular_order_ref",
    "derived",
    "add_column",
}
# Member calls that invalidate what the sources above returned.
R6_MUTATORS = {
    "set_position",
    "apply_moves",
    "insert_robot",
    "remove_robot",
    "set_tol_refresh",
    "add_column",
}


# Sources whose BY-VALUE result still aliases cache storage: a
# `config::polar_ref` holds a pointer into the Def. 4 angular-order slot when
# the requested center is the SEC center.  `.take()` detaches into owned
# storage.
R6_BY_VALUE_ALIAS_SOURCES = {
    "angular_order_ref",
}


def _report_probed(stmt, i):
    """True when the mutator call at stmt[i] is immediately followed by a
    mutation-report cache-keeping probe: `mutator( ... ).no_op` or
    `( ... ).cache_kept`."""
    j = i + 1  # the opening '('
    depth = 0
    while j < len(stmt):
        if stmt[j].text == "(":
            depth += 1
        elif stmt[j].text == ")":
            depth -= 1
            if depth == 0:
                break
        j += 1
    return (
        j + 2 < len(stmt)
        and stmt[j + 1].text == "."
        and stmt[j + 2].text in ("no_op", "cache_kept")
    )


class binding:
    """One tracked reference/pointer: its source object and staleness."""

    __slots__ = ("name", "obj", "decl_line", "stale_line", "mutator")

    def __init__(self, name, obj, decl_line):
        self.name = name
        self.obj = obj
        self.decl_line = decl_line
        self.stale_line = None  # line of the invalidating mutation
        self.mutator = None


def _source_object(tokens, i):
    """Owning object of the source call at tokens[i] (an R6_SOURCES ident
    followed by '('), or None if the shape is unrecognized."""
    # Member call:  obj . source (   /   obj -> source (
    if i >= 2 and tokens[i - 1].text in (".", "->") and is_ident(tokens[i - 2].text):
        return tokens[i - 2].text
    if i >= 1 and tokens[i - 1].text in (".", "->"):
        return None
    # Free function:  source ( obj , ... )  -- first identifier argument.
    j = i + 2  # skip 'source' '('
    depth = 1
    while j < len(tokens) and depth:
        t = tokens[j].text
        if t == "(":
            depth += 1
        elif t == ")":
            depth -= 1
        elif depth == 1 and is_ident(t) and t != "this":
            return t
        j += 1
    return None


def _split_toplevel_assign(tokens):
    """Index of the first top-level '=' (not ==, <=, ...), or None."""
    depth = 0
    for i, t in enumerate(tokens):
        if t.text in ("(", "[", "{"):
            depth += 1
        elif t.text in (")", "]", "}"):
            depth -= 1
        elif depth == 0 and t.text == "=":
            return i
    return None


# ---------------------------------------------------------------------------
# R7: guarded-field access outside the guarding lock
# ---------------------------------------------------------------------------

R7_DIRS = ("src/util/", "src/runner/", "tools/")
_GUARD_ANNOT = re.compile(r"gather-lint:\s*guarded_by\(\s*([A-Za-z_]\w*)\s*\)")
_LOCK_TYPES = {"lock_guard", "unique_lock", "scoped_lock", "shared_lock"}
_LOCK_TAGS = {"adopt_lock", "defer_lock", "try_to_lock"}


def parse_guard_map(raw_text):
    """{field_name: (mutex_name, decl_line)} from guarded_by annotations.

    The annotation sits on the declaration line or the line above it.  The
    declared name is the last identifier of the declaration before any
    initializer."""
    guards = {}
    lines = raw_text.splitlines()
    for lineno, line in enumerate(lines, start=1):
        m = _GUARD_ANNOT.search(line)
        if not m:
            continue
        mutex = m.group(1)
        decl = line.split("//", 1)[0].strip()
        decl_line = lineno
        if not decl and lineno < len(lines):
            decl = lines[lineno].split("//", 1)[0].strip()
            decl_line = lineno + 1
        decl = re.split(r"[={;]", decl, 1)[0]
        names = re.findall(r"[A-Za-z_]\w*", decl)
        if names:
            guards[names[-1]] = (mutex, decl_line)
    return guards


class lock_entry:
    """One lock object (or raw locked mutex) visible in a scope."""

    __slots__ = ("name", "mutexes", "engaged")

    def __init__(self, name, mutexes, engaged):
        self.name = name
        self.mutexes = mutexes
        self.engaged = engaged


def _parse_lock_decl(tokens, i):
    """Parse a lock declaration whose type keyword sits at tokens[i].
    Returns (lock_entry, next_index) or None."""
    j = i + 1
    if j < len(tokens) and tokens[j].text == "<":  # skip template args
        depth = 1
        j += 1
        while j < len(tokens) and depth:
            if tokens[j].text == "<":
                depth += 1
            elif tokens[j].text == ">":
                depth -= 1
            elif tokens[j].text == ">>":
                depth -= 2
            j += 1
    if j >= len(tokens) or not is_ident(tokens[j].text):
        return None
    name = tokens[j].text
    j += 1
    if j >= len(tokens) or tokens[j].text not in ("(", "{"):
        return None
    close = ")" if tokens[j].text == "(" else "}"
    opener = tokens[j].text
    depth = 1
    j += 1
    args, group = [], []
    while j < len(tokens) and depth:
        t = tokens[j].text
        if t == opener:
            depth += 1
        elif t == close:
            depth -= 1
            if depth == 0:
                break
        if depth == 1 and t == ",":
            args.append(group)
            group = []
        else:
            group.append(t)
        j += 1
    if group:
        args.append(group)
    engaged = True
    mutexes = set()
    for g in args:
        if any(tag in g for tag in _LOCK_TAGS):
            if "defer_lock" in g:
                engaged = False
            continue
        idents = [t for t in g if is_ident(t) and t not in ("this", "std")]
        if idents:
            mutexes.add(idents[-1])
    if not mutexes:
        return None
    return lock_entry(name, mutexes, engaged), j + 1


# ---------------------------------------------------------------------------
# The statement walker shared by R6 and R7
# ---------------------------------------------------------------------------


class body_walker:
    """Walks one function body linearly, statement by statement, keeping a
    scope stack of R6 bindings and R7 lock entries."""

    def __init__(self, src, guards, report, run_r6, run_r7):
        self.src = src
        self.guards = guards
        self.report = report
        self.run_r6 = run_r6
        self.run_r7 = run_r7
        self.binding_scopes = []  # list of dict name -> binding
        self.lock_scopes = []  # list of list[lock_entry]

    # -- scope bookkeeping --------------------------------------------------

    def push(self):
        self.binding_scopes.append({})
        self.lock_scopes.append([])

    def pop(self):
        self.binding_scopes.pop()
        self.lock_scopes.pop()

    def lookup(self, name):
        for scope in reversed(self.binding_scopes):
            if name in scope:
                return scope[name]
        return None

    def all_bindings(self):
        for scope in self.binding_scopes:
            yield from scope.values()

    def find_lock(self, name):
        for scope in reversed(self.lock_scopes):
            for entry in scope:
                if entry.name == name:
                    return entry
        return None

    def held(self, mutex):
        return any(
            entry.engaged and mutex in entry.mutexes
            for scope in self.lock_scopes
            for entry in scope
        )

    # -- the walk -----------------------------------------------------------

    def walk(self, tokens):
        """tokens is one balanced block including its outer braces."""
        self.push()
        i = 1  # skip the opening '{'
        stmt = []
        while i < len(tokens) - 1:  # stop before the closing '}'
            t = tokens[i]
            if t.text == "{":
                self.statement(stmt)  # apply the header before descending
                stmt = []
                end = self._match(tokens, i)
                self.walk(tokens[i:end])
                i = end
            elif t.text == "}":  # stray: unbalanced input, bail out
                break
            elif t.text == ";" and self._depth(stmt) <= 0:
                self.statement(stmt)
                stmt = []
                i += 1
            else:
                stmt.append(t)
                i += 1
        self.statement(stmt)
        self.pop()

    @staticmethod
    def _depth(stmt):
        d = 0
        for t in stmt:
            if t.text in ("(", "["):
                d += 1
            elif t.text in (")", "]"):
                d -= 1
        return d

    @staticmethod
    def _match(tokens, open_idx):
        depth = 0
        for i in range(open_idx, len(tokens)):
            if tokens[i].text == "{":
                depth += 1
            elif tokens[i].text == "}":
                depth -= 1
                if depth == 0:
                    return i + 1
        return len(tokens)

    # -- per-statement analysis ---------------------------------------------

    def statement(self, stmt):
        if not stmt:
            return
        if self.run_r6:
            self._check_stale_uses(stmt)
        if self.run_r7:
            self._check_guarded_uses(stmt)
            self._track_locks(stmt)
        if self.run_r6:
            self._apply_mutations(stmt)
            self._bind_references(stmt)

    def _check_stale_uses(self, stmt):
        # `p = fresh_source(...)` re-targets p: the bare LHS is a write to
        # the pointer variable itself, not a use of what it points at.
        eq = _split_toplevel_assign(stmt)
        retarget_lhs = eq == 1 and is_ident(stmt[0].text)
        for i, t in enumerate(stmt):
            if retarget_lhs and i == 0:
                continue
            if not is_ident(t.text):
                continue
            if i > 0 and stmt[i - 1].text in (".", "->"):
                continue  # member of some other object
            b = self.lookup(t.text)
            if b is not None and b.stale_line is not None:
                self.report(
                    "R6",
                    t.line,
                    f"'{t.text}' (bound line {b.decl_line}) points into "
                    f"'{b.obj}' storage invalidated by {b.mutator}() on "
                    f"line {b.stale_line}; re-acquire it after the mutation",
                )

    def _apply_mutations(self, stmt):
        for i, t in enumerate(stmt):
            if (
                t.text in R6_MUTATORS
                and i + 1 < len(stmt)
                and stmt[i + 1].text == "("
                and i >= 2
                and stmt[i - 1].text in (".", "->")
                and is_ident(stmt[i - 2].text)
            ):
                if _report_probed(stmt, i):
                    # `c.apply_moves(raw).no_op` / `.cache_kept`: the
                    # statement is the cache-keeping fast-path check, not a
                    # blind mutation -- the surrounding code branches on the
                    # report before touching cached references, which the
                    # linear walk cannot follow.  Treat as non-staling.
                    continue
                obj = stmt[i - 2].text
                for b in self.all_bindings():
                    if b.obj == obj and b.stale_line is None:
                        b.stale_line = t.line
                        b.mutator = t.text

    def _bind_references(self, stmt):
        eq = _split_toplevel_assign(stmt)
        if eq is None:
            return
        lhs, rhs = stmt[:eq], stmt[eq + 1 :]
        src_obj, src_fn = self._rhs_source(rhs)
        if not lhs or not is_ident(lhs[-1].text):
            return
        name = lhs[-1].text
        # A by-value binding of an aliasing handle type (polar_ref from
        # angular_order_ref) is tracked like a reference; `.take()` in the
        # same statement detaches it into owned storage.
        by_value_alias = (
            src_fn in R6_BY_VALUE_ALIAS_SOURCES
            and len(lhs) >= 2
            and any(t.text in ("polar_ref", "auto") for t in lhs[:-1])
            and not any(t.text in ("(", "[") for t in lhs[:-1])
            and not any(t.text == "take" for t in rhs)
        )
        if by_value_alias:
            self.binding_scopes[-1][name] = binding(name, src_obj, lhs[-1].line)
            return
        if len(lhs) >= 2 and any(t.text in ("&", "*") for t in lhs[:-1]) and not any(
            t.text in ("(", "[") for t in lhs[:-1]
        ):
            # Declaration of a reference/pointer.
            if src_obj is not None:
                self.binding_scopes[-1][name] = binding(name, src_obj, lhs[-1].line)
            else:
                # Shadow any outer tracked binding: the name now means
                # something else in this scope.
                self.binding_scopes[-1].pop(name, None)
        elif len(lhs) == 1:
            # Plain reassignment: a tracked pointer re-targeted.
            b = self.lookup(name)
            if b is not None:
                if src_obj is not None:
                    b.obj = src_obj
                    b.stale_line = None
                    b.mutator = None
                    b.decl_line = lhs[-1].line
                else:
                    for scope in self.binding_scopes:
                        scope.pop(name, None)

    @staticmethod
    def _rhs_source(rhs):
        """(owning object, source function name) of the first recognized
        source call in `rhs`, or (None, None)."""
        for i, t in enumerate(rhs):
            if t.text in R6_SOURCES and i + 1 < len(rhs) and rhs[i + 1].text == "(":
                obj = _source_object(rhs, i)
                if obj is not None:
                    return obj, t.text
        return None, None

    def _check_guarded_uses(self, stmt):
        for i, t in enumerate(stmt):
            if t.text not in self.guards:
                continue
            mutex, decl_line = self.guards[t.text]
            if t.line == decl_line:
                continue  # the declaration itself
            if i > 0 and stmt[i - 1].text in (".", "->") and not (
                i >= 2 and stmt[i - 2].text == "this"
            ):
                continue  # member of some other object
            if not self.held(mutex):
                self.report(
                    "R7",
                    t.line,
                    f"'{t.text}' is guarded_by({mutex}) but {mutex} is not "
                    "held here; take a lock_guard/unique_lock first",
                )

    def _track_locks(self, stmt):
        i = 0
        while i < len(stmt):
            t = stmt[i]
            if t.text in _LOCK_TYPES:
                parsed = _parse_lock_decl(stmt, i)
                if parsed is not None:
                    entry, nxt = parsed
                    self.lock_scopes[-1].append(entry)
                    i = nxt
                    continue
            if (
                is_ident(t.text)
                and i + 3 < len(stmt)
                and stmt[i + 1].text == "."
                and stmt[i + 2].text in ("lock", "unlock")
                and stmt[i + 3].text == "("
            ):
                entry = self.find_lock(t.text)
                if entry is not None:
                    entry.engaged = stmt[i + 2].text == "lock"
                elif stmt[i + 2].text == "lock":
                    # Raw mutex.lock(): treat the mutex itself as an entry.
                    self.lock_scopes[-1].append(
                        lock_entry(t.text, {t.text}, True)
                    )
                i += 4
                continue
            i += 1


def check_scopes(src, report, run_r6, run_r7, extra_guards=None):
    """Run the R6/R7 statement walk over every function body in `src`.
    `extra_guards` merges a companion header's guard map, so out-of-line
    member definitions are checked against annotations on the class."""
    guards = dict(extra_guards or {}) if run_r7 else {}
    if run_r7:
        guards.update(parse_guard_map(src.raw))
    if run_r7 and not guards:
        run_r7 = False
    if not run_r6 and not run_r7:
        return
    walker = body_walker(src, guards, report, run_r6, run_r7)
    for start, end in gl._function_bodies(src.code):
        walker.binding_scopes.clear()
        walker.lock_scopes.clear()
        walker.walk(tokenize(src, start, end))


# ---------------------------------------------------------------------------
# R8: include-graph layering
# ---------------------------------------------------------------------------

_INCLUDE_RE = re.compile(r'^[ \t]*#[ \t]*include[ \t]+"([^"]+)"', re.MULTILINE)


def _parse_layers_fallback(text):
    """Minimal TOML-subset parser for layers.toml (section + `key = int` /
    `"key" = int` lines) for Pythons without tomllib."""
    data, section = {}, None
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            data[section] = {}
            continue
        if "=" in line and section is not None:
            key, _, value = line.partition("=")
            key = key.strip().strip('"')
            data[section][key] = int(value.strip())
    return data


def load_layers(path):
    """Returns (module_ranks, header_overrides)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if tomllib is not None:
        data = tomllib.loads(raw.decode("utf-8"))
    else:
        data = _parse_layers_fallback(raw.decode("utf-8"))
    layers = data.get("layers", {})
    overrides = data.get("header_overrides", {})
    if not layers:
        raise ValueError(f"{path}: no [layers] table")
    return {k: int(v) for k, v in layers.items()}, {
        k: int(v) for k, v in overrides.items()
    }


class include_graph:
    """File-level include graph of root/src with module layering."""

    def __init__(self, root, layers, overrides):
        self.layers = layers
        self.overrides = overrides
        self.edges = {}  # rel -> [(include_text, line, resolved_rel|None)]
        src_root = os.path.join(root, "src")
        for dirpath, dirnames, filenames in os.walk(src_root):
            dirnames.sort()
            for fn in sorted(filenames):
                if not fn.endswith(CXX_EXTENSIONS):
                    continue
                path = os.path.join(dirpath, fn)
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                with open(path, "r", encoding="utf-8", errors="replace") as fh:
                    text = fh.read()
                out = []
                for m in _INCLUDE_RE.finditer(text):
                    inc = m.group(1)
                    line = text.count("\n", 0, m.start()) + 1
                    target = "src/" + inc
                    resolved = (
                        target
                        if os.path.isfile(os.path.join(root, target))
                        else None
                    )
                    out.append((inc, line, resolved))
                self.edges[rel] = out

    @staticmethod
    def module_of(rel):
        parts = rel.split("/")
        return parts[1] if len(parts) >= 3 and parts[0] == "src" else None

    def layer_violations(self):
        """Yields (rel, line, message) for upward/lateral cross-module
        includes."""
        for rel in sorted(self.edges):
            mod = self.module_of(rel)
            if mod is None or mod not in self.layers:
                continue
            rank = self.layers[mod]
            for inc, line, _resolved in self.edges[rel]:
                inc_mod = inc.split("/", 1)[0]
                if inc_mod == mod or inc_mod not in self.layers:
                    continue
                inc_rank = self.overrides.get(inc, self.layers[inc_mod])
                if inc_rank >= rank:
                    kind = "an upward" if inc_rank > rank else "a lateral"
                    yield (
                        rel,
                        line,
                        f'include of "{inc}" is {kind} layer edge '
                        f"({mod}={rank} -> {inc_mod}={inc_rank}); only "
                        "strictly lower layers may be included "
                        "(tools/lint/layers.toml)",
                    )

    def cycles(self):
        """Yields (rel, line, message) for back edges in the file graph,
        rendering the offending path."""
        resolved = {
            rel: [(inc, line, tgt) for inc, line, tgt in self.edges[rel] if tgt]
            for rel in self.edges
        }
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {rel: WHITE for rel in resolved}
        stack = []

        def dfs(rel):
            color[rel] = GRAY
            stack.append(rel)
            for inc, line, tgt in resolved[rel]:
                if tgt not in color:
                    continue
                if color[tgt] == GRAY:
                    path = stack[stack.index(tgt) :] + [tgt]
                    yield (
                        rel,
                        line,
                        f'include of "{inc}" closes a cycle: '
                        + " -> ".join(path),
                    )
                elif color[tgt] == WHITE:
                    yield from dfs(tgt)
            stack.pop()
            color[rel] = BLACK

        for rel in sorted(resolved):
            if color[rel] == WHITE:
                yield from dfs(rel)

    def dump_dot(self):
        """Module-level DOT rendering (edge labels = include counts)."""
        counts = {}
        files = {}
        for rel in sorted(self.edges):
            mod = self.module_of(rel)
            if mod is None:
                continue
            files[mod] = files.get(mod, 0) + 1
            for inc, _line, _tgt in self.edges[rel]:
                inc_mod = inc.split("/", 1)[0]
                if inc_mod != mod and inc_mod in self.layers:
                    counts[(mod, inc_mod)] = counts.get((mod, inc_mod), 0) + 1
        lines = ["digraph gather_layers {", "  rankdir=BT;"]
        for mod in sorted(files, key=lambda m: (self.layers.get(m, -1), m)):
            rank = self.layers.get(mod, "?")
            lines.append(
                f'  "{mod}" [label="{mod}\\nrank {rank}, {files[mod]} file(s)"];'
            )
        for (a, b), n in sorted(counts.items()):
            lines.append(f'  "{a}" -> "{b}" [label="{n}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def check_r8(root, allow_lookup, report):
    """Layer + cycle check over root/src.  `allow_lookup(rel)` returns the
    source_file for suppression checks (built lazily)."""
    layers, overrides = load_layers(LAYERS_TOML)
    graph = include_graph(root, layers, overrides)
    for rel, line, message in graph.layer_violations():
        report(allow_lookup(rel), "R8", line, message)
    for rel, line, message in graph.cycles():
        report(allow_lookup(rel), "R8", line, message)
    return graph


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def applies_r7(rel):
    return rel.replace(os.sep, "/").startswith(R7_DIRS)


def iter_tree_files(root, paths):
    for top in paths:
        top_abs = os.path.join(root, top)
        if os.path.isfile(top_abs):
            yield top_abs
            continue
        for dirpath, dirnames, filenames in os.walk(top_abs):
            dirnames.sort()
            for fn in sorted(filenames):
                if fn.endswith(CXX_EXTENSIONS):
                    yield os.path.join(dirpath, fn)


class analysis_result:
    def __init__(self):
        self.diagnostics = []  # (rel, line, rule, message), post-suppression
        self.used_allows = set()  # (rel, annot_line, rule) that suppressed
        self.all_allows = set()  # (rel, annot_line, rule) seen in the tree


def analyze_tree(root, paths, with_lint_rules):
    """Run R6/R7 (+ R1-R5 when with_lint_rules, for the stale audit) over
    the tree, and R8 over root/src.  Returns an analysis_result."""
    res = analysis_result()
    sources = {}

    def load(path):
        rel = os.path.relpath(path, root)
        key = rel.replace(os.sep, "/")
        if key not in sources:
            with open(path, "r", encoding="utf-8", errors="replace") as fh:
                sources[key] = gl.source_file(rel, fh.read())
        return sources[key]

    def report(src, rule, line, message, visible=True):
        if src.is_allowed(rule, line):
            for annot_line in (line, line - 1):
                if rule in src.allowed.get(annot_line, ()):
                    res.used_allows.add((src.rel, annot_line, rule))
                    break
        elif visible:
            res.diagnostics.append((src.rel, line, rule, message))

    scanned_src = False
    for path in iter_tree_files(root, paths):
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        if "lint/fixtures/" in rel:
            continue
        if rel.startswith("src/"):
            scanned_src = True
        src = load(path)
        for annot_line, rules in src.allowed.items():
            for rule in rules:
                res.all_allows.add((src.rel, annot_line, rule))

        def file_report(rule, line, message, src=src):
            report(src, rule, line, message)

        extra_guards = None
        if applies_r7(rel) and rel.endswith((".cpp", ".cc")):
            stem = path[: path.rfind(".")]
            for ext in (".h", ".hpp"):
                if os.path.isfile(stem + ext):
                    with open(
                        stem + ext, "r", encoding="utf-8", errors="replace"
                    ) as fh:
                        # The header's own decl lines are skipped by line
                        # number there, not here -- but field declarations
                        # never appear inside this file's function bodies.
                        extra_guards = parse_guard_map(fh.read())
                    break

        check_scopes(
            src,
            file_report,
            run_r6=True,
            run_r7=applies_r7(rel),
            extra_guards=extra_guards,
        )
        if with_lint_rules:
            # R1-R5 recomputed only to mark their suppressions as live; the
            # diagnostics themselves are gather_lint's to print.
            def lint_report(rule, line, message, src=src):
                report(src, rule, line, message, visible=False)

            for check in gl.rules_for(src.rel):
                check(src, lint_report)

    if scanned_src and os.path.isdir(os.path.join(root, "src")):
        def r8_report(src, rule, line, message):
            report(src, rule, line, message)

        check_r8(root, load_by_rel(root, sources), r8_report)
    res.diagnostics = sorted(set(res.diagnostics))
    return res


def load_by_rel(root, sources):
    def lookup(rel):
        key = rel.replace(os.sep, "/")
        if key not in sources:
            with open(
                os.path.join(root, rel), "r", encoding="utf-8", errors="replace"
            ) as fh:
                sources[key] = gl.source_file(rel, fh.read())
        return sources[key]

    return lookup


def stale_allows(res):
    """Sorted [(rel, line, rule)] of allow() annotations that fired for no
    diagnostic of their rule."""
    return sorted(res.all_allows - res.used_allows)


# ---------------------------------------------------------------------------
# Self-test over the fixture corpus
# ---------------------------------------------------------------------------


def self_test():
    """Fixture contract: every `expect(Rn)` line (n in 6..8) must produce
    exactly that diagnostic, every other line must be clean, and every
    `expect-stale(Rn)` annotation must be reported stale while all other
    allow() annotations must be live."""
    fixtures = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
    if not os.path.isdir(fixtures):
        print(f"self-test: fixture directory missing: {fixtures}")
        return 1

    expect_pat = re.compile(r"expect\((R[6-8])\)")
    stale_pat = re.compile(r"expect-stale\((R\d)\)")
    expected, expected_stale = set(), set()
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
                    for m in stale_pat.finditer(line):
                        expected_stale.add((rel, lineno, m.group(1)))
                    if "gather-lint: allow(" in line:
                        n_allow += 1

    res = analyze_tree(fixtures, ["src"], with_lint_rules=True)
    got = {(rel, line, rule) for rel, line, rule, _ in res.diagnostics}
    got_stale = set(stale_allows(res))

    ok = True
    for miss in sorted(expected - got):
        print("self-test: MISSING diagnostic %s:%d: %s" % miss)
        ok = False
    for extra in sorted(got - expected):
        print("self-test: UNEXPECTED diagnostic %s:%d: %s" % extra)
        ok = False
    for miss in sorted(expected_stale - got_stale):
        print("self-test: MISSING stale-allow %s:%d: %s" % miss)
        ok = False
    for extra in sorted(got_stale - expected_stale):
        print("self-test: UNEXPECTED stale-allow %s:%d: %s" % extra)
        ok = False
    if not expected:
        print("self-test: no expect(R6..R8) markers found in fixtures")
        ok = False
    if not expected_stale:
        print("self-test: no expect-stale marker found in fixtures")
        ok = False
    if n_allow == 0:
        print("self-test: fixtures exercise no allow() suppression")
        ok = False
    rules_seen = {rule for _, _, rule in expected}
    for rule in ("R6", "R7", "R8"):
        if rule not in rules_seen:
            print(f"self-test: no fixture fires {rule}")
            ok = False
    if ok:
        print(
            f"self-test: OK ({len(expected)} diagnostics across "
            f"{len(rules_seen)} rules, {len(expected_stale)} stale allow(s), "
            f"{n_allow} allow-annotated line(s))"
        )
    return 0 if ok else 1


def main(argv):
    ap = argparse.ArgumentParser(prog="gather_analyze.py", add_help=True)
    ap.add_argument("--root", default=".", help="tree root (default: cwd)")
    ap.add_argument(
        "--self-test", action="store_true", help="run the fixture corpus"
    )
    ap.add_argument(
        "--stale-allows",
        action="store_true",
        help="also flag allow() annotations that suppress nothing (R1-R8)",
    )
    ap.add_argument(
        "--dump-graph",
        metavar="PATH",
        help="write the module-level include graph as DOT ('-' = stdout)",
    )
    ap.add_argument(
        "paths",
        nargs="*",
        help="paths under root (default: %s)" % " ".join(DEFAULT_PATHS),
    )
    args = ap.parse_args(argv[1:])

    if args.self_test:
        return self_test()

    root = os.path.abspath(args.root)

    if args.dump_graph:
        layers, overrides = load_layers(LAYERS_TOML)
        dot = include_graph(root, layers, overrides).dump_dot()
        if args.dump_graph == "-":
            sys.stdout.write(dot)
        else:
            with open(args.dump_graph, "w", encoding="utf-8") as fh:
                fh.write(dot)
            print(f"gather-analyze: graph written to {args.dump_graph}")
        return 0

    paths = args.paths or DEFAULT_PATHS
    for p in paths:
        if not os.path.exists(os.path.join(root, p)):
            print(f"gather-analyze: no such path under {root}: {p}")
            return 2

    res = analyze_tree(root, paths, with_lint_rules=args.stale_allows)
    count = 0
    for rel, line, rule, message in res.diagnostics:
        print(f"{rel}:{line}: {rule}: {message}")
        count += 1
    if args.stale_allows:
        for rel, line, rule in stale_allows(res):
            print(
                f"{rel}:{line}: stale: allow({rule}) suppresses nothing; "
                "drop the annotation"
            )
            count += 1
    if count:
        print(f"gather-analyze: {count} diagnostic(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
