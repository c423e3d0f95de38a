"""Determinism audit (rule family 1).

The replication scheme's core invariant is that concurrent replay on a KV
replica is byte-identical to serial replay of the transactional log
(DESIGN.md §12). Three bug shapes silently break it:

  det-unordered-iter   iterating a std::unordered_map/unordered_set inside an
                       apply-path translation unit with the loop body feeding
                       a replica-visible sink (store mutation, log/codec
                       encoding, dump building, file write). Hash-iteration
                       order is implementation- and salt-dependent, so any
                       order-sensitive sink diverges across replicas.
  det-nondet-clock     raw wall-clock primitives outside the sanctioned
                       timing layers (common/clock.h, obs/, trace/) —
                       replayed state must never depend on when it replays.
  det-nondet-rand      stdlib randomness anywhere in src/: the C rand family
                       and the <random> engines and distributions. Same seed
                       must mean a byte-identical workload stream, so all
                       randomness goes through txrep::Random (common/random.h),
                       which is itself built from none of these.
  det-pointer-key      std::map/std::set keyed by a pointer type: ordered,
                       but ordered by *address*, which differs per process.
"""

from __future__ import annotations

from typing import List

from ..body import (Scope, Statement, TypeResolver, build_scope, find_calls,
                    iter_scopes, range_for_parts, statement_range_for)
from ..lexer import ID, PUNCT
from ..model import Diagnostic, TranslationUnit

# Directories whose translation units are on the replay/apply path.
APPLY_PATH_DIRS = ("src/core/", "src/kv/", "src/recov/", "src/txrep/",
                   "src/codec/")

# Files allowed to read clocks directly. No file is allowed stdlib RNGs.
SANCTIONED_TIMING_FILES = ("src/common/clock.h",)
SANCTIONED_TIMING_DIRS = ("src/obs/", "src/trace/")

# Loop-body calls that make hash-order iteration replica-visible.
SINK_CALLEES = {
    "Put", "Delete", "MultiWrite", "MultiPut", "MultiDelete", "Append",
    "AppendLengthPrefixed", "AppendFixed64", "AppendFixed32", "Encode",
    "EncodeTo", "push_back", "emplace_back", "emplace", "insert",
    "fwrite", "Write", "WriteRecord", "append",
}

_UNORDERED = ("std::unordered_map<", "std::unordered_set<")
_CLOCKS = {"system_clock", "steady_clock", "high_resolution_clock",
           "gettimeofday", "clock_gettime", "localtime", "gmtime"}
# C RNG functions: flagged when called or qualified (`rand_budget` is fine).
_RAND_CALLS = {"rand", "srand", "random", "srandom", "rand_r", "drand48",
               "lrand48"}
# <random> types: flagged wherever they are named.
_RAND_TYPES = {"random_device", "mt19937", "mt19937_64", "minstd_rand",
               "minstd_rand0", "knuth_b", "default_random_engine"}


def _is_rand_type(name: str) -> bool:
    return name in _RAND_TYPES or name.startswith("ranlux") or \
        name.endswith("_distribution")


def run(tu: TranslationUnit, index, config) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    diags.extend(_clock_and_rand(tu))
    diags.extend(_pointer_keys(tu))
    if tu.path.startswith(APPLY_PATH_DIRS):
        diags.extend(_unordered_iteration(tu, index))
    return diags


def _sanctioned_for_timing(path: str) -> bool:
    return path in SANCTIONED_TIMING_FILES or \
        path.startswith(SANCTIONED_TIMING_DIRS)


def _clock_and_rand(tu: TranslationUnit) -> List[Diagnostic]:
    clocks_ok = _sanctioned_for_timing(tu.path)
    diags: List[Diagnostic] = []
    toks = tu.lexed.tokens
    for k, t in enumerate(toks):
        if t.kind != ID:
            continue
        nxt = toks[k + 1] if k + 1 < len(toks) else None
        if t.text in _CLOCKS:
            if clocks_ok:
                continue
            diags.append(Diagnostic(
                tu.path, t.line, "det-nondet-clock",
                f"raw clock `{t.text}` outside the sanctioned timing layer",
                hint="use txrep::NowMicros() (common/clock.h); replica-visible "
                     "state must not read wall clocks"))
        else:
            is_call = nxt is not None and nxt.kind == PUNCT and nxt.text == "("
            qualified = k >= 2 and toks[k - 1].text == "::"
            if _is_rand_type(t.text) or \
                    (t.text in _RAND_CALLS and (is_call or qualified)):
                diags.append(Diagnostic(
                    tu.path, t.line, "det-nondet-rand",
                    f"stdlib RNG `{t.text}` (not seed-deterministic)",
                    hint="route randomness through txrep::Random (seedable, "
                         "deterministic under test)"))
    return diags


def _pointer_keys(tu: TranslationUnit) -> List[Diagnostic]:
    """Flags `std::map<T*, ...>` / `std::set<T*>` anywhere in the file."""
    diags: List[Diagnostic] = []
    toks = tu.lexed.tokens
    for k, t in enumerate(toks):
        if t.kind != ID or t.text not in ("map", "set"):
            continue
        if k < 2 or toks[k - 1].text != "::" or toks[k - 2].text != "std":
            continue
        if k + 1 >= len(toks) or toks[k + 1].text != "<":
            continue
        # First template argument: tokens until a top-level `,` or `>`.
        depth = 0
        j = k + 1
        first_arg: List[str] = []
        while j < len(toks):
            tt = toks[j]
            if tt.kind == PUNCT and tt.text == "<":
                depth += 1
            elif tt.kind == PUNCT and tt.text in (">", ">>"):
                depth -= 2 if tt.text == ">>" else 1
                if depth <= 0:
                    break
            elif tt.kind == PUNCT and tt.text == "," and depth == 1:
                break
            elif depth >= 1:
                first_arg.append(tt.text)
            j += 1
        if first_arg and first_arg[-1] == "*":
            diags.append(Diagnostic(
                tu.path, t.line, "det-pointer-key",
                f"ordered std::{t.text} keyed by a pointer "
                f"(`{' '.join(first_arg)}`) iterates in address order",
                hint="key by a stable id, or use an unordered container if "
                     "iteration order never escapes"))
    return diags


def _unordered_iteration(tu: TranslationUnit, index) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    for fn in tu.functions:
        if not fn.body:
            continue
        root = build_scope(fn.body)
        resolver = TypeResolver(index, fn, root)
        for scope in iter_scopes(root):
            rng = range_for_parts(scope)
            iter_line = scope.line
            ranged_type = ""
            if rng is not None:
                _, expr = rng
                ranged_type = resolver.type_of_expr(expr)
            else:
                # Classic iterator loop: `for (auto it = m.begin(); ...)`.
                ranged_type = _iterator_loop_type(scope, resolver)
            if not ranged_type or not ranged_type.startswith(_UNORDERED):
                continue
            sink = _first_sink(scope)
            if sink is None:
                continue
            diags.append(_iter_diag(tu, fn, iter_line, ranged_type, sink))
        # Braceless loops never open a scope: `for (x : m) sink(x);` is a
        # single Statement. Scan those too.
        for scope in iter_scopes(root):
            for st in scope.statements:
                if not isinstance(st, Statement):
                    continue
                parts = statement_range_for(st)
                if parts is None:
                    continue
                _, expr, body_toks = parts
                ranged_type = resolver.type_of_expr(expr)
                if not ranged_type or not ranged_type.startswith(_UNORDERED):
                    continue
                sink = None
                for call in find_calls(body_toks):
                    if call.callee in SINK_CALLEES:
                        sink = call.callee
                        break
                if sink is None and any(
                        t.kind == PUNCT and t.text == "<<"
                        for t in body_toks):
                    sink = "operator<<"
                if sink is not None:
                    diags.append(_iter_diag(tu, fn, st.line, ranged_type,
                                            sink))
    return diags


def _iter_diag(tu, fn, line: int, ranged_type: str, sink: str) -> Diagnostic:
    return Diagnostic(
        tu.path, line, "det-unordered-iter",
        f"iteration over `{ranged_type.split('<')[0]}` feeds "
        f"`{sink}` on the apply path; hash order is not "
        "replica-deterministic",
        hint="sort keys first, iterate an ordered mirror, or prove "
             "the sink order-insensitive and baseline this",
        context=fn.qual_name)


def _iterator_loop_type(scope: Scope, resolver: TypeResolver) -> str:
    h = scope.header
    if not (h and h[0].kind == ID and h[0].text == "for"):
        return ""
    texts = [t.text for t in h]
    if "begin" not in texts:
        return ""
    k = texts.index("begin")
    # receiver chain before `.begin(`/`->begin(`.
    j = k - 1
    if j < 1 or h[j].text not in (".", "->"):
        return ""
    recv_end = j
    j -= 1
    while j - 1 >= 0 and h[j - 1].text in (".", "->", "::"):
        j -= 2
    return resolver.type_of_expr(h[j:recv_end])


def _first_sink(scope: Scope):
    """First sink call anywhere inside the loop body (nested scopes too)."""
    for s in iter_scopes(scope):
        stmts = s.statements if s is not scope else scope.statements
        for st in stmts:
            toks = st.tokens if isinstance(st, Statement) else st.header
            for call in find_calls(toks):
                if call.callee in SINK_CALLEES:
                    return call.callee
            # Stream writes: `out << x` inside the loop body.
            for t in toks:
                if t.kind == PUNCT and t.text == "<<":
                    return "operator<<"
    return None
