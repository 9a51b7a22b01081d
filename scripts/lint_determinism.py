#!/usr/bin/env python3
"""Repo-specific determinism/hygiene linter for the statsizer library code.

Every parallel kernel in this codebase carries a bitwise
thread-count-invariance contract (docs/ARCHITECTURE.md, "Concurrency &
determinism contracts"). The contract is enforced dynamically by identity
tests; this linter statically rejects the *source patterns* that historically
break it before they ever reach a test:

  rng-stray               std::rand / srand / std::random_device / time()-
                          seeded randomness, or any std::*_distribution,
                          anywhere outside util/rng.h. Unseeded or
                          wall-clock-seeded draws are irreproducible by
                          construction, and a distribution's output is
                          implementation-defined (a standard-library pin on
                          bitwise results); all randomness must flow through
                          util::Rng / util::stream_seed.

  rng-stateful            A util::Rng or a standard engine (std::mt19937,
                          std::*_engine) in a sampling layer: src/ssta/ or
                          src/variation/. Every number the sample loop draws
                          is a pure function of its key (seed, draw, arc, k)
                          through util::keyed_normal / keyed_uniform /
                          keyed_index (util/rng.h); a stateful generator
                          there would tie draws to the order of the calls
                          that consume it.

  unordered-iter          Range-for iteration over a std::unordered_map /
                          std::unordered_set. Bucket order is
                          implementation-defined and changes with load
                          factor, libstdc++ version, and insertion history,
                          so any result assembled from such a loop is not
                          deterministic. Iterate a vector / std::map, or sort
                          first. (Pure membership/counting loops may be
                          waived — see below.)

  stdout-io               std::cout / std::cerr / std::clog, printf /
                          fprintf / puts / putchar, or #include <iostream>
                          in library code outside util/log.*. Library
                          diagnostics go through STATSIZER_LOG so callers
                          control verbosity and streams; snprintf into a
                          caller buffer is formatting, not I/O, and stays
                          allowed.

  shared-mutable-capture  An inline by-reference-capturing lambda handed to
                          parallel_for / run_wavefront_level / sweep_levels
                          whose body grows a captured container (push_back /
                          emplace_back / insert / ...) or compound-assigns a
                          captured scalar. Worker bodies must write per-slot
                          (v[i] = ...) or into per-chunk locals merged after
                          the join.

  throw-in-parallel       A throw expression inside an inline lambda handed
                          to parallel_for / run_wavefront_level /
                          sweep_levels. An exception escaping a pool worker
                          is std::terminate (and even a caught-and-rethrown
                          one races the other workers for which failure
                          wins), so the abort behavior depends on thread
                          scheduling. Record the failure in a per-slot status
                          and fail deterministically after the join.

  fp-flags                #pragma GCC optimize, an optimize attribute, or
                          -ffast-math / -Ofast / -funsafe-math-optimizations /
                          -ffp-contract=fast in library code. The pdf kernels
                          are bitwise-pinned to IEEE evaluation in source
                          order (docs/ARCHITECTURE.md, "Bitwise pdf kernels");
                          a value-changing flag or contraction reorders or
                          fuses their operations and moves every result bit.

  layer-order             An #include "<module>/..." in src/ that points to a
                          module above the including file's own module in
                          LAYER_ORDER (docs/ARCHITECTURE.md, "Layer map"), or
                          that names a module the list does not place.
                          Dependencies point downward only; debug/ (the
                          paranoid validators every engine layer may call)
                          is exempt both ways. A new module joins the list
                          before anything includes it.

Waivers: append `// lint-ok: <rule-id> <justification>` to the offending
line (or place it on the immediately preceding line). The justification is
mandatory — a bare waiver is itself a finding.

Exit status: 0 = clean, 1 = findings, 2 = usage error.

Self-test: `lint_determinism.py --self-test` runs the linter over the seeded
corpus in scripts/lint_corpus/ and verifies that every `// expect-lint:
<rule-id>` line fires exactly that rule, that nothing else fires, and that
waived lines stay silent. check.sh --lint runs the self-test before the real
sweep, so a silently dead rule fails the gate.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

RULES = ("rng-stray", "rng-stateful", "unordered-iter", "stdout-io", "shared-mutable-capture",
         "throw-in-parallel", "fp-flags", "layer-order")

# Files exempt from specific rules: the façade a rule funnels everything into
# is the one legitimate user of the forbidden pattern.
RNG_EXEMPT = ("src/util/rng.h",)
IO_EXEMPT = ("src/util/log.h", "src/util/log.cpp")

WAIVER_RE = re.compile(r"//\s*lint-ok:\s*([\w-]+)(?:\s+(\S.*))?")
EXPECT_RE = re.compile(r"//\s*expect-lint:\s*([\w-]+)")


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line  # 1-based
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str, keep_strings: bool = False) -> str:
    """Blanks comments and (unless @p keep_strings) string/char literals,
    preserving line structure so offsets keep mapping to the original line
    numbers."""
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
        elif c in "\"'" and not keep_strings:
            quote = c
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append("  ")
                    i += 2
                else:
                    out.append("\n" if text[i] == "\n" else " ")
                    i += 1
            if i < n:
                out.append(" ")
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


# ---------------------------------------------------------------------------
# rule: rng-stray
# ---------------------------------------------------------------------------

NONREPRODUCIBLE = "non-reproducible randomness"
RNG_PATTERNS = (
    (re.compile(r"\bstd::rand\b|(?<![\w:])rand\s*\("), "std::rand", NONREPRODUCIBLE),
    (re.compile(r"(?<!\w)srand\s*\("), "srand", NONREPRODUCIBLE),
    (re.compile(r"\brandom_device\b"), "std::random_device", NONREPRODUCIBLE),
    (re.compile(r"(?<![\w:])(?:std::)?time\s*\(\s*(?:nullptr|NULL|0)?\s*\)"),
     "wall-clock time() seeding", NONREPRODUCIBLE),
    (re.compile(r"\bstd::\w+_distribution\b"), "std::*_distribution",
     "implementation-defined output, so bitwise results would depend on the "
     "standard library"),
)


def check_rng(path_rel: str, code: str, findings: list, path: Path) -> None:
    if path_rel in RNG_EXEMPT:
        return
    for pattern, what, why in RNG_PATTERNS:
        for m in pattern.finditer(code):
            findings.append(Finding(
                path, line_of(code, m.start()), "rng-stray",
                f"{what}: {why}; draw through util::Rng / "
                f"util::stream_seed (util/rng.h) instead"))


# ---------------------------------------------------------------------------
# rule: rng-stateful
# ---------------------------------------------------------------------------

KEYED_LAYER_RE = re.compile(r"(?:^|/)src/(?:ssta|variation)/")
STATEFUL_RNG_RE = re.compile(
    r"\b(?:util\s*::\s*)?Rng\b|\bstd\s*::\s*(?:mt19937(?:_64)?|\w+_engine)\b")


def check_stateful_rng(path_rel: str, code: str, findings: list, path: Path) -> None:
    if not KEYED_LAYER_RE.search(path_rel):
        return
    for m in STATEFUL_RNG_RE.finditer(code):
        findings.append(Finding(
            path, line_of(code, m.start()), "rng-stateful",
            f"stateful generator '{m.group(0)}' in a sampling layer: draw "
            f"through util::keyed_normal / keyed_uniform / keyed_index "
            f"(util/rng.h) so every number is a pure function of its key"))


# ---------------------------------------------------------------------------
# rule: stdout-io
# ---------------------------------------------------------------------------

IO_PATTERNS = (
    (re.compile(r"\bstd::c(?:out|err|log)\b"), "std::cout/cerr/clog"),
    (re.compile(r"(?<![\w])f?printf\s*\("), "printf-family output"),
    (re.compile(r"(?<![\w])put(?:s|char)\s*\("), "puts/putchar"),
    (re.compile(r"#\s*include\s*<iostream>"), "#include <iostream>"),
)


def check_io(path_rel: str, code: str, findings: list, path: Path) -> None:
    if path_rel in IO_EXEMPT:
        return
    for pattern, what in IO_PATTERNS:
        for m in pattern.finditer(code):
            findings.append(Finding(
                path, line_of(code, m.start()), "stdout-io",
                f"{what}: direct console I/O in library code; route diagnostics "
                f"through STATSIZER_LOG (util/log.h)"))


# ---------------------------------------------------------------------------
# rule: unordered-iter
# ---------------------------------------------------------------------------

UNORDERED_DECL_RE = re.compile(r"\b(?:std\s*::\s*)?unordered_(?:map|set)\s*<")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(")


def skip_template_args(code: str, lt: int) -> int:
    """Returns the offset one past the '>' matching the '<' at @p lt."""
    depth = 0
    i = lt
    while i < len(code):
        if code[i] == "<":
            depth += 1
        elif code[i] == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return i


def unordered_names(code: str) -> set:
    """Names declared in this file (variables, members, parameters) whose type
    is an unordered associative container."""
    names = set()
    for m in UNORDERED_DECL_RE.finditer(code):
        after = skip_template_args(code, code.index("<", m.start()))
        tail = code[after:after + 200]
        dm = re.match(r"\s*(?:&|\*)?\s*([A-Za-z_]\w*)\s*(?:[;=,({)\[]|$)", tail)
        if dm:
            names.add(dm.group(1))
    return names


def check_unordered(code: str, findings: list, path: Path) -> None:
    names = unordered_names(code)
    if not names:
        return
    for m in RANGE_FOR_RE.finditer(code):
        # Extract the parenthesized head of the for and look for `: name)`.
        depth = 0
        i = code.index("(", m.start())
        start = i
        while i < len(code):
            if code[i] == "(":
                depth += 1
            elif code[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        head = code[start + 1:i]
        rm = re.search(r":\s*(?:this\s*->\s*)?([A-Za-z_]\w*)\s*$", head.strip())
        if rm and rm.group(1) in names:
            findings.append(Finding(
                path, line_of(code, m.start()), "unordered-iter",
                f"range-for over unordered container '{rm.group(1)}': bucket order "
                f"is implementation-defined; iterate a vector/std::map or sort "
                f"first (waivable for order-insensitive membership loops)"))


# ---------------------------------------------------------------------------
# rule: shared-mutable-capture
# ---------------------------------------------------------------------------

PARALLEL_CALL_RE = re.compile(
    r"\b(?:util\s*::\s*|sta\s*::\s*)?(?:parallel_for|run_wavefront_level|sweep_levels)\s*\(")
GROWTH_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*\.\s*(push_back|emplace_back|emplace|insert|erase|clear|resize)\s*\(")
COMPOUND_RE = re.compile(
    r"(?:\+\+|--)\s*([A-Za-z_]\w*)\b(?!\s*[\[.])"
    r"|(?<![\w\]\).])\b([A-Za-z_]\w*)\s*(?:\+\+|--|[+\-*/%|&^]=|<<=|>>=)")


def lambda_args_of_call(code: str, call_start: int):
    """Yields (capture_list, body, body_offset) for each inline lambda in the
    argument list of the call whose '(' follows @p call_start."""
    i = code.index("(", call_start)
    depth = 0
    end = i
    while end < len(code):
        if code[end] == "(":
            depth += 1
        elif code[end] == ")":
            depth -= 1
            if depth == 0:
                break
        end += 1
    args = code[i + 1:end]
    base = i + 1
    j = 0
    while j < len(args):
        if args[j] == "[":
            close = args.index("]", j) if "]" in args[j:] else -1
            if close < 0:
                break
            capture = args[j + 1:close]
            brace = args.find("{", close)
            if brace < 0:
                break
            depth = 0
            k = brace
            while k < len(args):
                if args[k] == "{":
                    depth += 1
                elif args[k] == "}":
                    depth -= 1
                    if depth == 0:
                        break
                k += 1
            yield capture, args[brace + 1:k], base + brace + 1
            j = k + 1
        else:
            j += 1


def locals_of_body(body: str) -> set:
    """Heuristic set of names declared inside a lambda body (or taken as its
    parameters — handled by the caller)."""
    names = set()
    decl_re = re.compile(
        r"(?:^|[;{(,])\s*(?:const\s+)?(?:auto|bool|int|unsigned|float|double|"
        r"std?\s*::\s*\w+(?:\s*<[^<>;{}]*>)?|[A-Za-z_]\w*(?:::\w+)*(?:\s*<[^<>;{}]*>)?)"
        r"\s*[&*]?\s+([A-Za-z_]\w*)\s*(?:[=;{(]|:)")
    for m in decl_re.finditer(body):
        names.add(m.group(1))
    return names


def check_shared_capture(code: str, findings: list, path: Path) -> None:
    for call in PARALLEL_CALL_RE.finditer(code):
        for capture, body, body_offset in lambda_args_of_call(code, call.start()):
            if "&" not in capture:
                continue  # by-value captures cannot race through the capture
            declared = locals_of_body(body)
            # Lambda parameters are per-invocation, hence safe: parse the
            # (...) between the capture list and the body open-brace.
            pre = code[:body_offset]
            paren_close = pre.rfind(")")
            paren_open = pre.rfind("(", 0, paren_close) if paren_close > 0 else -1
            if 0 <= paren_open < paren_close:
                for p in pre[paren_open + 1:paren_close].split(","):
                    pm = re.search(r"([A-Za-z_]\w*)\s*$", p.strip())
                    if pm:
                        declared.add(pm.group(1))
            for gm in GROWTH_RE.finditer(body):
                name = gm.group(1)
                if name in declared:
                    continue
                findings.append(Finding(
                    path, line_of(code, body_offset + gm.start()), "shared-mutable-capture",
                    f"'{name}.{gm.group(2)}' grows a by-reference captured container "
                    f"inside a parallel worker body; write per-slot or merge "
                    f"per-chunk locals after the join"))
            for cm in COMPOUND_RE.finditer(body):
                name = cm.group(1) or cm.group(2)
                if name in declared:
                    continue
                findings.append(Finding(
                    path, line_of(code, body_offset + cm.start()), "shared-mutable-capture",
                    f"compound update of by-reference captured '{name}' inside a "
                    f"parallel worker body; accumulate into a per-chunk local or "
                    f"a per-slot element instead"))


# ---------------------------------------------------------------------------
# rule: throw-in-parallel
# ---------------------------------------------------------------------------

THROW_RE = re.compile(r"\bthrow\b")


def check_throw_in_parallel(code: str, findings: list, path: Path) -> None:
    for call in PARALLEL_CALL_RE.finditer(code):
        for _capture, body, body_offset in lambda_args_of_call(code, call.start()):
            for tm in THROW_RE.finditer(body):
                findings.append(Finding(
                    path, line_of(code, body_offset + tm.start()), "throw-in-parallel",
                    "throw inside a parallel worker body: an exception escaping a "
                    "pool thread is std::terminate, and which worker's failure "
                    "surfaces depends on scheduling; record a per-slot status and "
                    "fail deterministically after the join"))


# ---------------------------------------------------------------------------
# rule: fp-flags
# ---------------------------------------------------------------------------

FP_FLAG_PATTERNS = (
    (re.compile(r"#\s*pragma\s+GCC\s+optimize\b"), "#pragma GCC optimize"),
    (re.compile(r"__attribute__\s*\(\(\s*(?:__)?optimize\b|\bgnu::(?:__)?optimize\b"),
     "an optimize attribute"),
    (re.compile(r"-ffast-math\b|-Ofast\b|-funsafe-math-optimizations\b|-ffp-contract=fast\b"),
     "a value-changing floating-point flag"),
)


def check_fp_flags(code_with_strings: str, findings: list, path: Path) -> None:
    """Scans code with comments blanked but string literals kept: the flags
    themselves only ever appear inside a pragma's or attribute's string."""
    for pattern, what in FP_FLAG_PATTERNS:
        for m in pattern.finditer(code_with_strings):
            findings.append(Finding(
                path, line_of(code_with_strings, m.start()), "fp-flags",
                f"{what}: library code must compile to IEEE evaluation in "
                f"source order, which the bitwise pdf kernels depend on"))


# ---------------------------------------------------------------------------
# rule: layer-order
# ---------------------------------------------------------------------------

# src/ modules from the bottom up; modules of one tuple share a rank and may
# include each other.
LAYER_ORDER = (
    ("util",), ("variation",), ("netlist",), ("liberty",),
    ("techmap", "circuits", "bench_format"),
    ("pdf",), ("sta",), ("drc",), ("fassta",), ("ssta",), ("timing",), ("opt",),
    ("core",), ("serve",),
)
LAYER_RANK = {module: rank for rank, tier in enumerate(LAYER_ORDER) for module in tier}
LAYER_EXEMPT = ("debug",)
MODULE_DIR_RE = re.compile(r"(?:^|/)src/(\w+)/")
MODULE_INCLUDE_RE = re.compile(r'^[ \t]*#[ \t]*include[ \t]*"(\w+)/', re.MULTILINE)


def check_layer_order(path_rel: str, code_with_strings: str, findings: list,
                      path: Path) -> None:
    """Scans code with comments blanked but string literals kept: the
    included path is the directive's string."""
    dm = MODULE_DIR_RE.search(path_rel)
    if not dm or dm.group(1) in LAYER_EXEMPT:
        return
    own = dm.group(1)
    for m in MODULE_INCLUDE_RE.finditer(code_with_strings):
        target = m.group(1)
        if target == own or target in LAYER_EXEMPT:
            continue
        line = line_of(code_with_strings, m.start())
        unplaced = [mod for mod in (own, target) if mod not in LAYER_RANK]
        if unplaced:
            findings.append(Finding(
                path, line, "layer-order",
                f"module '{unplaced[0]}/' is not in LAYER_ORDER: place it in the "
                f"layer list before it includes or is included"))
        elif LAYER_RANK[target] > LAYER_RANK[own]:
            findings.append(Finding(
                path, line, "layer-order",
                f"'{own}/' includes '{target}/', which sits above it in LAYER_ORDER: "
                f"dependencies point downward only"))


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def lint_file(path: Path, root: Path) -> list:
    raw = path.read_text(encoding="utf-8", errors="replace")
    code = strip_comments_and_strings(raw)
    rel = path.resolve().relative_to(root.resolve()).as_posix()

    findings: list = []
    check_rng(rel, code, findings, path)
    check_stateful_rng(rel, code, findings, path)
    check_io(rel, code, findings, path)
    check_unordered(code, findings, path)
    check_shared_capture(code, findings, path)
    check_throw_in_parallel(code, findings, path)
    code_with_strings = strip_comments_and_strings(raw, keep_strings=True)
    check_fp_flags(code_with_strings, findings, path)
    check_layer_order(rel, code_with_strings, findings, path)

    # Apply waivers (same line or the immediately preceding line). A waiver
    # without a justification is converted into its own finding.
    raw_lines = raw.splitlines()
    kept = []
    for f in findings:
        waived = False
        for ln in (f.line, f.line - 1):
            if 1 <= ln <= len(raw_lines):
                wm = WAIVER_RE.search(raw_lines[ln - 1])
                if wm and wm.group(1) == f.rule:
                    if not wm.group(2):
                        kept.append(Finding(path, ln, f.rule,
                                            "waiver without a justification"))
                    waived = True
                    break
        if not waived:
            kept.append(f)
    return kept


def collect_sources(paths) -> list:
    files = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.h")))
            files.extend(sorted(p.rglob("*.cpp")))
            files.extend(sorted(p.rglob("*.cc")))
        elif p.is_file():
            files.append(p)
        else:
            print(f"lint_determinism: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return files


def self_test(corpus_dir: Path, root: Path) -> int:
    """Every `// expect-lint: rule` line in the corpus must produce exactly
    that finding; nothing unexpected may fire; waived lines stay silent."""
    failures = []
    fired_rules = set()
    for path in collect_sources([corpus_dir]):
        raw_lines = path.read_text(encoding="utf-8").splitlines()
        expected = {}  # line -> rule
        for idx, line in enumerate(raw_lines, start=1):
            m = EXPECT_RE.search(line)
            if m:
                expected[idx] = m.group(1)
        got = {}  # line -> set of rules
        for f in lint_file(path, root):
            got.setdefault(f.line, set()).add(f.rule)
        for ln, rule in expected.items():
            if rule not in got.get(ln, set()):
                failures.append(f"{path}:{ln}: expected [{rule}] to fire, it did not")
            else:
                fired_rules.add(rule)
        for ln, rules in got.items():
            for rule in rules - {expected.get(ln)}:
                failures.append(f"{path}:{ln}: unexpected finding [{rule}]")
    for rule in RULES:
        if rule not in fired_rules:
            failures.append(f"corpus has no firing example for rule [{rule}]")
    if failures:
        print("lint_determinism --self-test FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"lint_determinism: self-test ok ({len(RULES)} rules verified against "
          f"{corpus_dir})")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*", help="files or directories (default: src/)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule fires on the seeded corpus")
    parser.add_argument("--root", default=str(REPO_ROOT),
                        help="repo root for rule exemption paths")
    args = parser.parse_args()

    root = Path(args.root)
    if args.self_test:
        return self_test(Path(__file__).resolve().parent / "lint_corpus", root)

    paths = args.paths or [root / "src"]
    findings = []
    files = collect_sources(paths)
    for path in files:
        findings.extend(lint_file(path, root))
    for f in findings:
        print(f)
    if findings:
        print(f"lint_determinism: {len(findings)} finding(s) in {len(files)} file(s)",
              file=sys.stderr)
        return 1
    print(f"lint_determinism: clean ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
