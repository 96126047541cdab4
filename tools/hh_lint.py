#!/usr/bin/env python3
"""hh-lint: HyperHammer's determinism & invariant linter.

The simulator's headline guarantee -- bitwise-identical Monte-Carlo
results at any thread count (DESIGN.md section 3.2) -- dies by a
thousand cuts: a stray rand(), a wall-clock timestamp, an iteration
over a hash table feeding a merge. Compilers accept all of those;
hh-lint rejects them at CI time.

Rules (see docs/static_analysis.md for the rationale and how to add one):

  raw-rand            non-deterministic randomness outside src/base/rng.h
  wall-clock          host time sources outside src/base/sim_clock.*
  unordered-iteration range-for over unordered_{map,set}: order is
                      implementation-defined, so anything built from it
                      is not reproducible
  float-accumulation  float/double compound accumulation outside
                      src/base/stats.h (order-sensitive rounding)
  missing-nodiscard   Status/Expected-returning declarations in headers
                      without [[nodiscard]]
  naked-new           raw new/delete (ownership must be RAII)
  fault-site          every HH_FAULT_POINT must name a FaultSite
                      registered in src/fault/fault_sites.def, and each
                      site may be consumed by at most one injection
                      point (site identity seeds the fault stream)
  snapshot-version    every saveState() body is hashed and pinned in
                      tools/snapshot_manifest.json; changing a
                      serialized layout without bumping
                      kSnapshotFormatVersion would let old snapshots be
                      silently reinterpreted instead of rejected
  no-deep-world-copy  a copy constructor on a world-state type
                      (HostSystem, DramSystem, BuddyAllocator,
                      MemoryBackend, CowChunks) that is not = delete:
                      worlds duplicate through their O(chunk-pointer)
                      CoW fork paths, never by deep copy
  bad-waiver          an hh-lint waiver without a justification

After an intentional format change: bump kSnapshotFormatVersion in
src/snapshot/snapshot_format.h, then regenerate the manifest with
`hh_lint.py --update-snapshot-manifest` (it refuses to re-pin while
the version is unchanged).

Waivers: append `// hh-lint: allow(rule-a,rule-b) -- why it is safe`
to the offending line (or put the comment alone on the line above).
A waiver without the `-- why` justification does not suppress anything
and is itself reported as bad-waiver.

Exit codes: 0 clean, 1 findings, 2 usage/config error.
"""

import argparse
import hashlib
import json
import re
import sys
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - Python < 3.11
    tomllib = None

RULES = {
    "raw-rand": "non-deterministic randomness; use base::Rng / "
                "base::SeedSequence (src/base/rng.h)",
    "wall-clock": "host time source; charge virtual time to "
                  "base::SimClock (src/base/sim_clock.h)",
    "unordered-iteration": "iteration order over unordered containers is "
                           "implementation-defined; iterate a sorted copy "
                           "or a deterministic index instead",
    "float-accumulation": "order-sensitive floating-point accumulation; "
                          "use base::RunningStats (src/base/stats.h)",
    "missing-nodiscard": "Status/Expected return silently discardable; "
                         "declare it [[nodiscard]]",
    "naked-new": "raw new/delete; use std::make_unique / containers "
                 "so ownership is RAII",
    "fault-site": "HH_FAULT_POINT site must be registered in "
                  "src/fault/fault_sites.def and consumed by exactly "
                  "one injection point",
    "snapshot-version": "serialized saveState() layout changed without "
                        "a kSnapshotFormatVersion bump; bump it and run "
                        "hh_lint.py --update-snapshot-manifest",
    "no-deep-world-copy": "world-state types clone via their CoW fork "
                          "paths (fork()/forkTrial()/forkFrom()); "
                          "declare the copy constructor = delete",
    "shard-merge-only": "campaign outcome aggregation outside the "
                        "sanctioned merge path; fold outcomes through "
                        "HyperHammerAttack::aggregateOutcomes / "
                        "shard::mergeShards so sharded and "
                        "single-process results stay bitwise-identical",
    "bad-waiver": "hh-lint waiver without a `-- justification`",
}

# Stable rule identifiers for the shared machine-readable report format
# (REPORT_SCHEMA below). IDs are append-only: a retired rule's ID is
# never reused, so downstream consumers can key on them forever.
RULE_IDS = {
    "raw-rand": "HHL001",
    "wall-clock": "HHL002",
    "unordered-iteration": "HHL003",
    "float-accumulation": "HHL004",
    "missing-nodiscard": "HHL005",
    "naked-new": "HHL006",
    "fault-site": "HHL007",
    "snapshot-version": "HHL008",
    "no-deep-world-copy": "HHL009",
    "shard-merge-only": "HHL010",
    "bad-waiver": "HHL011",
}

# Rules owned by the AST analyzer (tools/hh_analyze.py). They share
# hh-lint's waiver syntax and the [rules.*] config namespace, so the
# waiver parser and config loader must accept them; hh-lint itself
# never checks them.
ANALYZER_RULES = (
    "snapshot-field-coverage",
    "determinism-taint",
    "status-discard",
    "guarded-field-completeness",
)

# Version of the JSON report envelope shared by hh-lint and hh-analyze;
# one CI step can merge both reports because `schema`, `tool`, and the
# per-finding fields line up.
REPORT_SCHEMA = 2


def report_payload(tool, findings, rule_ids):
    """The shared machine-readable report envelope."""
    return {
        "schema": REPORT_SCHEMA,
        "tool": tool,
        "findings": [{"file": f.path, "line": f.line, "rule": f.rule,
                      "id": rule_ids.get(f.rule, "HHX000"),
                      "message": f.message} for f in findings],
    }

WAIVER_RE = re.compile(
    r"//\s*hh-lint:\s*allow\(([^)]*)\)(?:\s*--\s*(\S[^\n]*))?")
EXPECT_RE = re.compile(r"//\s*expect:\s*([\w\-, ]+)")

RAW_RAND_RE = re.compile(
    r"(?<![\w.:>])(?:rand|srand|random|drand48|lrand48)\s*\("
    r"|\brandom_device\b|\bmt19937(?:_64)?\b|\bminstd_rand0?\b"
    r"|\bdefault_random_engine\b")
# Bare `clock(` is not matched: the simulator's own SimClock accessors
# are named clock(). Qualified std::/:: spellings still are.
WALL_CLOCK_RE = re.compile(
    r"\b(?:system_clock|steady_clock|high_resolution_clock)\b"
    r"|(?<![\w.:>])(?:time|clock_gettime|gettimeofday)\s*\("
    r"|(?:std::|[^\w:]::)clock\s*\(")
UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set)\s*<[^;(){}]*>\s+(\w+)\s*[;{=(]")
FLOAT_DECL_RE = re.compile(r"\b(?:double|float)\s+(\w+)\s*[;={,)]")
NODISCARD_DECL_RE = re.compile(
    r"^\s*(?:static\s+|virtual\s+)*(?:base::)?"
    r"(?:Status|StatusOr|Expected)(?:<[^;]*)?"
    r"(?:\s+\w+\s*\(|\s*$)")
NAKED_NEW_RE = re.compile(r"(?<![\w.])new\s+[A-Za-z_(:<]")
NAKED_DELETE_RE = re.compile(r"(?<![\w.])delete(?:\s*\[\s*\])?\s+[\w(*]")
FAULT_POINT_RE = re.compile(r"\bHH_FAULT_POINT\s*\(")
FAULT_SITE_NAME_RE = re.compile(r"\bFaultSite\s*::\s*(\w+)")
FAULT_SITE_DEF_RE = re.compile(r"\bHH_FAULT_SITE\s*\(\s*(\w+)\s*,")
SAVE_STATE_DEF_RE = re.compile(r"\b(?:(\w+)\s*::\s*)?saveState\s*\(")
# Qualifiers allowed between a parameter list and the function body.
FUNC_BODY_OPEN_RE = re.compile(
    r"(?:\s|\bconst\b|\bnoexcept\b|\boverride\b|\bfinal\b)*\{")
SNAPSHOT_VERSION_RE = re.compile(r"\bkSnapshotFormatVersion\s*=\s*(\d+)")
CLASS_NAME_RE = re.compile(r"\b(?:class|struct)\s+(\w+)")
# World-state types whose duplication must go through the CoW fork
# paths. A copy-ctor *declaration* of one of these (first parameter a
# const reference to the same type) fires unless the same line deletes
# it; the tag-dispatched fork ctors take the source as their second
# parameter, so they never match.
WORLD_COPY_RE = re.compile(
    r"\b(HostSystem|DramSystem|BuddyAllocator|MemoryBackend|CowChunks)"
    r"\s*\(\s*(?:const\s+)?(?:\w+\s*::\s*)*\1\s*&(?!&)")
# Campaign outcome aggregation is a single code path
# (HyperHammerAttack::aggregateOutcomes, reached directly or through
# shard::mergeShards); folding BatchAggregates by hand -- a local
# accumulator's .add()/.merge(), or mutating an AttackResult's .stats
# -- forks the merge semantics and silently breaks the sharded-vs-
# single-process bitwise identity.
BATCH_AGG_DECL_RE = re.compile(r"\bBatchAggregates\s+(\w+)\s*[;{=(]")
STATS_MUTATE_RE = re.compile(
    r"\.\s*stats\s*\.\s*(?:add|merge)\s*\(")


def strip_code(text):
    """Blank out comments and string/char literals, preserving layout.

    Keeps every finding regex honest: a mention of rand() in a comment
    or a log string is not a finding.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            chunk = text[i:j + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in chunk))
            i = j + 2
        elif c == "'" and i > 0 and (text[i - 1].isalnum()
                                     or text[i - 1] == "_"):
            # C++14 digit separator (0x20'1234), not a char literal.
            out.append(c)
            i += 1
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            out.append(quote + " " * (min(j, n) - i - 1)
                       + (quote if j < n else ""))
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


class Finding:
    def __init__(self, path, line, rule, message=None):
        self.path = str(path)
        self.line = line
        self.rule = rule
        self.message = message or RULES[rule]

    def key(self):
        return (self.path, self.line, self.rule)

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def parse_waivers(raw_lines):
    """Map line number -> (set of waived rules, justified?).

    A comment-only waiver line also covers the next source line.
    """
    waivers = {}
    bad = []
    for idx, line in enumerate(raw_lines, start=1):
        m = WAIVER_RE.search(line)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        justified = bool(m.group(2))
        unknown = rules - set(RULES) - set(ANALYZER_RULES)
        if unknown:
            bad.append(Finding(
                "?", idx, "bad-waiver",
                f"waiver names unknown rule(s): {', '.join(sorted(unknown))}"))
        if not justified:
            bad.append(Finding("?", idx, "bad-waiver"))
            rules = set()  # an unjustified waiver suppresses nothing
        targets = [idx]
        if line.lstrip().startswith("//"):
            targets.append(idx + 1)
        for t in targets:
            waivers.setdefault(t, set()).update(rules)
    return waivers, bad


def collect_names(regex, texts):
    names = set()
    for text in texts:
        for m in regex.finditer(text):
            names.add(m.group(1))
    return names


def range_for_re(names):
    if not names:
        return None
    alt = "|".join(re.escape(n) for n in sorted(names))
    # `for (... : name)` with optional object prefixes (this->, obj.).
    return re.compile(
        r"for\s*\([^;)]*:\s*(?:[\w\]\[]+(?:\.|->))*(?:" + alt + r")\s*\)")


def sibling_header_text(path):
    """Declarations often live in the .h next to a .cc; pull them in so
    member names declared there are known when linting the .cc."""
    if path.suffix not in (".cc", ".cpp"):
        return None
    for ext in (".h", ".hh"):
        header = path.with_suffix(ext)
        if header.exists():
            try:
                return strip_code(header.read_text(errors="replace"))
            except OSError:
                return None
    return None


def load_fault_registry(repo_root):
    """Site identifiers registered in src/fault/fault_sites.def, or
    None when the registry does not exist (pre-fault trees)."""
    def_path = repo_root / "src" / "fault" / "fault_sites.def"
    if not def_path.exists():
        return None
    stripped = strip_code(def_path.read_text(errors="replace"))
    return {m.group(1) for m in FAULT_SITE_DEF_RE.finditer(stripped)}


def scan_fault_points(path, stripped, waivers, enabled_for,
                      fault_registry, site_uses, findings):
    """Check every HH_FAULT_POINT call: the named site must be in the
    registry, and @p site_uses collects (site, path, line) so run_lint
    can flag a site consumed by more than one injection point."""
    if fault_registry is None or not enabled_for("fault-site"):
        return
    for m in FAULT_POINT_RE.finditer(stripped):
        lineno = stripped.count("\n", 0, m.start()) + 1
        if "fault-site" in waivers.get(lineno, set()):
            continue
        tail = stripped[m.end():m.end() + 256]
        close = tail.find(")")
        window = tail[:close] if close != -1 else tail
        site = FAULT_SITE_NAME_RE.search(window)
        if site is None:
            continue  # the macro definition or a pass-through argument
        name = site.group(1)
        if name not in fault_registry:
            findings.append(Finding(
                path, lineno, "fault-site",
                f"HH_FAULT_POINT names unregistered FaultSite '{name}'; "
                "add it to src/fault/fault_sites.def"))
        elif site_uses is not None:
            site_uses.setdefault(name, []).append((path, lineno))


def find_matching(text, open_idx, open_ch, close_ch):
    """Index of the delimiter closing text[open_idx], or -1."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i
    return -1


def scan_save_states(path, stripped, waivers, enabled_for, records):
    """Collect every saveState() *definition* in this file.

    Each record pins the function's normalized body under a stable hash
    so check_snapshot_manifest can detect a serialized-layout change
    that was not accompanied by a kSnapshotFormatVersion bump.
    Declarations and call sites (no `{` after the parameter list) are
    skipped.
    """
    if records is None or not enabled_for("snapshot-version"):
        return
    for m in SAVE_STATE_DEF_RE.finditer(stripped):
        params_close = find_matching(stripped, m.end() - 1, "(", ")")
        if params_close == -1:
            continue
        body = FUNC_BODY_OPEN_RE.match(stripped, params_close + 1)
        if body is None:
            continue  # declaration or call, not a definition
        body_close = find_matching(stripped, body.end() - 1, "{", "}")
        if body_close == -1:
            continue
        name = m.group(1)
        if not name:
            # Inline member definition: attribute it to the nearest
            # preceding class/struct.
            classes = CLASS_NAME_RE.findall(stripped[:m.start()])
            name = classes[-1] if classes else "?"
        lineno = stripped.count("\n", 0, m.start()) + 1
        normalized = " ".join(stripped[m.start():body_close + 1].split())
        records.append({
            "path": path,
            "line": lineno,
            "name": name,
            "hash": hashlib.sha256(
                normalized.encode()).hexdigest()[:16],
            "waived": "snapshot-version" in waivers.get(lineno, set()),
        })


def scan_snapshot_versions(path, stripped, waivers, versions):
    """Record every kSnapshotFormatVersion definition (normally one)."""
    if versions is None:
        return
    for m in SNAPSHOT_VERSION_RE.finditer(stripped):
        lineno = stripped.count("\n", 0, m.start()) + 1
        versions.append({
            "path": path,
            "line": lineno,
            "value": int(m.group(1)),
            "waived": "snapshot-version" in waivers.get(lineno, set()),
        })


def lint_file(path, enabled_for, fault_registry=None, site_uses=None,
              save_states=None, versions=None):
    """Return the findings for one file. @p enabled_for maps a rule name
    to True when this path is subject to it (allow_paths applied)."""
    raw = path.read_text(errors="replace")
    raw_lines = raw.splitlines()
    stripped_lines = strip_code(raw).splitlines()
    waivers, waiver_findings = parse_waivers(raw_lines)
    findings = []
    for f in waiver_findings:
        f.path = str(path)
        findings.append(f)

    texts = [strip_code(raw)]
    sibling = sibling_header_text(path)
    if sibling:
        texts.append(sibling)
    unordered_names = collect_names(UNORDERED_DECL_RE, texts)
    unordered_re = range_for_re(unordered_names)
    float_names = collect_names(FLOAT_DECL_RE, texts[:1])
    float_accum_re = None
    if float_names:
        alt = "|".join(re.escape(n) for n in sorted(float_names))
        float_accum_re = re.compile(
            r"(?<![\w.])(?:" + alt + r")\s*[+\-]=")
    agg_names = collect_names(BATCH_AGG_DECL_RE, texts)
    agg_mutate_re = None
    if agg_names:
        alt = "|".join(re.escape(n) for n in sorted(agg_names))
        agg_mutate_re = re.compile(
            r"(?<![\w.])(?:" + alt + r")\s*\.\s*(?:add|merge)\s*\(")

    scan_fault_points(path, texts[0], waivers, enabled_for,
                      fault_registry, site_uses, findings)
    scan_save_states(path, texts[0], waivers, enabled_for, save_states)
    scan_snapshot_versions(path, texts[0], waivers, versions)

    is_header = path.suffix in (".h", ".hh")

    def check(rule, lineno, hit):
        if not hit or not enabled_for(rule):
            return
        if rule in waivers.get(lineno, set()):
            return
        findings.append(Finding(path, lineno, rule))

    for lineno, line in enumerate(stripped_lines, start=1):
        check("raw-rand", lineno, RAW_RAND_RE.search(line))
        check("wall-clock", lineno, WALL_CLOCK_RE.search(line))
        if unordered_re:
            check("unordered-iteration", lineno, unordered_re.search(line))
        if float_accum_re:
            check("float-accumulation", lineno,
                  float_accum_re.search(line))
        if NAKED_NEW_RE.search(line) or NAKED_DELETE_RE.search(line):
            check("naked-new", lineno, True)
        if WORLD_COPY_RE.search(line) and "delete" not in line:
            check("no-deep-world-copy", lineno, True)
        if (STATS_MUTATE_RE.search(line)
                or (agg_mutate_re and agg_mutate_re.search(line))):
            check("shard-merge-only", lineno, True)
        if is_header and NODISCARD_DECL_RE.match(line):
            prev = stripped_lines[lineno - 2] if lineno >= 2 else ""
            if "[[nodiscard]]" not in line and "[[nodiscard]]" not in prev:
                check("missing-nodiscard", lineno, True)
    return findings


def load_config(path):
    defaults = {
        "roots": ["src", "bench", "tests", "examples", "include"],
        "extensions": [".h", ".hh", ".cc", ".cpp"],
        "exclude": [],
        "allow": {},  # rule -> [path prefixes it does not apply to]
    }
    if path is None:
        return defaults
    if tomllib is None:
        print("hh-lint: tomllib unavailable; cannot read config",
              file=sys.stderr)
        sys.exit(2)
    try:
        data = tomllib.loads(Path(path).read_text())
    except (OSError, tomllib.TOMLDecodeError) as err:
        print(f"hh-lint: bad config {path}: {err}", file=sys.stderr)
        sys.exit(2)
    lint = data.get("lint", {})
    for key in ("roots", "extensions", "exclude"):
        if key in lint:
            defaults[key] = list(lint[key])
    for rule, table in data.get("rules", {}).items():
        if rule not in RULES and rule not in ANALYZER_RULES:
            print(f"hh-lint: config names unknown rule '{rule}'",
                  file=sys.stderr)
            sys.exit(2)
        defaults["allow"][rule] = list(table.get("allow_paths", []))
    return defaults


def iter_files(paths, config, repo_root):
    exts = tuple(config["extensions"])
    exclude = [repo_root / e for e in config["exclude"]]
    for p in paths:
        p = Path(p)
        candidates = (sorted(p.rglob("*")) if p.is_dir() else [p])
        for f in candidates:
            if not (f.is_file() and f.suffix in exts):
                continue
            if any(f.is_relative_to(e) for e in exclude):
                continue
            yield f


def relpath(path, repo_root):
    try:
        return str(path.resolve().relative_to(repo_root.resolve()))
    except ValueError:
        return str(path)


def snapshot_manifest_path(paths, config, repo_root):
    """tools/snapshot_manifest.json, unless a scanned directory carries
    its own manifest -- the self-test fixtures do, so the rule can be
    exercised against a fixture manifest instead of the real one."""
    exclude = [repo_root / e for e in config["exclude"]]
    for p in paths:
        p = Path(p)
        if not p.is_dir():
            continue
        for m in sorted(p.rglob("snapshot_manifest.json")):
            if not any(m.is_relative_to(e) for e in exclude):
                return m
    return repo_root / "tools" / "snapshot_manifest.json"


def snapshot_struct_map(save_states, repo_root):
    """Key each saveState record as `<relpath>::<owner>` (with a `#N`
    suffix for same-named siblings in one file)."""
    counts = {}
    structs = {}
    for rec in save_states:
        base = f"{relpath(rec['path'], repo_root)}::{rec['name']}"
        counts[base] = counts.get(base, 0) + 1
        key = base if counts[base] == 1 else f"{base}#{counts[base]}"
        structs[key] = rec
    return structs


def check_snapshot_manifest(paths, config, repo_root, save_states,
                            versions, findings):
    """The snapshot-version rule's whole-tree pass.

    Inert when the scanned set defines no kSnapshotFormatVersion (a
    partial lint run, or a tree without the snapshot layer) or when no
    manifest exists yet.
    """
    manifest_path = snapshot_manifest_path(paths, config, repo_root)
    if not versions or not manifest_path.exists():
        return
    anchor = versions[0]

    def flag(rec, message):
        if rec.get("waived"):
            return
        findings.append(Finding(relpath(rec["path"], repo_root),
                                rec["line"], "snapshot-version", message))

    manifest_rel = relpath(manifest_path, repo_root)
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        flag(anchor, f"cannot read {manifest_rel}: {err}")
        return
    current = anchor["value"]
    if manifest.get("version") != current:
        flag(anchor,
             f"kSnapshotFormatVersion is {current} but {manifest_rel} "
             f"records {manifest.get('version')}; run hh_lint.py "
             "--update-snapshot-manifest to re-pin the layouts")
        return
    structs = snapshot_struct_map(save_states, repo_root)
    recorded = manifest.get("structs", {})
    for key, rec in structs.items():
        if key not in recorded:
            flag(rec, f"new serialized layout '{key}' is not pinned in "
                      f"{manifest_rel}; bump kSnapshotFormatVersion and "
                      "run --update-snapshot-manifest")
        elif recorded[key] != rec["hash"]:
            flag(rec, f"serialized layout of '{key}' changed but "
                      "kSnapshotFormatVersion did not; old snapshots "
                      "would be reinterpreted, not rejected -- bump it "
                      "and run --update-snapshot-manifest")
    for key in sorted(set(recorded) - set(structs)):
        flag(anchor, f"{manifest_rel} pins '{key}' but that saveState() "
                     "definition is gone; bump kSnapshotFormatVersion "
                     "and run --update-snapshot-manifest")


def collect_snapshot_state(paths, config, repo_root):
    """(save_states, versions) for --update-snapshot-manifest."""
    save_states, versions = [], []
    for f in iter_files(paths, config, repo_root):
        raw = f.read_text(errors="replace")
        stripped = strip_code(raw)
        waivers, _ = parse_waivers(raw.splitlines())
        scan_save_states(f, stripped, waivers, lambda rule: True,
                         save_states)
        scan_snapshot_versions(f, stripped, waivers, versions)
    return save_states, versions


def update_snapshot_manifest(config, repo_root):
    """Regenerate tools/snapshot_manifest.json at the tree's current
    format version. Refuses while layouts changed under an unchanged
    version: the bump is the point of the rule."""
    paths = [repo_root / r for r in config["roots"]]
    save_states, versions = collect_snapshot_state(paths, config,
                                                   repo_root)
    if not versions:
        print("hh-lint: no kSnapshotFormatVersion in the tree; "
              "nothing to pin", file=sys.stderr)
        return 2
    current = versions[0]["value"]
    structs = {key: rec["hash"] for key, rec in
               snapshot_struct_map(save_states, repo_root).items()}
    manifest_path = repo_root / "tools" / "snapshot_manifest.json"
    if manifest_path.exists():
        try:
            old = json.loads(manifest_path.read_text())
        except (OSError, json.JSONDecodeError):
            old = None
        if (old is not None and old.get("version") == current
                and old.get("structs") != structs):
            print("hh-lint: refusing to re-pin: serialized layouts "
                  "changed but kSnapshotFormatVersion is still "
                  f"{current}; bump it in src/snapshot/"
                  "snapshot_format.h first", file=sys.stderr)
            return 2
    manifest_path.write_text(json.dumps(
        {"version": current, "structs": dict(sorted(structs.items()))},
        indent=2) + "\n")
    print(f"hh-lint: pinned {len(structs)} serialized layout(s) at "
          f"format version {current} in "
          f"{relpath(manifest_path, repo_root)}")
    return 0


def run_lint(paths, config, repo_root):
    findings = []
    fault_registry = load_fault_registry(repo_root)
    site_uses = {}
    save_states = []
    versions = []
    for f in iter_files(paths, config, repo_root):
        rel = relpath(f, repo_root)

        def enabled_for(rule, rel=rel):
            return not any(rel.startswith(prefix)
                           for prefix in config["allow"].get(rule, []))

        for finding in lint_file(f, enabled_for, fault_registry,
                                 site_uses, save_states, versions):
            finding.path = rel
            findings.append(finding)
    check_snapshot_manifest(paths, config, repo_root, save_states,
                            versions, findings)
    for name in sorted(site_uses):
        uses = site_uses[name]
        first = f"{relpath(uses[0][0], repo_root)}:{uses[0][1]}"
        for path, line in uses[1:]:
            findings.append(Finding(
                relpath(path, repo_root), line, "fault-site",
                f"FaultSite '{name}' is already consumed at {first}; "
                "each site identifies exactly one injection point"))
    return findings


def self_test(fixture_dir, repo_root):
    """Assert each rule fires exactly where its fixture says it should."""
    config = {"roots": [], "extensions": [".h", ".hh", ".cc", ".cpp"],
              "exclude": [], "allow": {}}
    expected = set()
    for f in iter_files([fixture_dir], config, repo_root):
        rel = relpath(f, repo_root)
        for lineno, line in enumerate(
                f.read_text(errors="replace").splitlines(), start=1):
            m = EXPECT_RE.search(line)
            if m:
                for rule in m.group(1).split(","):
                    rule = rule.strip()
                    if rule not in RULES:
                        print(f"self-test: {rel}:{lineno} names unknown "
                              f"rule '{rule}'", file=sys.stderr)
                        return 2
                    expected.add((rel, lineno, rule))
    actual = {f.key() for f in run_lint([fixture_dir], config, repo_root)}
    missing = expected - actual
    surprise = actual - expected
    for path, line, rule in sorted(missing):
        print(f"self-test: MISSING  {path}:{line}: [{rule}] did not fire")
    for path, line, rule in sorted(surprise):
        print(f"self-test: SURPRISE {path}:{line}: [{rule}] fired "
              "without an // expect marker")
    uncovered = set(RULES) - {rule for _, _, rule in expected}
    for rule in sorted(uncovered):
        print(f"self-test: UNCOVERED rule [{rule}] has no fixture")
    if missing or surprise or uncovered:
        return 1
    print(f"self-test: ok ({len(expected)} expectations, "
          f"all {len(RULES)} rules covered)")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(prog="hh-lint", description=__doc__)
    parser.add_argument("paths", nargs="*",
                        help="files/dirs to lint (default: config roots)")
    parser.add_argument("--config", default=None,
                        help="path to .hh-lint.toml")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text")
    parser.add_argument("--report", default=None,
                        help="also write a JSON findings report here")
    parser.add_argument("--self-test", metavar="FIXTURE_DIR",
                        help="run the rule fixtures instead of linting")
    parser.add_argument("--update-snapshot-manifest", action="store_true",
                        help="re-pin saveState() layout hashes in "
                             "tools/snapshot_manifest.json (requires a "
                             "kSnapshotFormatVersion bump when layouts "
                             "changed)")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    repo_root = Path(__file__).resolve().parent.parent

    if args.list_rules:
        for rule, message in RULES.items():
            print(f"{rule}: {message}")
        return 0

    if args.self_test:
        return self_test(Path(args.self_test), repo_root)

    config_path = args.config
    if config_path is None:
        default = repo_root / ".hh-lint.toml"
        config_path = default if default.exists() else None
    config = load_config(config_path)

    if args.update_snapshot_manifest:
        return update_snapshot_manifest(config, repo_root)

    paths = args.paths or [repo_root / r for r in config["roots"]]
    findings = run_lint(paths, config, repo_root)
    findings.sort(key=Finding.key)

    payload = report_payload("hh-lint", findings, RULE_IDS)
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for f in findings:
            print(f)
        print(f"hh-lint: {len(findings)} finding(s)")
    if args.report:
        Path(args.report).write_text(json.dumps(payload, indent=2) + "\n")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
