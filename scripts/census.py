#!/usr/bin/env python3
"""Fail when a production crate carries a public item nothing outside tests uses.

The census rule (ROADMAP item 18): a public item (fn, type, const, module,
re-export or named field) of a production crate stays only if a non-test
caller names it -- on a production path, in the frozen `bench/` package, in
the Section 6 reproduction (the `docs-bench` lib, its bins and benches) or
in an example -- or if `scripts/census_keep.txt` lists it with a reason.

The compiler finds the callers, not a grep:

1. Copy the workspace (sources and manifests, no `target/`) to a temp dir.
2. Narrow every `pub` item and named field of the production crates to
   `pub(crate)`; grouped re-exports (`pub use a::{b, c}`) are split into
   one `use` per name first, so each can be restored on its own.
3. Run `cargo check --message-format=json` over the workspace's lib, bin
   and example targets, over each `docs-bench` bench by name (`--benches`
   would also compile the lib's unit tests) and over `bench/` with
   `--locked`. Restore `pub` on every item an error names; repeat until
   all three build.
4. Read rustc's `dead_code` warnings: each is a public item no non-test
   target uses. Exit 1 if one is missing from the keep list, or if the keep
   list names an item that is no longer dead (its row is stale).

  python3 scripts/census.py

Takes a few minutes: every round rechecks the crates it touched. Cargo
honours CARGO_TARGET_DIR as usual; by default the build goes under the
temp dir and is deleted with it.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KEEP = os.path.join(ROOT, "scripts", "census_keep.txt")

# The production crates: everything under crates/ except the vendored
# third-party subsets and docs-bench (the Section 6 harness, a caller).
PRODUCTION = [
    "docs-baselines",
    "docs-core",
    "docs-crowd",
    "docs-datasets",
    "docs-kb",
    "docs-obs",
    "docs-replication",
    "docs-scenarios",
    "docs-service",
    "docs-storage",
    "docs-system",
    "docs-topics",
    "docs-types",
]

ITEM_KW = r"(?:(?:const|async|unsafe|extern(?:\s+\"[^\"]*\")?)\s+)*(?:fn|struct|enum|union|trait|type|const|static|mod)\b"
ITEM = re.compile(r"^(\s*)pub\s+(?=" + ITEM_KW + ")")
FIELD = re.compile(r"^(\s*)pub\s+(?=(?:r#)?[A-Za-z_]\w*\s*:(?!:))")
USE_START = re.compile(r"^(\s*)pub\s+use\b")
DEF_NAME = r"(?:fn|struct|enum|union|trait|type|const|static|mod)\s+{}\b"


# --- narrowing -------------------------------------------------------------


def flatten_use(tree):
    """`a::{b, c::{d as e}, self}` -> ["a::b", "a::c::d as e", "a"]."""
    tokens = re.findall(r"::|[{},*]|\bas\b|[A-Za-z_]\w*", tree)
    pos = 0

    def parse(prefix):
        nonlocal pos
        out = []
        path = list(prefix)
        while pos < len(tokens):
            tok = tokens[pos]
            if tok == "{":
                pos += 1
                while tokens[pos] != "}":
                    out.extend(parse(path))
                    if tokens[pos] == ",":
                        pos += 1
                pos += 1
                return out
            if tok in (",", "}"):
                break
            pos += 1
            if tok == "::":
                continue
            if tok == "as":
                path[-1] += " as " + tokens[pos]
                pos += 1
                continue
            if tok == "self" and path:
                continue
            path.append(tok)
        out.append("::".join(path))
        return out

    return parse([])


def narrow(path):
    """Narrows one file in place; returns the 1-based lines it narrowed."""
    with open(path) as f:
        lines = f.read().split("\n")
    out, narrowed = [], set()
    i = 0
    while i < len(lines):
        line = lines[i]
        m = USE_START.match(line)
        if m and "*" not in line:
            stmt = line
            while not stmt.rstrip().endswith(";"):
                i += 1
                stmt += " " + lines[i].strip()
            tree = stmt[m.end():].strip().rstrip(";")
            for leaf in flatten_use(tree):
                out.append(f"{m.group(1)}pub(crate) use {leaf};")
                narrowed.add(len(out))
            i += 1
            continue
        m = ITEM.match(line) or FIELD.match(line)
        if m:
            line = m.group(1) + "pub(crate) " + line[m.end():]
            narrowed.add(len(out) + 1)
        out.append(line)
        i += 1
    with open(path, "w") as f:
        f.write("\n".join(out))
    return narrowed


# --- restoring -------------------------------------------------------------


class Tree:
    def __init__(self, root):
        self.root = root
        self.narrowed = {}  # abs path -> set of narrowed line numbers
        self.lines = {}
        self.dirty = set()
        self.restored = set()  # (path, line) pairs restored so far

    def narrow_all(self):
        for crate in PRODUCTION:
            src = os.path.join(self.root, "crates", crate, "src")
            for dirpath, _, files in os.walk(src):
                for name in files:
                    if name.endswith(".rs"):
                        p = os.path.join(dirpath, name)
                        self.narrowed[p] = narrow(p)

    def text(self, path):
        if path not in self.lines:
            with open(path) as f:
                self.lines[path] = f.read().split("\n")
        return self.lines[path]

    def restore(self, path, line):
        if line not in self.narrowed.get(path, ()):
            return False
        text = self.text(path)
        text[line - 1] = text[line - 1].replace("pub(crate) ", "pub ", 1)
        self.narrowed[path].discard(line)
        self.restored.add((path, line))
        self.dirty.add(path)
        return True

    def flush(self):
        for path in self.dirty:
            with open(path, "w") as f:
                f.write("\n".join(self.lines[path]))
        self.dirty = set()

    def restore_named(self, name, files=None):
        """Restores every narrowed definition of `name` (or a macro's `$ident`)."""
        pat = re.compile(r"pub\(crate\) (?:.*\b)?(?:" + DEF_NAME.format(re.escape(name)) + r"|" + DEF_NAME.format(r"\$\w+") + r")")
        use = re.compile(r"pub\(crate\) use .*\b" + re.escape(name) + r";")
        hit = False
        for path, lines in self.narrowed.items():
            if files is not None and path not in files:
                continue
            for n in sorted(lines):
                t = self.text(path)[n - 1]
                if "$" in t and files is None:
                    continue
                if pat.search(t) or use.search(t):
                    hit |= self.restore(path, n)
        return hit

    def restore_field(self, struct, field):
        head = re.compile(r"\b(?:struct|union)\s+" + re.escape(struct) + r"\b")
        hit = False
        for path in list(self.narrowed):
            text = self.text(path)
            for i, t in enumerate(text):
                if not head.search(t) or t.strip().startswith("//"):
                    continue
                depth, opened = 0, False
                for j in range(i, len(text)):
                    if re.match(r"\s*pub(?:\(crate\))? (?:r#)?" + re.escape(field) + r"\s*:", text[j]):
                        hit |= self.restore(path, j + 1) or (path, j + 1) in self.restored
                    depth += text[j].count("{") - text[j].count("}")
                    opened |= "{" in text[j]
                    if (opened and depth <= 0) or text[j].rstrip().endswith(";"):
                        break
        return hit


def spans_of(diag, cwd):
    """Every (abs file, line) a diagnostic, its notes or its macro expansions name."""
    out = []

    def visit(span):
        if span is None:
            return
        name = span["file_name"]
        path = os.path.normpath(name if os.path.isabs(name) else os.path.join(cwd, name))
        out.append((path, span["line_start"]))
        exp = span.get("expansion")
        if exp:
            visit(exp.get("span"))
            visit(exp.get("def_site_span"))

    def walk(d):
        for s in d.get("spans", []):
            visit(s)
        for c in d.get("children", []):
            walk(c)

    walk(diag)
    return out


def crate_files(tree, path):
    """The narrowed files of the production crate `path` belongs to."""
    for crate in PRODUCTION:
        src = os.path.join(tree.root, "crates", crate, "src") + os.sep
        if path.startswith(src):
            return {p for p in tree.narrowed if p.startswith(src)}
    return None


def fix(tree, diag, cwd):
    """Restores what one error needs; False when nothing could be restored."""
    msg = diag["message"]
    hit = False
    # E0616 / E0451: "field(s) `a`, `b` and `c` of struct `S` are private";
    # a `..base` update lists the rest of the fields in a span label.
    m = re.search(r"fields? (.*) of (?:struct|union) `(?:[\w:]+::)?(\w+)(?:<.*>)?` (?:is|are) private", msg)
    if m:
        labels = " ".join(s.get("label") or "" for s in diag.get("spans", []))
        for field in re.findall(r"`(\w+)`", m.group(1) + " " + labels):
            hit |= tree.restore_field(m.group(2), field)
    spans = spans_of(diag, cwd)
    for path, line in spans:
        hit |= tree.restore(path, line)
    # A span on a line an earlier error already restored (the same error
    # reported by another target) is handled: no lookup by name. A
    # re-export of a crate-private item (E0364 / E0365) points at the
    # restored `pub use` itself; its definition is found by name below.
    code = (diag.get("code") or {}).get("code")
    if hit or (code not in ("E0364", "E0365") and any(span in tree.restored for span in spans)):
        return True
    # A re-export of a crate-private item (E0364 / E0365), "type `…` is
    # private", or a definition expanded from a macro: restore by name
    # within the crates the diagnostic points into.
    names = [n.split("<")[0].split("::")[-1] for n in re.findall(r"`([^`]+)`", msg)]
    files = set()
    for path, _ in spans:
        files |= crate_files(tree, path) or set()
    for name in names:
        if re.fullmatch(r"[A-Za-z_]\w*", name):
            hit |= tree.restore_named(name, files or None) or tree.restore_named(name)
    return hit


# --- driving cargo ---------------------------------------------------------


def cargo_check(args, cwd):
    cmd = ["cargo", "check", "--offline", "--keep-going", "--message-format=json"] + args
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    msgs = []
    for line in proc.stdout.splitlines():
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            continue
        if rec.get("reason") == "compiler-message":
            msgs.append(rec["message"])
    if proc.returncode != 0 and not any(m["level"] == "error" for m in msgs):
        sys.exit(f"census: `{' '.join(cmd)}` failed without a compiler error:\n{proc.stderr}")
    return msgs


def bench_names(root):
    out = subprocess.run(
        ["cargo", "metadata", "--offline", "--no-deps", "--format-version", "1"],
        cwd=root, stdout=subprocess.PIPE, check=True, text=True,
    ).stdout
    for pkg in json.loads(out)["packages"]:
        if pkg["name"] == "docs-bench":
            return [t["name"] for t in pkg["targets"] if "bench" in t["kind"]]
    sys.exit("census: no docs-bench package")


def owner_of(diag):
    """The type a dead method or field belongs to, from rustc's secondary span."""
    for span in diag.get("spans", []):
        if span["is_primary"] or not span.get("text"):
            continue
        line = span["text"][0]["text"].strip()
        m = re.match(r"(?:pub(?:\([^)]*\))?\s+)?(?:struct|enum|union|trait)\s+(\w+)", line)
        if m:
            return m.group(1)
        m = re.match(r"impl\b(.*)", line)
        if m:
            rest = m.group(1).strip()
            if rest.startswith("<"):
                depth = 0
                for i, ch in enumerate(rest):
                    depth += {"<": 1, ">": -1}.get(ch, 0)
                    if depth == 0:
                        rest = rest[i + 1 :]
                        break
            rest = rest.split(" for ")[-1]
            m = re.match(r"\s*(?:[\w]+::)*(\w+)", rest)
            if m:
                return m.group(1)
    return None


def dead_items(msgs, tree):
    """{"<crate> <Owner>::<name>"} from rustc's dead_code warnings."""
    out = set()
    for d in msgs:
        if d["level"] != "warning" or (d.get("code") or {}).get("code") != "dead_code":
            continue
        owner = owner_of(d)
        for span in d["spans"]:
            if not span["is_primary"]:
                continue
            path = span["file_name"]
            crate = next((c for c in PRODUCTION if f"crates/{c}/src/" in path), None)
            if crate is None:
                continue
            t = span["text"][0]
            name = t["text"][t["highlight_start"] - 1 : t["highlight_end"] - 1]
            out.add(f"{crate} {owner}::{name}" if owner else f"{crate} {name}")
    return out


def read_keep():
    keep = set()
    with open(KEEP) as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if line:
                keep.add(" ".join(line.split()))
    return keep


def main():
    keep = read_keep()
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        root = os.path.join(tmp, "ws")
        skip = {os.path.join(ROOT, p) for p in ("target", ".git", ".bench_build", "bench/target", "bench/out")}
        shutil.copytree(ROOT, root, ignore=lambda d, names: [n for n in names if os.path.join(d, n) in skip])
        tree = Tree(root)
        tree.narrow_all()
        bench = os.path.join(root, "bench")
        runs = [
            (["--workspace", "--lib", "--bins", "--examples"], root),
            (["-p", "docs-bench"] + [a for b in bench_names(root) for a in ("--bench", b)], root),
            (["--locked", "--lib", "--bins"], bench),
        ]
        for round_no in range(1, 200):
            # An error that names no narrowed item is usually a knock-on of
            # one that does; it must be gone once a round fixes nothing else.
            msgs_all, errors, unmapped = [], 0, []
            for args, cwd in runs:
                msgs = cargo_check(args, cwd)
                msgs_all.extend(msgs)
                for d in msgs:
                    if d["level"] != "error" or d["message"].startswith(("aborting", "could not compile")):
                        continue
                    errors += 1
                    if not fix(tree, d, cwd):
                        unmapped.append(d.get("rendered") or d["message"])
            print(f"census: round {round_no}: {errors} errors", file=sys.stderr)
            if errors == 0:
                break
            if not tree.dirty:
                sys.exit("census: cannot map these errors to a narrowed item:\n" + "\n".join(unmapped))
            tree.flush()
        dead = dead_items(msgs_all, tree)
    unlisted = sorted(dead - keep)
    stale = sorted(keep - dead)
    for item in unlisted:
        print(f"no non-test caller: {item}")
    for item in stale:
        print(f"stale keep row (has a caller or is gone): {item}")
    print(f"census: {len(dead)} dead items, {len(dead & keep)} kept by scripts/census_keep.txt")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
