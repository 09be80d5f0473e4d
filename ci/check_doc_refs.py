#!/usr/bin/env python3
"""Fail on a pointer to a Markdown document that does not exist.

Scans the sources (src/, bench/, tests/, examples/, ci/), README.md,
ROADMAP.md and the verify skill for every `<name>.md` they mention, and
exits non-zero when one names no file. A name resolves against the
repository root, then against the mentioning file's directory; a bare name
(no directory) also resolves to a file of that name anywhere in the
repository. Build directories are not searched.

    python3 ci/check_doc_refs.py [repo_root]
"""

import os
import re
import sys

SCANNED_DIRS = ("src", "bench", "tests", "examples", "ci")
SCANNED_FILES = ("README.md", "ROADMAP.md", ".claude/skills/verify/SKILL.md")
DOC_REF = re.compile(r"[A-Za-z0-9_.\-/]*[A-Za-z0-9_\-]\.md\b")


def skipped_dir(name):
    return name == ".git" or name.startswith("build") or name == ".bench_build"


def walk_files(root, top):
    for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
        dirnames[:] = sorted(d for d in dirnames if not skipped_dir(d))
        for name in sorted(filenames):
            yield os.path.join(dirpath, name)


def main():
    root = os.path.abspath(
        sys.argv[1] if len(sys.argv) > 1 else os.path.join(os.path.dirname(__file__), ".."))
    basenames = {os.path.basename(path) for path in walk_files(root, ".")}

    scanned = [path for top in SCANNED_DIRS for path in walk_files(root, top)]
    scanned += [os.path.join(root, name) for name in SCANNED_FILES
                if os.path.isfile(os.path.join(root, name))]

    missing = []
    checked = 0
    for path in scanned:
        try:
            with open(path, encoding="utf-8") as f:
                lines = f.readlines()
        except (UnicodeDecodeError, OSError):
            continue  # binaries and unreadable files name no document
        for lineno, line in enumerate(lines, 1):
            for name in DOC_REF.findall(line):
                checked += 1
                if (os.path.exists(os.path.join(root, name))
                        or os.path.exists(os.path.join(os.path.dirname(path), name))
                        or ("/" not in name and name in basenames)):
                    continue
                missing.append(f"{os.path.relpath(path, root)}:{lineno}: {name}")

    for entry in missing:
        print(f"missing document: {entry}")
    print(f"{checked} document reference(s) checked, {len(missing)} missing")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
