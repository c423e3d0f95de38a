#!/usr/bin/env python3
"""Regression tests for scripts/lint.sh.

The lint script is seven grep rules; a refactor that silently breaks one of
the patterns would keep exiting 0 forever. These tests copy the *real*
scripts/lint.sh into a scratch repo, seed one known-bad file per rule, and
assert that each rule still fires (and that a clean tree still passes).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.realpath(os.path.join(TESTS_DIR, "..", "..", ".."))
LINT = os.path.join(REPO_ROOT, "scripts", "lint.sh")

# One seeded violation per lint rule, with the message fragment the rule
# prints when it fires.
BAD_FILES = {
    "src/core/bad_lock.cc": (
        "#include <mutex>\nstd::mutex raw_mu;\n",
        "raw std locking"),
    "src/core/bad_metric.cc": (
        'const char* kName = "txrep_bogus_total";\n',
        "metric name literals"),
    "src/core/bad_io.cc": (
        '#include <cstdio>\nvoid F() { std::fopen("/tmp/x", "rb"); }\n',
        "direct file I/O"),
    "src/core/txn_buffer.cc": (
        'void G(Node* node) { node->Put("k", "v"); }\n',
        "per-op Put/Delete on the apply path"),
    "src/core/bad_span.cc": (
        'const char* kSpan = "span.bogus";\n',
        "span name literals"),
    "src/mw/bad_socket.cc": (
        "#include <sys/socket.h>\n"
        "int F() { return socket(AF_INET, SOCK_STREAM, 0); }\n",
        "socket syscalls"),
    "src/qt/bad_version_peek.cc": (
        "uint64_t F(txrep::blink::OptLatch& l) { return l.RawVersionWord(); }\n",
        "raw version-word"),
}

# The per-op rule greps an explicit file list; a clean tree still provides
# those files so the rule runs against real content.
APPLY_PATH_FILES = [
    "src/core/txn_buffer.cc", "src/core/serial_applier.cc",
    "src/core/ticket_applier.cc", "src/core/transaction_manager.cc",
    "src/txrep/bootstrap.cc",
]

failures = []


def check(name: str, cond: bool, detail: str = "") -> None:
    print(f"  [{'ok' if cond else 'FAIL'}] {name}"
          + (f": {detail}" if not cond and detail else ""))
    if not cond:
        failures.append(name)


def make_tree() -> str:
    root = tempfile.mkdtemp(prefix="txrep-lint-regression-")
    os.makedirs(os.path.join(root, "scripts"))
    shutil.copyfile(LINT, os.path.join(root, "scripts", "lint.sh"))
    os.chmod(os.path.join(root, "scripts", "lint.sh"), 0o755)
    for rel in APPLY_PATH_FILES:
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write("// clean\n")
    return root


def run_lint(root: str):
    return subprocess.run([os.path.join(root, "scripts", "lint.sh")],
                          capture_output=True, text=True)


def main() -> int:
    # Clean scratch tree: lint passes.
    root = make_tree()
    try:
        proc = run_lint(root)
        check("clean tree passes", proc.returncode == 0,
              proc.stdout + proc.stderr)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    # Each seeded violation fires its rule — and only its rule.
    for rel, (content, fragment) in sorted(BAD_FILES.items()):
        root = make_tree()
        try:
            path = os.path.join(root, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(content)
            proc = run_lint(root)
            check(f"{rel}: lint fails", proc.returncode != 0, proc.stdout)
            check(f"{rel}: mentions '{fragment}'",
                  fragment in proc.stdout, proc.stdout)
        finally:
            shutil.rmtree(root, ignore_errors=True)

    if failures:
        print(f"FAILED: {len(failures)} case(s): {failures}")
        return 1
    print("all lint regression tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
