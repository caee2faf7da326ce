#!/usr/bin/env python3
"""List the lines of src/msrisk that the tier-1 suite never runs.

    python3 tools/line_coverage.py

Runs `pytest -q tests` in this interpreter with a line tracer installed
through sys.settrace and threading.settrace, and records every line of
src/msrisk/*.py that runs.  A file's executable lines are those that its
compiled code objects (the module's and, recursively, every nested one)
map an instruction to through co_lines().  Each executable line that did
not run is printed as `file:line  source`.  Code run in a child process
(the CLI and demo tests that start a fresh interpreter) is not seen.

The exit status is pytest's when the suite fails, else 1 when an unreached
line is not on ALLOWED, else 0.  ALLOWED is keyed on the file name and the
line's stripped source text, not its number, so edits elsewhere in a file
do not move it, and it gives the reason no tier-1 test can reach the line.
Besides pytest, which runs the suite, it needs only the standard library.
It takes about half again the suite's own time.
"""
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "msrisk"

ALLOWED = {
    ("cli.py", "sys.exit(main())"):
        "the `python -m msrisk.cli` entry point; tests call main() in process",
}


def executable_lines(path: Path) -> set:
    """Line numbers that some instruction of path's compiled code maps to."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_suite(prefix: str) -> tuple:
    """pytest's exit code and the (file, line) pairs run under prefix."""
    import pytest

    seen = set()

    def local(frame, event, arg):
        seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            return local(frame, event, arg)
        return None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), seen


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    code, seen = run_suite(str(SRC) + "/")
    if code:
        print(f"tier-1 failed (pytest exit {code}); coverage not judged")
        return code
    unreached, disallowed = 0, 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path)):
            if (str(path), line) in seen:
                continue
            text = source[line - 1].strip()
            reason = ALLOWED.get((path.name, text))
            unreached += 1
            disallowed += reason is None
            note = f"   [allowed: {reason}]" if reason else ""
            print(f"{path.name}:{line}  {text}{note}")
    print(f"{unreached} unreached line(s), {disallowed} not allowed")
    return 1 if disallowed else 0


if __name__ == "__main__":
    sys.exit(main())
