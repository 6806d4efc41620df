"""Line coverage of `src/cswp` by the test suite, with the standard library
only (the `coverage` package is not a dependency).

    python tests/linecov.py [pytest arguments]

Runs pytest in this process (by default on the whole suite, quietly) under a
`sys.settrace` hook that records every line executed in `src/cswp`, then
prints each executable line that never ran as `path:line: source`, and a
total. A file's executable lines are the line numbers of every code object
compiled from it. Code run in a subprocess (the start-up tests) is not seen.
The exit status is pytest's. This file is not a test module: pytest does not
collect it, and it is no part of the tier-1 run. The hook slows the suite
down about twofold.
"""

from __future__ import annotations

import os
import sys
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "cswp")


def executable_lines(path: str) -> set[int]:
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines, stack = set(), [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, _, line in co.co_lines() if line)
        stack.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return lines


def main(args: list[str]) -> int:
    import pytest

    ran: dict[str, set[int]] = {}  # source file -> lines seen
    ours: dict[str, set[int] | None] = {}  # co_filename -> its set in `ran`, None outside src/cswp

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in ours:
            path = os.path.realpath(filename)
            ours[filename] = ran.setdefault(path, set()) if os.path.dirname(path) == SRC else None
        seen = ours[filename]
        if seen is None:
            return None
        seen.add(frame.f_lineno)  # a call event: the def line, or where a generator resumes

        def line(frame, event, arg):
            seen.add(frame.f_lineno)
            return line

        return line

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(args or ["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        lines = executable_lines(path)
        with open(path, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        total += len(lines)
        for number in sorted(lines - ran.get(path, set())):
            missed += 1
            print(f"{os.path.relpath(path, ROOT)}:{number}: {source[number - 1].strip()}")
    print(f"{total - missed} of {total} executable lines in src/cswp ran; {missed} did not")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
