"""The executable lines of ``src/trigroup`` that the test suite never runs.

    PYTHONPATH=src python tests/line_census.py [pytest arguments]

Runs pytest in this process under a ``sys.settrace`` line recorder, then
prints every executable line of the package's modules that no test ran, as
``module.py:line``, and a count.  Lines run only in child processes are not
seen.  Importing this module does nothing: ``--doctest-modules`` imports
every module under ``tests/``.
"""

import os
import sys


def executable_lines(path: str) -> set[int]:
    with open(path) as fh:
        stack, lines = [compile(fh.read(), path, "exec")], set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(args: list[str]) -> int:
    import pytest

    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "trigroup")
    paths = sorted(os.path.realpath(os.path.join(src, f)) for f in os.listdir(src)
                   if f.endswith(".py"))
    ran: dict[str, set[int]] = {path: set() for path in paths}
    by_name: dict[str, set[int] | None] = {}

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            by_name[name] = ran.get(os.path.realpath(name))
        hit = by_name[name]
        if hit is None:
            return None

        def record(frame, event, arg):
            if event == "line":
                hit.add(frame.f_lineno)
            return record

        return record

    sys.settrace(trace)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    missed = total = 0
    for path in paths:
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines - ran[path]):
            print(f"{os.path.basename(path)}:{line}")
            missed += 1
    print(f"{missed} of {total} executable lines never run")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
