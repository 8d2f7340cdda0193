"""Run the test suite in process under a line trace of src/fusionring.

    python tests/line_reach.py

Every executable line of the package (the lines of its code objects, by
co_lines) must be reached by some test, or be on ALLOWED with its reason.
The script prints each unreached line that is not allowed, each allowed
line that was reached after all and each allowance whose text names more
than one line of its function, and exits 1 if there is any, or if the
tests fail. It runs the whole suite, the only set of tests whose reach
means anything, with Hypothesis on a fixed seed and without its example
database, so that every run draws the same examples. It needs Python 3.10
or later and nothing but the standard library, pytest and Hypothesis.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fusionring"

#: (file, function, line text) of each line no test reaches, and why
ALLOWED = {
    ("classify.py", "find_ising_subring",
     'raise AssertionError("Ising detectors disagree on a supposedly valid ring")'):
        "an internal invariant: the three Ising detectors are proved to agree",
    ("numerics.py", "fp_dimensions", 'raise ConvergenceError("power iteration did not converge")'):
        "an internal invariant: the iteration stops at the rounding floor well inside its cap",
}


def code_lines(code: CodeType) -> set[int]:
    """The source lines of code's own instructions (a module starts at line 0)."""
    return {line for _, _, line in code.co_lines() if line}


def executable_lines(path: Path) -> dict[int, str]:
    """Line number -> qualified name of the innermost function holding it."""
    lines: dict[int, str] = {}
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        # inner code objects come off the stack after the ones holding them
        for line in code_lines(code):
            lines[line] = getattr(code, "co_qualname", code.co_name)
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


class LineTrace:
    """The lines of files under one directory that run, by sys.settrace.

    A code object is traced until each of its lines has run once; calls into
    it stop costing a local trace from then on.
    """

    def __init__(self, directory: Path):
        self.prefix = str(directory) + "/"
        self.reached: dict[str, set[int]] = {}
        self.pending: dict[CodeType, set[int]] = {}

    def __call__(self, frame, event, arg):
        code = frame.f_code
        pending = self.pending.get(code)
        if pending is None:
            if not code.co_filename.startswith(self.prefix):
                return None
            pending = self.pending[code] = code_lines(code)
        if not pending:
            return None
        reached = self.reached.setdefault(code.co_filename, set())

        def local(frame, event, arg):
            line = frame.f_lineno
            reached.add(line)
            pending.discard(line)
            return local if pending else None

        return local(frame, event, arg)


def main() -> int:
    trace = LineTrace(PACKAGE)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    unreached = []
    copies: Counter[tuple[str, str, str]] = Counter()
    for path in sorted(PACKAGE.rglob("*.py")):
        file = path.relative_to(PACKAGE).as_posix()
        text = path.read_text(encoding="utf-8").splitlines()
        reached = trace.reached.get(str(path), set())
        for line, function in sorted(executable_lines(path).items()):
            key = (file, function, text[line - 1].strip())
            copies[key] += 1
            if line not in reached:
                unreached.append((*key, line))
    missed = [u for u in unreached if u[:3] not in ALLOWED]
    stale = sorted(set(ALLOWED) - {u[:3] for u in unreached})
    ambiguous = sorted(key for key in ALLOWED if copies[key] > 1)
    for file, function, text, line in missed:
        print(f"unreached: {file}:{line} in {function}: {text}")
    for file, function, text in stale:
        print(f"allowed but reached or gone: {file} in {function}: {text}")
    for file, function, text in ambiguous:
        print(f"allowed text names {copies[file, function, text]} lines: {file} in {function}: {text}")
    print(f"line reach: {len(unreached)} unreached, {len(unreached) - len(missed)} allowed, "
          f"{len(missed)} not allowed, {len(stale)} stale allowances, {len(ambiguous)} ambiguous allowances")
    if status != 0:
        print(f"the tests failed (pytest exit status {int(status)})")
    return 1 if missed or stale or ambiguous or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
