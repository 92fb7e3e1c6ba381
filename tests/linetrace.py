"""Opt-in pytest plugin: fail the session if a line of `src/zslkit` never runs.

    PYTHONPATH=src:tests python -m pytest -q -p linetrace

It records, with `sys.settrace`, the lines that run in the package's files,
and compares them with the lines that the compiler gives bytecode. Every
executable line must run at least once, except the console-script body
`cli.entry` and the `__main__` guard, which only an installed script or
`python -m` runs. Standard library only; never loaded by default.
"""

import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "zslkit"
EXEMPT_FUNCTIONS = {("cli.py", "entry")}  # (file, function) pairs
MAIN_GUARD = 'if __name__ == "__main__":'


def executable_lines(path: Path) -> set[int]:
    """The lines of the file's code objects that carry bytecode, without the
    exempt functions' bodies and everything from the `__main__` guard on."""
    source = path.read_text(encoding="utf-8")
    lines, stack = set(), [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        if (path.name, code.co_name) in EXEMPT_FUNCTIONS:
            continue
        # A module's code starts with an instruction at line 0 (or None).
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    source_lines = source.splitlines()
    if MAIN_GUARD in source_lines:
        lines = {n for n in lines if n <= source_lines.index(MAIN_GUARD)}
    return lines


class LineTrace:
    """The package lines that run between its creation and the session's end."""

    def __init__(self):
        self.ran = {path: set() for path in PACKAGE.glob("*.py")}
        self.missing: list[str] = []  # `file:line: text` of each line never run
        by_name = {}  # co_filename -> its set in self.ran, or None

        def trace_lines(frame, event, arg):
            if event == "line":
                by_name[frame.f_code.co_filename].add(frame.f_lineno)
            return trace_lines

        def trace_calls(frame, event, arg):
            # Only the package's frames get a line tracer.
            name = frame.f_code.co_filename
            if name not in by_name:
                by_name[name] = self.ran.get(Path(name).resolve())
            return None if by_name[name] is None else trace_lines

        sys.settrace(trace_calls)

    def pytest_sessionfinish(self, session):
        sys.settrace(None)
        for path, ran in sorted(self.ran.items()):
            text = path.read_text(encoding="utf-8").splitlines()
            self.missing.extend(f"{path.name}:{n}: {text[n - 1].strip()}"
                                for n in sorted(executable_lines(path) - ran))
        if self.missing and session.exitstatus == 0:
            session.exitstatus = 1

    def pytest_terminal_summary(self, terminalreporter):
        terminalreporter.write_sep("-", f"linetrace: {len(self.missing)} executable "
                                        f"line(s) of src/zslkit never ran")
        for line in self.missing:
            terminalreporter.write_line(line)


def pytest_configure(config):
    config.pluginmanager.register(LineTrace(), "linetrace-session")
