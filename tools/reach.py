"""List the functions of qflow that no shipped run reaches.

  python3 tools/reach.py

Run from anywhere; qflow is imported from this checkout's ``src/``.  Every
config in ``configs/`` and ``perfbench/configs/smallness-128.cfg`` goes
through ``qflow.cli.parse_config`` and ``run_experiment`` (SVG output on, as
``qflow run`` writes it) into a temporary directory, under a
``sys.setprofile`` hook that records each Python function called.  The
output is one line per named function or method defined in ``src/qflow``
that no run called, as ``<module>.<qualified name>`` in source order;
lambdas and comprehensions are left out.  The runs take about 6 s, hook
included, on a 2-vCPU Xeon.  Needs Python 3.11 or later (``co_qualname``).
"""

import inspect
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from qflow import cli  # noqa: E402

PACKAGE = ROOT / "src" / "qflow"
CONFIGS = sorted((ROOT / "configs").glob("*.cfg")) + [
    ROOT / "perfbench" / "configs" / "smallness-128.cfg"]


def _defined(path: Path):
    """(qualified name, first line) of every named function in a source file;
    class bodies and module code have no CO_NEWLOCALS flag."""
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
            yield code.co_qualname, code.co_firstlineno


def main() -> int:
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno, code.co_name))

    sys.setprofile(hook)
    try:
        for path in CONFIGS:
            with tempfile.TemporaryDirectory() as out:
                cli.run_experiment(cli.parse_config(path.read_text()), out)
    finally:
        sys.setprofile(None)

    for path in sorted(PACKAGE.glob("*.py")):
        filename = str(path)
        unreached = [(line, name) for name, line in _defined(path)
                     if (filename, line, name.rsplit(".", 1)[-1]) not in called]
        for line, name in sorted(unreached):
            print(f"{path.stem}.{name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
