"""Programs padded with renamed copies of their own functions, to measure how
slicing grows with program length while the slice stays the same.

``padded(program, k, spare)`` appends ``k`` copies of every function of
``program`` but ``spare``, in program order, each after a blank line.  Copy
``j`` renames every function it defines or calls, ``f`` to ``f_pad<j>``, so
the padded program still parses and no test calls a copy.
"""

from __future__ import annotations

import re

from reducto.parser import parse
from reducto.source import SourceProgram


def padded(program: SourceProgram, k: int, spare: str) -> SourceProgram:
    functions = [fn for fn in parse(program).functions.values() if fn.name != spare]
    called = re.compile(r"\b(%s)\b(?=\s*\()" % "|".join(fn.name for fn in functions))
    lines = list(program.lines)
    for j in range(1, k + 1):
        for fn in functions:
            lines.append("")
            lines += [called.sub(rf"\1_pad{j}", line) for line in fn.text]
    return SourceProgram(tuple(lines), program.id)
