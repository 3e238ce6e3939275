"""The ``format`` pass family: whitespace and line hygiene.

Pure text checks, no AST needed, applied to every analyzed file:
syntax errors (emitted by the engine under this family's REPRO001),
tab characters, trailing whitespace, over-long lines, and a missing
trailing newline. The CI lint job runs exactly this family with
``python tools/analyze.py --select REPRO001,...,REPRO005``.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from ..engine import AnalysisContext, AnalysisPass, SourceFile

#: Maximum allowed line length, as in the original lint gate.
MAX_LINE = 100

#: The codes of this family, for shims that select just these rules.
FORMAT_CODES = ("REPRO001", "REPRO002", "REPRO003", "REPRO004", "REPRO005")


class FormatPass(AnalysisPass):
    """Whitespace and line-length hygiene for every Python file."""

    name = "format"
    codes = {
        "REPRO001": "file must parse (syntax error)",
        "REPRO002": "tab character (use spaces)",
        "REPRO003": "trailing whitespace",
        "REPRO004": f"line longer than {MAX_LINE} columns",
        "REPRO005": "missing trailing newline",
    }
    scope = ()              # every file, not just repro.* modules
    requires_ast = False    # text checks still run on unparsable files

    def check(self, source: SourceFile,
              context: AnalysisContext) -> Iterator[Tuple[int, str, str]]:
        if source.text and not source.ends_with_newline:
            yield (len(source.lines), "REPRO005", "missing trailing newline")
        for number, line in enumerate(source.lines, start=1):
            if "\t" in line:
                yield (number, "REPRO002", "tab character")
            if line != line.rstrip():
                yield (number, "REPRO003", "trailing whitespace")
            if len(line) > MAX_LINE:
                yield (number, "REPRO004",
                       f"line too long ({len(line)} > {MAX_LINE})")
