"""Source text handling: line-addressed programs and SLoC counting."""

from __future__ import annotations

from dataclasses import dataclass


def is_blank(line: str) -> bool:
    return line.strip() == ""


def is_comment(line: str) -> bool:
    return line.lstrip().startswith("#")


@dataclass(frozen=True)
class SourceProgram:
    """An ordered sequence of raw source lines, addressed 1-based.

    Line numbers are stable: line ``k`` here is line ``k`` in every
    diagnostic and coverage set produced from this program.
    """

    lines: tuple[str, ...]
    id: str = "program"

    def __post_init__(self):
        object.__setattr__(self, "lines", tuple(self.lines))
        text = "".join(self.lines)
        if "\n" in text or "\r" in text:
            raise ValueError("source lines must not contain line breaks")

    @classmethod
    def from_text(cls, text: str, id: str = "program") -> "SourceProgram":
        if text == "":
            return cls((), id)
        if text.endswith("\n"):
            text = text[:-1]
        return cls(tuple(text.split("\n")), id)

    def to_text(self) -> str:
        if not self.lines:
            return ""
        return "\n".join(self.lines) + "\n"

    def line(self, number: int) -> str:
        """1-based line access."""
        return self.lines[number - 1]

    def __len__(self) -> int:
        return len(self.lines)


def count_sloc(program: SourceProgram) -> int:
    """Number of lines that are neither blank nor comment-only."""
    return sum(
        1 for line in program.lines if not is_blank(line) and not is_comment(line)
    )
