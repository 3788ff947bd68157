"""Spectrum-based fault localization with Ochiai scoring.

Spectra are read from suite runs made elsewhere; this module executes
nothing.  They are binary per test: a test contributes at most one
execution to a line no matter how many times the line ran.  Scores rank
into a suspicious list; list variants derived from a slice either prune
the original list to surviving lines or regenerate from scratch on the
sliced program, and both are expressed in original-program coordinates so
the three lists stay comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .harness import SuiteResult
from .slicer import LineMapping

@dataclass(frozen=True)
class CoverageSpectrum:
    failed_total: int
    passed_total: int
    executed_failed: dict  # line -> count of failing tests covering it
    executed_passed: dict  # line -> count of passing tests covering it

    def lines(self) -> list[int]:
        return sorted(set(self.executed_failed) | set(self.executed_passed))

    def counts(self, line: int) -> tuple[int, int, int, int]:
        """(e_f, e_p, n_f, n_p) for one line."""
        e_f = self.executed_failed.get(line, 0)
        e_p = self.executed_passed.get(line, 0)
        return e_f, e_p, self.failed_total - e_f, self.passed_total - e_p


@dataclass(frozen=True)
class RankedLine:
    line: int
    score: float
    rank: int


@dataclass(frozen=True)
class SuspiciousList:
    entries: tuple[RankedLine, ...]

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def rank_of(self, line: int) -> Optional[int]:
        """Rank of a line, or None when the line is absent (NotInList)."""
        for entry in self.entries:
            if entry.line == line:
                return entry.rank
        return None


def collect_spectrum(result: SuiteResult) -> CoverageSpectrum:
    """Tally per-line coverage over the pass/fail partition of a suite run."""
    failing = set(result.failing)
    e_f: dict = {}
    e_p: dict = {}
    for test_id, outcome in result.outcomes.items():
        tally = e_f if test_id in failing else e_p
        for line in outcome.covered:
            tally[line] = tally.get(line, 0) + 1
    return CoverageSpectrum(
        failed_total=len(result.failing),
        passed_total=len(result.passing),
        executed_failed=e_f,
        executed_passed=e_p,
    )


def ochiai(spectrum: CoverageSpectrum) -> dict:
    """score(s) = e_f / sqrt((e_f + n_f) * (e_f + e_p)); 0 on a zero denominator."""
    scores = {}
    for line in spectrum.lines():
        e_f, e_p, n_f, _ = spectrum.counts(line)
        denom = math.sqrt((e_f + n_f) * (e_f + e_p))
        scores[line] = (e_f / denom) if denom > 0.0 else 0.0
    return scores


def rank(scores: dict) -> SuspiciousList:
    """Descending score, ties broken by ascending line, zero scores dropped,
    ranks dense from 1."""
    ordered = sorted(
        ((line, score) for line, score in scores.items() if score > 0.0),
        key=lambda pair: (-pair[1], pair[0]),
    )
    entries = tuple(
        RankedLine(line, score, i) for i, (line, score) in enumerate(ordered, start=1)
    )
    return SuspiciousList(entries)


def localize(result: SuiteResult) -> SuspiciousList:
    """The original list L from the suite run on the original program:
    spectrum, Ochiai, rank."""
    return rank(ochiai(collect_spectrum(result)))


def prune_list(original: SuspiciousList, mapping: LineMapping) -> SuspiciousList:
    """Keep entries whose line survived slicing; order preserved, ranks
    re-densified."""
    survivors = set(mapping.original_lines())
    kept = [e for e in original.entries if e.line in survivors]
    entries = tuple(
        RankedLine(e.line, e.score, i) for i, e in enumerate(kept, start=1)
    )
    return SuspiciousList(entries)


def regenerate_list(on_slice: SuiteResult, mapping: LineMapping) -> SuspiciousList:
    """Fresh localization from the reduced suite run on the slice,
    translated back to original coordinates.  Every failing test of the
    original fails in that run as it did on the original, as
    ``BundleArtifacts`` checks before it derives the list."""
    ranked = rank(ochiai(collect_spectrum(on_slice)))
    entries = tuple(
        RankedLine(mapping.to_original(e.line), e.score, e.rank) for e in ranked.entries
    )
    return SuspiciousList(entries)


def suspicious_json(suspicious: SuspiciousList) -> list:
    return [
        {"line": e.line, "score": e.score, "rank": e.rank} for e in suspicious.entries
    ]

