from __future__ import annotations

import pytest

from reducto.corpus import build_corpus
from reducto.experiment import BundleArtifacts, RepairReport, load_corpus
from reducto.harness import TestCase, TestSuite
from reducto.source import SourceProgram

REPO_CORPUS = "corpus"


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    """The committed corpus when present, else a freshly generated one."""
    from pathlib import Path

    committed = Path(__file__).resolve().parent.parent / REPO_CORPUS
    if committed.is_dir() and any(committed.iterdir()):
        return committed
    out = tmp_path_factory.mktemp("corpus")
    build_corpus(out)
    return out


@pytest.fixture(scope="session")
def corpus_bundles(corpus_dir):
    return load_corpus(corpus_dir)


@pytest.fixture(scope="session")
def corpus_artifacts(corpus_bundles):
    """Shared slice/reduction/list artifacts, built once per bundle."""
    import time

    started = time.perf_counter()
    artifacts = {b.name: BundleArtifacts(b) for b in corpus_bundles}
    elapsed = time.perf_counter() - started
    return artifacts, elapsed


@pytest.fixture(scope="session")
def lattice_reports(corpus_artifacts):
    """One full lattice run over the whole corpus, shared by every test:
    run_lattice's per-bundle step on the shared artifacts."""
    from reducto.experiment import bundle_reports, viable_configs

    artifacts, _ = corpus_artifacts
    return [r for art in artifacts.values() for r in bundle_reports(art, viable_configs())]


# ---------------------------------------------------------------------------
# Small fixtures shared across test modules

def program(text: str, id: str = "fixture") -> SourceProgram:
    return SourceProgram.from_text(text, id)


def fake_report(**overrides) -> RepairReport:
    base = dict(
        bundle="bx", config="P-T-L", sloc_p=20442, sloc_ps=836,
        slice_pct=100.0 * 836 / 20442, tss_t=2196, tss_ts=73, br=82,
        npc=1938, nte=687946, rt_ms=10946000.0, cost_proxy=689884,
        patched=True, patch_line=9, same_location=True, transferred=None,
        stop_reason="patched",
    )
    base.update(overrides)
    return RepairReport(**base)


MAX3_TEXT = """\
fn max3(a, b, c)
let m = a
if b > m
m = b
end
if c > m
m = b
end
return m
end
"""
# The bug on line 7 copies b instead of c.  Hand-run of the six tests:
#   t1 (3,1,2): m=3; 1>3 F; 2>3 F                  -> 3   pass
#   t2 (1,3,3): m=1; 3>1 T -> m=3; 3>3 F           -> 3   pass
#   t3 (2,2,2): m=2; F; F                          -> 2   pass
#   t4 (1,0,5): m=1; 0>1 F; 5>1 T -> m=b=0         -> 0   FAIL (expected 5)
#   t5 (9,0,9): m=9; F; 9>9 F                      -> 9   pass
#   t6 (0,1,1): m=0; 1>0 T -> m=1; 1>1 F           -> 1   pass
MAX3_BUG_LINE = 7


@pytest.fixture()
def max3_program():
    return program(MAX3_TEXT, "max3")


@pytest.fixture()
def max3_suite():
    return TestSuite((
        TestCase("t1", "max3", (3, 1, 2), "value", 3),
        TestCase("t2", "max3", (1, 3, 3), "value", 3),
        TestCase("t3", "max3", (2, 2, 2), "value", 2),
        TestCase("t4", "max3", (1, 0, 5), "value", 5),
        TestCase("t5", "max3", (9, 0, 9), "value", 9),
        TestCase("t6", "max3", (0, 1, 1), "value", 1),
    ))
