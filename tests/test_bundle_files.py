"""Every fault in a bundle file or a deletion log ends in a defined exit.

A Hypothesis fuzzer mutates one file of a minimal bundle, or the deletion
log ``reducto slice`` wrote for it, and runs in process the subcommand that
reads that file.  Whatever the mutation, the command exits 0, 1 or 2, and an
exit of 2 prints one ``error:`` line that names the directory holding the
file; no Python exception escapes.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from reducto.cli import main

BUNDLE = "b00_fuzzed"
SLICE = "s00_fuzzed_slice"

# Three lines, one passing and one failing test: a mutation that still
# loads slices in milliseconds.
BUNDLE_FILES = {
    "manifest.json": json.dumps({
        "program": "program.sl",
        "tests": "tests.json",
        "ground_truth": {"bug_line": 2, "patched_text": "return x + x"},
    }).encode(),
    "program.sl": b"fn f(x)\nreturn x * x\nend\n",
    "tests.json": json.dumps([
        {"id": "t_pass", "call": {"fn": "f", "args": [{"int": 2}]},
         "expect": {"value": {"int": 4}}},
        {"id": "t_fail", "call": {"fn": "f", "args": [{"int": 3}]},
         "expect": {"value": {"int": 6}}},
    ]).encode(),
}
LOG = "deletion_log.json"
FILES = (*BUNDLE_FILES, LOG)
JSON_FILES = ("manifest.json", "tests.json", LOG)

# What a node may become, as JSON text.  The long int is past any digit
# limit, so it is spliced in as text rather than dumped.
JUNK = (
    "null", "true", "false", "0", "2", "-1", "9" * 5000, "0.5", '""', '"x"',
    "[]", "[1]", "{}", '{"x": 1}', "[" * 5000 + "]" * 5000,
)
_HOLE = "\x00hole\x00"


def _write(directory: Path, files: dict) -> None:
    directory.mkdir()
    for name, data in files.items():
        (directory / name).write_bytes(data)


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """Every file a mutation may touch, the deletion log included."""
    root = tmp_path_factory.mktemp("minimal")
    _write(root / BUNDLE, BUNDLE_FILES)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["slice", str(root / BUNDLE), "--out", str(root / SLICE)]) == 0
    return {**BUNDLE_FILES, LOG: (root / SLICE / LOG).read_bytes()}


def _paths(node, path=()):
    """The path of every node of a JSON document, the root's first."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in items:
        yield from _paths(child, path + (key,))


def _replaced(data: bytes, which: int, junk: str) -> bytes:
    """``data`` with its node number ``which`` (in ``_paths`` order, modulo
    their count) replaced by the JSON text ``junk``."""
    document = json.loads(data)
    paths = list(_paths(document))
    path = paths[which % len(paths)]
    if not path:
        return junk.encode()
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = _HOLE
    return json.dumps(document).replace(json.dumps(_HOLE), junk).encode()


MUTATIONS = st.one_of(
    st.tuples(st.just("replace"), st.sampled_from(JSON_FILES),
              st.integers(0, 63), st.sampled_from(JUNK)),
    st.tuples(st.just("truncate"), st.sampled_from(FILES), st.integers(0, 255)),
    st.tuples(st.just("bad_utf8"), st.sampled_from(FILES),
              st.integers(0, 255), st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])),
)


def _mutated(originals: dict, mutation) -> tuple[str, bytes]:
    kind, name, *rest = mutation
    data = originals[name]
    if kind == "replace":
        return name, _replaced(data, *rest)
    if kind == "truncate":
        return name, data[: rest[0] % len(data)]
    at, bad = rest
    at %= len(data) + 1
    return name, data[:at] + bad + data[at:]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(mutation=MUTATIONS)
@example(mutation=("replace", "manifest.json", 1, "null"))  # "program": null
@example(mutation=("replace", "tests.json", 5, "null"))  # the first test's "args": null
@example(mutation=("replace", "tests.json", 4, "[]"))  # the first test's "fn": []
def test_a_mutated_bundle_file_ends_in_a_defined_exit(originals, mutation):
    name, data = _mutated(originals, mutation)
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        files = {**originals, name: data}
        _write(root / BUNDLE, {n: files[n] for n in BUNDLE_FILES})
        _write(root / SLICE, {LOG: files[LOG]})
        if name == LOG:
            argv, holder = ["reduce-tests", str(root / BUNDLE), "--slice", str(root / SLICE)], SLICE
        else:
            argv, holder = ["slice", str(root / BUNDLE)], BUNDLE
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv + ["--out", str(root / "out")])
    err = err.getvalue()
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
        assert holder in err, err
    else:
        assert err == ""
