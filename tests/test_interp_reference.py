"""Differential test: the closure-lowered interpreter against the
tree-walking reference kept in ``reference_interp.py``.

Every ExecutionResult field must agree, floats by bit pattern, on the
corpus programs and tests, on every patch candidate the repair templates
generate (divergent, erroring and ill-typed ones among them), on every
budget around a looping function, and on random operands for every
operator.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

import reference_interp as ref
from reducto import interp
from reducto.faultloc import localize
from reducto.parser import ParseError, parse
from reducto.repair import generate_candidates
from reducto.values import float_bits

from conftest import program

CANDIDATE_BUDGET = 5_000


def _key(v):
    """A value with floats replaced by their bit patterns, for ``==``."""
    if type(v) is float:
        return ("float", float_bits(v))
    if type(v) in (tuple, list):
        return ("array", tuple(_key(item) for item in v))
    return (type(v).__name__, v)


def compiled(ast) -> tuple:
    """The program compiled for each interpreter: (closures, reference)."""
    return interp.compile_ast(ast), ref.compile_ast(ast)


def _observe(module, code, function, args, budget) -> tuple:
    try:
        result = module.execute(code, function, list(args), budget)
    except module.CallSetupError as exc:
        return ("CallSetupError", exc.kind, exc.message)
    return tuple(
        (field.name, _key(getattr(result, field.name)))
        for field in dataclasses.fields(result)
    )


def assert_agree(codes, function, args, budget=interp.DEFAULT_BUDGET) -> str:
    """Both interpreters observe the same; returns the status they agree on."""
    new = _observe(interp, codes[0], function, args, budget)
    old = _observe(ref, codes[1], function, args, budget)
    assert new == old, (function, args, budget)
    return dict(new)["status"][1] if new[0] != "CallSetupError" else new[0]


def test_corpus_programs_and_tests(corpus_bundles):
    for bundle in corpus_bundles:
        codes = compiled(parse(bundle.program))
        for test in bundle.suite:
            assert_agree(codes, test.function, test.args)


def test_every_repair_candidate(corpus_bundles):
    statuses = set()
    for bundle in corpus_bundles:
        suspicious = localize(bundle.program, bundle.suite)
        for candidate in generate_candidates(bundle.program, suspicious):
            try:
                codes = compiled(parse(candidate.program))
            except ParseError:
                continue
            for test in bundle.suite:
                statuses.add(assert_agree(codes, test.function, test.args, CANDIDATE_BUDGET))
    assert statuses == {"completed", "runtime_error", "budget_exceeded"}


LOOPING = """\
fn step(x)
if x % 3 == 0
print x
else
return x + 1
end
end
fn f(n)
let xs = [0, 0, 0]
let i = 0
while i < n
xs[i % 3] = step(i)
i = i + 1
end
return xs
end
"""


@pytest.mark.parametrize("budget", range(61))
def test_every_budget_on_a_loop(budget):
    assert_agree(compiled(parse(program(LOOPING))), "f", (7,), budget)


# ---------------------------------------------------------------------------
# Every operator and statement on operands of every type pair

BINARY_OPS = ("+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=", "and", "or")
BODIES = [f"return a {op} b" for op in BINARY_OPS] + [
    "return -a", "return not a", "return a[b]", "return len(a)", "return [a, b]",
    "if a\nreturn 1\nend\nreturn 0", "while a\nreturn 1\nend\nreturn 0",
    "a[b] = 1\nreturn a", "a[1 / b] = b / 0\nreturn a", "let c = a\nc = b\nprint c\nreturn c",
]

# The int edges include ints a float cannot hold exactly, next to the float edges.
INT_EDGES = (0, 1, -1, 3, -7, 2**63 - 1, -(2**63), 2**62, -(2**62) - 1, 2**32, 2**53 + 1)
FLOAT_EDGES = (0.0, -0.0, 1.5, -2.5, float("nan"), float("inf"), float("-inf"), 1e308,
               2.0**63, 2.0**53)
EDGES = INT_EDGES + FLOAT_EDGES + (True, False, "", "ab", (), (1,), (1.0, "x"), ((2,),))

_PROGRAMS = {}


def _program(body: str):
    if body not in _PROGRAMS:
        _PROGRAMS[body] = compiled(parse(program(f"fn f(a, b)\n{body}\nend\n")))
    return _PROGRAMS[body]


@pytest.mark.parametrize("body", BODIES)
def test_every_form_on_every_edge_pair(body):
    for a in EDGES:
        for b in EDGES:
            assert_agree(_program(body), "f", (a, b))


scalars = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.text(max_size=3),
    st.sampled_from(EDGES),
)
values = st.one_of(scalars, st.lists(scalars, max_size=3).map(tuple))


@settings(max_examples=500, derandomize=True, deadline=None)
@given(body=st.sampled_from(BODIES), a=values, b=values)
def test_every_form_on_random_operands(body, a, b):
    assert_agree(_program(body), "f", (a, b))
