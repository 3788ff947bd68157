"""Differential test: the two-tier interpreter against the tree-walking
reference kept in ``reference_interp.py``.

Every ExecutionResult field must agree, floats by bit pattern, on the
corpus programs and tests, on every patch candidate the repair templates
generate (divergent, erroring and ill-typed ones among them), on every
budget around a looping function, on random operands for every
operator, on every budget below 400 for kernels that end, raise or never
end, at tier-up thresholds of a few back-edges, on random loops, and on
long runs of the corpus library's loops.  Kernels are also checked
against the interpreter itself: a run cut short by its budget takes
exactly that budget, one compiled program gives every run the same
result, and a kernel that never ends, run as a test, stops at its test's
budget.

Each check runs at the default tier-up threshold, where a unit runs tier 0
until it is hot, and again at ``interp.TIER_UP_EDGES = 0``, where every
function runs tier 1 (the tests named ``..._in_tier_1``).
"""

import contextlib
import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

import reference_interp as ref
from reducto import interp
from reducto.corpus import LIBRARY
from reducto.experiment import FACTOR, FLOOR
from reducto.faultloc import localize
from reducto.harness import BUDGET_EXCEEDED, TestCase, run_suite, run_test
from reducto.parser import ParseError, parse
from reducto.repair import ReplaceLine, apply_edit, generate_candidates
from reducto.values import INT_MIN, float_bits

from conftest import program

CANDIDATE_BUDGET = 5_000


def _key(v):
    """A value with floats replaced by their bit patterns, for ``==``."""
    if type(v) is float:
        return ("float", float_bits(v))
    if type(v) in (tuple, list):
        return ("array", tuple(_key(item) for item in v))
    return (type(v).__name__, v)


def compiled(source) -> tuple:
    """The program built for each interpreter: (two-tier, reference)."""
    return interp.Scope().build(source), ref.compile_ast(parse(source))


@contextlib.contextmanager
def tiering_up_at(edges: int):
    """Compile and run with ``interp.TIER_UP_EDGES = edges``: at 0 every
    unit runs tier 1 from its first call, at a huge value tier 0 only."""
    saved = interp.TIER_UP_EDGES
    interp.TIER_UP_EDGES = edges
    try:
        yield
    finally:
        interp.TIER_UP_EDGES = saved


TIER_0_ONLY = 10**18


def tier_ups(scope: interp.Scope) -> int:
    """The units of ``scope`` that run tier 1."""
    return sum(
        unit is not None and unit.call is not None and unit.call is not unit.tier0
        for unit in scope.units.values()
    )


def _observe(module, code, function, args, budget) -> tuple:
    try:
        result = module.execute(code, function, list(args), budget)
    except ref.CallSetupError as exc:  # where ``interp.execute`` returns this result
        result = interp.ExecutionResult(
            "runtime_error", None, exc.kind, 0, exc.message, (), frozenset(), 0
        )
    return tuple(
        (field.name, _key(getattr(result, field.name)))
        for field in dataclasses.fields(result)
    )


def assert_agree(codes, function, args, budget=interp.DEFAULT_BUDGET) -> str:
    """Both interpreters observe the same; returns the status they agree on."""
    new = _observe(interp, codes[0], function, args, budget)
    old = _observe(ref, codes[1], function, args, budget)
    assert new == old, (function, args, budget)
    return dict(new)["status"][1]


def test_corpus_programs_and_tests(corpus_bundles):
    for bundle in corpus_bundles:
        codes = compiled(bundle.program)
        for test in bundle.suite:
            assert_agree(codes, test.function, test.args)


def test_corpus_programs_and_tests_in_tier_1(corpus_bundles):
    with tiering_up_at(0):
        test_corpus_programs_and_tests(corpus_bundles)


def test_every_repair_candidate(corpus_bundles):
    statuses = set()
    for bundle in corpus_bundles:
        suspicious = localize(run_suite(bundle.program, bundle.suite))
        for candidate in generate_candidates(bundle.program, parse(bundle.program), suspicious):
            try:
                codes = compiled(candidate.program)
            except ParseError:
                continue
            for test in bundle.suite:
                statuses.add(assert_agree(codes, test.function, test.args, CANDIDATE_BUDGET))
    assert statuses == {"completed", "runtime_error", "budget_exceeded"}


def test_every_repair_candidate_in_tier_1(corpus_bundles):
    """As ``repair`` runs them: the candidates of a bundle share one scope,
    so each runs the units its unedited functions share with the others."""
    statuses = set()
    with tiering_up_at(0):
        for bundle in corpus_bundles:
            scope = interp.Scope()
            suspicious = localize(run_suite(bundle.program, bundle.suite))
            for candidate in generate_candidates(
                bundle.program, parse(bundle.program), suspicious
            ):
                try:
                    code = scope.build(candidate.program)
                except ParseError:
                    continue
                codes = code, ref.compile_ast(parse(candidate.program))
                for test in bundle.suite:
                    statuses.add(assert_agree(codes, test.function, test.args, CANDIDATE_BUDGET))
            assert tier_ups(scope) == sum(unit is not None for unit in scope.units.values())
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
    assert_agree(compiled(program(LOOPING)), "f", (7,), budget)


def test_every_budget_on_a_loop_in_tier_1():
    """Budget exhaustion at every step of a call, tier 1 keeping its
    budget in a local."""
    with tiering_up_at(0):
        for budget in range(61):
            assert_agree(compiled(program(LOOPING)), "f", (7,), budget)


def test_a_divergent_candidate_runs_exactly_its_tests_budget(corpus_bundles):
    """b03's failing tests took 13 and 21 steps on the original program, so
    each later run of them takes at most 130 and 210.  The candidate that
    counts ``i`` down never ends, and each of its runs ends BudgetExceeded
    at exactly its test's budget, in tier 0, in tier 1 and in the
    reference."""
    bundle = next(b for b in corpus_bundles if b.name == "b03_series_sum")
    line = bundle.ground_truth.bug_line + 3
    assert bundle.program.line(line) == "i = i + 1"
    source = apply_edit(bundle.program, line, ReplaceLine("i = i - 1"))
    tests = [t for t in bundle.suite if t.id in bundle.baseline_run.failing]
    assert [t.budget for t in tests] == [130, 210]
    for edges in (TIER_0_ONLY, 0):
        with tiering_up_at(edges):
            codes = compiled(source)
            for test in tests:
                outcome = run_test(codes[0], test)
                assert (outcome.kind, outcome.steps) == ("BudgetExceeded", test.budget)
                assert_agree(codes, test.function, test.args, test.budget)


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
        _PROGRAMS[body] = compiled(program(f"fn f(a, b)\n{body}\nend\n"))
    return _PROGRAMS[body]


@pytest.mark.parametrize("body", BODIES)
def test_every_form_on_every_edge_pair(body):
    for a in EDGES:
        for b in EDGES:
            assert_agree(_program(body), "f", (a, b))


@pytest.mark.parametrize("body", BODIES)
def test_every_form_on_every_edge_pair_in_tier_1(body):
    """Every error kind, and every fast path and its way out to the full
    semantics, in generated code."""
    with tiering_up_at(0):
        codes = compiled(program(f"fn f(a, b)\n{body}\nend\n"))
        for a in EDGES:
            for b in EDGES:
                assert_agree(codes, "f", (a, b))


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


# ---------------------------------------------------------------------------
# Kernels: loops that end, raise or never end

WRAPPING = """\
fn f(n)
let i = n
while i <= 0
i = i - 1
end
return i
end
"""
KERNELS = {
    "counter_never_incremented": ("""\
fn f(n)
let i = 0
let hits = 0
while i < n
hits = hits + 1
end
return hits
end
""", (3,)),
    "int_float_str_array_accumulators": ("""\
fn f(n)
let i = 0
let a = 7
let b = 0.5
let s = ""
let xs = []
while i < n
a = a * 3 + 1
b = b * 1.5 - a
s = s + "ab"
xs = xs + [a, b, s]
let k = len(xs) + len(s)
let same = xs == [a]
end
return a
end
""", (3,)),
    "print_inside_the_cycle": ("""\
fn f(n)
let j = 0
let total = 0
while n > 0
j = (j + 1) % 3
total = total + j
print j
print [j, "x", 0.5]
end
return j
end
""", (1,)),
    "flips_between_1_1_0_and_true": ("""\
fn f(n)
let x = 1
while n > 0
if x == 1
x = 1.0
else
if x == 1.0
x = true
else
x = 1
end
end
print x
end
return x
end
""", (1,)),
    "flips_between_0_0_minus_0_0_and_nan": ("""\
fn f(n)
let x = 0.0
while n > 0
if x == 0.0
x = -x
else
if x == -0.0
x = 0.0 / 0.0
else
x = 0.0
end
end
print x
end
return x
end
""", (1,)),
    # ``d`` changes type at the second back-edge, and the third pass raises.
    "data_type_changes_late": ("""\
fn f(n)
let d = 1
let c = 2
let e = 0
while n > 0
e = d - 1
d = c
c = "s"
end
return e
end
""", (1,)),
    "aliased_array_toggles": ("""\
fn f(n)
let a = [0, 0]
let b = a
while a[0] < n
b[1] = 1 - b[1]
print a[1]
end
return a
end
""", (5,)),
    # Equal array contents at the first two back-edges, but only at the
    # second do a, b and c share one array, and the third pass returns.
    "aliasing_changes_late": ("""\
fn f(n)
let a = [0]
let b = [0]
let c = [0]
let i = 0
while i < 10
b[0] = 1
if a[0] == 1
return n
end
b[0] = 0
b = c
c = a
end
return 0
end
""", (5,)),
    "array_that_contains_itself": ("""\
fn f(n)
let a = [0, 1]
a[0] = a
while a[1] < n
a[1] = 1 - a[1]
a[0] = a
end
return 0
end
""", (5,)),
    "inner_loop_ends_outer_does_not": ("""\
fn f(n)
let i = 0
let total = 0
while i < n
let j = 0
while j < 3
total = total + j
j = j + 1
end
end
return total
end
""", (2,)),
    "inner_loop_never_ends": ("""\
fn f(n)
let i = 0
let total = 0
while i < n
let j = 0
while j < 3
total = total + 1
end
i = i + 1
end
return total
end
""", (2,)),
    "nested_loops_that_end": ("""\
fn f(n)
let i = 0
let total = 0
while i < n
let j = 0
while j < i % 4
total = total + j
j = j + 1
end
i = i + 1
end
return total
end
""", (40,)),
    "loop_calls_a_looping_function": ("""\
fn count(k)
let t = 0
let j = 0
while j < k
t = t + j
j = j + 1
end
return t
end
fn spin(k)
let t = 0
while k > 0
t = t + 1
end
return t
end
fn f(n)
let i = 0
let s = 0
while i < n
s = s + count(3)
i = i + spin(n - 2)
end
return s
end
""", (2,)),
    "called_function_never_returns": ("""\
fn spin(k)
let t = 0
while k > 0
t = t + 1
end
return t
end
fn f(n)
let i = 0
while i < 2
i = i + spin(n)
end
return i
end
""", (2,)),
    "recursion_inside_the_loop": ("""\
fn fact(k)
if k <= 1
return 1
end
return k * fact(k - 1)
end
fn f(n)
let i = 0
let acc = 0
while i < n
acc = acc + fact(4)
end
return acc
end
""", (2,)),
    # ``t`` is 0 at every back-edge; the call returns once ``total`` passes 40.
    "accumulator_feeds_a_condition": ("""\
fn f(n)
let i = 0
let total = 0
let t = 0
while i < n
total = total + 1
t = total
if t > 40
return total
end
t = 0
end
return 0
end
""", (2,)),
    "accumulator_stored_in_an_array": ("""\
fn f(n)
let xs = [0]
let total = 0
while n > 0
total = total + 1
xs[0] = total
if xs[0] > 40
return total
end
xs[0] = 0
end
return 0
end
""", (2,)),
    "printed_accumulator": ("""\
fn f(n)
let i = 0
let total = 0
while i < n
total = total + 1
print total
end
return 0
end
""", (2,)),
    "negated_accumulator_printed": ("""\
fn f(n)
let i = 0
let total = 0
while i < n
total = total + 1
print -total
end
return 0
end
""", (2,)),
    "accumulator_printed_in_an_array": ("""\
fn f(n)
let i = 0
let total = 0
while i < n
total = total + 1
print [total]
end
return 0
end
""", (2,)),
    "accumulator_feeds_a_division": ("""\
fn f(n)
let i = 0
let total = 0
let q = 0
while i < n
total = total + 1
let gap = 30 - total
q = q + 100 / gap
end
return q
end
""", (2,)),
    "accumulator_feeds_a_call": ("""\
fn check(k)
if k > 30
return 1 / 0
end
return k
end
fn f(n)
let i = 0
let total = 0
let q = 0
while i < n
total = total + 1
q = check(total)
end
return q
end
""", (2,)),
    "accumulator_feeds_an_index": ("""\
fn f(n)
let xs = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]
let i = 0
let total = 0
let q = 0
while i < n
total = total + 1
q = xs[total]
end
return q
end
""", (2,)),
    # Long arrays: one the loop toggles an item of, one it keeps extending.
    "long_array_toggled_forever": ("""\
fn f(xs)
while xs[0] < 5
xs[1] = 1 - xs[1]
end
return 0
end
""", ((0,) * 1_000,)),
    "array_keeps_growing": ("""\
fn f(xs)
while xs[0] == 0
xs = xs + [0]
end
return 0
end
""", ((0,) * 495,)),
    # The callee's loop runs the same passes in every call.
    "loops_in_repeated_calls_end": ("""\
fn count(k)
let t = 0
let j = 0
while j < k
t = t + j
j = j + 1
end
return t
end
fn f(n)
let i = 0
let s = 0
while i < n
let j = 0
while j < 3
j = j + 1
end
s = s + count(3)
i = i + 1
end
return s
end
""", (12,)),
    # Counters that move away from their bound.  The first two are the
    # faulty forms of b03's series_sum that repair tries.
    "series_sum_counts_down": ("""\
fn f(n)
let total = 0
let i = 2
while i <= n
total = total + i
i = i - 1
end
return total
end
""", (5,)),
    "series_sum_adds_minus_one": ("""\
fn f(n)
let total = 0
let i = 2
while i <= n
total = total + i
i = i + -1
end
return total
end
""", (5,)),
    "counter_climbs_above_its_floor": ("""\
fn f(n)
let i = 0
let total = 0.5
while i >= n
total = total + i * 2
i = i + 1
end
return total
end
""", (-3,)),
    "counter_steps_by_three": ("""\
fn f(n)
let i = 0
let hits = 0
while i > n
hits = hits + 1
i = 3 + i
if i < n
return hits
end
end
return hits
end
""", (-2,)),
    "counter_steps_by_a_parameter": ("""\
fn f(n, step)
let i = 0
while i < n
i = i - step
end
return i
end
""", (5, 2)),
    "counter_moves_away_from_an_unequal_bound": ("""\
fn f(n)
let i = 0
let s = ""
while i != n
s = s + "x"
if i == 1
return s
end
i = i + 2
end
return s
end
""", (-1,)),
    # Diverges, the bound moving with the counter.
    "bound_drifts_with_the_counter": ("""\
fn f(n)
let i = 0
let j = n
while i < j
i = i + 1
j = j + 1
end
return i
end
""", (5,)),
    # The inner loop runs one pass longer each time: its condition compares
    # the outer counter with the loop-assigned ``j``, which is 0 at every
    # outer back-edge.
    "inner_loop_bounded_by_the_counter": ("""\
fn f(n)
let i = 0
let j = 0
while n > 0
while j < i
print j
j = j + 1
end
j = 0
i = i + 1
end
return i
end
""", (1,)),
    # ``b`` is 0 at every back-edge but 40 where ``i`` meets it.
    "bound_reset_each_pass": ("""\
fn f(n)
let i = 0
let b = 0
while n > 0
b = 40
if i > b
return b
end
b = 0
i = i + 1
end
return 0
end
""", (1,)),
    "counter_reaches_its_bound": ("""\
fn f(n)
let i = 0
let total = 0
while i < n
total = total + i
i = i + 1
end
return total
end
""", (60,)),
    "float_counter_reaches_its_bound": ("""\
fn f(n)
let x = 0.5
while x != n
x = x + 1.0
end
return x
end
""", (20.5,)),
    "counter_doubles": ("""\
fn f(n)
let i = 1
while i < n
i = i * 2
end
return i
end
""", (100_000,)),
    "counter_copies_a_faster_one": ("""\
fn f(n)
let k = 0
let i = 0
while i < n
k = k + 100
i = k + 1
end
return i
end
""", (1_000,)),
    "counter_dips_and_climbs": ("""\
fn f(n)
let i = 0
let hits = 0
while n > 0
i = i + 10
if i > 5
hits = hits + 1
else
return hits
end
i = i - 11
end
return 0
end
""", (1,)),
    "accumulator_stored_and_tested_in_an_array": ("""\
fn f(n)
let xs = [0]
let total = 0
while n > 0
total = total + 1
xs[0] = total
if xs[0] > 40
return xs
end
xs[0] = 0
end
return xs
end
""", (1,)),
    "accumulator_divides_directly": ("""\
fn f(n)
let i = 0
let total = 0
let q = 0
while i < n
total = total + 1
q = q + 100 / (30 - total)
end
return q
end
""", (2,)),
    "accumulator_takes_a_modulo": ("""\
fn f(n)
let i = 0
let total = 0
let q = 0
while i < n
total = total + 1
q = q + 100 % (30 - total)
end
return q
end
""", (2,)),
    # Counted down from INT_MIN + 10 and INT_MIN + 200, the counter wraps
    # to INT_MAX and ends the loop after 11 and 201 passes, three steps each.
    "counter_wraps_within_the_budget": (WRAPPING, (INT_MIN + 10,)),
    "counter_wraps_past_the_budget": (WRAPPING, (INT_MIN + 200,)),
    # A loop that writes into an array it never assigns, by an
    # index-assignment or through a call.
    "loop_index_assigns_into_an_array": ("""\
fn f(n)
let xs = [0]
while xs[0] < n
xs[0] = xs[0] + 1
end
return xs
end
""", (40,)),
    "loop_calls_a_function_that_writes_its_argument": ("""\
fn bump(ys)
ys[0] = ys[0] + 1
return 0
end
fn f(n)
let xs = [0]
let q = 0
while xs[0] < n
q = bump(xs)
end
return xs
end
""", (40,)),
    # ``xs`` is one item long where ``i`` meets it, ten items long at every
    # back-edge.
    "len_bound_of_an_array_the_loop_reassigns": ("""\
fn f(n)
let xs = [0]
let i = 0
let hits = 0
while n > 0
xs = [0]
if i > len(xs)
return hits
end
xs = [0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
i = i + 1
hits = hits + 1
end
return 0
end
""", (1,)),
    # The inner loop's counter turns at i = 5, in a pass shorter than the
    # others, and the loop ends; the outer loop enters it again, where the
    # inner loop repeats the passes of its last activation.
    "drift_turns_and_the_loop_is_entered_again": ("""\
fn f(n)
let k = 0
let x = 0
while k != n
let i = 0
let go = true
while go
i = i + 1
if i != 5
x = x + 0
x = x + 0
x = x + 0
x = x + 0
x = x + 0
x = x + 0
x = x + 0
x = x + 0
else
go = false
end
end
k = k + 1
end
return k
end
""", (3,)),
    # ``g``'s loop returns in its second pass, inside ``f``'s divergent loop.
    "caller_loop_diverges_around_a_callee_that_returns_early": ("""\
fn g(k)
let i = 0
while i < 50
if i == k
return i
end
i = i + 1
end
return 0
end
fn f(n)
let total = 0
while n != 0
total = total + g(1)
end
return total
end
""", (1,)),
    # ``spin`` diverges for a positive argument, a call nested in ``f``.
    "fresh_callee_diverges": ("""\
fn spin(k)
let t = 0
while k > 0
t = t + 1
end
return t
end
fn f(n)
let i = 0
while i < 3
i = i + 1
end
return spin(n)
end
""", (2,)),
}
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel_at_every_budget(kernel):
    _kernel_at_every_budget(kernel)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel_at_every_budget_in_tier_1(kernel):
    with tiering_up_at(0):
        _kernel_at_every_budget(kernel)


def _kernel_at_every_budget(kernel):
    """One compiled program for every budget, so that at the default
    threshold its units tier up part of the way through."""
    text, args = KERNELS[kernel]
    codes = compiled(program(text))
    for budget in range(400):
        assert_agree(codes, "f", args, budget)


@pytest.mark.parametrize("edges", [interp.TIER_UP_EDGES, 0])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel_at_a_long_budget(kernel, edges):
    """Past 400 steps, where ``counter_wraps_past_the_budget`` ends."""
    text, args = KERNELS[kernel]
    with tiering_up_at(edges):
        assert_agree(compiled(program(text)), "f", args, CANDIDATE_BUDGET)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel_tiering_up_after_a_few_back_edges(kernel):
    """Thresholds of a few back-edges, so that units tier up in the first
    runs of one compiled program, and a callee called in a loop part of the
    way through a run."""
    text, args = KERNELS[kernel]
    for edges in (1, 2, 3, 6):
        with tiering_up_at(edges):
            codes = compiled(program(text))
            for budget in (*range(0, 400, 5), CANDIDATE_BUDGET):
                assert_agree(codes, "f", args, budget)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel_ends_where_its_budget_allows(kernel):
    """Checked against the interpreter itself, not the reference: a run
    that ends in ``s`` steps ends the same at every budget from ``s`` on,
    and at every smaller budget takes exactly that budget, having printed
    a prefix of the output and covered a subset of the lines."""
    text, args = KERNELS[kernel]
    for edges in (TIER_0_ONLY, 0):
        with tiering_up_at(edges):
            code = interp.Scope().build(program(text))
            full = interp.execute(code, "f", list(args), CANDIDATE_BUDGET)
            if full.status == "budget_exceeded":
                assert full.steps == CANDIDATE_BUDGET
                continue
            observed = _observe(interp, code, "f", args, CANDIDATE_BUDGET)
            for budget in (full.steps, full.steps + 1):
                assert _observe(interp, code, "f", args, budget) == observed
            for budget in range(0, full.steps, 3):
                cut = interp.execute(code, "f", list(args), budget)
                assert (cut.status, cut.steps) == ("budget_exceeded", budget)
                assert _key(full.output[:len(cut.output)]) == _key(cut.output)
                assert cut.covered <= full.covered


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel_on_one_compiled_program_run_after_run(kernel):
    """Units keep their back-edge counts and tier 1 code from one run to the
    next, as ``repair`` runs a scope's units; no run's result depends on the
    runs before it.  Each run equals a run of a fresh tier-0 program."""
    text, args = KERNELS[kernel]
    source = program(text)
    with tiering_up_at(TIER_0_ONLY):
        fresh = {budget: _observe(interp, interp.Scope().build(source), "f", args, budget)
                 for budget in (37, CANDIDATE_BUDGET)}
    for edges in (interp.TIER_UP_EDGES, 1):
        with tiering_up_at(edges):
            code = interp.Scope().build(source)
            for _ in range(4):
                for budget in (CANDIDATE_BUDGET, 37):
                    assert _observe(interp, code, "f", args, budget) == fresh[budget]


# The kernels that never end, each at some budget past 400 steps.
DIVERGENT = {
    "accumulator_printed_in_an_array", "aliased_array_toggles", "array_keeps_growing",
    "array_that_contains_itself", "bound_drifts_with_the_counter",
    "called_function_never_returns",
    "caller_loop_diverges_around_a_callee_that_returns_early",
    "counter_climbs_above_its_floor", "counter_moves_away_from_an_unequal_bound",
    "counter_never_incremented", "counter_steps_by_a_parameter", "counter_steps_by_three",
    "flips_between_0_0_minus_0_0_and_nan", "flips_between_1_1_0_and_true",
    "fresh_callee_diverges", "inner_loop_bounded_by_the_counter",
    "inner_loop_ends_outer_does_not", "inner_loop_never_ends",
    "int_float_str_array_accumulators", "long_array_toggled_forever",
    "loop_calls_a_looping_function", "negated_accumulator_printed",
    "print_inside_the_cycle", "printed_accumulator", "recursion_inside_the_loop",
    "series_sum_adds_minus_one", "series_sum_counts_down",
}


def test_the_divergent_kernels_are_those_that_outrun_a_long_budget():
    outrun = {
        kernel for kernel, (text, args) in KERNELS.items()
        if assert_agree(compiled(program(text)), "f", args, 20_000) == "budget_exceeded"
    }
    assert outrun == DIVERGENT


@pytest.mark.parametrize("edges", [interp.TIER_UP_EDGES, 0])
@pytest.mark.parametrize("kernel", sorted(DIVERGENT))
def test_a_divergent_kernel_stops_at_its_tests_budget(kernel, edges):
    """Run as a test by the harness, a kernel that never ends takes exactly
    its test's budget, from FLOOR up."""
    text, args = KERNELS[kernel]
    with tiering_up_at(edges):
        codes = compiled(program(text))
        for budget in (FLOOR, FACTOR * FLOOR, CANDIDATE_BUDGET):
            test = TestCase("t", "f", args, "value", 0, budget)
            outcome = run_test(codes[0], test)
            assert (outcome.kind, outcome.steps) == (BUDGET_EXCEEDED, budget)
            assert assert_agree(codes, "f", args, budget) == "budget_exceeded"


# Random loops over a few ints, a float, a str, a bool and two arrays that
# may alias, with nested conditions and loops and statements that can raise.
LOOP_STATEMENTS = (
    "i = i + 1", "i = i - 1", "i = i - 2", "i = i + -1", "i = (i + 1) % 4", "i = 0",
    "x = x + i", "x = x * 3",
    "x = x / 2", "x = x - y", "y = y * 1.5", "y = -y", "y = y + x", "y = 0.0 / 0.0",
    "xs[i % 2] = x", "xs[0] = xs[1] + 1", "ys[1] = i", "ys = xs", "xs = [x, i]",
    "xs = xs + [x]", "s = s + \"ab\"", "x = len(s)", "print i", "print xs",
    "print y", "x = twice(i % 3)", "let k = i", "ok = x == y", "ok = not ok",
    "x = x / i", "x = xs[i]", "s = s + x", "ok = ok and x < y",
    "if i > 2\nx = 0\nend", "if x == y\ni = i + 1\nelse\ni = 0\nend",
    "if ok\nys[0] = y\nend",
)
LOOP_CONDITIONS = (
    "true", "i < a", "i != b", "i <= a", "i >= b", "x >= 0", "xs[0] < 3", "len(xs) < 4",
    "i % 3 != 2", "ok or i < 2", "y != 1.5", "ys[0] != 9",
)


@st.composite
def loops(draw):
    body = draw(st.lists(st.sampled_from(LOOP_STATEMENTS), min_size=1, max_size=6))
    if draw(st.booleans()):  # nest part of the body in an inner loop
        cut = draw(st.integers(0, len(body)))
        inner = draw(st.sampled_from(("j < 2", "j < i", "j != 1")))
        body[cut:] = ["let j = 0", f"while {inner}", *body[cut:], "j = j + 1", "end"]
    return (
        "fn f(a, b)\n"
        "let i = 0\nlet x = a\nlet y = 1.5\nlet s = \"\"\nlet ok = true\n"
        "let xs = [0, 1]\nlet ys = xs\n"
        f"while {draw(st.sampled_from(LOOP_CONDITIONS))}\n"
        + "\n".join(body)
        + "\nend\nreturn x\nend\n"
        "fn twice(k)\nreturn k * 2\nend\n"
    )


@settings(max_examples=500, derandomize=True, deadline=None)
@given(text=loops(), a=st.integers(-3, 3), b=st.integers(-3, 3), budget=st.integers(0, 2000))
def test_random_loops(text, a, b, budget):
    assert_agree(compiled(program(text)), "f", (a, b), budget)


def test_random_loops_in_tier_1():
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(text=loops(), a=st.integers(-3, 3), b=st.integers(-3, 3), budget=st.integers(0, 2000))
    def check(text, a, b, budget):
        assert_agree(compiled(program(text)), "f", (a, b), budget)

    with tiering_up_at(0):
        check()


# ---------------------------------------------------------------------------
# Long runs of the corpus library's loops

# Inputs of 240 items for every corpus library function with a loop;
# gcd_of takes F(91), the first Fibonacci number above 2**62, and F(90),
# on which it takes 89 passes.
_FIB = [0, 1]
while _FIB[-1] < 2**62:
    _FIB.append(_FIB[-1] + _FIB[-2])
_ITEMS = list(range(-120, 120))
LOOP_INPUTS = {
    "sum_to": (240,), "fib_at": (240,), "count_pos": (_ITEMS,), "sum_arr": (_ITEMS,),
    "max_arr": (_ITEMS,), "pow_int": (3, 240), "dot_of": (_ITEMS, _ITEMS),
    "repeat_join": ("ab", 240), "gcd_of": (_FIB[-1], _FIB[-2]),
}


def test_every_corpus_loop_has_long_inputs():
    assert set(LOOP_INPUTS) == {name for name, lines in LIBRARY.items()
                                if any(line.startswith("while ") for line in lines)}


@pytest.mark.parametrize("edges", [interp.TIER_UP_EDGES, 0])
@pytest.mark.parametrize("name", sorted(LOOP_INPUTS))
def test_a_library_loop_run_after_run(name, edges):
    """Three runs on one compiled program: at the default threshold each
    loop passes TIER_UP_EDGES back-edges in the second or third run, and the
    unit runs tier 1 from its next call.  Each run ends, and the budgets
    around its steps agree too."""
    source = program("\n".join(LIBRARY[name]) + "\n")
    args = LOOP_INPUTS[name]
    with tiering_up_at(edges):
        codes = compiled(source)
        for _ in range(3):
            assert assert_agree(codes, name, args) == "completed"
        unit, _ = codes[0].entry(name)
        assert unit.call is not unit.tier0
        steps = interp.execute(codes[0], name, list(args)).steps
        for budget in (steps - 1, steps):
            assert_agree(codes, name, args, budget)


# ---------------------------------------------------------------------------
# Tiering up: where Python cannot compile, what a unit's key must hold, and
# tier-ups inside a divergent run and at the deepest call level


def _agree_in_every_tier(text: str, args: tuple, budgets=(interp.DEFAULT_BUDGET,)) -> None:
    """Tier 0 only, tier 1 from the first call, and the reference agree."""
    for edges in (TIER_0_ONLY, 0):
        with tiering_up_at(edges):
            codes = compiled(program(text))
            for budget in budgets:
                assert_agree(codes, "f", args, budget)


def _nested(opener: str, levels: int) -> str:
    body = f"{opener}\n" * levels + "n = n - 1\n" + "end\n" * levels
    return f"fn f(n)\n{body}return n\nend\n"


@pytest.mark.parametrize("opener", ["while n > 0", "if n > 0"])
def test_blocks_nested_as_deep_as_the_parser_allows(opener):
    """CPython compiles at most 20 nested loops; a unit it cannot compile
    stays in tier 0, and the result is the same whichever tier runs."""
    from reducto.parser import MAX_BLOCK_DEPTH

    text = _nested(opener, MAX_BLOCK_DEPTH)
    with pytest.raises(ParseError):
        parse(program(_nested(opener, MAX_BLOCK_DEPTH + 1)))
    for n in (0, 1, 3):
        _agree_in_every_tier(text, (n,), budgets=(interp.DEFAULT_BUDGET, 50, 150))


# Each wraps the expression so far in one more level of nesting.
WRAPPERS = ("({} + n)", "[{}, n][0]", "-({})", "({} * 3)", "({} - 1) % 7", "len([{}]) + {}")


def _deep_expression(levels: int) -> str:
    expr = "n"
    for level in range(levels):
        wrapper = WRAPPERS[level % len(WRAPPERS)]
        expr = wrapper.format(expr, "n") if wrapper.count("{}") == 2 else wrapper.format(expr)
    return expr


def test_a_line_nested_as_deep_as_the_parser_allows():
    from reducto.parser import MAX_EXPR_DEPTH

    levels = 1
    while True:
        try:
            parse(program(f"fn f(n)\nreturn {_deep_expression(levels + 1)}\nend\n"))
        except ParseError as exc:
            assert f"deeper than {MAX_EXPR_DEPTH}" in exc.reason
            break
        levels += 1
    expr, shallower = _deep_expression(levels), _deep_expression(levels - 2)
    for body in (f"return {expr}", f"let x = {shallower} > 0 and {shallower} != n\nreturn x"):
        for n in (0, 5, -3, 2**62, "s", True):
            _agree_in_every_tier(f"fn f(n)\n{body}\nend\n", (n,))


CALLER = """\
fn f(n)
let i = 0
let total = 0
while i < n
total = total + g(i)
i = i + 1
end
return total
end
"""


def test_one_unit_per_text_serves_every_callee(monkeypatch):
    """Programs holding byte-identical text for ``f`` share one scope, and
    one unit of ``f`` serves them all: with ``g(x)``, with ``g(x, y)``,
    with no ``g``, and shifted by blank or comment lines.  ``f``'s call of
    ``g`` is checked where it is made, so each program gets its own result,
    in its own lines, in both tiers, equal to the reference's.  ``f`` is
    hot after the first program, so the scope keeps its unit, and the later
    programs run it in tier 1 without lowering ``f`` again.  Each ``g`` text
    is met once and, below the tier-up threshold, stays cold and is not
    kept."""
    lower, lowered = interp._lower_block, set()

    def recording_lower(block, base, offsets, steps, unit):
        lowered.add(unit.fn.text)
        return lower(block, base, offsets, steps, unit)

    monkeypatch.setattr(interp, "_lower_block", recording_lower)
    programs = [
        ("tiers f up", CALLER + "fn g(x)\nreturn x * 2\nend\n", 300),
        ("arity", CALLER + "fn g(x, y)\nreturn x\nend\n", 3),
        ("deleted", CALLER, 3),
        ("shifted", "\n# f moves down\n\n" + CALLER + "\nfn g(x)\nreturn x - 1\nend\n", 4),
        ("shifted and deleted", "# f moves down\n" + CALLER, 3),
    ]
    f_text = tuple(CALLER.splitlines())
    for edges in (interp.TIER_UP_EDGES, 0):
        with tiering_up_at(edges):
            scope = interp.Scope()
            statuses, units, lowers_f = [], [], []
            for _, text, n in programs:
                lowered.clear()
                code = scope.build(program(text))
                assert code.functions["f"].text == f_text
                new = _observe(interp, code, "f", (n,), interp.DEFAULT_BUDGET)
                assert new == _observe(ref, ref.compile_ast(parse(program(text))), "f", (n,),
                                       interp.DEFAULT_BUDGET)
                result = dict(new)
                statuses.append((result["status"][1], result["error_kind"][1],
                                 result["error_line"][1]))
                units.append(code.entry("f")[0])
                lowers_f.append(f_text in lowered)
            assert statuses == [
                ("completed", None, None),
                ("runtime_error", "ArityMismatch", 5),
                ("runtime_error", "UndefinedVariable", 5),
                ("completed", None, None),
                ("runtime_error", "UndefinedVariable", 6),
            ]
            assert all(unit is scope.units[f_text] for unit in units)
            assert units[0].call is not units[0].tier0
            assert lowers_f == [True, False, False, False, False]
            if edges:
                assert [t for t, unit in scope.units.items() if unit is not None] == [f_text]


DIVERGES_LATE = """\
fn f(k)
let total = 0
let j = 0
while j < 30
total = total + g(j)
j = j + 1
end
return total + g(k)
end
fn g(n)
let i = 0
while i != n
i = i + 1
end
return i
end
"""


@pytest.mark.parametrize("args", [(-1,), (30,)])
def test_a_unit_tiers_up_and_a_later_call_diverges(args):
    """``g`` takes 435 back-edges in its first 30 calls, so later calls run
    tier 1; with ``k = -1`` the last one never ends, and tier 1 runs the
    budget out."""
    codes = compiled(program(DIVERGES_LATE))
    status = assert_agree(codes, "f", args, CANDIDATE_BUDGET)
    unit, _ = codes[0].entry("g")
    assert unit.call is not unit.tier0
    assert (status == "budget_exceeded") == (args == (-1,))


DEEP_TIER_UP = """\
fn f(n)
if n == 0
return hot(300) + hot(5)
end
return f(n - 1)
end
fn hot(m)
let i = 0
while i < m
i = i + 1
end
return i
end
"""


def _from_stack_depth(frames: int, call):
    return call() if frames == 0 else _from_stack_depth(frames - 1, call)


@pytest.mark.parametrize("extra_frames", [0, 300])
def test_a_tier_up_at_the_deepest_call_level(extra_frames):
    """``f(198)`` calls ``hot`` at call depth 200, the deepest a run
    allows; its second call there is its first in tier 1, generated and
    compiled on top of the deepest stack, below the caller's own frames.
    ``f(199)`` calls it one level too deep, which ends the run first."""
    for n, status in ((interp.MAX_CALL_DEPTH - 2, "completed"),
                      (interp.MAX_CALL_DEPTH - 1, "budget_exceeded")):
        codes = compiled(program(DEEP_TIER_UP))
        got = _from_stack_depth(extra_frames, lambda: assert_agree(codes, "f", (n,)))
        assert got == status
        if status == "completed":
            unit, _ = codes[0].entry("hot")
            assert unit.call is not None and unit.call is not unit.tier0
