"""Differential test: the two-tier interpreter against the tree-walking
reference kept in ``reference_interp.py``.

Every ExecutionResult field must agree, floats by bit pattern, on the
corpus programs and tests, on every patch candidate the repair templates
generate (divergent, erroring and ill-typed ones among them), on every
budget around a looping function, and on random operands for every
operator.  The reference never proves divergence, so the kernels and
random loops at the end check that a fast-forwarded run ends exactly as
running its budget out does.

Each check runs at the default tier-up threshold, where a unit runs tier 0
until it is hot, and again at ``interp.TIER_UP_EDGES = 0``, where every
function runs tier 1 (the tests named ``..._in_tier_1``).
"""

import contextlib
import dataclasses
import time

import pytest
from hypothesis import given, settings, strategies as st

import reference_interp as ref
from reducto import interp
from reducto.corpus import LIBRARY
from reducto.control_slice import MAX_STATE_ITEMS, ControlSlice
from reducto.faultloc import localize
from reducto.harness import run_suite
from reducto.parser import ParseError, parse
from reducto.repair import generate_candidates
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


def compiled(ast) -> tuple:
    """The program compiled for each interpreter: (two-tier, reference)."""
    return interp.compile_ast(ast), ref.compile_ast(ast)


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


def test_corpus_programs_and_tests_in_tier_1(corpus_bundles):
    with tiering_up_at(0):
        test_corpus_programs_and_tests(corpus_bundles)


def test_every_repair_candidate(corpus_bundles):
    statuses = set()
    for bundle in corpus_bundles:
        suspicious = localize(run_suite(bundle.program, bundle.suite))
        for candidate in generate_candidates(bundle.program, parse(bundle.program), suspicious):
            try:
                codes = compiled(parse(candidate.program))
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
                    ast = parse(candidate.program, scope.lines)
                except ParseError:
                    continue
                codes = interp.compile_ast(ast, scope), ref.compile_ast(ast)
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
    assert_agree(compiled(parse(program(LOOPING))), "f", (7,), budget)


def test_every_budget_on_a_loop_in_tier_1():
    """Budget exhaustion at every step of a call, tier 1 keeping its
    budget in a local."""
    with tiering_up_at(0):
        for budget in range(61):
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


@pytest.mark.parametrize("body", BODIES)
def test_every_form_on_every_edge_pair_in_tier_1(body):
    """Every error kind, and every fast path and its way out to the full
    semantics, in generated code."""
    with tiering_up_at(0):
        codes = compiled(parse(program(f"fn f(a, b)\n{body}\nend\n")))
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
# Divergence proofs: runs that the closure interpreter fast-forwards

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
    # The state at the second back-edge differs from the first only in the
    # type of ``d``, and the third pass raises: types must be compared.
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
    # second do a, b and c share one array, and the third pass returns:
    # aliasing must be compared.
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
    # ``t`` is 0 at every back-edge: only the slice's closure under the
    # assignment ``t = total`` keeps the loop from looking cyclic.
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
    # Too big a state to encode: the loop goes unwatched from its first
    # back-edge, or from the one where its state outgrows the cap.
    "array_too_big_to_watch": ("""\
fn f(xs)
while xs[0] < 5
xs[1] = 1 - xs[1]
end
return 0
end
""", ((0,) * MAX_STATE_ITEMS,)),
    "array_outgrows_the_state_cap": ("""\
fn f(xs)
while xs[0] == 0
xs = xs + [0]
end
return 0
end
""", ((0,) * (MAX_STATE_ITEMS // 2 - 5),)),
    # The callee's loop states repeat from one call to the next.
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
    # Counters that drift away from their bound never repeat a state.  The
    # first two are the faulty forms of b03's series_sum that repair tries.
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
    # Diverges, but the bound is loop-assigned: not proven.
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
    # index-assignment or through a call: the state must hold the items,
    # not the array's identity, or the first two back-edges look alike.
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
    # back-edge: its length is no invariant bound of the drifting ``i``.
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
    # The inner loop's drift turns at i = 5, in a pass shorter than the
    # others, and the loop ends; the outer loop enters it again, where the
    # inner states repeat those of the last activation.  A pause that ran
    # past the turn would miss the outer back-edge, which drops the inner
    # loop's watch, and compare states of two activations.
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
    # ``g``'s loop returns in its second pass: had it been taken for a
    # counter loop with 49 passes to go, the pause would outlast the call
    # and the watches of ``f``'s divergent loop.
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
# Kernels that never end and that detection proves so, by a repeated state
# or by a drift.  The other kernels end, or diverge unproven.
DETECTED = {
    "counter_never_incremented", "int_float_str_array_accumulators",
    "print_inside_the_cycle", "flips_between_1_1_0_and_true",
    "flips_between_0_0_minus_0_0_and_nan", "aliased_array_toggles",
    "array_that_contains_itself", "inner_loop_ends_outer_does_not",
    "inner_loop_never_ends", "loop_calls_a_looping_function",
    "called_function_never_returns", "recursion_inside_the_loop",
    "series_sum_counts_down", "series_sum_adds_minus_one",
    "counter_climbs_above_its_floor", "counter_steps_by_three",
    "counter_steps_by_a_parameter", "counter_moves_away_from_an_unequal_bound",
    "fresh_callee_diverges", "caller_loop_diverges_around_a_callee_that_returns_early",
}
# Kernels whose counter drifts towards the end of the loop, or towards a
# wrap that ends it, and the budgets below 400 at which a drift proves the
# loop outlasts the budget: every period the budget reaches into, the one
# it ends in too, repeats the last.  A period repeats when the values its
# comparisons may see, from its first to its last, keep their outcomes and
# do not wrap.
# * ``counter_reaches_its_bound`` takes 4 steps a pass from step 3 on, and
#   ``i`` meets 60 in its 60th pass, which ends at step 243: from 15, where
#   Brent's watch holds two states a period apart, to 238.
# * The wrapping counter stands at INT_MIN + 10 - k after the k-th pass,
#   which ends at step 3k + 2, and wraps in pass 11 (ending at 35), or in
#   pass 201 for ``counter_wraps_past_the_budget``.
# * The outer loop of ``loops_in_repeated_calls_end`` is a counter loop
#   whose 11 passes left take at least 66 steps.  At 99 and 100 the budget
#   ends first, which a drift proves; at larger budgets the loop goes
#   unwatched until its last pass.
# * The inner loop of ``drift_turns_and_the_loop_is_entered_again`` takes
#   14 steps a pass until ``i`` meets 5; in each of its three activations a
#   drift proves the budgets that end before that pass.
OUTLASTED = {
    "counter_reaches_its_bound": set(range(15, 239)),
    "counter_wraps_within_the_budget": set(range(11, 32)),
    "counter_wraps_past_the_budget": set(range(11, 400)),
    "loops_in_repeated_calls_end": {99, 100},
    "drift_turns_and_the_loop_is_entered_again": {
        *range(48, 62), *range(117, 131), *range(186, 200)},
}


@contextlib.contextmanager
def watching(after=None, spell: int = interp.SPELL_EDGES):
    """Run with detection starting after ``after`` steps, whether the entry
    function has returned before or not (by default, after the module's two
    thresholds), in spells of ``spell`` back-edges, and yield the list of
    (period, budget left, whether a drift proved it) of every fast-forward."""
    jumps = []
    drifted = []  # the drift just accepted, whose fast-forward follows
    saved = (interp._fast_forward, ControlSlice.drift, interp.SPELL_EDGES,
             interp.DETECT_AFTER, interp.DETECT_FRESH)
    forward, drift = saved[:2]

    def recording(run, watch):
        jumps.append((watch.left - run.left, run.left, bool(drifted)))
        drifted.clear()
        forward(run, watch)

    def recording_drift(loop, saved, state, env, most):
        repeats = drift(loop, saved, state, env, most)
        if repeats == most and most > 1:
            drifted.append(loop)
        return repeats

    interp._fast_forward, ControlSlice.drift, interp.SPELL_EDGES = recording, recording_drift, spell
    if after is not None:
        interp.DETECT_AFTER = interp.DETECT_FRESH = after
    try:
        yield jumps
    finally:
        (interp._fast_forward, ControlSlice.drift, interp.SPELL_EDGES,
         interp.DETECT_AFTER, interp.DETECT_FRESH) = saved


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel_at_every_budget_with_detection_from_the_start(kernel):
    _kernel_at_every_budget(kernel)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel_at_every_budget_in_tier_1(kernel):
    with tiering_up_at(0):
        _kernel_at_every_budget(kernel)


def _kernel_at_every_budget(kernel):
    text, args = KERNELS[kernel]
    codes = compiled(parse(program(text)))
    forwarded = set()
    with watching(0) as jumps:
        for budget in range(400):
            before = len(jumps)
            assert_agree(codes, "f", args, budget)
            if len(jumps) > before:
                forwarded.add(budget)
    if kernel in DETECTED:
        # Every remainder of the period is met at some budget, in at least
        # three periods' worth of budgets past the first detection.
        periods = {period for period, _, _ in jumps}
        assert len(periods) == 1, periods
        (period,) = periods
        remainders = {left % period for _, left, _ in jumps}
        assert remainders == set(range(period))
        assert len(jumps) >= 3 * period
    else:
        assert forwarded == OUTLASTED.get(kernel, set())


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel_with_short_spells_and_pauses(kernel):
    """Spells of a few back-edges, with pauses between them in which loops
    are left and entered unwatched."""
    _kernel_with_short_spells(kernel)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel_with_short_spells_in_tier_1(kernel):
    with tiering_up_at(0):
        _kernel_with_short_spells(kernel)


def _kernel_with_short_spells(kernel):
    text, args = KERNELS[kernel]
    codes = compiled(parse(program(text)))
    for after in (1, 3):
        for spell in (1, 2, 3, 6):
            with watching(after, spell):
                assert_agree(codes, "f", args, CANDIDATE_BUDGET)
    with watching(5, spell=3):
        for budget in range(400):
            assert_agree(codes, "f", args, budget)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel_past_the_detection_threshold(kernel):
    text, args = KERNELS[kernel]
    codes = compiled(parse(program(text)))
    with watching(interp.DETECT_AFTER) as jumps:
        for budget in range(interp.DETECT_AFTER, interp.DETECT_AFTER + 30):
            assert_agree(codes, "f", args, budget)
        assert_agree(codes, "f", args, CANDIDATE_BUDGET)
    assert bool(jumps) == (kernel in DETECTED)


@pytest.mark.parametrize("edges", [interp.TIER_UP_EDGES, 0])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel_around_the_default_thresholds(kernel, edges):
    """The thresholds as shipped, on one compiled program: its runs watch
    from DETECT_FRESH steps until one returns, from DETECT_AFTER after."""
    text, args = KERNELS[kernel]
    with tiering_up_at(edges):
        codes = compiled(parse(program(text)))
        fresh = interp.DETECT_FRESH
        for budget in (*range(fresh - 10, fresh + 60), CANDIDATE_BUDGET):
            assert_agree(codes, "f", args, budget)


@pytest.mark.parametrize("kernel", [
    "counter_never_incremented", "int_float_str_array_accumulators", "series_sum_counts_down",
])
def test_proven_divergence_ends_a_huge_budget_at_once(kernel):
    text, args = KERNELS[kernel]
    code = interp.compile_ast(parse(program(text)))
    started = time.perf_counter()
    result = interp.execute(code, "f", list(args), 10**9)
    assert time.perf_counter() - started < 1.0
    assert (result.status, result.steps) == ("budget_exceeded", 10**9)


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


def test_random_loops_with_detection_from_the_start():
    drifts = []

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(text=loops(), a=st.integers(-3, 3), b=st.integers(-3, 3), budget=st.integers(0, 2000))
    def check(text, a, b, budget):
        codes = compiled(parse(program(text)))
        with watching(0) as jumps:
            assert_agree(codes, "f", (a, b), budget)
        drifts.extend(jump for jump in jumps if jump[2])

    check()
    assert drifts  # the generator reaches fast-forwards proven by a drift


def test_random_loops_in_tier_1():
    drifts = []

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(text=loops(), a=st.integers(-3, 3), b=st.integers(-3, 3), budget=st.integers(0, 2000))
    def check(text, a, b, budget):
        codes = compiled(parse(program(text)))
        with watching(0) as jumps:
            assert_agree(codes, "f", (a, b), budget)
        drifts.extend(jump for jump in jumps if jump[2])

    with tiering_up_at(0):
        check()
    assert drifts


# ---------------------------------------------------------------------------
# When a run starts watching, and what a watch costs, counted


def test_a_function_that_never_returned_is_watched_early_run_after_run():
    """``f(3)`` never ends, ``f(0)`` returns.  Until a call of ``f``
    returns, each run watches from DETECT_FRESH steps and is proven within
    a few periods of 3 steps; after one has, from DETECT_AFTER."""
    ast = parse(program(KERNELS["counter_never_incremented"][0]))
    codes = interp.compile_ast(ast), ref.compile_ast(ast)
    steps = []
    for n in (3, 3, 0, 3):
        with watching() as jumps:
            assert_agree(codes, "f", (n,), CANDIDATE_BUDGET)
        steps.append(CANDIDATE_BUDGET - jumps[0][1] if jumps else None)
    assert all(interp.DETECT_FRESH < n <= interp.DETECT_FRESH + 9 for n in steps[:2]), steps
    assert steps[2] is None
    assert interp.DETECT_AFTER < steps[3] <= interp.DETECT_AFTER + 9, steps


@pytest.mark.parametrize("edges", [interp.TIER_UP_EDGES, 0])
@pytest.mark.parametrize("kernel", sorted(DETECTED))
def test_a_divergent_kernel_is_proven_soon_after_the_threshold(kernel, edges):
    """Compiled afresh, so that ``f`` has not yet returned, each divergent
    kernel is proven within three periods of DETECT_FRESH steps: no pause,
    of its own loops or of a callee's, holds the proof back."""
    text, args = KERNELS[kernel]
    with tiering_up_at(edges), watching() as jumps:
        assert_agree(compiled(parse(program(text))), "f", args, CANDIDATE_BUDGET)
    ((period, left, _),) = jumps
    assert CANDIDATE_BUDGET - left <= interp.DETECT_FRESH + 3 * period


FRESH_CALLEE = """\
fn spin(k)
let t = 0
while k > 0
t = t + 1
end
return t
end
fn f(n)
if n > 0
return spin(n)
end
return 0
end
"""


def test_a_fresh_callee_diverges_under_a_caller_that_returned_before():
    """The entry function decides when a run starts watching: ``spin``
    never returned, but ``f`` did, so ``f(2)`` is proven after
    DETECT_AFTER steps, at every budget around it, in both tiers."""
    ast = parse(program(FRESH_CALLEE))
    around = range(interp.DETECT_AFTER - 5, interp.DETECT_AFTER + 25)
    for edges in (interp.TIER_UP_EDGES, 0):
        with tiering_up_at(edges):
            codes = interp.compile_ast(ast), ref.compile_ast(ast)
            assert assert_agree(codes, "f", (0,)) == "completed"
            with watching() as jumps:
                for budget in (*around, CANDIDATE_BUDGET):
                    assert assert_agree(codes, "f", (2,), budget) == "budget_exceeded"
            assert jumps[-1][1] <= CANDIDATE_BUDGET - interp.DETECT_AFTER


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


def _watch_work(name: str, after) -> tuple:
    """(states built, back-edges watched) in one run of library function
    ``name`` on its LOOP_INPUTS, freshly compiled, watching from ``after``."""
    counts = [0, 0]
    state, watch = ControlSlice.state, interp._watch

    def counted_state(loop, env):
        counts[0] += 1
        return state(loop, env)

    def counted_watch(*args):
        counts[1] += 1
        return watch(*args)

    code = interp.compile_ast(parse(program("\n".join(LIBRARY[name]) + "\n")))
    ControlSlice.state, interp._watch = counted_state, counted_watch
    try:
        with watching(after):
            result = interp.execute(code, name, list(LOOP_INPUTS[name]))
    finally:
        ControlSlice.state, interp._watch = state, watch
    assert result.status == "completed"
    return tuple(counts)


def test_every_corpus_loop_is_in_the_watch_work_table():
    assert set(LOOP_INPUTS) == {name for name, lines in LIBRARY.items()
                                if any(line.startswith("while ") for line in lines)}


@pytest.mark.parametrize("after", [None, 0])
@pytest.mark.parametrize("name", sorted(set(LOOP_INPUTS) - {"gcd_of"}))
def test_a_counter_loop_builds_at_most_two_states(name, after):
    """Watch work, counted rather than timed.  Every corpus loop but
    gcd_of's is a counter loop, for which a run builds at most two states
    per activation.  One whose passes all take the same steps is watched
    at its first watched back-edge and at its last, which the pause between
    them reaches exactly; an ``if`` in the body makes its passes uneven."""
    states, watched = _watch_work(name, after)
    assert states <= 2
    if any(line.startswith("if ") for line in LIBRARY[name]):
        assert watched <= 6
    else:
        assert watched == 2


@pytest.mark.parametrize("after, bound", [(None, 50), (0, 89)])
def test_an_unbounded_loop_builds_a_bounded_number_of_states(after, bound):
    """gcd_of's loop is no counter loop: each of its 89 passes on these
    inputs is watched, from the first after the threshold on."""
    assert _watch_work("gcd_of", after) == (bound, bound)


# ---------------------------------------------------------------------------
# Tiering up: where Python cannot compile, what a unit's key must hold, and
# tier-ups inside a divergent run and at the deepest call level


def _agree_in_every_tier(text: str, args: tuple, budgets=(interp.DEFAULT_BUDGET,)) -> None:
    """Tier 0 only, tier 1 from the first call, and the reference agree."""
    for edges in (TIER_0_ONLY, 0):
        with tiering_up_at(edges):
            codes = compiled(parse(program(text)))
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


def test_one_unit_per_text_serves_every_callee():
    """Programs holding byte-identical text for ``f`` share one scope, and
    one unit of ``f`` serves them all: with ``g(x)``, with ``g(x, y)``,
    with no ``g``, and shifted by blank or comment lines.  ``f``'s call of
    ``g`` is checked where it is made, so each program gets its own result,
    in its own lines, in both tiers, equal to the reference's.  ``f`` is
    hot after the first program, so it runs tier 1 in the later ones."""
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
            statuses, units = [], []
            for _, text, n in programs:
                ast = parse(program(text), scope.lines)
                assert ast.functions["f"].text == f_text
                code = interp.compile_ast(ast, scope)
                new = _observe(interp, code, "f", (n,), interp.DEFAULT_BUDGET)
                assert new == _observe(ref, ref.compile_ast(ast), "f", (n,),
                                       interp.DEFAULT_BUDGET)
                result = dict(new)
                statuses.append((result["status"][1], result["error_kind"][1],
                                 result["error_line"][1]))
                units.append(code.entry("f")[0])
            assert statuses == [
                ("completed", None, None),
                ("runtime_error", "ArityMismatch", 5),
                ("runtime_error", "UndefinedVariable", 5),
                ("completed", None, None),
                ("runtime_error", "UndefinedVariable", 6),
            ]
            assert all(unit is scope.units[f_text] for unit in units)
            assert units[0].call is not units[0].tier0


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
    tier 1; with ``k = -1`` the last one never ends, which tier 1's watch
    proves, by a drift, and fast-forwards."""
    ast = parse(program(DIVERGES_LATE))
    code = interp.compile_ast(ast)
    with watching(interp.DETECT_AFTER) as jumps:
        assert_agree((code, ref.compile_ast(ast)), "f", args, CANDIDATE_BUDGET)
    unit, _ = code.entry("g")
    assert unit.call is not unit.tier0
    assert len(jumps) == (args == (-1,))


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
    ast = parse(program(DEEP_TIER_UP))
    for n, status in ((interp.MAX_CALL_DEPTH - 2, "completed"),
                      (interp.MAX_CALL_DEPTH - 1, "budget_exceeded")):
        code = interp.compile_ast(ast)
        got = _from_stack_depth(extra_frames, lambda: assert_agree(
            (code, ref.compile_ast(ast)), "f", (n,)))
        assert got == status
        if status == "completed":
            unit, _ = code.entry("hot")
            assert unit.call is not None and unit.call is not unit.tier0
