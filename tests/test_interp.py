import json
import math

import pytest

from reducto import interp
from reducto.interp import MAX_CALL_DEPTH, ExecutionResult, Scope, execute
from reducto.parser import MAX_BLOCK_DEPTH, MAX_EXPR_DEPTH
from reducto.values import float_bits, value_to_json, values_equal

from conftest import program


def run(text, fn, args, budget=100_000):
    return execute(Scope().build(program(text)), fn, args, budget)


def test_trivial_addition():
    r = run("fn main()\nreturn 1 + 2\nend\n", "main", [])
    assert r.status == "completed"
    assert r.return_value == 3
    assert r.covered == {1, 2}


def test_div_by_zero_carries_line():
    r = run("fn div(a, b)\nreturn a / b\nend\n", "div", [1, 0])
    assert r.status == "runtime_error"
    assert r.error_kind == "DivByZero"
    assert r.error_line == 2
    assert r.error_line in r.covered


IF_ELSE = """\
fn pick(flag)
let x = 0
if flag
x = 4
else
x = 9
end
let y = x + 1
return y
end
"""

COVERAGE_CASES = [
    # (program, fn, args, expected covered) - hand-derived
    ("fn a(x)\nif x < 0\nreturn 0 - x\nend\nreturn x\nend\n", "a", [-5], {1, 2, 3}),
    ("fn a(x)\nif x < 0\nreturn 0 - x\nend\nreturn x\nend\n", "a", [5], {1, 2, 4, 5}),
    # while never entered: the loop end line stays uncovered
    ("fn w(n)\nlet i = 0\nwhile i < n\ni = i + 1\nend\nreturn i\nend\n", "w", [0],
     {1, 2, 3, 6}),
    ("fn w(n)\nlet i = 0\nwhile i < n\ni = i + 1\nend\nreturn i\nend\n", "w", [2],
     {1, 2, 3, 4, 5, 6}),
    # falling off the end covers the fn end line and returns int 0
    ("fn f()\nprint 1\nend\n", "f", [], {1, 2, 3}),
    # the if/else join on the end line is traversed by both branches
    (IF_ELSE, "pick", [True], {1, 2, 3, 4, 7, 8, 9}),
    (IF_ELSE, "pick", [False], {1, 2, 3, 5, 6, 7, 8, 9}),
]


@pytest.mark.parametrize("text,fn,args,expected", COVERAGE_CASES)
def test_coverage_soundness_hand_fixtures(text, fn, args, expected):
    r = run(text, fn, args)
    assert r.covered == expected


def test_fall_off_end_returns_int_zero():
    r = run("fn f()\nprint 7\nend\n", "f", [])
    assert r.status == "completed"
    assert r.return_value == 0 and type(r.return_value) is int
    assert r.output == (7,)


def canonical_json(r) -> str:
    """Every ExecutionResult field as canonical JSON: values tagged by type,
    floats by bit pattern, so equal text means a bit-identical result."""
    payload = {
        "status": r.status,
        "return": None if r.return_value is None else value_to_json(r.return_value),
        "error": [r.error_kind, r.error_line, r.error_message],
        "output": [value_to_json(v) for v in r.output],
        "covered": sorted(r.covered),
        "steps": r.steps,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def test_budget_exhaustion_and_monotonicity():
    text = "fn spin()\nwhile true\nend\nreturn 1\nend\n"
    r = run(text, "spin", [], budget=500)
    assert r.status == "budget_exceeded"
    assert r.steps <= 500

    done = "fn f(n)\nlet i = 0\nwhile i < n\ni = i + 1\nend\nreturn i\nend\n"
    base = run(done, "f", [20])
    assert base.status == "completed"
    exact = run(done, "f", [20], budget=base.steps)
    for budget in (base.steps, base.steps + 1, base.steps * 7):
        again = run(done, "f", [20], budget=budget)
        assert canonical_json(again) == canonical_json(exact)


def test_determinism_byte_for_byte(max3_program):
    code = Scope().build(max3_program)
    a = execute(code, "max3", [1, 0, 5])
    b = execute(code, "max3", [1, 0, 5])
    assert canonical_json(a) == canonical_json(b)


def test_integer_semantics():
    assert run("fn f(a, b)\nreturn a / b\nend\n", "f", [7, 2]).return_value == 3
    assert run("fn f(a, b)\nreturn a / b\nend\n", "f", [-7, 2]).return_value == -3
    assert run("fn f(a, b)\nreturn a % b\nend\n", "f", [-7, 2]).return_value == -1
    assert run("fn f(a, b)\nreturn a % b\nend\n", "f", [7, -2]).return_value == 1
    big = run("fn f(a)\nreturn a + 1\nend\n", "f", [2**63 - 1])
    assert big.return_value == -(2**63)  # wraps
    assert run("fn f(a)\nreturn a * a\nend\n", "f", [2**32]).return_value == 0
    r = run("fn f(a, b)\nreturn a % b\nend\n", "f", [1, 0])
    assert r.error_kind == "DivByZero"


def test_float_semantics_ieee():
    div = "fn f(a, b)\nreturn a / b\nend\n"
    assert run(div, "f", [1.0, 0.0]).return_value == math.inf
    assert run(div, "f", [-1.0, 0.0]).return_value == -math.inf
    assert math.isnan(run(div, "f", [0.0, 0.0]).return_value)
    assert run(div, "f", [1.0, -0.0]).return_value == -math.inf
    assert math.isnan(run("fn f(a, b)\nreturn a % b\nend\n", "f", [1.0, 0.0]).return_value)
    # canonical quiet NaN bits, stable across runs
    nan1 = run(div, "f", [0.0, 0.0]).return_value
    nan2 = run(div, "f", [0.0, 0.0]).return_value
    assert float_bits(nan1) == float_bits(nan2)
    # int/float promotion
    assert run("fn f(a, b)\nreturn a + b\nend\n", "f", [1, 0.5]).return_value == 1.5
    assert run("fn f(a, b)\nreturn a < b\nend\n", "f", [1, 1.5]).return_value is True


def test_structural_equality_in_language():
    eq = "fn f(a, b)\nreturn a == b\nend\n"
    assert run(eq, "f", [1, 1.0]).return_value is False
    assert run(eq, "f", [(1, 2), (1, 2)]).return_value is True
    assert run(eq, "f", [0.0, -0.0]).return_value is False
    nan_prog = "fn f()\nlet n = 0.0 / 0.0\nreturn n == n\nend\n"
    assert run(nan_prog, "f", []).return_value is True  # bit-pattern equality


@pytest.mark.parametrize(
    "text,args,kind",
    [
        ("fn f(xs)\nreturn xs[3]\nend\n", [(1, 2)], "IndexOutOfBounds"),
        ("fn f(xs)\nreturn xs[0 - 1]\nend\n", [(1, 2)], "IndexOutOfBounds"),
        ("fn f()\nreturn ghost\nend\n", [], "UndefinedVariable"),
        ("fn f()\nx = 1\nreturn x\nend\n", [], "UndefinedVariable"),
        ("fn f()\nreturn missing(1)\nend\n", [], "UndefinedVariable"),
        ("fn f(a)\nreturn a + true\nend\n", [1], "TypeError"),
        ("fn f(a)\nif a\nend\nreturn 0\nend\n", [3], "TypeError"),
        ("fn f(a)\nreturn not a\nend\n", [1], "TypeError"),
        ("fn f(a)\nreturn a < true\nend\n", [1], "TypeError"),
        ("fn f(xs)\nreturn xs[true]\nend\n", [(1,)], "TypeError"),
        ("fn f()\nreturn len(3)\nend\n", [], "TypeError"),
        ("fn g(a)\nreturn a\nend\nfn f()\nreturn g(1, 2)\nend\n", [], "ArityMismatch"),
    ],
)
def test_runtime_error_kinds(text, args, kind):
    r = run(text, "f", args)
    assert r.status == "runtime_error"
    assert r.error_kind == kind
    assert r.error_line in r.covered


@pytest.mark.parametrize("edges", [interp.TIER_UP_EDGES, 0])
def test_an_entry_call_that_cannot_start_is_an_error_at_line_0(edges, monkeypatch):
    """A missing function or a wrong number of arguments: a runtime error at
    line 0 that takes no step and covers nothing, whichever tier would run
    the function."""
    monkeypatch.setattr(interp, "TIER_UP_EDGES", edges)
    code = Scope().build(program("fn f(a)\nreturn a\nend\n"))
    for fn, args, kind, message in (
        ("nope", [], "UndefinedVariable", "function 'nope' is not defined"),
        ("f", [1, 2], "ArityMismatch", "'f' takes 1 arguments, got 2"),
        ("f", [], "ArityMismatch", "'f' takes 1 arguments, got 0"),
    ):
        assert execute(code, fn, args) == ExecutionResult(
            "runtime_error", None, kind, 0, message, (), frozenset(), 0
        )
    assert execute(code, "f", [7]).return_value == 7


LOOP = "fn f(n)\nlet i = 0\nwhile i < n\ni = i + 1\nend\nreturn i\nend\n"


def test_a_scope_keeps_a_cold_unit_once_a_second_program_holds_its_text():
    """Three programs of one scope hold the same ``f``, which stays cold:
    the first program's unit goes with it, the second's is kept, and the
    third runs the second's."""
    scope = Scope()
    codes = [scope.build(program("\n" * shift + LOOP)) for shift in range(3)]
    units = []
    for code in codes:
        assert execute(code, "f", [3]).return_value == 3
        units.append(code.entry("f")[0])
        if len(units) == 1:
            assert scope.units == {units[0].fn.text: None}
    assert units[0] is not units[1] and units[1] is units[2]
    assert scope.units == {units[0].fn.text: units[1]}


def test_arrays_mutate_within_run_but_results_freeze():
    text = "fn f(xs)\nxs[0] = 42\nreturn xs\nend\n"
    args = [(1, 2)]
    r = run(text, "f", args)
    assert r.return_value == (42, 2)
    assert args == [(1, 2)]  # caller's frozen value untouched
    again = run(text, "f", args)
    assert again.return_value == (42, 2)


SELF_CONTAINING = """\
fn f(how)
let a = [0, 1]
let b = [a]
a[0] = b
print len(a)
if how == 1
print a
end
if how == 2
return a
end
return g(a)
end
fn g(x)
return x
end
"""


@pytest.mark.parametrize("how, line", [(1, 7), (2, 10), (3, 12)])
def test_array_that_contains_itself_errors_where_it_is_observed(how, line):
    # a -> b -> a, two levels deep; len and the call to g do not observe it
    r = run(SELF_CONTAINING, "f", [how])
    assert (r.status, r.error_kind, r.error_line) == ("runtime_error", "CyclicArray", line)
    assert r.output == (2,)
    assert r.error_line in r.covered


def test_array_that_contains_itself_is_fine_unobserved():
    text = "fn f()\nlet a = [0]\na[0] = a\nreturn len(a[0][0])\nend\n"
    assert run(text, "f", []).return_value == 1


def test_array_concat_strings_and_len():
    assert run("fn f(a, b)\nreturn a + b\nend\n", "f", [(1,), (2, 3)]).return_value == (1, 2, 3)
    assert run('fn f()\nreturn "ab" + "cd"\nend\n', "f", []).return_value == "abcd"
    assert run('fn f(s)\nreturn s[1]\nend\n', "f", ["abc"]).return_value == "b"
    assert run('fn f(s)\nreturn len(s)\nend\n', "f", ["abc"]).return_value == 3
    assert run("fn f(xs)\nreturn len(xs)\nend\n", "f", [(5, 6)]).return_value == 2


def test_short_circuit_skips_errors():
    text = "fn f(a)\nreturn a and 1 / 0 == 1\nend\n"
    assert run(text, "f", [False]).return_value is False
    assert run(text, "f", [True]).error_kind == "DivByZero"
    text_or = "fn f(a)\nreturn a or 1 / 0 == 1\nend\n"
    assert run(text_or, "f", [True]).return_value is True


def test_recursion_bounded_as_budget_exhaustion():
    text = "fn f(n)\nreturn f(n + 1)\nend\n"
    r = run(text, "f", [0])
    assert r.status == "budget_exceeded"


def _recursive(pluses: int) -> str:
    """f(n) = pluses * n, its recursive call under ``pluses`` nested ``+``."""
    expr = "1 + (" * (pluses - 1) + "1 + f(n - 1)" + ")" * (pluses - 1)
    return f"fn f(n)\nif n == 0\nreturn 0\nend\nreturn {expr}\nend\n"


def _from_stack_depth(frames: int, call):
    return call() if frames == 0 else _from_stack_depth(frames - 1, call)


# one, four, and as many nested + as the parser allows around the call
@pytest.mark.parametrize("pluses", [1, 4, MAX_EXPR_DEPTH - 3])
@pytest.mark.parametrize("extra_frames", [0, 300])
def test_call_depth_limit_ends_as_blown_budget(pluses, extra_frames):
    code = Scope().build(program(_recursive(pluses)))

    def run_at(n):
        return _from_stack_depth(extra_frames, lambda: execute(code, "f", [n]))

    deepest = run_at(MAX_CALL_DEPTH - 1)  # the entry call plus 199 nested calls
    assert deepest.status == "completed"
    assert deepest.return_value == pluses * (MAX_CALL_DEPTH - 1)
    for n in (MAX_CALL_DEPTH, 250):
        assert run_at(n).status == "budget_exceeded"


@pytest.mark.parametrize("extra_frames", [0, 300])
def test_first_call_at_the_deepest_level_lowers_the_deepest_function(extra_frames):
    """Lowering recurses per block and expression level, on top of the
    deepest call stack a run allows."""
    expr = "(" * (MAX_EXPR_DEPTH - 2) + "n" + ")" * (MAX_EXPR_DEPTH - 2)
    opens = "".join("while false\n" if level % 2 else "if true\nelse\n"
                    for level in range(MAX_BLOCK_DEPTH))
    deep = f"fn deep(n)\n{opens}return {expr}\n" + "end\n" * MAX_BLOCK_DEPTH + "return 0\nend\n"
    calls = "fn f(n)\nif n == 0\nreturn deep(n)\nend\nreturn 1 + f(n - 1)\nend\n"
    code = Scope().build(program(deep + calls))
    depth = MAX_CALL_DEPTH - 2  # f's entry call, 198 nested ones, then deep
    result = _from_stack_depth(extra_frames, lambda: execute(code, "f", [depth]))
    assert (result.status, result.return_value) == ("completed", depth)


@pytest.mark.parametrize("extra_frames", [0, 300])
def test_first_call_at_the_deepest_level_generates_the_deepest_function(extra_frames, monkeypatch):
    """Every function that computes tiers up on its first call: generating
    the deepest one, and failing to compile it, happens on top of the
    deepest stack."""
    monkeypatch.setattr(interp, "TIER_UP_EDGES", 0)
    test_first_call_at_the_deepest_level_lowers_the_deepest_function(extra_frames)


def test_recursion_within_depth_works():
    text = """\
fn fact(n)
if n <= 1
return 1
end
return n * fact(n - 1)
end
"""
    assert run(text, "fact", [10]).return_value == 3628800


def test_print_records_structured_values():
    text = 'fn f()\nprint [1, "x"]\nprint 2.5\nreturn 0\nend\n'
    r = run(text, "f", [])
    assert r.output == ((1, "x"), 2.5)
    assert values_equal(r.output[1], 2.5)
