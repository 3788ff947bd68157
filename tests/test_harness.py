import json
import math
import random

import pytest

from reducto.harness import (
    TestCase,
    TestSuite,
    run_suite,
    run_test,
    signature,
    suite_from_json,
    suite_to_json,
)
from reducto.interp import compile_ast, execute
from reducto.parser import parse
from reducto.values import value_from_json, value_to_json, values_equal

from conftest import program

ADD = "fn add(a, b)\nreturn a + b\nend\n"
DIV = "fn div(a, b)\nreturn a / b\nend\n"


def compiled(text: str):
    return compile_ast(parse(program(text)))


def test_pass_and_fail_on_value():
    p = compiled(ADD)
    assert run_test(p, TestCase("t", "add", (2, 2), "value", 4)).kind == "Pass"
    out = run_test(p, TestCase("t", "add", (2, 2), "value", 5))
    assert out.kind == "Fail"
    assert json.loads(out.expected) == {"value": {"int": 5}}
    assert json.loads(out.actual) == {"value": {"int": 4}}


def test_expected_error_is_a_pass():
    p = compiled(DIV)
    out = run_test(p, TestCase("t", "div", (1, 0), "error", "DivByZero"))
    assert out.kind == "Pass"
    # direct interpreter confirmation of kind and line
    r = execute(p, "div", [1, 0])
    assert r.error_kind == "DivByZero" and r.error_line == 2


def test_wrong_error_kind_is_errored():
    p = compiled(DIV)
    out = run_test(p, TestCase("t", "div", (1, 0), "error", "TypeError"))
    assert out.kind == "Errored"
    assert out.error_kind == "DivByZero"


def test_error_expected_but_completed_is_fail():
    out = run_test(compiled(ADD), TestCase("t", "add", (1, 1), "error", "DivByZero"))
    assert out.kind == "Fail"
    assert json.loads(out.expected) == {"error": "DivByZero"}


def test_output_expectation():
    p = compiled("fn f(a)\nprint a\nprint a + 1\nreturn 0\nend\n")
    assert run_test(p, TestCase("t", "f", (3,), "output", (3, 4))).kind == "Pass"
    assert run_test(p, TestCase("t", "f", (3,), "output", (3,))).kind == "Fail"
    # value comparison is structural: int 3 printed is not float 3.0
    assert run_test(p, TestCase("t", "f", (3,), "output", (3.0, 4))).kind == "Fail"


def test_unbuildable_and_budget_outcomes():
    broken = program("fn f(\nreturn 1\nend\n")
    suite = TestSuite((TestCase("t", "f", (), "value", 1),))
    assert run_suite(broken, suite).outcomes["t"].kind == "Unbuildable"
    spin = compiled("fn f()\nwhile true\nend\nreturn 1\nend\n")
    out = run_test(spin, TestCase("t", "f", (), "value", 1, budget=200))
    assert out.kind == "BudgetExceeded"


def test_missing_function_reports_line_zero():
    out = run_test(compiled(ADD), TestCase("t", "nope", (), "value", 1))
    assert out.kind == "Errored"
    assert out.error_kind == "UndefinedVariable"
    assert out.error_line == 0
    # a test may legitimately pin that behavior
    ok = run_test(compiled(ADD), TestCase("t", "nope", (), "error", "UndefinedVariable"))
    assert ok.kind == "Pass"


def test_array_that_contains_itself_is_a_runtime_error():
    code = compiled("fn f(n)\nlet a = [n]\nlet b = [a]\na[0] = b\nprint a\nreturn 0\nend\n")
    out = run_test(code, TestCase("t", "f", (1,), "output", ((1,),)))
    assert (out.kind, out.error_kind, out.error_line) == ("Errored", "CyclicArray", 5)
    assert run_test(code, TestCase("t", "f", (1,), "error", "CyclicArray")).passed
    assert signature("t", out).error_kind == "CyclicArray"


def test_run_suite_partition_and_coverage(max3_program, max3_suite):
    result = run_suite(max3_program, max3_suite)
    assert result.passing == ("t1", "t2", "t3", "t5", "t6")
    assert result.failing == ("t4",)
    assert set(result.outcomes) == set(max3_suite.ids())
    for outcome in result.outcomes.values():
        assert outcome.covered <= set(range(1, 11))


def test_empty_suite():
    result = run_suite(program(ADD), TestSuite(()))
    assert result.passing == () and result.failing == ()


def test_unparseable_program_fails_everything(max3_suite):
    broken = program("fn max3(a, b, c)\nreturn m\n")
    result = run_suite(broken, max3_suite)
    assert result.passing == ()
    assert set(result.failing) == set(max3_suite.ids())
    assert all(o.kind == "Unbuildable" for o in result.outcomes.values())


def test_suite_order_independence(max3_program, max3_suite):
    base = run_suite(max3_program, max3_suite)
    rng = random.Random(3)
    tests = list(max3_suite.tests)
    for _ in range(5):
        rng.shuffle(tests)
        shuffled = run_suite(max3_program, TestSuite(tuple(tests)))
        for tid in max3_suite.ids():
            assert shuffled.outcomes[tid] == base.outcomes[tid]


def test_signature_shapes():
    sig = signature("t1", run_test(compiled(ADD), TestCase("t1", "add", (2, 2), "value", 4)))
    assert (sig.outcome, sig.error_kind, sig.expected) == ("Pass", None, None)

    box = compiled("fn f(xs)\nreturn xs[9]\nend\n")
    sig = signature("t2", run_test(box, TestCase("t2", "f", ((1,),), "value", 1)))
    assert sig.outcome == "Errored"
    assert sig.error_kind == "IndexOutOfBounds"
    assert sig.error_line == 2


def test_signatures_ignore_message_text():
    a = compiled("fn f(xs)\nreturn xs[5]\nend\n")
    b = compiled("fn f(xs)\nreturn xs[2 + 3]\nend\n")
    ta = TestCase("t", "f", ((1,),), "value", 1)
    sa = signature("t", run_test(a, ta))
    sb = signature("t", run_test(b, ta))
    assert sa == sb  # same kind and line; differing messages never compared


def test_equal_values_different_spellings_equal_signatures():
    # +inf computed by arithmetic vs +inf re-parsed from its hex bit pattern
    computed = compiled("fn f()\nreturn 1.0 / 0.0\nend\n")
    out_computed = run_test(computed, TestCase("t", "f", (), "value", 2.0))
    reparsed_inf = value_from_json(value_to_json(math.inf))
    lit = compiled("fn g(x)\nreturn x\nend\n")
    out_literal = run_test(lit, TestCase("t", "g", (reparsed_inf,), "value", 2.0))
    assert signature("t", out_computed) == signature("t", out_literal)
    assert json.loads(out_computed.actual) == {"value": {"float": "0x7ff0000000000000"}}


def test_suite_json_round_trip(max3_suite):
    data = suite_to_json(max3_suite)
    again = suite_from_json(json.loads(json.dumps(data)))
    assert suite_to_json(again) == data


def test_suite_json_preserves_float_bits():
    suite = TestSuite((
        TestCase("t", "f", (math.inf, -0.0), "value", float("nan")),
    ))
    again = suite_from_json(suite_to_json(suite))
    test = again.tests[0]
    assert test.args[0] == math.inf
    assert math.copysign(1.0, test.args[1]) == -1.0
    assert math.isnan(test.expect)


def test_multi_assert_rejected():
    data = [{
        "id": "t",
        "call": {"fn": "f", "args": []},
        "expect": {"value": {"int": 1}, "error": "DivByZero"},
    }]
    with pytest.raises(ValueError, match="'t' carries multiple expectations"):
        suite_from_json(data)


@pytest.mark.parametrize(
    "data",
    [
        "not a list",
        [{"id": 3, "call": {"fn": "f", "args": []}, "expect": {"value": {"int": 1}}}],
        [{"id": "t", "expect": {"value": {"int": 1}}}],
        [{"id": "t", "call": {"fn": "f", "args": []}}],
        [{"id": "t", "call": {"fn": "f", "args": []}, "expect": {"oops": 1}}],
        [{"id": "t", "call": {"fn": "f", "args": []}, "expect": {"error": "NotAKind"}}],
        [{"id": "a", "call": {"fn": "f", "args": []}, "expect": {"value": {"int": 1}}},
         {"id": "a", "call": {"fn": "f", "args": []}, "expect": {"value": {"int": 1}}}],
        [{"id": "t", "call": {"fn": "f", "args": None}, "expect": {"value": {"int": 1}}}],
        [{"id": "t", "call": {"fn": "f", "args": {"int": 1}}, "expect": {"value": {"int": 1}}}],
        [{"id": "t", "call": {"fn": [], "args": []}, "expect": {"value": {"int": 1}}}],
        [{"id": "t", "call": {"fn": 3, "args": []}, "expect": {"value": {"int": 1}}}],
    ],
)
def test_malformed_suites_rejected(data):
    with pytest.raises(ValueError):
        suite_from_json(data)


def test_signature_replay_faithfulness(max3_program, max3_suite):
    first = run_suite(max3_program, max3_suite)
    second = run_suite(max3_program, max3_suite)
    for tid in max3_suite.ids():
        assert signature(tid, first.outcomes[tid]) == signature(tid, second.outcomes[tid])


NESTED = """\
fn nest(n)
let a = [1.5]
let b = [1.5]
let i = 0
while i < n
a = [a]
b = [b]
i = i + 1
end
print a == b
print a
return a
end
"""


def test_arrays_nested_5000_deep_through_execute_and_run_test():
    depth = 5_000
    code = compiled(NESTED)
    expected = (1.5,)
    for _ in range(depth):
        expected = (expected,)
    result = execute(code, "nest", [depth])
    assert result.status == "completed"
    assert values_equal(result.return_value, expected)
    assert values_equal(result.output, (True, expected))

    assert run_test(code, TestCase("v", "nest", (depth,), "value", expected)).passed
    assert run_test(code, TestCase("o", "nest", (depth,), "output", (True, expected))).passed
    shallower = run_test(code, TestCase("v", "nest", (depth,), "value", expected[0]))
    assert shallower.kind == "Fail"
    text = '{"array":[' * (depth + 1) + '{"float":"0x3ff8000000000000"}' + "]}" * (depth + 1)
    assert shallower.actual == '{"value":' + text + "}"
    assert shallower.expected == '{"value":' + text[len('{"array":['):-len("]}")] + "}"
