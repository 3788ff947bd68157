"""Deterministic, budgeted interpreter for SLANG, in two tiers.

Tier 0 lowers a function to Python closures on its first call.  Each
expression becomes a closure specialised on its operator, with a fast path
for two ints; each statement becomes a closure that returns the index of
the next one in the function's flat statement list, so loops run
iteratively and only calls recurse.  Tier 1 is one generated Python
function per hot SLANG function: SLANG variables become Python locals, and
each step becomes straight-line Python with the same fast paths inline,
calling tier 0's helpers (``_binary``, ``_index``, ``_unary``, ...) for
every other case.  The two tiers take the same steps, cover the same lines
and raise the same errors, so a run's result does not depend on which tier
ran which call.  Execution is budgeted in statement steps and records
per-line coverage and the ordered sequence of printed values.

Function units.  A unit is one function as lowered, shared by every
program of a ``Scope`` that holds the same function: its key is the raw
texts of the function's lines, header to ``end``, alone.  A call is
checked where it is made, by ``_invoke``, against the functions of the
calling program, so a unit does not depend on the program's other
functions.  Its steps' lines and its errors' lines are kept relative to
the header, and placed where the calling program holds the function, so
a function that a candidate edit left alone, or only shifted, is not
lowered per candidate.  A scope keeps a unit once a second program holds
its text, or once the unit is hot; the unit of a text met once, most
often a candidate's own edit, goes with its program.  A scope is one
slicer run, one configuration's repair or one program built alone; it
starts cold, so it speeds up every configuration alike.

Tiering up.  A unit counts its back-edges over every call in its scope.
Once they reach TIER_UP_EDGES, its next call runs tier 1, generated and
compiled then; a call already running stays in tier 0.  A function that
calls, prints or writes an array element stays in tier 0, and so does one
Python cannot compile, nested too deeply say.

Semantics pinned down for reproducibility:

* integers are 64-bit two's complement and wrap on overflow; division and
  modulo truncate toward zero and raise DivByZero on a zero divisor;
* floats are IEEE binary64; float division/modulo by zero follow IEEE
  (inf/nan), never raising;
* mixed int/float arithmetic and ordering promote the int operand;
  ``==``/``!=`` stay type-strict and structural;
* a function that falls off its end returns the integer 0;
* an entry call to a missing function, or with the wrong number of
  arguments, cannot start: it is a runtime error at line 0 that covers
  nothing;
* a call nested deeper than MAX_CALL_DEPTH ends the run as
  budget_exceeded, however deep the caller's own Python stack is.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
import weakref
from dataclasses import dataclass
from typing import Optional

from . import parser as P
from .source import SourceProgram
from .values import INT_MAX, INT_MIN, CyclicArray, freeze, thaw, values_equal, wrap_int

DEFAULT_BUDGET = 100_000
MAX_CALL_DEPTH = 200

# Back-edges a unit takes in tier 0, summed over its calls in one scope,
# before its next call runs tier 1.  Generating and compiling a function
# costs about as much as a few thousand tier-0 steps, which a unit that
# looped this often is likely to take again; most units never get here.
TIER_UP_EDGES = 256

# Python frames one SLANG call level holds at most: in tier 0 its
# statement loop, the statement, one closure per level of expression
# nesting down to the call, which the parser bounds by MAX_EXPR_DEPTH, and
# ``_invoke``; a tier-1 function calls nothing.  The slack covers the
# entry frames, the helpers a closure calls, and lowering or generating a
# function on its first or hot call, which recurses once per level of block
# and expression nesting (MAX_BLOCK_DEPTH + MAX_EXPR_DEPTH frames at most).
_STACK_HEADROOM = MAX_CALL_DEPTH * (P.MAX_EXPR_DEPTH + 3) + 500

ERROR_KINDS = (
    "DivByZero",
    "IndexOutOfBounds",
    "UndefinedVariable",
    "TypeError",
    "ArityMismatch",
    "CyclicArray",
)


class SlangError(Exception):
    """Runtime error inside a SLANG execution."""

    def __init__(self, kind: str, line: int, message: str):
        super().__init__(f"{kind} at line {line}: {message}")
        self.kind = kind
        self.line = line
        self.message = message


class _Fault(Exception):
    """A SlangError whose line is still relative to its function's header;
    the function it arose in places it on the way out."""

    def __init__(self, kind: str, line: int, message: str):
        super().__init__(kind, line, message)
        self.kind = kind
        self.line = line
        self.message = message


def _placed(fault: _Fault, lines: tuple) -> SlangError:
    """``fault`` at its line in the program: ``lines[0]`` is the header's.
    The fault loses its traceback, which holds the frame that raises the
    error, and so would make the error a reference cycle."""
    fault.__traceback__ = None
    return SlangError(fault.kind, lines[0] + fault.line, fault.message)


class _BudgetExhausted(Exception):
    pass


def _exhausted():
    raise _BudgetExhausted()


# One per execution, so slotted rather than frozen: a frozen dataclass's
# ``__init__`` pays one ``object.__setattr__`` per field.  No one writes to
# a result once it is returned.
@dataclass(slots=True)
class ExecutionResult:
    status: str  # "completed" | "runtime_error" | "budget_exceeded"
    return_value: object
    error_kind: Optional[str]
    error_line: Optional[int]
    error_message: Optional[str]
    output: tuple
    covered: frozenset
    steps: int


class Scope:
    """What the programs of one scope share: a slicer run, one
    configuration's repair, or a single compiled program.  ``lines`` is the
    line table ``parser.parse`` takes, and ``units`` holds each function
    lowered once for every program that holds it (see ``Code.entry``).
    A scope starts cold."""

    __slots__ = ("lines", "units")

    def __init__(self):
        self.lines: dict = {}
        self.units: dict = {}  # function text -> its unit, None until kept

    def build(self, program: SourceProgram) -> "Code":
        """``program`` parsed through this scope's line table and compiled
        in this scope; a ParseError when it does not parse.  Both calls go
        through their modules' names, which the benchmark's tracer wraps."""
        return compile_ast(P.parse(program, self.lines), self)


class Code:
    """Compiled form of an Ast, the only program form ``execute`` runs.

    Each function is linked to its scope's unit on its first call, and the
    unit is placed at the function's lines; both are kept here for every
    later call and execution."""

    def __init__(self, ast: P.Ast, scope: Scope):
        self.functions = ast.functions
        self.scope = scope
        self._entries: dict = {}

    def entry(self, name: str) -> Optional[tuple]:
        """(the unit of function ``name``, the line of each of its steps);
        None when the program has no such function."""
        return self._entries.get(name) or self._link(name)

    def _link(self, name: str) -> Optional[tuple]:
        fn = self.functions.get(name)
        if fn is None:
            return None
        units = self.scope.units
        unit = units.get(fn.text)
        if unit is None:
            unit = _Unit(fn)
            # Most texts are met once, a candidate's own edit say: the scope
            # keeps a unit once a second program holds its text, or once it
            # is hot, and so holds few that no later program will run.
            units[fn.text] = unit if fn.text in units else None
        entry = self._entries[name] = (unit, tuple(fn.line + offset for offset in unit.offsets))
        return entry


class _Unit:
    """One function lowered: tier 0 at once, tier 1 once it is hot.

    ``call(run, lines, args)`` runs one call of it in ``run``, ``lines``
    giving the line of each step where the program holds the function; it
    is None when the next call is to tier up.
    ``offsets`` are those lines relative to the header.

    Nothing the unit holds refers back to it but weakly: a scope's units
    are freed as soon as the scope is, without the cyclic collector."""

    __slots__ = ("fn", "offsets", "tier0", "call", "edges", "__weakref__")

    def __init__(self, fn: P.Function):
        self.fn = fn
        self.edges = [0]  # back-edges taken in tier 0
        offsets, steps = [0], [_goto(1)]
        _lower_block(fn.body, fn.line, offsets, steps, self)
        self.offsets = (*offsets, fn.end_line - fn.line)
        self.tier0 = _tier0(fn.params, (*steps, _fall_off))
        self.call = None if TIER_UP_EDGES <= 0 else self.tier0

    def heat(self, scope: Scope) -> None:
        """Tier up at the next call, which may come from a later program:
        ``scope`` keeps the unit from now on, unless it keeps another unit
        of the same text already."""
        self.call = None
        if scope.units[self.fn.text] is None:
            scope.units[self.fn.text] = self

    def promote(self, scope: Scope):
        """Tier 1 for this call and every later one, or tier 0 when the
        generated function does not compile."""
        self.heat(scope)
        self.call = _generate(self) or self.tier0
        return self.call


class _Run:
    """The state of one execution, passed to every closure."""

    __slots__ = ("code", "left", "depth", "covered", "output", "returned")

    def __init__(self, code: Code, budget: int):
        self.code = code
        self.left = budget  # steps still allowed
        self.depth = 1  # the entry call
        self.covered: set[int] = set()
        self.output: list = []
        self.returned = None


# ---------------------------------------------------------------------------
# Full semantics, for the operands the fast paths of both tiers do not take.
# Lines here are relative to the function's header.

def _type_name(v) -> str:
    t = type(v)
    if t is bool:
        return "bool"
    if t is int:
        return "int"
    if t is float:
        return "float"
    if t is str:
        return "str"
    if t is list or t is tuple:
        return "array"
    return "value"


def _float_div(a: float, b: float) -> float:
    if b == 0.0:
        if a == 0.0 or math.isnan(a):
            return math.nan
        sign = math.copysign(1.0, a) * math.copysign(1.0, b)
        return math.copysign(math.inf, sign)
    return a / b


def _float_mod(a: float, b: float) -> float:
    if b == 0.0 or math.isnan(a) or math.isnan(b) or math.isinf(a):
        return math.nan
    return math.fmod(a, b)


_NUMERIC = {int, float}
_DIVISIONS = {"/": "division", "%": "modulo"}
_ORDERINGS = {"<", "<=", ">", ">="}
# Python's operator for each SLANG operator, exact on two ints
_PYTHON_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "==": operator.eq, "!=": operator.ne,
}
_FLOAT_OPS = {**_PYTHON_OPS, "/": _float_div, "%": _float_mod}


def _binary(op: str, left, right, line: int):
    """``left op right`` for every operator but ``and``/``or``."""
    if op == "==" or op == "!=":
        return values_equal(left, right) is (op == "==")
    lt, rt = type(left), type(right)
    if op in _ORDERINGS:
        if lt in _NUMERIC and rt in _NUMERIC:
            if lt is not rt:
                left, right = float(left), float(right)
        elif lt is not str or rt is not str:
            raise _Fault(
                "TypeError", line, f"cannot order {_type_name(left)} and {_type_name(right)}"
            )
        return _PYTHON_OPS[op](left, right)
    if lt is bool or rt is bool:
        pass  # no arithmetic on bools
    elif op == "+" and lt is str and rt is str:
        return left + right
    elif op == "+" and lt in (list, tuple) and rt in (list, tuple):
        return list(left) + list(right)
    elif lt is int and rt is int:
        if op not in _DIVISIONS:
            return wrap_int(_PYTHON_OPS[op](left, right))
        if right == 0:
            raise _Fault("DivByZero", line, f"integer {_DIVISIONS[op]} by zero")
        q = abs(left) // abs(right)
        q = -q if (left < 0) != (right < 0) else q
        return wrap_int(q if op == "/" else left - q * right)
    elif lt in _NUMERIC and rt in _NUMERIC:
        return _FLOAT_OPS[op](float(left), float(right))
    raise _Fault(
        "TypeError", line, f"cannot apply {op!r} to {_type_name(left)} and {_type_name(right)}"
    )


def _unary(op: str, v, line: int):
    if op == "not":
        if type(v) is not bool:
            raise _Fault("TypeError", line, f"'not' needs bool, got {_type_name(v)}")
        return not v
    if type(v) is int or type(v) is float:
        return wrap_int(-v) if type(v) is int else -v
    raise _Fault("TypeError", line, f"cannot negate {_type_name(v)}")


def _index(base, index, line: int):
    if type(index) is not int:
        raise _Fault("TypeError", line, f"index must be int, got {_type_name(index)}")
    if type(base) is not list and type(base) is not tuple and type(base) is not str:
        raise _Fault("TypeError", line, f"cannot index {_type_name(base)}")
    if index < 0 or index >= len(base):
        raise _Fault(
            "IndexOutOfBounds", line, f"index {index} out of bounds for length {len(base)}"
        )
    return base[index]


def _len(v, line: int) -> int:
    if type(v) is list or type(v) is tuple or type(v) is str:
        return len(v)
    raise _Fault("TypeError", line, f"len() needs array or str, got {_type_name(v)}")


def _bad_logic(op: str, v, line: int):
    raise _Fault("TypeError", line, f"{op!r} needs bool, got {_type_name(v)}")


def _bad_condition(v, line: int):
    raise _Fault("TypeError", line, f"condition must be bool, got {_type_name(v)}")


def _fail(kind: str, line: int, message: str):
    raise _Fault(kind, line, message)


def _observed(value, line: int):
    """``value`` frozen where a print or the entry call's return observes
    it; an array that contains itself cannot be observed."""
    try:
        return freeze(value)
    except CyclicArray:
        raise _Fault("CyclicArray", line, "array contains itself") from None


def _call_error(functions: dict, name: str, nargs: int) -> Optional[tuple]:
    """(kind, message) when ``functions`` hold no function ``name`` that
    takes ``nargs`` arguments."""
    fn = functions.get(name)
    if fn is None:
        return "UndefinedVariable", f"function {name!r} is not defined"
    if nargs != len(fn.params):
        return "ArityMismatch", f"{name!r} takes {len(fn.params)} arguments, got {nargs}"
    return None


def _invoke(run, name: str, args: list, line: int):
    """Call function ``name`` one level deeper, in its unit's tier, with
    ``args`` evaluated at ``line`` of the caller."""
    entry = run.code.entry(name)
    if entry is None or len(args) != len(entry[0].fn.params):
        kind, message = _call_error(run.code.functions, name, len(args))
        raise _Fault(kind, line, message)
    # Deep recursion is resource exhaustion, reported as a blown budget.
    run.depth += 1
    if run.depth > MAX_CALL_DEPTH:
        raise _BudgetExhausted()
    try:
        unit, lines = entry
        return (unit.call or unit.promote(run.code.scope))(run, lines, args)
    finally:
        run.depth -= 1


# ---------------------------------------------------------------------------
# Tier 0, expressions: each becomes a closure ``(run, env) -> value``

def _lower_expr(expr: P.Expr, line: int):
    t = type(expr)
    if t is P.Lit:
        value = expr.value
        return lambda run, env: value
    if t is P.Var:
        name = expr.name

        def var(run, env):
            try:
                return env[name]
            except KeyError:
                raise _Fault("UndefinedVariable", line, f"undefined variable {name!r}") from None
        return var
    if t is P.Binary:
        left = _lower_expr(expr.left, line)
        right = _lower_expr(expr.right, line)
        return _lower_binary(expr.op, left, right, line)
    if t is P.Unary:
        op, operand = expr.op, _lower_expr(expr.operand, line)
        return lambda run, env: _unary(op, operand(run, env), line)
    if t is P.Index:
        base = _lower_expr(expr.base, line)
        index = _lower_expr(expr.index, line)

        def index_(run, env):
            b = base(run, env)
            i = index(run, env)
            if type(b) is list and type(i) is int and 0 <= i < len(b):
                return b[i]
            return _index(b, i, line)
        return index_
    if t is P.Len:
        arg = _lower_expr(expr.arg, line)

        def len_(run, env):
            v = arg(run, env)
            if type(v) is list:
                return len(v)
            return _len(v, line)
        return len_
    if t is P.ArrayLit:
        items = tuple(_lower_expr(item, line) for item in expr.items)

        def array(run, env):
            values = []
            for item in items:
                values.append(item(run, env))
            return values
        return array
    return _lower_call(expr, line)


def _lower_binary(op: str, left, right, line: int):
    if op == "and" or op == "or":
        stop = op == "or"  # the left value that decides the result alone

        def logic(run, env):
            a = left(run, env)
            if type(a) is not bool:
                _bad_logic(op, a, line)
            if a is stop:
                return stop
            b = right(run, env)
            if type(b) is not bool:
                _bad_logic(op, b, line)
            return b
        return logic

    fast = _PYTHON_OPS.get(op)
    if fast is None:  # int division and modulo need their own rounding
        return lambda run, env: _binary(op, left(run, env), right(run, env), line)

    def binary(run, env):
        a = left(run, env)
        b = right(run, env)
        if type(a) is int and type(b) is int:
            r = fast(a, b)
            if INT_MIN <= r <= INT_MAX:  # a bool from a comparison passes too
                return r
        return _binary(op, a, b, line)
    return binary


def _lower_call(expr: P.Call, line: int):
    name = expr.name
    arguments = tuple(_lower_expr(arg, line) for arg in expr.args)

    def call(run, env):
        args = []  # a loop, not a comprehension: no extra frame per call level
        for argument in arguments:
            args.append(argument(run, env))
        return _invoke(run, name, args, line)
    return call


def _back_edge(head: int, unit: _Unit):
    edges, owner = unit.edges, weakref.ref(unit)

    def back_edge(run, env):
        edges[0] += 1
        if edges[0] == TIER_UP_EDGES:
            owner().heat(run.code.scope)
        return head
    return back_edge


# ---------------------------------------------------------------------------
# Tier 0, statements: each becomes a closure ``(run, env) -> index of the
# next``; a negative index ends the function, returning ``run.returned``.

def _goto(target: int):
    return lambda run, env: target


def _branch(cond, line: int, then_pc: int, else_pc: int):
    def branch(run, env):
        c = cond(run, env)
        if c is True:
            return then_pc
        if c is False:
            return else_pc
        _bad_condition(c, line)
    return branch


def _lower_stmt(stmt: P.Stmt, line: int, nxt: int):
    t = type(stmt)
    expr = _lower_expr(stmt.expr, line)
    if t is P.Return:
        def return_(run, env):
            value = expr(run, env)
            # the entry call's result is observed; a callee's stays mutable
            run.returned = _observed(value, line) if run.depth == 1 else value
            return -1
        return return_
    if t is P.Print:
        def print_(run, env):
            run.output.append(_observed(expr(run, env), line))
            return nxt
        return print_
    name = stmt.name
    if t is P.Let:
        def let(run, env):
            env[name] = expr(run, env)
            return nxt
        return let
    if t is P.Assign:
        def assign(run, env):
            if name not in env:
                raise _Fault("UndefinedVariable", line, f"assignment to undeclared {name!r}")
            env[name] = expr(run, env)
            return nxt
        return assign
    index = _lower_expr(stmt.index, line)

    def index_assign(run, env):
        if name not in env:
            raise _Fault("UndefinedVariable", line, f"undefined variable {name!r}")
        base = env[name]
        if type(base) is not list:
            raise _Fault("TypeError", line, f"cannot index-assign {_type_name(base)}")
        i = index(run, env)
        _index(base, i, line)
        base[i] = expr(run, env)
        return nxt
    return index_assign


def _fall_off(run, env):
    run.returned = 0  # falling off the end returns integer zero
    return -1


def _lower_block(block: tuple, base: int, offsets: list, steps: list, unit: _Unit) -> None:
    """Append each step's closure to ``steps`` and its line, relative to
    the header line ``base``, to ``offsets``.  Not nested in _Unit: a
    nested function calling itself is a reference cycle, which would keep
    every closure alive until collected.  ``_Source`` lays the steps out
    in the same order."""
    def emit(line: int, step) -> int:
        offsets.append(line - base)
        steps.append(step)
        return len(steps) - 1

    for stmt in block:
        line = stmt.line - base
        if type(stmt) is P.If:
            at = emit(stmt.line, None)  # the branch, set once its targets are known
            _lower_block(stmt.then_body, base, offsets, steps, unit)
            false_target = len(steps)
            if stmt.else_body is not None:
                jump_at = emit(stmt.line, None)
                false_target = emit(stmt.else_line, _goto(jump_at + 2))
                _lower_block(stmt.else_body, base, offsets, steps, unit)
                steps[jump_at] = _goto(len(steps))
            emit(stmt.end_line, _goto(len(steps) + 1))
            cond = _lower_expr(stmt.cond, line)
            steps[at] = _branch(cond, line, at + 1, false_target)
        elif type(stmt) is P.While:
            head = emit(stmt.line, None)
            _lower_block(stmt.body, base, offsets, steps, unit)
            emit(stmt.end_line, _back_edge(head, unit))
            cond = _lower_expr(stmt.cond, line)
            steps[head] = _branch(cond, line, head + 1, len(steps))
        else:
            emit(stmt.line, _lower_stmt(stmt, line, len(steps) + 1))


def _tier0(params: tuple, steps: tuple):
    """The function as one closure ``(run, lines, args) -> return value``.

    Every statement, ``else`` and ``end`` line is one step; so are the
    function's header and end lines and the jump over an ``else`` arm."""
    def body(run, lines, args):
        env = dict(zip(params, args))
        cover = run.covered.add
        pc = 0
        try:
            while pc >= 0:
                left = run.left
                if left <= 0:
                    raise _BudgetExhausted()
                run.left = left - 1
                cover(lines[pc])
                pc = steps[pc](run, env)
        except _Fault as fault:
            raise _placed(fault, lines) from None
        return run.returned
    return body


# ---------------------------------------------------------------------------
# Tier 1: one generated Python function per hot unit

_UNDEFINED = object()  # a tier-1 local whose SLANG variable no ``let`` defined yet


def _generate(unit: _Unit):
    """Tier 1 of ``unit``, or None when its function calls, prints or
    writes an array element, or when Python cannot compile it: CPython
    nests at most 20 loops, and its parser and compiler bound the depth of
    the source and the stack they may take."""
    for stmt in P.statements(unit.fn.body):
        if type(stmt) in (P.Print, P.IndexAssign) or any(
            type(node) is P.Call for expr in P.expressions(stmt) for node in P.nodes(expr)
        ):
            return None
    source = _Source(unit)
    try:
        code = compile(source.function(), f"<tier 1 of {unit.fn.name}>", "exec")
    except (SyntaxError, RecursionError, MemoryError):
        return None
    namespace = {  # every global the source names
        "_exhausted": _exhausted, "_Fault": _Fault, "_placed": _placed,
        "_compress": itertools.compress, "_UNDEFINED": _UNDEFINED, "_observed": _observed,
        "_binary": _binary, "_unary": _unary, "_index": _index, "_len": _len, "_fail": _fail,
        "_bad_logic": _bad_logic, "_bad_condition": _bad_condition, **source.constants,
    }
    exec(code, namespace)
    return namespace.pop("tier1")  # which holds the namespace: no cycle


def _variable(name: str) -> str:
    return "v_" + name  # no generated name starts with ``v_``


class _Source:
    """Python source of a unit's tier-1 function ``tier1(run, lines, args)``.

    It takes the steps of tier 0 in the same order, so ``lines`` serves
    both.  It calls nothing, so ``left``, the budget, is a local written
    back to the run once, in ``finally``.  A variable a ``let`` defines
    starts as ``_UNDEFINED``, and a read or an assignment of it checks that
    only where some path reaches it without the ``let``."""

    def __init__(self, unit: _Unit):
        fn = unit.fn
        self.fn, self.base = fn, fn.line
        self.out: list[str] = []
        self.pc = 0  # index of the next step
        self.temps = 0
        self.constants: dict = {}  # global name -> value
        names = set()  # every variable the function names
        for stmt in P.statements(fn.body):
            if type(stmt) in (P.Let, P.Assign):
                names.add(stmt.name)
            names.update(node.name for expr in P.expressions(stmt)
                         for node in P.nodes(expr) if type(node) is P.Var)
        self.locals = (*fn.params, *sorted(names - set(fn.params)))

    def function(self) -> str:
        fn = self.fn
        self.emit(0, "def tier1(run, lines, args):")
        if fn.params:
            self.emit(1, ", ".join(map(_variable, fn.params)) + ", = args")
        if len(self.locals) > len(fn.params):
            self.emit(1, " = ".join(map(_variable, self.locals[len(fn.params):])) + " = _UNDEFINED")
        self.emit(1, "left = run.left")
        self.emit(1, "seen = [0] * len(lines)")
        self.emit(1, f"lo, hi = {INT_MIN}, {INT_MAX}")
        self.emit(1, "try:")
        self.step(2)  # the header
        self.block(fn.body, 2, set(fn.params))
        self.step(2)  # the end: falling off it returns integer zero
        self.emit(2, "return 0")
        self.emit(1, "except _Fault as fault:")
        self.emit(2, "raise _placed(fault, lines) from None")
        self.emit(1, "finally:")
        self.emit(2, "run.left = left")
        self.emit(2, "run.covered.update(_compress(lines, seen))")
        return "\n".join(self.out) + "\n"

    # -- emitting -------------------------------------------------------

    def emit(self, depth: int, text: str) -> None:
        self.out.append(" " * depth + text)  # compile time grows with the text

    def step(self, depth: int) -> int:
        pc = self.pc
        self.pc += 1
        self.emit(depth, f"left = left - 1 if left > 0 else _exhausted(); seen[{pc}] = 1")
        return pc

    def temp(self) -> str:
        self.temps += 1
        return f"t{self.temps}"

    def constant(self, value) -> str:
        if type(value) is bool:
            return repr(value)
        if type(value) is int:
            return f"({value})" if value < 0 else repr(value)
        name = f"k{len(self.constants)}"
        self.constants[name] = value
        return name

    # -- statements -----------------------------------------------------

    def block(self, block: tuple, depth: int, defined: set) -> Optional[set]:
        """Emit ``block``; the variables defined after it, or None when
        every path through it returns.  Statements after a return keep
        their steps, as in tier 0, though no path reaches them."""
        returns = False
        for stmt in block:
            after = self.statement(stmt, depth, defined)
            if after is None:
                returns = True
            else:
                defined = after
        return None if returns else defined

    def statement(self, stmt: P.Stmt, depth: int, defined: set) -> Optional[set]:
        t, line = type(stmt), stmt.line - self.base
        if t is P.If:
            return self.if_(stmt, line, depth, defined)
        if t is P.While:
            self.while_(stmt, line, depth, defined)
            return defined
        self.step(depth)
        if t is P.Return:  # the entry call's result is observed
            self.emit(depth, f"value = {self.expr(stmt.expr, line, defined)}")
            self.emit(depth, f"return _observed(value, {line}) if run.depth == 1 else value")
            return None
        name, target = stmt.name, _variable(stmt.name)  # a let or an assignment
        if t is P.Assign and name not in defined:
            message = repr(f"assignment to undeclared {name!r}")
            self.emit(depth, f"if {target} is _UNDEFINED: "
                             f"_fail('UndefinedVariable', {line}, {message})")
            defined = defined | {name}  # from here on, or the check raised
        self.emit(depth, f"{target} = {self.expr(stmt.expr, line, defined)}")
        return defined | {name}

    def if_(self, stmt: P.If, line: int, depth: int, defined: set) -> Optional[set]:
        self.step(depth)
        self.emit(depth, f"c = {self.expr(stmt.cond, line, defined)}")
        self.emit(depth, "if c is True:")
        then = self.block(stmt.then_body, depth + 1, defined)
        if stmt.else_body is None:
            self.emit(depth + 1, "pass")
            self.emit(depth, "elif c is not False:")
            self.emit(depth + 1, f"_bad_condition(c, {line})")
            other = defined
        else:
            self.step(depth + 1)  # the jump over the else arm
            self.emit(depth, "elif c is False:")
            self.step(depth + 1)  # the else line
            other = self.block(stmt.else_body, depth + 1, defined)
            self.emit(depth, "else:")
            self.emit(depth + 1, f"_bad_condition(c, {line})")
        self.step(depth)  # the end line
        if then is None or other is None:
            return other if then is None else then
        return then & other

    def while_(self, stmt: P.While, line: int, depth: int, defined: set) -> None:
        self.emit(depth, "while True:")
        self.step(depth + 1)  # the loop head
        self.emit(depth + 1, f"c = {self.expr(stmt.cond, line, defined)}")
        self.emit(depth + 1, "if c is not True:")
        self.emit(depth + 2, "if c is False: break")
        self.emit(depth + 2, f"_bad_condition(c, {line})")
        self.block(stmt.body, depth + 1, defined)
        self.step(depth + 1)  # the back-edge

    # -- expressions ----------------------------------------------------

    def atom(self, expr: P.Expr, defined: set) -> Optional[str]:
        """Source for ``expr`` when evaluating it has no effect and cannot
        fail: a literal, possibly negated, or a defined variable."""
        t = type(expr)
        if t is P.Lit:
            return self.constant(expr.value)
        if t is P.Var:
            return _variable(expr.name) if expr.name in defined else None
        if t is P.Unary and expr.op == "-" and type(expr.operand) is P.Lit:
            v = expr.operand.value
            if type(v) is int:
                return self.constant(wrap_int(-v))
            if type(v) is float:
                return self.constant(-v)
        return None

    def operand(self, expr: P.Expr, line: int, defined: set) -> tuple:
        """(source that evaluates ``expr`` and keeps its value, source
        that reads the kept value)."""
        atom = self.atom(expr, defined)
        if atom is not None:
            return atom, atom
        t = self.temp()
        return f"({t} := {self.expr(expr, line, defined)})", t

    def known(self, expr: P.Expr) -> Optional[type]:
        """The type of a literal, possibly negated; None for anything else."""
        if type(expr) is P.Unary and expr.op == "-":
            expr = expr.operand
        return type(expr.value) if type(expr) is P.Lit else None

    def expr(self, expr: P.Expr, line: int, defined: set) -> str:
        atom = self.atom(expr, defined)
        if atom is not None:
            return atom
        t = type(expr)
        if t is P.Var:
            message = repr(f"undefined variable {expr.name!r}")
            v = _variable(expr.name)
            undefined = f"_fail('UndefinedVariable', {line}, {message})"
            return f"({v} if {v} is not _UNDEFINED else {undefined})"
        if t is P.Binary:
            if expr.op == "and" or expr.op == "or":
                return self.logic(expr, line, defined)
            return self.binary(expr, line, defined)
        if t is P.Unary:
            first, v = self.operand(expr.operand, line, defined)
            if expr.op == "not":
                return f"((not {v}) if type({first}) is bool else _unary('not', {v}, {line}))"
            return f"(-{v} if type({first}) is int and {v} != lo else _unary('-', {v}, {line}))"
        if t is P.Index:
            return self.index(expr, line, defined)
        if t is P.Len:
            first, v = self.operand(expr.arg, line, defined)
            return f"(len({v}) if type({first}) is list else _len({v}, {line}))"
        return "[" + ", ".join(self.expr(item, line, defined) for item in expr.items) + "]"

    def binary(self, expr: P.Binary, line: int, defined: set) -> str:
        op = expr.op
        a_first, a = self.operand(expr.left, line, defined)
        b_first, b = self.operand(expr.right, line, defined)
        ta, tb = self.known(expr.left), self.known(expr.right)
        if op not in _PYTHON_OPS or ta not in (None, int) or tb not in (None, int):
            return f"_binary({op!r}, {a_first}, {b_first}, {line})"
        # Each test evaluates both operands, in order, before it can fail.
        if ta is None and tb is None:
            test = f"type({a_first}) is type({b_first}) is int"
        elif ta is None:
            test = f"type({a_first}) is int"
        elif tb is None:
            test = f"type({b_first}) is int"
        else:
            test = "True"
        slow = f"_binary({op!r}, {a}, {b}, {line})"
        if op in ("+", "-", "*"):
            r = self.temp()
            return f"({r} if {test} and lo <= ({r} := {a} {op} {b}) <= hi else {slow})"
        return f"({a} {op} {b} if {test} else {slow})"

    def logic(self, expr: P.Binary, line: int, defined: set) -> str:
        op = expr.op
        a, b = self.temp(), self.temp()
        left = self.expr(expr.left, line, defined)
        right = self.expr(expr.right, line, defined)
        checked = f"({b} if type({b} := {right}) is bool else _bad_logic({op!r}, {b}, {line}))"
        bad = f"_bad_logic({op!r}, {a}, {line})"
        if op == "and":
            return f"({checked} if ({a} := {left}) is True else False if {a} is False else {bad})"
        return f"(True if ({a} := {left}) is True else {checked} if {a} is False else {bad})"

    def index(self, expr: P.Index, line: int, defined: set) -> str:
        b_atom, i_atom = self.atom(expr.base, defined), self.atom(expr.index, defined)
        if b_atom is None and i_atom is None:
            base, index = self.expr(expr.base, line, defined), self.expr(expr.index, line, defined)
            return f"_index({base}, {index}, {line})"
        # The operand that may have an effect is tested first, so that it
        # is evaluated, and before the other, whatever the tests find.
        b_first, b = self.operand(expr.base, line, defined)
        i_first, i = self.operand(expr.index, line, defined)
        base_test, index_test = f"type({b_first}) is list", f"type({i_first}) is int"
        tests = (index_test, base_test) if b_atom is not None else (base_test, index_test)
        return (f"({b}[{i}] if {tests[0]} and {tests[1]} and 0 <= {i} < len({b}) "
                f"else _index({b}, {i}, {line}))")


def compile_ast(ast: P.Ast, scope: Scope) -> Code:
    """Compile an Ast once; every execution of the program reuses the
    result.  The programs compiled in one ``scope`` share its units."""
    return Code(ast, scope)


def execute(
    code: Code,
    function: str,
    args: list,
    budget: int = DEFAULT_BUDGET,
) -> ExecutionResult:
    """Run ``function(args)`` and package every observation; an entry
    call that cannot start is an error at line 0.  Identical inputs
    produce identical results, bit for bit.
    """
    setup_error = _call_error(code.functions, function, len(args))
    if setup_error:
        kind, message = setup_error
        return ExecutionResult("runtime_error", None, kind, 0, message, (), frozenset(), 0)
    status, return_value, error = "completed", None, (None, None, None)
    # The caller runs below the current limit, so raising it by the headroom
    # leaves the run at least that many frames, however deep the caller is.
    # The run recurses through Python frames only, which take no C stack on
    # CPython 3.11 and later (the oldest version pyproject.toml allows).
    # The limit is process-wide: runs in concurrent threads would race on it.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + _STACK_HEADROOM)
    try:
        unit, lines = code.entry(function)
        run = _Run(code, budget)
        return_value = (unit.call or unit.promote(code.scope))(run, lines, [thaw(a) for a in args])
    except SlangError as exc:
        status = "runtime_error"
        error = (exc.kind, exc.line, exc.message)
    except _BudgetExhausted:
        status = "budget_exceeded"
    finally:
        sys.setrecursionlimit(limit)
    return ExecutionResult(
        status=status,
        return_value=return_value,
        error_kind=error[0],
        error_line=error[1],
        error_message=error[2],
        output=tuple(run.output),
        covered=frozenset(run.covered),
        steps=budget - run.left,
    )
