"""Deterministic, budgeted interpreter for SLANG, lowered to Python closures.

A function is lowered on its first call and cached in its ``Code`` for
every later call and execution.  Each expression becomes a closure
specialised on its operator, with a fast path for two ints; each statement
becomes a closure that returns the index of the next one in the function's
flat statement list, so loops run iteratively and only calls recurse.
Execution is budgeted in statement steps and records per-line coverage
and the ordered sequence of printed values.

Semantics pinned down for reproducibility:

* integers are 64-bit two's complement and wrap on overflow; division and
  modulo truncate toward zero and raise DivByZero on a zero divisor;
* floats are IEEE binary64; float division/modulo by zero follow IEEE
  (inf/nan), never raising;
* mixed int/float arithmetic and ordering promote the int operand;
  ``==``/``!=`` stay type-strict and structural;
* a function that falls off its end returns the integer 0;
* a call nested deeper than MAX_CALL_DEPTH ends the run as
  budget_exceeded, however deep the caller's own Python stack is;
* a loop proven to repeat forever is fast-forwarded to the end of the
  budget: the result, printed values included, is the one running the
  budget out would give, bit for bit.

Proving divergence.  Once a run has used DETECT_AFTER steps, every
``while`` back-edge hands its frame's state to Brent's cycle detection.
The state holds the exact value of each variable in the loop's control
slice and only the type of every other variable the loop assigns (see
``control_slice.py``).  The interpreter is deterministic, so two equal
states at the same back-edge, with the loop never left in between, prove
that the path between them repeats until the budget runs out.  So do two
states that differ only in the ints of drifting variables, counters the
loop only ever moves by a fixed step, when ``ControlSlice.drifts`` shows
that no comparison they feed changes outcome, and no update turns back or
wraps, anywhere the rest of the budget can take them.  Such a drift is
taken only when the budget left holds at least one more period.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import Optional

from . import parser as P
from .control_slice import ControlSlice
from .values import INT_MAX, INT_MIN, CyclicArray, freeze, thaw, values_equal, wrap_int

DEFAULT_BUDGET = 100_000
MAX_CALL_DEPTH = 200

# Steps a run uses before its back-edges look for a repeated state.  Until
# then a back-edge costs one comparison more.  It lies above the longest
# terminating run of the benchmark workloads (1,446 steps) and far below
# the default budget, which a divergent run otherwise spends in full.
DETECT_AFTER = 2_000

# A run watches in spells of this many back-edges, each followed by a
# pause twice as long as the one before, the first as long as DETECT_AFTER.
# So a loop whose state never repeats, a runaway counter say, costs a few
# spells of states and not one state per back-edge, and a cycle of up to
# about a third of a spell is found in the first spell after its run-up.
SPELL_EDGES = 512

# Python frames one SLANG call level holds at most: its statement loop, the
# statement, and one closure per level of expression nesting down to the
# call, which the parser bounds by MAX_EXPR_DEPTH.  The slack covers the
# entry frames, the helpers a closure calls, and lowering a function on its
# first call, which recurses once per level of block and expression nesting
# (MAX_BLOCK_DEPTH + MAX_EXPR_DEPTH frames at most).
_STACK_HEADROOM = MAX_CALL_DEPTH * (P.MAX_EXPR_DEPTH + 2) + 500

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


class _BudgetExhausted(Exception):
    pass


class CallSetupError(Exception):
    """The entry call cannot start: unknown function or wrong arity."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind
        self.message = message


@dataclass(frozen=True)
class ExecutionResult:
    status: str  # "completed" | "runtime_error" | "budget_exceeded"
    return_value: object
    error_kind: Optional[str]
    error_line: Optional[int]
    error_message: Optional[str]
    output: tuple
    covered: frozenset
    steps: int


class Code:
    """Compiled form of an Ast, the only program form ``execute`` runs.

    Each function is lowered to closures on its first call and kept here
    for every later call and execution."""

    def __init__(self, ast: P.Ast):
        self.functions = ast.functions
        self._lowered: dict = {}

    def lowered(self, name: str):
        """The body of function ``name`` as one closure ``(run, env)``."""
        return self._lowered.get(name) or self._lower(name)

    def _lower(self, name: str):
        body = self._lowered[name] = _lower_function(self.functions[name], self.functions)
        return body


class _Run:
    """The state of one execution, passed to every closure."""

    __slots__ = (
        "code", "left", "depth", "covered", "output", "returned",
        "watch_at", "spell", "pause", "frames",
    )

    def __init__(self, code: Code, budget: int):
        self.code = code
        self.left = budget  # steps still allowed
        self.depth = 1  # the entry call
        self.covered: set[int] = set()
        self.output: list = []
        self.returned = None
        self.watch_at = budget - DETECT_AFTER  # back-edges watch once left <= this
        self.spell = SPELL_EDGES  # back-edges this spell still watches
        self.pause = DETECT_AFTER  # steps of the last pause
        self.frames: dict = {}  # call depth -> (env, watches of its active loop nest)


# ---------------------------------------------------------------------------
# Full semantics, for the operands the closures' fast paths do not take

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
            raise SlangError(
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
            raise SlangError("DivByZero", line, f"integer {_DIVISIONS[op]} by zero")
        q = abs(left) // abs(right)
        q = -q if (left < 0) != (right < 0) else q
        return wrap_int(q if op == "/" else left - q * right)
    elif lt in _NUMERIC and rt in _NUMERIC:
        return _FLOAT_OPS[op](float(left), float(right))
    raise SlangError(
        "TypeError", line, f"cannot apply {op!r} to {_type_name(left)} and {_type_name(right)}"
    )


def _unary(op: str, v, line: int):
    if op == "not":
        if type(v) is not bool:
            raise SlangError("TypeError", line, f"'not' needs bool, got {_type_name(v)}")
        return not v
    if type(v) is int or type(v) is float:
        return wrap_int(-v) if type(v) is int else -v
    raise SlangError("TypeError", line, f"cannot negate {_type_name(v)}")


def _index(base, index, line: int):
    if type(index) is not int:
        raise SlangError("TypeError", line, f"index must be int, got {_type_name(index)}")
    if type(base) is not list and type(base) is not tuple and type(base) is not str:
        raise SlangError("TypeError", line, f"cannot index {_type_name(base)}")
    if index < 0 or index >= len(base):
        raise SlangError(
            "IndexOutOfBounds", line, f"index {index} out of bounds for length {len(base)}"
        )
    return base[index]


def _call_error(functions: dict, name: str, nargs: int) -> Optional[tuple]:
    """(kind, message) when ``name`` cannot be called with ``nargs`` arguments."""
    fn = functions.get(name)
    if fn is None:
        return "UndefinedVariable", f"function {name!r} is not defined"
    if nargs != len(fn.params):
        return "ArityMismatch", f"{name!r} takes {len(fn.params)} arguments, got {nargs}"
    return None


# ---------------------------------------------------------------------------
# Expressions: each becomes a closure ``(run, env) -> value``

def _lower_expr(expr: P.Expr, line: int, functions: dict):
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
                raise SlangError("UndefinedVariable", line, f"undefined variable {name!r}") from None
        return var
    if t is P.Binary:
        left = _lower_expr(expr.left, line, functions)
        right = _lower_expr(expr.right, line, functions)
        return _lower_binary(expr.op, left, right, line)
    if t is P.Unary:
        op, operand = expr.op, _lower_expr(expr.operand, line, functions)
        return lambda run, env: _unary(op, operand(run, env), line)
    if t is P.Index:
        base = _lower_expr(expr.base, line, functions)
        index = _lower_expr(expr.index, line, functions)

        def index_(run, env):
            b = base(run, env)
            i = index(run, env)
            if type(b) is list and type(i) is int and 0 <= i < len(b):
                return b[i]
            return _index(b, i, line)
        return index_
    if t is P.Len:
        arg = _lower_expr(expr.arg, line, functions)

        def len_(run, env):
            v = arg(run, env)
            if type(v) is list or type(v) is tuple or type(v) is str:
                return len(v)
            raise SlangError("TypeError", line, f"len() needs array or str, got {_type_name(v)}")
        return len_
    if t is P.ArrayLit:
        items = tuple(_lower_expr(item, line, functions) for item in expr.items)

        def array(run, env):
            values = []
            for item in items:
                values.append(item(run, env))
            return values
        return array
    return _lower_call(expr, line, functions)


def _lower_binary(op: str, left, right, line: int):
    if op == "and" or op == "or":
        stop = op == "or"  # the left value that decides the result alone

        def logic(run, env):
            a = left(run, env)
            if type(a) is not bool:
                raise SlangError("TypeError", line, f"{op!r} needs bool, got {_type_name(a)}")
            if a is stop:
                return stop
            b = right(run, env)
            if type(b) is not bool:
                raise SlangError("TypeError", line, f"{op!r} needs bool, got {_type_name(b)}")
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


def _lower_call(expr: P.Call, line: int, functions: dict):
    name = expr.name
    arguments = tuple(_lower_expr(arg, line, functions) for arg in expr.args)
    error = _call_error(functions, name, len(arguments))
    params = () if error else functions[name].params

    def call(run, env):
        args = []  # a loop, not a comprehension: no extra frame per call level
        for argument in arguments:
            args.append(argument(run, env))
        if error:
            raise SlangError(error[0], line, error[1])
        # Deep recursion is resource exhaustion, reported as a blown budget.
        run.depth += 1
        if run.depth > MAX_CALL_DEPTH:
            raise _BudgetExhausted()
        try:
            return run.code.lowered(name)(run, dict(zip(params, args)))
        finally:
            run.depth -= 1
    return call


# ---------------------------------------------------------------------------
# Proving divergence at loop back-edges

class _Watch:
    """Brent's cycle detection on one loop's back-edge states in one frame:
    each state is compared with the saved one, which moves up to the
    current state after 1, 2, 4, ... comparisons.  Saving records the
    budget left and the number of printed values, to measure a period."""

    __slots__ = ("loop", "saved", "left", "printed", "power", "lam")

    def __init__(self, loop: ControlSlice, state: Optional[list], run: _Run):
        self.loop = loop
        self.power = 1
        self.save(state, run)

    def save(self, state: Optional[list], run: _Run) -> None:
        self.saved, self.left, self.printed, self.lam = state, run.left, len(run.output), 0


def _watch(run: _Run, env: dict, loop: ControlSlice) -> None:
    """Feed the frame's state at ``loop``'s back-edge to the loop's watch,
    and fast-forward the run when the state repeats."""
    run.spell -= 1
    if run.spell < 0:
        _pause(run)
        return
    frame = run.frames.get(run.depth)
    if frame is None or frame[0] is not env:  # a new call at this depth
        frame = run.frames[run.depth] = (env, [])
    nest = frame[1]
    # Watched loops that do not contain this one have been left; re-entering
    # one takes a back-edge of a loop around it, which drops it here too.
    while nest and not nest[-1].loop.contains(loop):
        nest.pop()
    if not nest or nest[-1].loop is not loop:
        nest.append(_Watch(loop, loop.state(env), run))
        return
    watch = nest[-1]
    if watch.saved is None:  # given up: the state outgrew control_slice.MAX_STATE_ITEMS
        return
    state = loop.state(env)
    if state is None:
        watch.saved = None
    elif state == watch.saved or (
        # a drift proves only that the loop outlasts the budget left; it is
        # taken when that spans a whole period, so the jump skips steps
        run.left >= watch.left - run.left and loop.drifts(watch.saved, state, env, run.left)
    ):
        _fast_forward(run, watch)
    else:
        watch.lam += 1
        if watch.lam == watch.power:
            watch.power *= 2
            watch.save(state, run)


def _pause(run: _Run) -> None:
    """End the spell: stop watching for twice as many steps as last time.
    The watches would miss the back-edges taken meanwhile, so they go."""
    run.pause *= 2
    run.watch_at = run.left - run.pause
    run.spell = SPELL_EDGES
    run.frames.clear()


def _fast_forward(run: _Run, watch: _Watch) -> None:
    """Skip the whole periods a proven cycle has left in the budget: each
    repeats the steps and the prints since the saved state, so the run
    appends those prints once per period and keeps the rest of its budget,
    which it runs normally to the same end.  That end is less than one
    period away, so the run watches no more."""
    period = watch.left - run.left
    repeats = run.left // period
    run.output += run.output[watch.printed:] * repeats
    run.left -= period * repeats
    run.watch_at = -1


def _back_edge(loop: ControlSlice):
    head = loop.head

    def back_edge(run, env):
        if run.left <= run.watch_at:
            _watch(run, env, loop)
        return head
    return back_edge


# ---------------------------------------------------------------------------
# Statements: each becomes a closure ``(run, env) -> index of the next``;
# a negative index ends the function, returning ``run.returned``.

def _observed(value, line: int):
    """``value`` frozen where a print or the entry call's return observes
    it; an array that contains itself cannot be observed."""
    try:
        return freeze(value)
    except CyclicArray:
        raise SlangError("CyclicArray", line, "array contains itself") from None


def _goto(target: int):
    return lambda run, env: target


def _branch(cond, line: int, then_pc: int, else_pc: int):
    def branch(run, env):
        c = cond(run, env)
        if c is True:
            return then_pc
        if c is False:
            return else_pc
        raise SlangError("TypeError", line, f"condition must be bool, got {_type_name(c)}")
    return branch


def _lower_stmt(stmt: P.Stmt, nxt: int, functions: dict):
    t, line = type(stmt), stmt.line
    expr = _lower_expr(stmt.expr, line, functions)
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
                raise SlangError("UndefinedVariable", line, f"assignment to undeclared {name!r}")
            env[name] = expr(run, env)
            return nxt
        return assign
    index = _lower_expr(stmt.index, line, functions)

    def index_assign(run, env):
        if name not in env:
            raise SlangError("UndefinedVariable", line, f"undefined variable {name!r}")
        base = env[name]
        if type(base) is not list:
            raise SlangError("TypeError", line, f"cannot index-assign {_type_name(base)}")
        i = index(run, env)
        _index(base, i, line)
        base[i] = expr(run, env)
        return nxt
    return index_assign


def _fall_off(run, env):
    run.returned = 0  # falling off the end returns integer zero
    return -1


def _lower_block(block: tuple, lines: list, stmts: list, functions: dict) -> None:
    """Append each step's closure to ``stmts`` and its line to ``lines``.
    Not nested in _lower_function: a nested function calling itself is a
    reference cycle, which would keep every closure alive until collected."""
    def emit(line: int, stmt) -> int:
        lines.append(line)
        stmts.append(stmt)
        return len(stmts) - 1

    for stmt in block:
        if type(stmt) is P.If:
            at = emit(stmt.line, None)  # the branch, set once its targets are known
            _lower_block(stmt.then_body, lines, stmts, functions)
            false_target = len(stmts)
            if stmt.else_body is not None:
                jump_at = emit(stmt.line, None)
                false_target = emit(stmt.else_line, _goto(jump_at + 2))
                _lower_block(stmt.else_body, lines, stmts, functions)
                stmts[jump_at] = _goto(len(stmts))
            emit(stmt.end_line, _goto(len(stmts) + 1))
            cond = _lower_expr(stmt.cond, stmt.line, functions)
            stmts[at] = _branch(cond, stmt.line, at + 1, false_target)
        elif type(stmt) is P.While:
            head = emit(stmt.line, None)
            _lower_block(stmt.body, lines, stmts, functions)
            emit(stmt.end_line, _back_edge(ControlSlice(stmt, head, len(stmts))))
            cond = _lower_expr(stmt.cond, stmt.line, functions)
            stmts[head] = _branch(cond, stmt.line, head + 1, len(stmts))
        else:
            emit(stmt.line, _lower_stmt(stmt, len(stmts) + 1, functions))


def _lower_function(fn: P.Function, functions: dict):
    """The function as one closure ``(run, env) -> return value``.

    Every statement, ``else`` and ``end`` line is one step; so are the
    function's header and end lines and the jump over an ``else`` arm."""
    lines, stmts = [fn.line], [_goto(1)]
    _lower_block(fn.body, lines, stmts, functions)
    lines_t, stmts_t = (*lines, fn.end_line), (*stmts, _fall_off)

    def body(run, env):
        cover = run.covered.add
        pc = 0
        while pc >= 0:
            left = run.left
            if left <= 0:
                raise _BudgetExhausted()
            run.left = left - 1
            cover(lines_t[pc])
            pc = stmts_t[pc](run, env)
        return run.returned
    return body


def compile_ast(ast: P.Ast) -> Code:
    """Compile an Ast once; every execution of the program reuses the result."""
    return Code(ast)


def execute(
    code: Code,
    function: str,
    args: list,
    budget: int = DEFAULT_BUDGET,
) -> ExecutionResult:
    """Run ``function(args)`` and package every observation.

    The entry call must resolve (function exists, arity matches); a
    CallSetupError otherwise.  Identical inputs produce identical results,
    bit for bit.
    """
    setup_error = _call_error(code.functions, function, len(args))
    if setup_error:
        raise CallSetupError(*setup_error)
    run = _Run(code, budget)
    status, return_value, error = "completed", None, (None, None, None)
    # The caller runs below the current limit, so raising it by the headroom
    # leaves the run at least that many frames, however deep the caller is.
    # The run recurses through Python frames only, which take no C stack on
    # CPython 3.11 and later (the oldest version pyproject.toml allows).
    # The limit is process-wide: runs in concurrent threads would race on it.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + _STACK_HEADROOM)
    try:
        env = dict(zip(code.functions[function].params, [thaw(a) for a in args]))
        return_value = code.lowered(function)(run, env)
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
