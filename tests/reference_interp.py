"""Reference for tests/test_interp_reference.py: the tree-walking SLANG
interpreter that reducto used before its interpreter lowered functions to
closures, kept verbatim apart from its imports.  The differential test
runs both on the same programs and requires every ExecutionResult field
to agree.  Nothing in ``src/`` imports this module.

Deterministic, budgeted interpreter for SLANG.

Each function body is compiled to a flat instruction list so loops run
iteratively; only calls recurse.  Execution is budgeted in statement steps
and records per-line coverage and the ordered sequence of printed values.

Semantics pinned down for reproducibility:

* integers are 64-bit two's complement and wrap on overflow; division and
  modulo truncate toward zero and raise DivByZero on a zero divisor;
* floats are IEEE binary64; float division/modulo by zero follow IEEE
  (inf/nan), never raising;
* mixed int/float arithmetic and ordering promote the int operand;
  ``==``/``!=`` stay type-strict and structural;
* a function that falls off its end returns the integer 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

from reducto import parser as P
from reducto.values import freeze, thaw, value_to_json, values_equal, wrap_int

DEFAULT_BUDGET = 100_000
MAX_CALL_DEPTH = 200

ERROR_KINDS = (
    "DivByZero",
    "IndexOutOfBounds",
    "UndefinedVariable",
    "TypeError",
    "ArityMismatch",
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

    def to_dict(self) -> dict:
        d = {
            "status": self.status,
            "output": [value_to_json(v) for v in self.output],
            "covered": sorted(self.covered),
            "steps": self.steps,
        }
        if self.status == "completed":
            d["return"] = value_to_json(self.return_value)
        if self.status == "runtime_error":
            d["error"] = {
                "kind": self.error_kind,
                "line": self.error_line,
                "message": self.error_message,
            }
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Flat instruction compilation
#
# Instructions are tuples (opcode, line, ...). Control flow uses absolute
# indices into the function's instruction list.

def _compile_function(fn: P.Function) -> list[tuple]:
    instrs: list[tuple] = [("fnentry", fn.line)]

    def emit_block(stmts):
        for stmt in stmts:
            if isinstance(stmt, P.Let):
                instrs.append(("let", stmt.line, stmt.name, stmt.expr))
            elif isinstance(stmt, P.Assign):
                instrs.append(("assign", stmt.line, stmt.name, stmt.expr))
            elif isinstance(stmt, P.IndexAssign):
                instrs.append(("istore", stmt.line, stmt.name, stmt.index, stmt.expr))
            elif isinstance(stmt, P.Print):
                instrs.append(("print", stmt.line, stmt.expr))
            elif isinstance(stmt, P.Return):
                instrs.append(("return", stmt.line, stmt.expr))
            elif isinstance(stmt, P.If):
                branch_at = len(instrs)
                instrs.append(None)  # patched below: ("if", line, cond, false_target)
                emit_block(stmt.then_body)
                if stmt.else_body is not None:
                    jump_at = len(instrs)
                    instrs.append(None)  # ("jump", line, target)
                    false_target = len(instrs)
                    instrs.append(("else", stmt.else_line))
                    emit_block(stmt.else_body)
                    end_at = len(instrs)
                    instrs.append(("end", stmt.end_line))
                    instrs[jump_at] = ("jump", stmt.line, end_at)
                else:
                    false_target = len(instrs)
                    instrs.append(("end", stmt.end_line))
                instrs[branch_at] = ("if", stmt.line, stmt.cond, false_target)
            elif isinstance(stmt, P.While):
                head_at = len(instrs)
                instrs.append(None)  # ("while", line, cond, exit_target)
                emit_block(stmt.body)
                instrs.append(("endwhile", stmt.end_line, head_at))
                instrs[head_at] = ("while", stmt.line, stmt.cond, len(instrs))
            else:  # pragma: no cover - parser emits no other statements
                raise AssertionError(f"unknown statement {stmt!r}")

    emit_block(fn.body)
    instrs.append(("fnexit", fn.end_line))
    return instrs


class Code:
    """Compiled form of an Ast: the only program form ``execute`` runs."""

    def __init__(self, ast: P.Ast):
        self.functions = ast.functions
        self.compiled = {name: _compile_function(fn) for name, fn in ast.functions.items()}


# ---------------------------------------------------------------------------
# Evaluation

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


def _int_div(a: int, b: int, line: int) -> int:
    if b == 0:
        raise SlangError("DivByZero", line, "integer division by zero")
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return wrap_int(q)


def _int_mod(a: int, b: int, line: int) -> int:
    if b == 0:
        raise SlangError("DivByZero", line, "integer modulo by zero")
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return wrap_int(a - q * b)


_NUMERIC = {int, float}


class Interpreter:
    def __init__(self, code: Code, budget: int):
        self.code = code
        self.budget = budget
        self.steps = 0
        self.depth = 0
        self.output: list = []
        self.covered: set[int] = set()

    # -- statement loop ----------------------------------------------------

    def call(self, name: str, args: list, call_line: Optional[int]) -> object:
        fn = self.code.functions.get(name)
        if fn is None:
            if call_line is None:
                raise CallSetupError("UndefinedVariable", f"function {name!r} is not defined")
            raise SlangError("UndefinedVariable", call_line, f"function {name!r} is not defined")
        if len(args) != len(fn.params):
            msg = f"{name!r} takes {len(fn.params)} arguments, got {len(args)}"
            if call_line is None:
                raise CallSetupError("ArityMismatch", msg)
            raise SlangError("ArityMismatch", call_line, msg)
        # Deep recursion is resource exhaustion, reported as a blown budget.
        self.depth += 1
        if self.depth > MAX_CALL_DEPTH:
            raise _BudgetExhausted()
        try:
            return self._run_function(fn.name, dict(zip(fn.params, args)))
        finally:
            self.depth -= 1

    def _run_function(self, name: str, env: dict) -> object:
        instrs = self.code.compiled[name]
        pc = 0
        while True:
            instr = instrs[pc]
            op = instr[0]
            line = instr[1]
            if self.steps >= self.budget:
                raise _BudgetExhausted()
            self.steps += 1
            self.covered.add(line)

            if op == "let":
                env[instr[2]] = self.eval(instr[3], env, line)
            elif op == "assign":
                if instr[2] not in env:
                    raise SlangError(
                        "UndefinedVariable", line, f"assignment to undeclared {instr[2]!r}"
                    )
                env[instr[2]] = self.eval(instr[3], env, line)
            elif op == "istore":
                self._index_store(instr, env, line)
            elif op == "print":
                self.output.append(freeze(self.eval(instr[2], env, line)))
            elif op == "return":
                return self.eval(instr[2], env, line)
            elif op == "if" or op == "while":
                cond = self.eval(instr[2], env, line)
                if type(cond) is not bool:
                    raise SlangError(
                        "TypeError", line, f"condition must be bool, got {_type_name(cond)}"
                    )
                if not cond:
                    pc = instr[3]
                    continue
            elif op == "jump":
                pc = instr[2]
                continue
            elif op == "endwhile":
                pc = instr[2]
                continue
            elif op == "fnexit":
                return 0  # falling off the end returns integer zero
            # "fnentry", "else", "end" are coverage markers only
            pc += 1

    def _index_store(self, instr, env: dict, line: int) -> None:
        _, _, name, index_expr, value_expr = instr
        if name not in env:
            raise SlangError("UndefinedVariable", line, f"undefined variable {name!r}")
        base = env[name]
        if type(base) is not list:
            raise SlangError("TypeError", line, f"cannot index-assign {_type_name(base)}")
        index = self.eval(index_expr, env, line)
        if type(index) is not int:
            raise SlangError("TypeError", line, f"index must be int, got {_type_name(index)}")
        if index < 0 or index >= len(base):
            raise SlangError(
                "IndexOutOfBounds", line, f"index {index} out of bounds for length {len(base)}"
            )
        base[index] = self.eval(value_expr, env, line)

    # -- expressions -------------------------------------------------------

    def eval(self, expr: P.Expr, env: dict, line: int):
        t = type(expr)
        if t is P.Lit:
            return expr.value
        if t is P.Var:
            try:
                return env[expr.name]
            except KeyError:
                raise SlangError(
                    "UndefinedVariable", line, f"undefined variable {expr.name!r}"
                ) from None
        if t is P.Binary:
            return self._binary(expr, env, line)
        if t is P.Unary:
            v = self.eval(expr.operand, env, line)
            if expr.op == "-":
                if type(v) is int:
                    return wrap_int(-v)
                if type(v) is float:
                    return -v
                raise SlangError("TypeError", line, f"cannot negate {_type_name(v)}")
            if type(v) is not bool:
                raise SlangError("TypeError", line, f"'not' needs bool, got {_type_name(v)}")
            return not v
        if t is P.Index:
            base = self.eval(expr.base, env, line)
            index = self.eval(expr.index, env, line)
            if type(index) is not int:
                raise SlangError("TypeError", line, f"index must be int, got {_type_name(index)}")
            if type(base) is list or type(base) is tuple or type(base) is str:
                if index < 0 or index >= len(base):
                    raise SlangError(
                        "IndexOutOfBounds",
                        line,
                        f"index {index} out of bounds for length {len(base)}",
                    )
                return base[index]
            raise SlangError("TypeError", line, f"cannot index {_type_name(base)}")
        if t is P.Len:
            v = self.eval(expr.arg, env, line)
            if type(v) is list or type(v) is tuple or type(v) is str:
                return len(v)
            raise SlangError("TypeError", line, f"len() needs array or str, got {_type_name(v)}")
        if t is P.ArrayLit:
            return [self.eval(item, env, line) for item in expr.items]
        if t is P.Call:
            args = [self.eval(arg, env, line) for arg in expr.args]
            return self.call(expr.name, args, line)
        raise AssertionError(f"unknown expression {expr!r}")  # pragma: no cover

    def _binary(self, expr: P.Binary, env: dict, line: int):
        op = expr.op
        if op == "and" or op == "or":
            left = self.eval(expr.left, env, line)
            if type(left) is not bool:
                raise SlangError("TypeError", line, f"{op!r} needs bool, got {_type_name(left)}")
            if op == "and" and not left:
                return False
            if op == "or" and left:
                return True
            right = self.eval(expr.right, env, line)
            if type(right) is not bool:
                raise SlangError("TypeError", line, f"{op!r} needs bool, got {_type_name(right)}")
            return right

        left = self.eval(expr.left, env, line)
        right = self.eval(expr.right, env, line)

        if op == "==":
            return values_equal(left, right)
        if op == "!=":
            return not values_equal(left, right)

        lt, rt = type(left), type(right)
        if op in ("<", "<=", ">", ">="):
            if lt in _NUMERIC and rt in _NUMERIC and not (lt is bool or rt is bool):
                a, b = left, right
                if lt is not rt:
                    a, b = float(a), float(b)
            elif lt is str and rt is str:
                a, b = left, right
            else:
                raise SlangError(
                    "TypeError", line,
                    f"cannot order {_type_name(left)} and {_type_name(right)}",
                )
            if op == "<":
                return a < b
            if op == "<=":
                return a <= b
            if op == ">":
                return a > b
            return a >= b

        # arithmetic
        if lt is bool or rt is bool:
            raise SlangError(
                "TypeError", line, f"cannot apply {op!r} to {_type_name(left)} and {_type_name(right)}"
            )
        if op == "+" and lt is str and rt is str:
            return left + right
        if op == "+" and lt in (list, tuple) and rt in (list, tuple):
            return list(left) + list(right)
        if lt in _NUMERIC and rt in _NUMERIC:
            if lt is int and rt is int:
                if op == "+":
                    return wrap_int(left + right)
                if op == "-":
                    return wrap_int(left - right)
                if op == "*":
                    return wrap_int(left * right)
                if op == "/":
                    return _int_div(left, right, line)
                return _int_mod(left, right, line)
            a = float(left) if lt is int else left
            b = float(right) if rt is int else right
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            if op == "/":
                return _float_div(a, b)
            return _float_mod(a, b)
        raise SlangError(
            "TypeError", line, f"cannot apply {op!r} to {_type_name(left)} and {_type_name(right)}"
        )


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
    interp = Interpreter(code, budget)
    status = "completed"
    return_value = None
    error = (None, None, None)
    try:
        return_value = freeze(interp.call(function, [thaw(a) for a in args], None))
    except SlangError as exc:
        status = "runtime_error"
        error = (exc.kind, exc.line, exc.message)
    except _BudgetExhausted:
        status = "budget_exceeded"
    return ExecutionResult(
        status=status,
        return_value=return_value,
        error_kind=error[0],
        error_line=error[1],
        error_message=error[2],
        output=tuple(interp.output),
        covered=frozenset(interp.covered),
        steps=interp.steps,
    )


