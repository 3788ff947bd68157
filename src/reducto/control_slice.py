"""The control slice of a SLANG loop, and the state it gives a frame.

The interpreter proves that a loop never ends by finding a repeated state
at its back-edge (see ``interp.py``).  Comparing whole frames would miss
every loop with an accumulator that grows forever.  A loop's control slice
is the set of variables that can steer it: those that decide a branch,
raise an error, reach a call or get printed, closed under the loop's
assignments.  The state holds their exact values and only the types of
the other variables the loop assigns, which is enough to prove the loop
repeats: the dynamic analogue of a recurrent set (Gupta et al., "Proving
non-termination", POPL 2008).

A counter that moves away from its bound never repeats a state, so the
slice also names its drifting variables, whose values a static check shows
the loop's path cannot depend on as long as each keeps moving one way.
Each is only ever updated as ``x = x + e``, ``x = x - e`` or ``x = e + x``,
where ``e`` is a literal or a variable the loop does not assign, possibly
negated.  Every other read of it is either a direct operand of a
comparison whose other operand is such an ``e``, or lies outside any index,
call, ``/``, ``%``, ``and`` and ``or`` in a value assigned to a variable
outside the slice.  Two states that differ only in the ints of drifting
variables take the same path round the loop for as long as no step turns
a variable back, no update wraps and no comparison changes outcome, which
``ControlSlice.drifts`` checks at run time over every value the rest of
the budget can reach: a linear ranking argument for non-termination
(Podelski & Rybalchenko, VMCAI 2004) that lets the interpreter skip the
remaining periods of an ultimately periodic path (Bozga, Iosif &
Konečný, CAV 2010).
"""

from __future__ import annotations

import operator
from typing import NamedTuple, Optional

from . import parser as P
from .values import INT_MAX, INT_MIN, float_bits, wrap_int

# Items a loop state may encode before its loop stops being watched: the
# encoding costs time in proportion to the arrays it walks, and a state
# that keeps growing never repeats.
MAX_STATE_ITEMS = 1_000

_STEERING_OPS = {"/", "%", "and", "or"}
_ORDERINGS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_COMPARISONS = {*_ORDERINGS, "==", "!="}
_ASSIGNMENTS = (P.Let, P.Assign, P.IndexAssign)


def _reads(expr: P.Expr):
    """(variable, its parent, whether it steers) for each variable ``expr``
    reads.  A read steers when its value can raise an error or decide what
    is evaluated: it lies in an operand of ``/``, ``%``, ``and`` or ``or``,
    an index base or index, or a call argument.  Every other operation
    either raises for all values of its operand types or for none, and the
    type of its result follows from theirs."""
    stack = [(expr, None, False)]
    while stack:
        node, parent, steers = stack.pop()
        t = type(node)
        if t is P.Var:
            yield node, parent, steers
        steers = steers or t is P.Index or t is P.Call or (
            t is P.Binary and node.op in _STEERING_OPS)
        stack += ((child, node, steers) for child in P.children(node))


def _names(expr: P.Expr, steering_only: bool) -> set:
    """Variables ``expr`` reads; with ``steering_only``, those whose read
    steers (see ``_reads``)."""
    return {var.name for var, _, steers in _reads(expr) if steers or not steering_only}


class ControlSlice:
    """The control slice of one ``while`` loop, and the indexes of the
    loop's head and back-edge statements in its lowered function, which
    tell whether one loop lies inside another.

    The control slice holds every variable read by the loop's condition, a
    nested condition, a ``print`` or an index-assignment, or in a steering
    position (see ``_names``), closed under the loop body's assignments.
    Every other variable the loop assigns feeds only operations whose
    outcome its type decides, and its values flow only into other such
    variables.  So two states of a frame at the back-edge that agree on the
    slice's values, on the other assigned variables' types and on the
    variables defined take the same path round the loop, and meet again.

    The slice is worked out on the loop's first state, so that lowering a
    loop no run watches costs nothing."""

    __slots__ = ("head", "end", "loop", "variables")

    def __init__(self, loop: P.While, head: int, end: int):
        self.head, self.end, self.loop = head, end, loop
        # (the slice, the other assigned variables, the slice's drifting variables)
        self.variables: Optional[tuple] = None

    def contains(self, other: "ControlSlice") -> bool:
        return self.head <= other.head and other.end <= self.end

    def state(self, env: dict) -> Optional[list]:
        """The frame's state at the back-edge, or None when its encoding
        outgrows MAX_STATE_ITEMS.  An undefined variable shows as the type
        of None, so the state also tells which variables the loop has
        defined with ``let``; the other variables stay defined throughout.
        The state ends with the value of each drifting variable that holds
        an int, or None, and holds only the type of that int before it."""
        if self.variables is None:
            self.variables = _variables(self.loop)
        names, typed, drifting = self.variables
        state = [type(env.get(name)) for name in typed]
        seen: dict = {}
        for name in names:
            v = env.get(name)
            t = type(v)
            if t is list or t is tuple:
                if not _encode(v, state, seen):
                    return None
            elif t is int and name in drifting:
                state += (t, None)
            else:
                state += (t, float_bits(v) if t is float else v)
        for name in drifting:
            v = env.get(name)
            state.append(v if type(v) is int else None)
        return state

    def drifts(self, saved: list, state: list, env: dict, left: int) -> bool:
        """Whether ``state``, unequal to the ``saved`` state of one period
        before, differs from it only in drifting ints, and going on as in
        that period for the ``left`` steps of the budget takes the same path
        throughout: no update turns a variable back or wraps it, and no
        comparison changes its outcome."""
        drifting = self.variables[2]
        n = len(drifting)
        if not n or len(state) != len(saved) or state[:-n] != saved[:-n]:
            return False
        return all(
            old == new or drift.holds(old, new, env, left)
            for drift, old, new in zip(drifting.values(), saved[-n:], state[-n:])
        )


def _variables(loop: P.While) -> tuple:
    """(the loop's control slice, the other variables it assigns), each
    sorted, and the slice's drifting variables by name."""
    names = _names(loop.cond, False)
    sources: dict = {}  # assigned variable -> the variables its values come from
    for stmt in P.statements(loop.body):
        t = type(stmt)
        if t is P.If or t is P.While:
            names |= _names(stmt.cond, False)
        elif t is P.IndexAssign:
            names |= {stmt.name} | _names(stmt.index, False) | _names(stmt.expr, False)
        elif t is P.Print:
            names |= _names(stmt.expr, False)
        else:
            names |= _names(stmt.expr, True)
            if t is not P.Return:
                sources.setdefault(stmt.name, set()).update(_names(stmt.expr, False))
    grown = True
    while grown:
        grown = False
        for target, used in sources.items():
            if target in names and not used <= names:
                names |= used
                grown = True
    return tuple(sorted(names)), tuple(sorted(set(sources) - names)), _drifting(loop, names)


class _Drift(NamedTuple):
    """How a drifting variable moves and what reads it in one loop."""

    steps: tuple  # (sign, e) for each update: it adds sign * e
    tests: tuple  # (op, whether it is the left operand, the other operand)

    def holds(self, old: int, new: int, env: dict, left: int) -> bool:
        """Whether the variable, moved from ``old`` to ``new`` in one period,
        keeps every comparison's outcome for the rest of the budget.  Each
        update takes a step, so it can reach ``far``, ``left`` updates of
        the largest step further on, and no further; the comparisons saw
        values from ``old`` on, so their outcomes must hold from there."""
        direction = 1 if new > old else -1
        largest = 0
        for sign, e in self.steps:
            step = _value(e, env)
            if type(step) is not int or sign * step * direction < 0:
                return False  # a float or a turn back
            largest = max(largest, abs(step))
        far = new + direction * left * largest
        if not INT_MIN <= far <= INT_MAX:
            return False  # it could wrap
        low, high = min(old, far), max(old, far)
        for op, on_left, e in self.tests:
            other = _value(e, env)
            if other is None:
                return False  # undefined
            t = type(other)
            if op in _ORDERINGS:
                if t is not int and t is not float:
                    continue  # ordering an int with it raises, wherever the int stands
                compare = _ORDERINGS[op]
                ends = (float(low), float(high)) if t is float else (low, high)
                if len({compare(v, other) if on_left else compare(other, v) for v in ends}) > 1:
                    return False
            elif t is int and low <= other <= high:
                return False  # == and != tell an int apart from every other type
        return True


def _invariant(expr: P.Expr, assigned: set) -> bool:
    """Whether ``expr`` is a literal or a variable ``assigned`` does not
    hold, possibly negated: a value the loop cannot change."""
    if type(expr) is P.Unary and expr.op == "-":
        expr = expr.operand
    return type(expr) is P.Lit or (type(expr) is P.Var and expr.name not in assigned)


def _value(expr: P.Expr, env: dict):
    """The value of an ``_invariant`` expression in ``env``; None when it
    is undefined or cannot be negated."""
    if type(expr) is P.Lit:
        return expr.value
    if type(expr) is P.Var:
        return env.get(expr.name)
    v = _value(expr.operand, env)
    t = type(v)
    return wrap_int(-v) if t is int else -v if t is float else None


def _self_update(name: str, expr: P.Expr, assigned: set) -> Optional[tuple]:
    """(sign, e, the read of ``name``) when ``expr`` is ``name + e``,
    ``name - e`` or ``e + name`` with ``e`` invariant, else None."""
    if type(expr) is not P.Binary or expr.op not in ("+", "-"):
        return None
    left, right = expr.left, expr.right
    if type(left) is P.Var and left.name == name and _invariant(right, assigned):
        return (1 if expr.op == "+" else -1), right, left
    if (expr.op == "+" and type(right) is P.Var and right.name == name
            and _invariant(left, assigned)):
        return 1, left, right
    return None


def _drifting(loop: P.While, names: set) -> dict:
    """The variables of the slice ``names`` that may drift, by name, sorted:
    every assignment to one is a self-update, and every other read is a
    direct operand of a comparison with an invariant, or feeds a variable
    outside the slice through no index, call or steering operator."""
    body = tuple(P.statements(loop.body))
    assigned = {stmt.name for stmt in body if type(stmt) in _ASSIGNMENTS}
    steps: dict = {}  # slice variable -> (sign, e) per update; None unless all self-update
    own = set()  # ids of the reads self-updates make of their own variable
    for stmt in body:
        if type(stmt) in _ASSIGNMENTS and stmt.name in names:
            update = type(stmt) is not P.IndexAssign and _self_update(
                stmt.name, stmt.expr, assigned)
            known = steps.get(stmt.name, ())
            steps[stmt.name] = (*known, update[:2]) if update and known is not None else None
            if update:
                own.add(id(update[2]))
    tests = {name: [] for name, updates in steps.items() if updates is not None}
    for stmt in (loop, *body):
        free = type(stmt) in (P.Let, P.Assign) and stmt.name not in names
        for root in P.expressions(stmt):
            for var, parent, steers in _reads(root):
                if var.name not in tests or id(var) in own or free and not steers:
                    continue
                if type(parent) is P.Binary and parent.op in _COMPARISONS:
                    on_left = parent.left is var
                    other = parent.right if on_left else parent.left
                    if _invariant(other, assigned):
                        tests[var.name].append((parent.op, on_left, other))
                        continue
                del tests[var.name]
    return {name: _Drift(steps[name], tuple(found)) for name, found in sorted(tests.items())}


_SEEN = object()  # tag of an array the state met before; its number follows


def _encode(array, out: list, seen: dict) -> bool:
    """Append ``array`` to ``out`` exactly: its type and length, then its
    items, each scalar as its type and itself (a float as its bit pattern),
    and each array met before in the state as ``_SEEN`` and its number,
    which records aliasing and arrays that contain themselves.  Iterative;
    False once ``out`` would hold more than MAX_STATE_ITEMS items."""
    stack = [array]
    while stack:
        v = stack.pop()
        t = type(v)
        if t is list or t is tuple:
            number = seen.get(id(v))
            if number is not None:
                out += (_SEEN, number)
                continue
            seen[id(v)] = len(seen)
            out += (t, len(v))
            if len(out) + 2 * len(v) > MAX_STATE_ITEMS:
                return False
            stack += reversed(v)
        else:
            out += (t, float_bits(v) if t is float else v)
    return True
