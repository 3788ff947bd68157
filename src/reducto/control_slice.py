"""The control slice of a SLANG loop, and the state it gives a frame.

The interpreter proves that a loop never ends by finding a repeated state
at its back-edge (see ``interp.py``).  Comparing whole frames would miss
every loop with an accumulator that grows forever.  A loop's control slice
is the set of variables that can steer it: those that decide a branch,
raise an error, reach a call or get printed, closed under the loop's
assignments.  The state holds their exact values and only the types of
the other variables the loop assigns, which is enough to prove the loop
repeats: the dynamic analogue of a recurrent set (Gupta et al., "Proving
non-termination", POPL 2008).  A loop with no index-assignment and no
call cannot change an array, so an array it does not assign enters the
state as its identity, not its items.

A counter that moves away from its bound never repeats a state, so the
slice also names its drifting variables, whose values a static check shows
the loop's path cannot depend on as long as each keeps moving one way.
Each is only ever updated as ``x = x + e``, ``x = x - e`` or ``x = e + x``,
where ``e`` is invariant: a literal, a variable the loop does not assign
or the ``len`` of one, possibly negated.  Every other read of it is either
a direct operand of a comparison whose other operand is such an ``e``, or
lies outside any index, call, ``/``, ``%``, ``and`` and ``or`` in a value
assigned to a variable outside the slice.  Two states that differ only in
the ints of drifting variables take the same path round the loop for as
long as no step turns a variable back, no update wraps and no comparison
changes outcome, which ``ControlSlice.drift`` checks at run time, period
by period: a linear ranking argument for non-termination (Podelski &
Rybalchenko, VMCAI 2004) that lets the interpreter skip the remaining
periods of an ultimately periodic path (Bozga, Iosif & Konečný, CAV 2010).
The same count tells how long a drift that does not outlast the budget
surely repeats, and the interpreter pauses its watch for that long.

Used the other way round, the ranking argument bounds a loop's passes
from below: a counter loop's test orders its counter and an invariant,
and every update moves the counter towards that bound by an invariant
step, so ``ControlSlice.exit_pause`` knows how many passes the loop has
left at least, and the interpreter does not watch them.
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

    The slice and the counter are worked out on the loop's first watch, so
    that lowering a loop no run watches costs nothing."""

    __slots__ = ("head", "end", "loop", "variables", "counter")

    def __init__(self, loop: P.While, head: int, end: int):
        self.head, self.end, self.loop = head, end, loop
        # (the slice, the other assigned variables, the slice's drifting
        # variables, the slice's arrays the state holds by identity)
        self.variables: Optional[tuple] = None
        self.counter = None  # a _Counter, or False when the loop has none

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
        names, typed, drifting, fixed = self.variables
        state = [type(env.get(name)) for name in typed]
        seen: dict = {}
        for name in names:
            v = env.get(name)
            t = type(v)
            if t is list or t is tuple:
                if name in fixed:
                    state += (t, id(v))
                elif not _encode(v, state, seen):
                    return None
            elif t is int and name in drifting:
                state += (t, None)
            else:
                state += (t, float_bits(v) if t is float else v)
        for name in drifting:
            v = env.get(name)
            state.append(v if type(v) is int else None)
        return state

    def drift(self, saved: list, state: list, env: dict, most: int) -> int:
        """How many of the next ``most`` periods surely repeat the last one,
        from the ``saved`` state to ``state``: 0 unless the two differ only
        in drifting ints.  A period repeats when no update in it turns a
        variable back or wraps it, and no comparison changes outcome."""
        drifting = self.variables[2]
        n = len(drifting)
        if not n or len(state) != len(saved) or state[:-n] != saved[:-n]:
            return 0
        for drift, old, new in zip(drifting.values(), saved[-n:], state[-n:]):
            if old != new:
                if type(old) is not int or type(new) is not int:
                    return 0
                most = drift.periods(old, new, env, most)
        return most

    def exit_pause(self, env: dict) -> Optional[int]:
        """For a counter loop (see ``_counter``), the fewest steps it can
        take, from this back-edge, through the passes it surely has left,
        which end at one of its back-edges: 0 when its next test ends it.
        None for any other loop."""
        if self.counter is None:
            self.counter = _counter(self.loop)
        counter = self.counter
        if not counter:
            return None
        v, bound = env.get(counter.name), _value(counter.bound, env)
        if type(v) is not int or type(bound) is not int:
            return None
        way = 1 if counter.up else -1
        least = most = 0
        for sign, e, top in counter.steps:
            step = _value(e, env)
            if type(step) is not int or sign * step * way < 0:
                return None  # a float, or a step away from the bound
            most += abs(step)
            if top:
                least += abs(step)
        last = bound if counter.inclusive else bound - way  # the last value the test lets pass
        if not least or not INT_MIN <= last + way * most <= INT_MAX:
            return None  # the counter may stand still, or wrap
        distance = (last - v) * way + 1  # the counter's moves still to come
        # Each pass moves the counter at most ``most``, so the test lets
        # this many more passes through whatever path they take.
        return max(0, -(-distance // most)) * counter.span


def _variables(loop: P.While) -> tuple:
    """(the loop's control slice, the other variables it assigns), each
    sorted, the slice's drifting variables by name, and the arrays of the
    slice the state holds by identity.  A loop with no index-assignment and
    no call cannot change an array, so an array variable it does not assign
    holds the same object, with the same items, at each of its back-edges;
    the object stays alive, so its identity is not reused meanwhile."""
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
    fixed = () if _writes(loop) else names - set(sources)
    return (tuple(sorted(names)), tuple(sorted(set(sources) - names)), _drifting(loop, names),
            fixed)


def _writes(loop: P.While) -> bool:
    """Whether ``loop`` may write into an array: it index-assigns or calls."""
    return any(
        type(stmt) is P.IndexAssign
        or any(type(node) is P.Call for expr in P.expressions(stmt) for node in P.nodes(expr))
        for stmt in (loop, *P.statements(loop.body))
    )


class _Drift(NamedTuple):
    """How a drifting variable moves and what reads it in one loop."""

    steps: tuple  # (sign, e) for each update: it adds sign * e
    tests: tuple  # (op, whether it is the left operand, the other operand)

    def periods(self, old: int, new: int, env: dict, most: int) -> int:
        """How many of the next ``most`` periods, each moving the variable by
        ``new - old`` as the last one did, keep every comparison's outcome
        and wrap no update: the largest count ``holds`` allows, found by
        bisection.  Every update must step the same way, so the values one
        period sees lie between its first and its last."""
        direction = 1 if new > old else -1
        for sign, e in self.steps:
            step = _value(e, env)
            if type(step) is not int or sign * step * direction < 0:
                return 0  # a float or a turn back
        d = new - old
        most = min(most, (INT_MAX - new) // d if d > 0 else (new - INT_MIN) // -d)
        low = 0
        while low < most:  # every count up to ``low`` holds
            mid = (low + most + 1) // 2
            if self.holds(old, new + mid * d, env):
                low = mid
            else:
                most = mid - 1
        return low

    def holds(self, old: int, far: int, env: dict) -> bool:
        """Whether every comparison keeps, for each value between ``old``
        and ``far``, the outcome it had at ``old``."""
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
    """Whether ``expr`` is a literal, a variable ``assigned`` does not hold
    or the ``len`` of one, possibly negated: a value the loop cannot change.
    No statement changes an array's length, only which array a variable
    holds."""
    if type(expr) is P.Unary and expr.op == "-":
        expr = expr.operand
    if type(expr) is P.Len:
        expr = expr.arg
        return type(expr) is P.Var and expr.name not in assigned
    return type(expr) is P.Lit or (type(expr) is P.Var and expr.name not in assigned)


def _value(expr: P.Expr, env: dict):
    """The value of an ``_invariant`` expression in ``env``; None when it
    is undefined or raises."""
    t = type(expr)
    if t is P.Lit:
        return expr.value
    if t is P.Var:
        return env.get(expr.name)
    if t is P.Len:
        v = env.get(expr.arg.name)
        return len(v) if type(v) in (list, tuple, str) else None
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


class _Counter(NamedTuple):
    """A loop's counter: the loop's test compares it with an invariant
    bound, and each update moves it by an invariant step."""

    name: str
    up: bool  # the test lets values below the bound pass, not above it
    inclusive: bool  # ... and the bound itself
    bound: P.Expr
    steps: tuple  # (sign, e, whether the update is a top-level statement) per update
    span: int  # the fewest steps one pass round the loop takes


_MIRRORED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _counter(loop: P.While):
    """The loop's counter, or False.  The loop's test orders a variable and
    an invariant; every assignment to the variable is a self-update (see
    ``_self_update``) outside any nested loop, and one is a statement of
    the body itself, so each pass takes it.  ``ControlSlice.exit_pause``
    checks at run time that every step is an int towards the bound, and
    that those the body always takes move the counter.  The body holds no
    ``return``, so the loop ends only by its test or by ending the run."""
    cond = loop.cond
    if type(cond) is not P.Binary or cond.op not in _ORDERINGS:
        return False
    body = tuple(P.statements(loop.body))
    if any(type(stmt) is P.Return for stmt in body):
        return False
    assigned = {stmt.name for stmt in body if type(stmt) in _ASSIGNMENTS}
    op, counter, bound = cond.op, cond.left, cond.right
    if type(counter) is not P.Var or not _invariant(bound, assigned):
        op, counter, bound = _MIRRORED[op], cond.right, cond.left
        if type(counter) is not P.Var or not _invariant(bound, assigned):
            return False
    nested = {id(stmt) for inner in body if type(inner) is P.While
              for stmt in P.statements(inner.body)}
    top = {id(stmt) for stmt in loop.body}
    steps = []
    for stmt in body:
        if type(stmt) in _ASSIGNMENTS and stmt.name == counter.name:
            update = (type(stmt) is not P.IndexAssign and id(stmt) not in nested
                      and _self_update(counter.name, stmt.expr, assigned))
            if not update:
                return False
            steps.append((*update[:2], id(stmt) in top))
    if not any(step[2] for step in steps):
        return False
    span = 2 + sum(2 if type(stmt) is P.If else 1 for stmt in loop.body)  # the head and back-edge
    return _Counter(counter.name, op in ("<", "<="), op in ("<=", ">="), bound, tuple(steps), span)
