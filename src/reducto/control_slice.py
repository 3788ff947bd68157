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
"""

from __future__ import annotations

from typing import Optional

from . import parser as P
from .values import float_bits

# Items a loop state may encode before its loop stops being watched: the
# encoding costs time in proportion to the arrays it walks, and a state
# that keeps growing never repeats.
MAX_STATE_ITEMS = 1_000

_STEERING_OPS = {"/", "%", "and", "or"}


def _names(expr: P.Expr, steering_only: bool) -> set:
    """Variables ``expr`` reads.  With ``steering_only``, only those whose
    value can raise an error or decide what is evaluated: the operands of
    ``/``, ``%``, ``and`` and ``or``, index bases and indexes, and call
    arguments.  Every other operation either raises for all values of its
    operand types or for none, and the type of its result follows from
    theirs."""
    found = set()
    stack = [(expr, not steering_only)]
    while stack:
        node, take = stack.pop()
        t = type(node)
        if t is P.Var and take:
            found.add(node.name)
        steers = t is P.Index or t is P.Call or (t is P.Binary and node.op in _STEERING_OPS)
        stack += ((child, take or steers) for child in P.children(node))
    return found


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
        self.variables: Optional[tuple] = None  # (the slice, the other assigned variables)

    def contains(self, other: "ControlSlice") -> bool:
        return self.head <= other.head and other.end <= self.end

    def state(self, env: dict) -> Optional[list]:
        """The frame's state at the back-edge, or None when its encoding
        outgrows MAX_STATE_ITEMS.  An undefined variable shows as the type
        of None, so the state also tells which variables the loop has
        defined with ``let``; the other variables stay defined throughout."""
        if self.variables is None:
            self.variables = _variables(self.loop)
        names, typed = self.variables
        state = [type(env.get(name)) for name in typed]
        seen: dict = {}
        for name in names:
            v = env.get(name)
            t = type(v)
            if t is list or t is tuple:
                if not _encode(v, state, seen):
                    return None
            else:
                state += (t, float_bits(v) if t is float else v)
        return state


def _variables(loop: P.While) -> tuple:
    """(the loop's control slice, the other variables it assigns), each
    sorted."""
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
    return tuple(sorted(names)), tuple(sorted(set(sources) - names))


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
