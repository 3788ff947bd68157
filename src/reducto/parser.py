"""Parser for SLANG, a line-oriented imperative mini-language.

Exactly one construct per line; blocks opened by ``fn``/``if``/``while``
(and the ``else`` arm) are closed by a matching ``end``.  Deleting a single
line is therefore always a meaningful mutation: it either yields another
parseable program or fails the block-balance check.

Every statement node carries its 1-based source line; expression nodes
carry character spans into their line so that patch templates can rewrite
operator and operand text exactly.  So what a line says does not depend on
where it sits, and ``parse`` can take each line's form from a table that
one scope (a slicer run, one configuration's repair) shares across the
many programs it parses.

Expressions bind, loosest first::

    1  or
    2  and
       not       prefix; its operand is a level-3 expression
    3  <  <=  >  >=  ==  !=
    4  +  -
    5  *  /  %
       -         prefix; its operand is another ``-`` or an atom
       x[i]      postfix indexing of an atom

Every binary chain groups to the left: ``a - b - c`` is ``(a - b) - c``
and ``a < b < c`` is ``(a < b) < c``.  ``not`` may start an expression or
an operand of ``or``, ``and`` or ``not``, and nowhere else, so ``a == not
b`` does not parse.  An expression nests at most ``MAX_EXPR_DEPTH``
levels: each parenthesis, array, call argument, ``len`` argument, index
and prefix operand is one level, and so is each node on the longest path
down the tree.  An integer literal has at most 4,300 digits
(``values.MAX_INT_DIGITS``), whatever digit limit the process sets, and it
wraps to 64 bits.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional

from .source import SourceProgram, is_blank, is_comment
from .values import int_from_digits, wrap_int

KEYWORDS = {
    "fn", "let", "if", "else", "while", "return", "print", "end",
    "true", "false", "and", "or", "not", "len",
}

RELATIONAL_OPS = ("<", "<=", ">", ">=", "==", "!=")
ARITHMETIC_OPS = ("+", "-", "*", "/", "%")

# Binary operators by precedence level, loosest first; see the docstring.
_LEVELS = {
    "or": 1, "and": 2, **dict.fromkeys(RELATIONAL_OPS, 3),
    "+": 4, "-": 4, "*": 5, "/": 5, "%": 5,
}

# Deepest expression a line may hold: both the nesting of sub-expressions
# the parser recurses into (parentheses, brackets, call arguments, prefix
# operators) and the height of the resulting tree.  Bounding the height
# bounds the Python frames one SLANG call level needs in the interpreter.
MAX_EXPR_DEPTH = 32

# Deepest nesting of ``if``/``while`` blocks inside a function.  The
# interpreter lowers the block tree recursively, one Python frame per
# level, so this bounds its stack too.
MAX_BLOCK_DEPTH = 64


class ParseError(Exception):
    """Raised for any unbuildable program; carries the first offending line."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class _LineError(Exception):
    """A fault of one line's text, whatever line number it sits at."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


# Tokens, expressions, statements, functions and Asts are built per token,
# per line and per parse, so they are slotted dataclasses, not frozen ones:
# a frozen dataclass's ``__init__`` pays one ``object.__setattr__`` per
# field.  Nothing may write to them all the same: the line table shares a
# line's expression nodes with every program of the scope that holds the
# line, and a test checks that no stage writes to a shared node.  Nothing
# hashes them (slotted dataclasses with ``eq`` cannot be), and ``==`` still
# tells a ``Let`` from an ``Assign`` with equal fields.

# ---------------------------------------------------------------------------
# Tokens

_TOKEN_RE = re.compile(
    r"""
    (?P<float>\d+\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<str>"(?:\\.|[^"\\])*")
  | (?P<op><=|>=|==|!=|[-+*/%<>()\[\],=])
  | (?P<bad>\S)
    """,
    re.VERBOSE,
)

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


@dataclass(slots=True)
class Token:
    kind: str  # float | int | name | str | op
    text: str
    start: int  # char offset into the line
    end: int


def tokenize(text: str) -> list[Token]:
    # No alternative matches whitespace, so ``finditer`` skips it, and any
    # other character the tokens do not cover is ``bad``.
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup == "bad":
            raise _LineError(f"unexpected character {m.group()!r}")
        tokens.append(Token(m.lastgroup, m.group(), m.start(), m.end()))
    return tokens


def decode_string(token: Token) -> str:
    body = token.text[1:-1]
    out = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            esc = body[i + 1]
            if esc not in _ESCAPES:
                raise _LineError(f"unknown escape \\{esc}")
            out.append(_ESCAPES[esc])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# Expressions

@dataclass(slots=True)
class Expr:
    start: int
    end: int


@dataclass(slots=True)
class Lit(Expr):
    value: object


@dataclass(slots=True)
class Var(Expr):
    name: str


@dataclass(slots=True)
class ArrayLit(Expr):
    items: tuple


@dataclass(slots=True)
class Index(Expr):
    base: Expr
    index: Expr


@dataclass(slots=True)
class Call(Expr):
    name: str
    args: tuple


@dataclass(slots=True)
class Len(Expr):
    arg: Expr


@dataclass(slots=True)
class Unary(Expr):
    op: str  # "-" | "not"
    operand: Expr


@dataclass(slots=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr
    op_start: int = 0
    op_end: int = 0


class _ExprParser:
    """Precedence climbing over one line's tokens.  Only an "op" token's
    text is a bracket, comma or operator, and only a "name" token's is a
    keyword, so a token's text alone tells what it is."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.nesting = 0

    def next(self) -> Token:
        if self.pos == len(self.tokens):
            raise _LineError("unexpected end of line in expression")
        self.pos += 1
        return self.tokens[self.pos - 1]

    def at(self, text: str) -> bool:
        return self.pos < len(self.tokens) and self.tokens[self.pos].text == text

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise _LineError(f"expected {text!r}, found {tok.text!r}")
        return tok

    def parse(self, level: int = 1) -> Expr:
        """One level of nesting: an expression whose binary operators bind at
        ``level`` or tighter."""
        self.nesting += 1
        if self.nesting > MAX_EXPR_DEPTH:
            raise _LineError(f"expression nested deeper than {MAX_EXPR_DEPTH}")
        expr = self.chain(level)
        self.nesting -= 1
        return expr

    def chain(self, level: int) -> Expr:
        """An operand, then every binary operator of ``level`` or tighter
        with its right operand, grouped to the left."""
        tok = self.next()
        if tok.text == "not" and level <= 3:
            operand = self.parse(3)
            left = Unary(tok.start, operand.end, "not", operand)
        elif tok.text == "-":
            operand = self.parse(6)  # tighter than every binary operator
            left = Unary(tok.start, operand.end, "-", operand)
        else:
            left = self.atom(tok)
            while self.at("["):
                self.pos += 1
                index = self.parse()
                close = self.expect("]")
                left = Index(left.start, close.end, left, index)
        tokens = self.tokens
        while self.pos < len(tokens):
            op = tokens[self.pos]
            op_level = _LEVELS.get(op.text, 0)
            if op_level < level:
                break
            self.pos += 1
            right = self.chain(op_level + 1)
            left = Binary(left.start, right.end, op.text, left, right, op.start, op.end)
        return left

    def items(self, close: str) -> tuple[tuple, Token]:
        """Comma-separated expressions up to ``close``, and that token."""
        items = []
        if not self.at(close):
            items.append(self.parse())
            while self.at(","):
                self.pos += 1
                items.append(self.parse())
        return tuple(items), self.expect(close)

    def atom(self, tok: Token) -> Expr:
        if tok.kind == "int":
            try:
                value = int_from_digits(tok.text)
            except ValueError:  # more than MAX_INT_DIGITS digits
                raise _LineError("integer literal too long") from None
            return Lit(tok.start, tok.end, wrap_int(value))
        if tok.kind == "float":
            return Lit(tok.start, tok.end, float(tok.text))
        if tok.kind == "str":
            return Lit(tok.start, tok.end, decode_string(tok))
        if tok.kind == "name":
            if tok.text == "true":
                return Lit(tok.start, tok.end, True)
            if tok.text == "false":
                return Lit(tok.start, tok.end, False)
            if tok.text == "len":
                self.expect("(")
                arg = self.parse()
                return Len(tok.start, self.expect(")").end, arg)
            if tok.text in KEYWORDS:
                raise _LineError(f"keyword {tok.text!r} cannot start an expression")
            if self.at("("):
                self.pos += 1
                args, close = self.items(")")
                return Call(tok.start, close.end, tok.text, args)
            return Var(tok.start, tok.end, tok.text)
        if tok.text == "(":
            inner = self.parse()
            return replace(inner, start=tok.start, end=self.expect(")").end)
        if tok.text == "[":
            items, close = self.items("]")
            return ArrayLit(tok.start, close.end, items)
        raise _LineError(f"unexpected token {tok.text!r}")


def children(expr: Expr) -> tuple:
    """The direct sub-expressions of ``expr``, in source order."""
    t = type(expr)
    if t is Binary:
        return (expr.left, expr.right)
    if t is Index:
        return (expr.base, expr.index)
    if t is Unary:
        return (expr.operand,)
    if t is Len:
        return (expr.arg,)
    if t is Call:
        return expr.args
    if t is ArrayLit:
        return expr.items
    return ()


def nodes(expr: Expr) -> Iterator[Expr]:
    """``expr`` and every expression nested in it, in pre-order: a parent
    before its children, children left to right."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack += reversed(children(node))


def _height(expr: Expr) -> int:
    """Nodes on the longest root-to-leaf path, counted without recursion."""
    height = 0
    stack = [(expr, 1)]
    while stack:
        node, depth = stack.pop()
        height = max(height, depth)
        stack += ((child, depth + 1) for child in children(node))
    return height


def parse_expr_tokens(tokens: list[Token]) -> Expr:
    parser = _ExprParser(tokens)
    expr = parser.parse()
    if parser.pos < len(tokens):
        raise _LineError(f"trailing tokens after expression: {tokens[parser.pos].text!r}")
    # Every node takes at least one token, so a short line cannot be too deep.
    if len(tokens) > MAX_EXPR_DEPTH and _height(expr) > MAX_EXPR_DEPTH:
        raise _LineError(f"expression nested deeper than {MAX_EXPR_DEPTH}")
    return expr


# ---------------------------------------------------------------------------
# Statements

@dataclass(slots=True)
class Stmt:
    line: int


@dataclass(slots=True)
class Let(Stmt):
    name: str
    expr: Expr


@dataclass(slots=True)
class Assign(Stmt):
    name: str
    expr: Expr


@dataclass(slots=True)
class IndexAssign(Stmt):
    name: str
    index: Expr
    expr: Expr


@dataclass(slots=True)
class If(Stmt):
    cond: Expr
    then_body: tuple
    else_body: Optional[tuple]
    else_line: Optional[int]
    end_line: int = 0


@dataclass(slots=True)
class While(Stmt):
    cond: Expr
    body: tuple
    end_line: int = 0


@dataclass(slots=True)
class Return(Stmt):
    expr: Expr


@dataclass(slots=True)
class Print(Stmt):
    expr: Expr


@dataclass(slots=True)
class Function:
    name: str
    params: tuple[str, ...]
    body: tuple
    line: int
    end_line: int
    # the raw texts of lines ``line`` to ``end_line``: what the function
    # says, wherever it sits
    text: tuple[str, ...] = ()


def statements(block) -> Iterator[Stmt]:
    """Every statement of ``block`` and of the blocks nested in it, in
    source order, without recursion."""
    stack = list(reversed(block))
    while stack:
        stmt = stack.pop()
        yield stmt
        if type(stmt) is If:
            stack += reversed(stmt.else_body or ())
            stack += reversed(stmt.then_body)
        elif type(stmt) is While:
            stack += reversed(stmt.body)


def expressions(stmt: Stmt) -> tuple:
    """The expressions ``stmt`` itself evaluates, in source order; those of
    the blocks nested in it are their statements' own."""
    t = type(stmt)
    if t is If or t is While:
        return (stmt.cond,)
    if t is IndexAssign:
        return (stmt.index, stmt.expr)
    return (stmt.expr,)


@dataclass(slots=True)
class Ast:
    functions: dict = field(default_factory=dict)  # name -> Function


_FN_RE = re.compile(r"^fn\s+([A-Za-z_][A-Za-z0-9_]*)\s*\((.*)\)\s*$")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _parse_fn_header(text: str) -> tuple[str, tuple[str, ...]]:
    m = _FN_RE.match(text)
    if m is None:
        raise _LineError("malformed function header")
    name, params_text = m.group(1), m.group(2).strip()
    if name in KEYWORDS:
        raise _LineError(f"keyword {name!r} cannot name a function")
    if params_text == "":
        return name, ()
    params = []
    for raw in params_text.split(","):
        param = raw.strip()
        if not _NAME_RE.fullmatch(param) or param in KEYWORDS:
            raise _LineError(f"malformed parameter {raw.strip()!r}")
        if param in params:
            raise _LineError(f"duplicate parameter {param!r}")
        params.append(param)
    return name, tuple(params)


# A line's form is everything its text says on its own: ``(kind, reason,
# data)``.  ``kind`` is "blank" (blank or comment), "fn", "end", "else",
# "if", "while" or "stmt"; ``reason`` is why the line cannot parse, or None;
# ``data`` is (name, params) for "fn", the condition for "if"/"while" and
# (statement class, fields after the line number) for "stmt".  Expression
# spans are offsets into the stripped line, so a form does not depend on
# where its line sits and one table can serve many programs.
_BLANK = ("blank", None, None)
_BLOCK_WORDS = ("fn", "end", "else", "if", "while")


def _line_form(raw: str) -> tuple:
    if is_blank(raw) or is_comment(raw):
        return _BLANK
    text = raw.strip()
    first = text.split(None, 1)[0]
    word = first if _NAME_RE.fullmatch(first) else None
    kind = word if word in _BLOCK_WORDS else "stmt"
    try:
        return kind, None, _line_data(kind, word, text)
    except _LineError as exc:
        return kind, exc.reason, None


def _line_data(kind: str, word: Optional[str], text: str):
    if kind == "fn":
        return _parse_fn_header(text)
    if kind == "end" or kind == "else":
        if text != kind:
            raise _LineError(f"malformed {kind}")
        return None
    tokens = tokenize(text)
    if kind == "if" or kind == "while":
        return parse_expr_tokens(tokens[1:])
    if word == "let":
        if (
            len(tokens) < 4
            or tokens[1].kind != "name"
            or tokens[1].text in KEYWORDS
            or tokens[2].text != "="
        ):
            raise _LineError("malformed let statement")
        return Let, (tokens[1].text, parse_expr_tokens(tokens[3:]))
    if word == "return" or word == "print":
        return (Return if word == "return" else Print), (parse_expr_tokens(tokens[1:]),)

    # assignment forms: X = EXPR and X[EXPR] = EXPR
    if not tokens or tokens[0].kind != "name" or tokens[0].text in KEYWORDS:
        raise _LineError(f"unrecognized statement {text!r}")
    target = tokens[0].text
    if len(tokens) >= 2 and tokens[1].kind == "op" and tokens[1].text == "=":
        return Assign, (target, parse_expr_tokens(tokens[2:]))
    if len(tokens) >= 2 and tokens[1].kind == "op" and tokens[1].text == "[":
        depth = 0
        close = None
        for i, tok in enumerate(tokens[1:], start=1):
            if tok.kind == "op" and tok.text == "[":
                depth += 1
            elif tok.kind == "op" and tok.text == "]":
                depth -= 1
                if depth == 0:
                    close = i
                    break
        if close is None:
            raise _LineError("unterminated index in assignment target")
        if close + 1 >= len(tokens) or tokens[close + 1].text != "=":
            raise _LineError("malformed indexed assignment")
        index = parse_expr_tokens(tokens[2:close])
        return IndexAssign, (target, index, parse_expr_tokens(tokens[close + 2:]))
    raise _LineError(f"unrecognized statement {text!r}")


def parse(program: SourceProgram, lines: Optional[dict] = None) -> Ast:
    """Parse a program or raise ParseError at the first offending line.

    ``lines`` maps raw line texts to their forms.  ``interp.Scope.build``
    passes its scope's one dict to every parse of the scope (a slicer run,
    one configuration's repair), which parses each distinct line once;
    without one, the parse starts cold.  Only line numbers, block balance,
    nesting and duplicate functions are worked out per program."""
    if lines is None:
        lines = {}
    functions: dict[str, Function] = {}
    # frames: [kind, line, head, body, then_body, else_line], where ``head``
    # is the header's form data, ``body`` takes the statements that follow
    # and ``then_body`` is set at ``else``
    stack: list[list] = []
    for number, raw in enumerate(program.lines, start=1):
        form = lines.get(raw)
        if form is None:
            form = lines[raw] = _line_form(raw)
        kind, reason, data = form
        if kind == "blank":
            continue
        if kind == "fn":
            if stack:
                raise ParseError(number, "nested function definition")
            if reason is not None:
                raise ParseError(number, reason)
            if data[0] in functions:
                raise ParseError(number, f"duplicate function {data[0]!r}")
            stack.append([kind, number, data, [], None, None])
            continue
        if not stack:
            raise ParseError(number, "statement outside any function")
        if (kind == "if" or kind == "while") and len(stack) > MAX_BLOCK_DEPTH:
            # the function's frame plus the open blocks
            raise ParseError(number, f"blocks nested deeper than {MAX_BLOCK_DEPTH}")
        if reason is not None:
            raise ParseError(number, reason)

        if kind == "if" or kind == "while":
            stack.append([kind, number, data, [], None, None])
            continue
        if kind == "else":
            frame = stack[-1]
            if frame[0] != "if":
                raise ParseError(number, "else outside if block")
            if frame[5] is not None:
                raise ParseError(number, "duplicate else")
            frame[3], frame[4], frame[5] = [], frame[3], number
            continue
        if kind == "end":
            opener, line, head, body, then_body, else_line = stack.pop()
            if opener == "fn":
                name, params = head
                functions[name] = Function(
                    name, params, tuple(body), line, number, program.lines[line - 1:number]
                )
                continue
            if opener == "while":
                stmt = While(line, head, tuple(body), number)
            elif else_line is None:
                stmt = If(line, head, tuple(body), None, None, number)
            else:
                stmt = If(line, head, tuple(then_body), tuple(body), else_line, number)
        else:
            cls, fields = data
            stmt = cls(number, *fields)
        stack[-1][3].append(stmt)
    if stack:
        frame = stack[-1]
        raise ParseError(len(program), f"unclosed {frame[0]!r} block opened at line {frame[1]}")
    return Ast(functions)
