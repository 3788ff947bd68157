"""Parser for SLANG, a line-oriented imperative mini-language.

Exactly one construct per line; blocks opened by ``fn``/``if``/``while``
(and the ``else`` arm) are closed by a matching ``end``.  Deleting a single
line is therefore always a meaningful mutation: it either yields another
parseable program or fails the block-balance check.

Every statement node carries its 1-based source line; expression nodes
carry character spans into their line so that patch templates can rewrite
operator and operand text exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .source import SourceProgram, is_blank, is_comment
from .values import wrap_int

KEYWORDS = {
    "fn", "let", "if", "else", "while", "return", "print", "end",
    "true", "false", "and", "or", "not", "len",
}

RELATIONAL_OPS = ("<", "<=", ">", ">=", "==", "!=")
ARITHMETIC_OPS = ("+", "-", "*", "/", "%")

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


# ---------------------------------------------------------------------------
# Tokens

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<float>\d+\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<str>"(?:\\.|[^"\\])*")
  | (?P<op><=|>=|==|!=|[-+*/%<>()\[\],=])
    """,
    re.VERBOSE,
)

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


@dataclass(frozen=True)
class Token:
    kind: str  # float | int | name | str | op
    text: str
    start: int  # char offset into the line
    end: int


def tokenize(text: str, line: int) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(line, f"unexpected character {text[pos]!r}")
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        tokens.append(Token(kind, m.group(), m.start(), m.end()))
    return tokens


def decode_string(token: Token, line: int) -> str:
    body = token.text[1:-1]
    out = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            esc = body[i + 1]
            if esc not in _ESCAPES:
                raise ParseError(line, f"unknown escape \\{esc}")
            out.append(_ESCAPES[esc])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# Expressions

@dataclass(frozen=True)
class Expr:
    start: int
    end: int


@dataclass(frozen=True)
class Lit(Expr):
    value: object


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class ArrayLit(Expr):
    items: tuple


@dataclass(frozen=True)
class Index(Expr):
    base: Expr
    index: Expr


@dataclass(frozen=True)
class Call(Expr):
    name: str
    args: tuple


@dataclass(frozen=True)
class Len(Expr):
    arg: Expr


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # "-" | "not"
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr
    op_start: int = 0
    op_end: int = 0


class _ExprParser:
    def __init__(self, tokens: list[Token], line: int):
        self.tokens = tokens
        self.line = line
        self.pos = 0
        self.nesting = 0

    def peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError(self.line, "unexpected end of line in expression")
        self.pos += 1
        return tok

    def expect_op(self, text: str) -> Token:
        tok = self.next()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(self.line, f"expected {text!r}, found {tok.text!r}")
        return tok

    def at_op(self, *texts: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "op" and tok.text in texts

    def at_name(self, *names: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "name" and tok.text in names

    def nested(self, parse_inner) -> Expr:
        self.nesting += 1
        if self.nesting > MAX_EXPR_DEPTH:
            raise ParseError(self.line, f"expression nested deeper than {MAX_EXPR_DEPTH}")
        expr = parse_inner()
        self.nesting -= 1
        return expr

    # precedence: or < and < not < comparisons < additive < multiplicative
    # < unary minus < postfix indexing < atoms
    def parse(self) -> Expr:
        return self.nested(self.parse_or)

    def parse_or(self) -> Expr:
        left = self.parse_and()
        while self.at_name("or"):
            op = self.next()
            right = self.parse_and()
            left = Binary(left.start, right.end, "or", left, right, op.start, op.end)
        return left

    def parse_and(self) -> Expr:
        left = self.parse_not()
        while self.at_name("and"):
            op = self.next()
            right = self.parse_not()
            left = Binary(left.start, right.end, "and", left, right, op.start, op.end)
        return left

    def parse_not(self) -> Expr:
        if self.at_name("not"):
            op = self.next()
            operand = self.nested(self.parse_not)
            return Unary(op.start, operand.end, "not", operand)
        return self.parse_comparison()

    def parse_comparison(self) -> Expr:
        left = self.parse_additive()
        while self.at_op(*RELATIONAL_OPS):
            op = self.next()
            right = self.parse_additive()
            left = Binary(left.start, right.end, op.text, left, right, op.start, op.end)
        return left

    def parse_additive(self) -> Expr:
        left = self.parse_multiplicative()
        while self.at_op("+", "-"):
            op = self.next()
            right = self.parse_multiplicative()
            left = Binary(left.start, right.end, op.text, left, right, op.start, op.end)
        return left

    def parse_multiplicative(self) -> Expr:
        left = self.parse_unary()
        while self.at_op("*", "/", "%"):
            op = self.next()
            right = self.parse_unary()
            left = Binary(left.start, right.end, op.text, left, right, op.start, op.end)
        return left

    def parse_unary(self) -> Expr:
        if self.at_op("-"):
            op = self.next()
            operand = self.nested(self.parse_unary)
            return Unary(op.start, operand.end, "-", operand)
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        expr = self.parse_atom()
        while self.at_op("["):
            self.next()
            index = self.parse()
            close = self.expect_op("]")
            expr = Index(expr.start, close.end, expr, index)
        return expr

    def parse_atom(self) -> Expr:
        tok = self.next()
        if tok.kind == "int":
            return Lit(tok.start, tok.end, wrap_int(int(tok.text)))
        if tok.kind == "float":
            return Lit(tok.start, tok.end, float(tok.text))
        if tok.kind == "str":
            return Lit(tok.start, tok.end, decode_string(tok, self.line))
        if tok.kind == "name":
            if tok.text == "true":
                return Lit(tok.start, tok.end, True)
            if tok.text == "false":
                return Lit(tok.start, tok.end, False)
            if tok.text == "len":
                self.expect_op("(")
                arg = self.parse()
                close = self.expect_op(")")
                return Len(tok.start, close.end, arg)
            if tok.text in KEYWORDS:
                raise ParseError(self.line, f"keyword {tok.text!r} cannot start an expression")
            if self.at_op("("):
                self.next()
                args = []
                if not self.at_op(")"):
                    args.append(self.parse())
                    while self.at_op(","):
                        self.next()
                        args.append(self.parse())
                close = self.expect_op(")")
                return Call(tok.start, close.end, tok.text, tuple(args))
            return Var(tok.start, tok.end, tok.text)
        if tok.kind == "op" and tok.text == "(":
            inner = self.parse()
            self.expect_op(")")
            return inner
        if tok.kind == "op" and tok.text == "[":
            items = []
            if not self.at_op("]"):
                items.append(self.parse())
                while self.at_op(","):
                    self.next()
                    items.append(self.parse())
            close = self.expect_op("]")
            return ArrayLit(tok.start, close.end, tuple(items))
        raise ParseError(self.line, f"unexpected token {tok.text!r}")


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


def _height(expr: Expr) -> int:
    """Nodes on the longest root-to-leaf path, counted without recursion."""
    height = 0
    stack = [(expr, 1)]
    while stack:
        node, depth = stack.pop()
        height = max(height, depth)
        stack += ((child, depth + 1) for child in children(node))
    return height


def parse_expr_tokens(tokens: list[Token], line: int) -> Expr:
    parser = _ExprParser(tokens, line)
    expr = parser.parse()
    if parser.peek() is not None:
        raise ParseError(line, f"trailing tokens after expression: {parser.peek().text!r}")
    # Every node takes at least one token, so a short line cannot be too deep.
    if len(tokens) > MAX_EXPR_DEPTH and _height(expr) > MAX_EXPR_DEPTH:
        raise ParseError(line, f"expression nested deeper than {MAX_EXPR_DEPTH}")
    return expr


# ---------------------------------------------------------------------------
# Statements

@dataclass(frozen=True)
class Stmt:
    line: int


@dataclass(frozen=True)
class Let(Stmt):
    name: str
    expr: Expr


@dataclass(frozen=True)
class Assign(Stmt):
    name: str
    expr: Expr


@dataclass(frozen=True)
class IndexAssign(Stmt):
    name: str
    index: Expr
    expr: Expr


@dataclass(frozen=True)
class If(Stmt):
    cond: Expr
    then_body: tuple
    else_body: Optional[tuple]
    else_line: Optional[int]
    end_line: int = 0


@dataclass(frozen=True)
class While(Stmt):
    cond: Expr
    body: tuple
    end_line: int = 0


@dataclass(frozen=True)
class Return(Stmt):
    expr: Expr


@dataclass(frozen=True)
class Print(Stmt):
    expr: Expr


@dataclass(frozen=True)
class Function:
    name: str
    params: tuple[str, ...]
    body: tuple
    line: int
    end_line: int


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


@dataclass(frozen=True)
class Ast:
    functions: dict = field(default_factory=dict)  # name -> Function

    def statement_lines(self) -> set[int]:
        """Every non-blank, non-comment line number: headers, bodies,
        ``else`` arms and ``end`` terminators alike."""
        lines: set[int] = set()
        for fn in self.functions.values():
            lines |= {fn.line, fn.end_line}
            for stmt in statements(fn.body):
                lines.add(stmt.line)
                if isinstance(stmt, (If, While)):
                    lines.add(stmt.end_line)
                if isinstance(stmt, If) and stmt.else_line is not None:
                    lines.add(stmt.else_line)
        return lines


_FN_RE = re.compile(r"^fn\s+([A-Za-z_][A-Za-z0-9_]*)\s*\((.*)\)\s*$")


def _parse_fn_header(text: str, line: int) -> tuple[str, tuple[str, ...]]:
    m = _FN_RE.match(text)
    if m is None:
        raise ParseError(line, "malformed function header")
    name, params_text = m.group(1), m.group(2).strip()
    if name in KEYWORDS:
        raise ParseError(line, f"keyword {name!r} cannot name a function")
    if params_text == "":
        return name, ()
    params = []
    for raw in params_text.split(","):
        param = raw.strip()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", param) or param in KEYWORDS:
            raise ParseError(line, f"malformed parameter {raw.strip()!r}")
        if param in params:
            raise ParseError(line, f"duplicate parameter {param!r}")
        params.append(param)
    return name, tuple(params)


class _BlockParser:
    """Single pass over the lines, maintaining a block stack."""

    def __init__(self, program: SourceProgram):
        self.program = program
        self.functions: dict[str, Function] = {}

    def parse(self) -> Ast:
        # stack frames: ("fn", header_line, name, params, stmts)
        #               ("if", line, cond, then_stmts, else_stmts|None, else_line)
        #               ("while", line, cond, stmts)
        stack: list[list] = []
        for number, raw in enumerate(self.program.lines, start=1):
            if is_blank(raw) or is_comment(raw):
                continue
            text = raw.strip()
            self._parse_line(text, number, stack)
        if stack:
            last = len(self.program) if len(self.program) else 1
            frame = stack[-1]
            raise ParseError(last, f"unclosed {frame[0]!r} block opened at line {frame[1]}")
        return Ast(self.functions)

    def _parse_line(self, text: str, number: int, stack: list) -> None:
        first = text.split(None, 1)[0]
        word = first if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", first) else None

        if word == "fn":
            if stack:
                raise ParseError(number, "nested function definition")
            name, params = _parse_fn_header(text, number)
            if name in self.functions:
                raise ParseError(number, f"duplicate function {name!r}")
            stack.append(["fn", number, name, params, []])
            return

        if not stack:
            raise ParseError(number, "statement outside any function")

        if word == "end":
            if text != "end":
                raise ParseError(number, "malformed end")
            frame = stack.pop()
            if frame[0] == "fn":
                _, header_line, name, params, stmts = frame
                self.functions[name] = Function(name, params, tuple(stmts), header_line, number)
            elif frame[0] == "if":
                _, line, cond, then_stmts, else_stmts, else_line = frame
                stmt = If(
                    line, cond, tuple(then_stmts),
                    tuple(else_stmts) if else_stmts is not None else None,
                    else_line, number,
                )
                self._append(stack, stmt, number)
            else:
                _, line, cond, stmts = frame
                self._append(stack, While(line, cond, tuple(stmts), number), number)
            return

        if word == "else":
            if text != "else":
                raise ParseError(number, "malformed else")
            frame = stack[-1]
            if frame[0] != "if":
                raise ParseError(number, "else outside if block")
            if frame[4] is not None:
                raise ParseError(number, "duplicate else")
            frame[4] = []
            frame[5] = number
            return

        if word == "if" or word == "while":
            if len(stack) > MAX_BLOCK_DEPTH:  # the function's frame plus the open blocks
                raise ParseError(number, f"blocks nested deeper than {MAX_BLOCK_DEPTH}")
            tokens = tokenize(text, number)
            cond = parse_expr_tokens(tokens[1:], number)
            if word == "if":
                stack.append(["if", number, cond, [], None, None])
            else:
                stack.append(["while", number, cond, []])
            return

        if word == "let":
            tokens = tokenize(text, number)
            if (
                len(tokens) < 4
                or tokens[1].kind != "name"
                or tokens[1].text in KEYWORDS
                or tokens[2].text != "="
            ):
                raise ParseError(number, "malformed let statement")
            expr = parse_expr_tokens(tokens[3:], number)
            self._append(stack, Let(number, tokens[1].text, expr), number)
            return

        if word == "return" or word == "print":
            tokens = tokenize(text, number)
            expr = parse_expr_tokens(tokens[1:], number)
            stmt = Return(number, expr) if word == "return" else Print(number, expr)
            self._append(stack, stmt, number)
            return

        # assignment forms: X = EXPR and X[EXPR] = EXPR
        tokens = tokenize(text, number)
        if not tokens or tokens[0].kind != "name" or tokens[0].text in KEYWORDS:
            raise ParseError(number, f"unrecognized statement {text!r}")
        target = tokens[0]
        if len(tokens) >= 2 and tokens[1].kind == "op" and tokens[1].text == "=":
            expr = parse_expr_tokens(tokens[2:], number)
            self._append(stack, Assign(number, target.text, expr), number)
            return
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
                raise ParseError(number, "unterminated index in assignment target")
            if close + 1 >= len(tokens) or tokens[close + 1].text != "=":
                raise ParseError(number, "malformed indexed assignment")
            index = parse_expr_tokens(tokens[2:close], number)
            expr = parse_expr_tokens(tokens[close + 2:], number)
            self._append(stack, IndexAssign(number, target.text, index, expr), number)
            return
        raise ParseError(number, f"unrecognized statement {text!r}")

    @staticmethod
    def _append(stack: list, stmt: Stmt, number: int) -> None:
        frame = stack[-1]
        if frame[0] == "fn":
            frame[4].append(stmt)
        elif frame[0] == "if":
            (frame[3] if frame[4] is None else frame[4]).append(stmt)
        else:
            frame[3].append(stmt)


def parse(program: SourceProgram) -> Ast:
    """Parse a program or raise ParseError at the first offending line."""
    return _BlockParser(program).parse()
