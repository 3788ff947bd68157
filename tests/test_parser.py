import pytest
from hypothesis import assume, example, given, settings, strategies as st

from reducto import parser as P
from reducto.parser import KEYWORDS, MAX_BLOCK_DEPTH, MAX_EXPR_DEPTH, Ast, ParseError, parse
from reducto.source import SourceProgram, count_sloc, is_blank, is_comment
from reducto.values import values_equal, wrap_int

from conftest import program
from oracles import statement_lines, without_lines


def parses(p: SourceProgram) -> bool:
    try:
        parse(p)
        return True
    except ParseError:
        return False


def test_minimal_program_parses():
    ast = parse(program("fn main()\nreturn 1\nend\n"))
    assert set(ast.functions) == {"main"}
    assert ast.functions["main"].params == ()


def test_missing_end_reports_last_line():
    with pytest.raises(ParseError) as err:
        parse(program("fn main()\nreturn 1\n"))
    assert err.value.line == 2
    assert "unclosed" in err.value.reason


@pytest.mark.parametrize(
    "text,line",
    [
        ("fn main()\nend\nend\n", 3),  # stray end
        ("fn main()\nelse\nend\n", 2),  # else outside if
        ("let x = 1\n", 1),  # statement outside function
        ("fn main()\nlet x = \nend\n", 2),  # missing expression
        ("fn main()\nlet 3 = x\nend\n", 2),
        ("fn main()\nreturn 1 +\nend\n", 2),
        ("fn main()\nx ` 3\nend\n", 2),  # stray character
        ('fn main()\nreturn "unterminated\nend\n', 2),
        ("fn main()\nfn inner()\nend\nend\n", 2),  # nested fn
        ("fn main()\nif true\nelse\nelse\nend\nend\n", 4),  # double else
        ("fn f(a, a)\nend\n", 1),  # duplicate parameter
        ("fn f()\nend\nfn f()\nend\n", 3),  # duplicate function
        ("fn len()\nend\n", 1),  # keyword as function name
        # nesting that would exhaust the Python stack of a recursive parser
        ("fn main()\nreturn " + "(" * 400 + "1" + ")" * 400 + "\nend\n", 2),
        ("fn main()\nreturn " + "[" * 400 + "]" * 400 + "\nend\n", 2),
        ("fn main()\nreturn " + "not " * 400 + "true\nend\n", 2),
        ("fn main()\nreturn " + "- " * 400 + "1\nend\n", 2),
        ("fn main(x)\nreturn " + "main(" * 400 + "1" + ")" * 400 + "\nend\n", 2),
        ("fn main()\nreturn " + " + ".join(["1"] * 400) + "\nend\n", 2),
        # block nesting that would exhaust the Python stack of a recursive walker
        ("fn main()\n" + "if true\n" * 1200 + "end\n" * 1200 + "end\n", MAX_BLOCK_DEPTH + 2),
    ],
)
def test_parse_errors_carry_first_offending_line(text, line):
    with pytest.raises(ParseError) as err:
        parse(program(text))
    assert err.value.line == line


# Each shape at ``depth`` holds an expression exactly ``depth`` levels deep.
NESTED_SHAPES = {
    "parentheses": lambda depth: "(" * (depth - 1) + "1" + ")" * (depth - 1),
    "plus_chain": lambda depth: " + ".join(["1"] * depth),  # tree height only
    "not": lambda depth: "not " * (depth - 1) + "true",
    "minus": lambda depth: "- " * (depth - 1) + "1",
    "array": lambda depth: "[" * (depth - 1) + "1" + "]" * (depth - 1),
    "call": lambda depth: "main(" * (depth - 1) + "1" + ")" * (depth - 1),
    "len": lambda depth: "len(" * (depth - 1) + "1" + ")" * (depth - 1),
    "index": lambda depth: "xs" + "[xs" * (depth - 1) + "]" * (depth - 1),
}


def _returning(expr: str) -> SourceProgram:
    return program(f"fn main(xs)\nreturn {expr}\nend\n")


@pytest.mark.parametrize("shape", sorted(NESTED_SHAPES))
def test_expression_depth_cap_is_exact(shape):
    expr = NESTED_SHAPES[shape]
    assert parses(_returning(expr(MAX_EXPR_DEPTH)))
    with pytest.raises(ParseError) as err:
        parse(_returning(expr(MAX_EXPR_DEPTH + 1)))
    assert (err.value.line, err.value.reason) == (
        2, f"expression nested deeper than {MAX_EXPR_DEPTH}"
    )


@pytest.mark.parametrize("shape", sorted(NESTED_SHAPES))
def test_five_thousand_levels_are_a_parse_error(shape):
    with pytest.raises(ParseError) as err:
        parse(_returning(NESTED_SHAPES[shape](5000)))
    assert err.value.reason == f"expression nested deeper than {MAX_EXPR_DEPTH}"


def test_integer_literals_wrap_up_to_cpythons_digit_limit():
    digits = "9" * 4300
    ret = parse(_returning(digits)).functions["main"].body[0]
    assert ret.expr.value == wrap_int(int(digits))
    with pytest.raises(ParseError) as err:
        parse(_returning("1" + digits))
    assert (err.value.line, err.value.reason) == (2, "integer literal too long")


@pytest.mark.parametrize("char", ["`", "@", "$", "'", "\\", "\"", "!"])
def test_a_character_no_token_covers_is_an_error(char):
    with pytest.raises(ParseError) as err:
        parse(_returning(f"1 + 2 {char} 3"))
    assert err.value.reason == f"unexpected character {char!r}"


def _nested_blocks(depth: int) -> SourceProgram:
    """``depth`` blocks, alternately ``while`` and ``if`` with an ``else``, each
    inside the last."""
    opens = ["while false\n" if level % 2 else "if true\nelse\n" for level in range(depth)]
    return program("fn main()\n" + "".join(opens) + "return 1\n" + "end\n" * depth + "end\n")


def test_block_depth_cap_is_exact():
    ast = parse(_nested_blocks(MAX_BLOCK_DEPTH))
    assert max(statement_lines(ast)) == len(_nested_blocks(MAX_BLOCK_DEPTH))
    with pytest.raises(ParseError) as err:
        parse(_nested_blocks(MAX_BLOCK_DEPTH + 1))
    assert err.value.line == 2 + 3 * MAX_BLOCK_DEPTH // 2  # the opener past the cap
    assert "nested deeper" in err.value.reason


def test_empty_blocks_allowed():
    assert parses(program("fn f(x)\nif x > 0\nend\nwhile false\nend\nend\n"))


def test_one_statement_per_line_no_trailing_comment():
    assert not parses(program("fn f()\nreturn 1  # trailing\nend\n"))


WHILE_NEST = """\
fn main(n)
let i = 0
let total = 0
while i < n
let j = i
while j > 0
total = total + j
j = j - 1
end
i = i + 1
end
end
"""


def reference_structure_ok(lines) -> bool:
    """Independent block-balance checker: a stack machine over the line
    keywords, minding the statements-inside-a-function rule."""
    stack = []
    for raw in lines:
        stripped = raw.strip()
        if stripped == "" or stripped.startswith("#"):
            continue
        head = stripped.split()[0] if stripped.split() else ""
        if head == "fn":
            if stack:
                return False
            stack.append("fn")
        elif head == "end":
            if not stack:
                return False
            stack.pop()
        elif head == "else":
            if not stack or stack[-1] != "if":
                return False
            stack[-1] = "else"
        elif head in ("if", "while"):
            if not stack:
                return False
            stack.append(head)
        else:
            if not stack:
                return False
    return not stack


def test_single_deletions_agree_with_reference_balance_checker():
    base = program(WHILE_NEST).lines
    assert parses(SourceProgram(base))
    for drop in range(1, len(base) + 1):
        candidate = SourceProgram(tuple(
            line for i, line in enumerate(base, start=1) if i != drop
        ))
        assert parses(candidate) == reference_structure_ok(candidate.lines), (
            f"disagreement deleting line {drop}"
        )
    # deleting an inner while header leaves a dangling end
    inner_header = 6
    with pytest.raises(ParseError):
        parse(SourceProgram(tuple(
            line for i, line in enumerate(base, start=1) if i != inner_header
        )))


def test_statement_lines_match_noncode_classification(corpus_bundles):
    for bundle in corpus_bundles:
        expected = {
            i
            for i, line in enumerate(bundle.program.lines, start=1)
            if not is_blank(line) and not is_comment(line)
        }
        assert statement_lines(parse(bundle.program)) == expected


def test_round_trip_lines():
    assert SourceProgram.from_text("").lines == ()
    for text in ("", "fn f()\nend\n", "a\n\nb\n", "# only comment\n"):
        p = SourceProgram.from_text(text)
        assert p.to_text() == text
        assert SourceProgram.from_text(p.to_text()).lines == p.lines


@pytest.mark.parametrize("line", ["a\nb", "a\rb", "a\r"])
def test_a_line_holding_a_line_break_is_rejected(line):
    with pytest.raises(ValueError):
        SourceProgram((line,))


def test_count_sloc_basics():
    assert count_sloc(program("\n# comment\nlet x = 1\n")) == 1
    assert count_sloc(SourceProgram(())) == 0
    assert count_sloc(program("   \n\t\n# a\n  # b\n")) == 0


def test_count_sloc_triangle_fixture():
    import re
    from pathlib import Path

    text = (Path(__file__).parent / "fixtures" / "triangle.sl").read_text()
    p = SourceProgram.from_text(text, "triangle")
    # independent classifier: a code line has a non-hash, non-space character
    # before any hash
    code_re = re.compile(r"^\s*[^#\s]")
    independent = sum(1 for line in p.lines if code_re.match(line))
    assert count_sloc(p) == independent == 13
    assert parses(p)


def test_keywords_rejected_as_identifiers():
    assert not parses(program("fn f()\nlet end = 1\nend\n"))
    assert not parses(program("fn f()\nlet len = 1\nend\n"))
    assert not parses(program("fn f(while)\nend\n"))


def test_expression_grammar_corners():
    good = [
        "return [1, 2.5, [true, \"s\"]]",
        "return len(xs) + xs[0] * 2",
        "return not (a and b) or c < d",
        "return f(g(1), 2) - -3",
        "return (1 + 2) * 3",
        "return \"a\" + \"b\"",
        "return 1e3 + 2.5e-2",
        "return a and not b or not not c",
        "return xs[not a]",
    ]
    for stmt in good:
        assert parses(program(f"fn t(a, b, c, d, xs)\n{stmt}\nend\n")), stmt
    bad = ["return 1 ++ 2", "return [1,", "return f(", "return a[1", "return ,",
           # ``not`` starts only an expression or an operand of or, and, not
           "return a == not b", "return a + not b", "return - not a"]
    for stmt in bad:
        assert not parses(program(f"fn t(a)\n{stmt}\nend\n")), stmt


def test_ast_is_shareable_value(max3_program):
    ast = parse(max3_program)
    assert isinstance(ast, Ast)
    lines_before = statement_lines(ast)
    parse(max3_program)
    assert statement_lines(ast) == lines_before


# ---------------------------------------------------------------------------
# The line table: parsing through a shared table equals parsing fresh

def outcome(p: SourceProgram, lines=None):
    """The Ast, or the (line, reason) of the ParseError."""
    try:
        return parse(p, lines)
    except ParseError as exc:
        return exc.line, exc.reason


MALFORMED_LET = "let = 3"

# Line texts, each also the source of context-dependent failures: a second
# header is a nested or duplicate function, a body line before any header
# is outside a function, and else/end can be stray or repeated.
LINE_POOL = (
    "fn f(a, b)", "fn g()", "  fn f(a, b)", "fn f(a, a)", "fn (a)", "fn h(let)",
    "end", "  end", "end x", "else", "else if", "if a < b", "  if a < b",
    "while a > 0", "if (a", "while", "let x = a + 1", "  let x = a + 1",
    "x = x - 1", "a[0] = 2", "a[0 = 2", "a[0] 2", "return x", "return (a + b) * 2",
    "print a", "return", MALFORMED_LET, "let 3 = x", "x ` 3", 'print "\\q"',
    "not x", "", "   ", "# comment", "  # indented comment",
)
# Runs of lines: an else arm, a duplicated one, and blocks that, once
# inside a function, reach or pass the block cap.
RUNS = (
    ("if a < b", "else"),
    ("if a < b", "else", "else"),
    ("if true",) * (MAX_BLOCK_DEPTH + 1),
    ("while false",) * (MAX_BLOCK_DEPTH - 1),
    ("end",) * MAX_BLOCK_DEPTH,
)
CHUNKS = tuple((line,) for line in LINE_POOL) + RUNS


@st.composite
def pooled_programs(draw):
    head = draw(st.sampled_from(((), ("fn f(a, b)",), ("fn g()",))))
    body = draw(st.lists(st.sampled_from(CHUNKS), max_size=10))
    tail = draw(st.sampled_from(((), ("end",), ("end", "fn g()", "return 1", "end"))))
    return SourceProgram(head + tuple(line for chunk in body for line in chunk) + tail)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(programs=st.lists(pooled_programs(), min_size=1, max_size=8))
@example(programs=[  # one malformed line at two line numbers, one table
    program(f"fn f(a)\n{MALFORMED_LET}\nend\n"),
    program(f"fn f(a)\nreturn a\nend\nfn g()\n{MALFORMED_LET}\nend\n"),
])
def test_shared_table_parses_as_fresh(programs):
    lines: dict = {}
    for p in programs:
        assert outcome(p, lines) == outcome(p)


def test_corpus_deletions_through_one_table_parse_as_fresh(corpus_bundles):
    lines: dict = {}
    for bundle in corpus_bundles:
        p = bundle.program
        for i in range(1, len(p) + 1):
            cand = without_lines(p, [i])
            assert outcome(cand, lines) == outcome(cand), (bundle.name, i)


def test_parse_without_a_table_starts_cold(max3_program, monkeypatch):
    from reducto import parser

    forms = []
    line_form = parser._line_form

    def counting_form(raw):
        forms.append(raw)
        return line_form(raw)

    monkeypatch.setattr(parser, "_line_form", counting_form)
    distinct = len(set(max3_program.lines))
    parse(max3_program)
    parse(max3_program)
    assert len(forms) == 2 * distinct
    lines: dict = {}
    parse(max3_program, lines)
    parse(max3_program, lines)
    assert len(forms) == 3 * distinct == 3 * len(lines)


def test_parenthesized_expression_spans_its_parentheses():
    text = "return (a + b) * -(c)"
    ret = parse(program(f"fn f(a, b, c)\n{text}\nend\n")).functions["f"].body[0]
    product = ret.expr
    assert text[product.start:product.end] == "(a + b) * -(c)"
    assert text[product.left.start:product.left.end] == "(a + b)"
    assert text[product.left.op_start:product.left.op_end] == "+"
    assert text[product.right.operand.start:product.right.operand.end] == "(c)"


# ---------------------------------------------------------------------------
# Rendered expression trees parse back to themselves

# Written out, not taken from the parser, so that a wrong table there fails.
LEVEL = {"or": 1, "and": 2, **dict.fromkeys(P.RELATIONAL_OPS, 3),
         "+": 4, "-": 4, "*": 5, "/": 5, "%": 5}
ATOMIC = ("lit", "var", "array", "index", "call", "len")
NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True).filter(
    lambda name: name not in KEYWORDS
)
LITERALS = st.one_of(
    st.integers(0, 2**64), st.booleans(),
    st.floats(0, 1e300, allow_nan=False, allow_infinity=False),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r"), max_size=4),
)


def _trees(children):
    binary = st.tuples(st.just("bin"), st.sampled_from(sorted(LEVEL)), children, children)
    return st.one_of(
        binary, binary, binary,
        st.tuples(st.just("array"), st.lists(children, max_size=3)),
        st.tuples(st.just("index"), children, children),
        st.tuples(st.just("call"), NAMES, st.lists(children, max_size=3)),
        st.tuples(st.just("len"), children),
        st.tuples(st.sampled_from(("neg", "not")), children),
    )


EXPR_TREES = st.recursive(
    st.one_of(st.tuples(st.just("lit"), LITERALS), st.tuples(st.just("var"), NAMES)),
    _trees, max_leaves=16,
)


def _literal_text(value) -> str:
    if type(value) is bool:
        return "true" if value else "false"
    if type(value) is str:
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return '"' + escaped.replace("\n", "\\n").replace("\t", "\\t") + '"'
    return repr(value)


def _wordy(char: str) -> bool:
    return char.isalnum() or char in "_."


class _Renderer:
    """Renders a tree after ``return`` with the parentheses its shape needs,
    and with redundant ones and spacing drawn from ``draw``."""

    def __init__(self, draw):
        self.draw = draw
        self.text = "return "

    def token(self, text: str) -> None:
        glued = _wordy(self.text[-1]) and _wordy(text[0])
        self.text += self.draw(st.sampled_from((" ", "  ", "\t") if glued else ("", " ")))
        self.text += text

    def render(self, tree, ctx: int = 1, follow: int = 0) -> tuple:
        """``(text, tree, child results)``.  ``ctx`` is the loosest level the
        position takes, 7 for an atom only; ``follow`` is the level of the
        operator after it, 0 for none."""
        kind = tree[0]
        needed = (
            (kind == "bin" and LEVEL[tree[1]] < ctx)
            or (kind == "not" and (ctx > 3 or follow >= 3))
            or (ctx == 7 and kind not in ATOMIC)
        )
        before = len(self.text)
        if needed or self.draw(st.integers(0, 5)) == 0:
            self.token("(")
            children = self.bare(tree, 1, 0)
            self.token(")")
        else:
            children = self.bare(tree, ctx, follow)
        return self.text[before:].lstrip(), tree, children

    def bare(self, tree, ctx: int, follow: int) -> list:
        kind = tree[0]
        if kind == "lit" or kind == "var":
            self.token(_literal_text(tree[1]) if kind == "lit" else tree[1])
            return []
        if kind == "array" or kind == "call":
            if kind == "call":
                self.token(tree[1])
            self.token("[" if kind == "array" else "(")
            children = []
            for i, item in enumerate(tree[-1]):
                if i:
                    self.token(",")
                children.append(self.render(item))
            self.token("]" if kind == "array" else ")")
            return children
        if kind == "index":
            base = self.render(tree[1], 7)
            self.token("[")
            index = self.render(tree[2])
            self.token("]")
            return [base, index]
        if kind == "len":
            self.token("len")
            self.token("(")
            arg = self.render(tree[1])
            self.token(")")
            return [arg]
        if kind == "neg" or kind == "not":
            self.token("-" if kind == "neg" else "not")
            return [self.render(tree[1], 6 if kind == "neg" else 3, follow)]
        level = LEVEL[tree[1]]
        left = self.render(tree[2], level, level)
        self.token(tree[1])
        return [left, self.render(tree[3], level + 1, follow)]


NODE_TYPES = {"lit": P.Lit, "var": P.Var, "array": P.ArrayLit, "index": P.Index,
              "call": P.Call, "len": P.Len, "neg": P.Unary, "not": P.Unary, "bin": P.Binary}


def _same_tree(node, rendered, line: str) -> None:
    text, tree, children = rendered
    kind = tree[0]
    assert type(node) is NODE_TYPES[kind]
    assert line[node.start:node.end] == text
    if kind == "lit":
        value = wrap_int(tree[1]) if type(tree[1]) is int else tree[1]
        assert type(node.value) is type(value) and values_equal(node.value, value)
    elif kind == "var" or kind == "call":
        assert node.name == tree[1]
    elif kind == "neg" or kind == "not":
        assert node.op == ("-" if kind == "neg" else "not")
    elif kind == "bin":
        assert node.op == tree[1] == line[node.op_start:node.op_end]
    assert len(P.children(node)) == len(children)
    for child, rendered_child in zip(P.children(node), children):
        _same_tree(child, rendered_child, line)


def _tree_height(tree) -> int:
    subtrees = [t for t in tree[1:] if type(t) is tuple]
    subtrees += [t for part in tree[1:] if type(part) is list for t in part]
    return 1 + max(map(_tree_height, subtrees), default=0)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(tree=EXPR_TREES, data=st.data())
def test_rendered_expression_trees_parse_back(tree, data):
    # at most one pair of parentheses per node keeps the nesting within the cap
    assume(2 * _tree_height(tree) + 1 <= MAX_EXPR_DEPTH)
    renderer = _Renderer(data.draw)
    rendered = renderer.render(tree)
    line = renderer.text
    ret = parse(SourceProgram(("fn f()", line, "end"))).functions["f"].body[0]
    _same_tree(ret.expr, rendered, line)
