"""Formula and program syntax for three propositional dynamic logics.

Dialects:
  PDL      atomic programs, composition, choice, iteration
  IPDL     PDL plus test and intersection
  PRSPDL   atomic programs, the four component programs r1/r2/s1/s2,
           test, composition, parallel composition, iteration (no choice)

Formulas live in a four-constructor core (variable, falsum, implication,
box); the usual abbreviations expand into the core at construction time.
The printer re-sugars exactly negation, verum, and diamond.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Iterator, Union


class Dialect(Enum):
    """The three program languages."""

    PDL = "pdl"
    IPDL = "ipdl"
    PRSPDL = "prspdl"

    @classmethod
    def from_name(cls, name: str) -> "Dialect":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(f"unknown dialect {name!r}; expected pdl, ipdl, or prspdl") from None


class ParseError(ValueError):
    """Syntax error, carrying the character offset where parsing failed."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DialectError(ValueError):
    """A construct outside the dialect's program language."""


class Formula:
    """Base class for formula nodes."""


class Program:
    """Base class for program nodes."""


@dataclass(frozen=True)
class Var(Formula):
    """Propositional variable p<index>, index >= 1."""

    index: int

    def __post_init__(self):
        if self.index < 1:
            raise ValueError(f"variable index must be >= 1, got {self.index}")


@dataclass(frozen=True)
class Falsum(Formula):
    """The constant false."""


@dataclass(frozen=True)
class Implies(Formula):
    """Material implication."""

    left: Formula
    right: Formula


@dataclass(frozen=True)
class Box(Formula):
    """[program] body."""

    program: Program
    body: Formula


@dataclass(frozen=True)
class Atomic(Program):
    """Atomic program a<index>, index >= 1."""

    index: int

    def __post_init__(self):
        if self.index < 1:
            raise ValueError(f"atomic program index must be >= 1, got {self.index}")


SPECIAL_KINDS = ("r1", "r2", "s1", "s2")


@dataclass(frozen=True)
class Special(Program):
    """One of the four store-access programs r1, r2, s1, s2."""

    kind: str

    def __post_init__(self):
        if self.kind not in SPECIAL_KINDS:
            raise ValueError(f"special program must be one of {SPECIAL_KINDS}, got {self.kind!r}")


@dataclass(frozen=True)
class Test(Program):
    """formula? -- identity on states satisfying the formula."""

    __test__ = False  # not a pytest class, despite the name

    formula: Formula


@dataclass(frozen=True)
class Seq(Program):
    """Sequential composition."""

    left: Program
    right: Program


@dataclass(frozen=True)
class Choice(Program):
    """Nondeterministic choice."""

    left: Program
    right: Program


@dataclass(frozen=True)
class Inter(Program):
    """Intersection of programs."""

    left: Program
    right: Program


@dataclass(frozen=True)
class Par(Program):
    """Parallel composition."""

    left: Program
    right: Program


@dataclass(frozen=True)
class Star(Program):
    """Reflexive-transitive iteration."""

    inner: Program


FALSUM = Falsum()
TOP = Implies(FALSUM, FALSUM)


def top() -> Formula:
    """The constant true, as not-false."""
    return TOP


def neg(phi: Formula) -> Formula:
    """Negation as implication into falsum."""
    return Implies(phi, FALSUM)


def conj(left: Formula, right: Formula) -> Formula:
    """Conjunction, expanded to ~(left -> ~right)."""
    return neg(Implies(left, neg(right)))


def disj(left: Formula, right: Formula) -> Formula:
    """Disjunction, expanded to ~left -> right."""
    return Implies(neg(left), right)


def iff(left: Formula, right: Formula) -> Formula:
    """Biconditional as the conjunction of both implications."""
    return conj(Implies(left, right), Implies(right, left))


def diamond(program: Program, body: Formula) -> Formula:
    """Diamond as the dual of box."""
    return neg(Box(program, neg(body)))


# Program constructors admitted by each dialect.
_ALLOWED: dict[Dialect, tuple[type, ...]] = {
    Dialect.PDL: (Atomic, Seq, Choice, Star),
    Dialect.IPDL: (Atomic, Test, Seq, Choice, Inter, Star),
    Dialect.PRSPDL: (Atomic, Special, Test, Seq, Par, Star),
}

_PROGRAM_NAMES = {
    Atomic: "atomic program",
    Special: "store-access program",
    Test: "test '?'",
    Seq: "composition ';'",
    Choice: "choice 'u'",
    Inter: "intersection '&'",
    Par: "parallel composition '||'",
    Star: "iteration '*'",
}


def validate(root: Union[Formula, Program], dialect: Dialect) -> None:
    """Raise DialectError if a formula or program uses a program constructor
    outside the dialect."""
    allowed = _ALLOWED[dialect]
    for node in iter_nodes(root):
        if isinstance(node, Program) and not isinstance(node, allowed):
            raise DialectError(
                f"{_PROGRAM_NAMES[type(node)]} is not available under {dialect.value.upper()}"
            )


# ---------------------------------------------------------------------------
# Traversal
#
# Structural walks go through children() and fold(), the printer through its
# own loop; each keeps its own stack, so none is limited by recursion depth.

# Subterms of each node type, in constructor order.
_CHILDREN = {
    **dict.fromkeys((Var, Falsum, Atomic, Special), lambda node: ()),
    **dict.fromkeys((Implies, Seq, Choice, Inter, Par), attrgetter("left", "right")),
    Box: attrgetter("program", "body"),
    Test: lambda node: (node.formula,),
    Star: lambda node: (node.inner,),
}


def children(node: Union[Formula, Program]) -> tuple:
    """The immediate subterms of a node, in constructor order."""
    try:
        subterms = _CHILDREN[type(node)]
    except KeyError:
        raise TypeError(f"not a formula or program node: {node!r}") from None
    return subterms(node)


def rebuild(node: Union[Formula, Program], results) -> Union[Formula, Program]:
    """The node with its subterms replaced by results; the node itself when
    no subterm changed."""
    if all(new is old for new, old in zip(results, children(node))):
        return node
    return type(node)(*results)


def fold(root: Union[Formula, Program], visit):
    """Post-order fold: visit(node, results) gets the results of the node's
    children in constructor order, and its value is the node's result.

    Children are visited left to right. Results are memoized by node
    identity, so a subterm shared within the root is visited once.
    """
    done: dict[int, object] = {}
    # An entry is (node, None) on the way down, (node, kids) on the way up;
    # a leaf is visited on the way down.
    stack: list = [(root, None)]
    while stack:
        node, kids = stack.pop()
        if kids is None:
            if id(node) in done:
                continue
            kids = children(node)
            if kids:
                stack.append((node, kids))
                stack.extend([(kid, None) for kid in reversed(kids)])
                continue
        done[id(node)] = visit(node, [done[id(kid)] for kid in kids])
    return done[id(root)]


def iter_nodes(root: Union[Formula, Program]) -> Iterator[Union[Formula, Program]]:
    """Preorder walk over formula and program nodes, in textual order."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


@dataclass(frozen=True)
class FormulaMetrics:
    """Size and vocabulary summary of a formula."""

    size: int
    variables: frozenset[int]
    atoms: frozenset[int]
    modal_depth: int


def metrics(phi: Formula) -> FormulaMetrics:
    """Node count, variable/atom index sets, and modal nesting depth."""
    variables = set()
    atoms = set()

    def visit(node, results):
        # (size, modal depth) of the node
        kind = type(node)
        if kind is Var:
            variables.add(node.index)
        elif kind is Atomic:
            atoms.add(node.index)
        elif kind is Box:
            (program_size, program_depth), (body_size, body_depth) = results
            return 1 + program_size + body_size, max(program_depth, 1 + body_depth)
        size, depth = 1, 0
        for child_size, child_depth in results:
            size += child_size
            depth = max(depth, child_depth)
        return size, depth

    size, depth = fold(phi, visit)
    return FormulaMetrics(size, frozenset(variables), frozenset(atoms), depth)


def substitute(phi: Formula, var_index: int, psi: Formula) -> Formula:
    """Replace every occurrence of p<var_index> by psi, including inside tests."""

    def visit(node, results):
        if type(node) is Var and node.index == var_index:
            return psi
        return rebuild(node, results)

    return fold(phi, visit)


def normalize_variables(phi: Formula) -> tuple[Formula, dict[int, int], dict[int, int]]:
    """Rename variables to p1..pn and atomic programs to a1..al.

    Indices are assigned in order of first textual occurrence.  Returns the
    renamed formula together with the old-to-new maps for variables and atoms.
    """
    var_map: dict[int, int] = {}
    atom_map: dict[int, int] = {}

    def visit(node, results):
        # fold meets the leaves in textual order, so first visits number them
        kind = type(node)
        if kind is Var or kind is Atomic:
            names = var_map if kind is Var else atom_map
            index = names.setdefault(node.index, len(names) + 1)
            return node if index == node.index else kind(index)
        return rebuild(node, results)

    return fold(phi, visit), var_map, atom_map


# ---------------------------------------------------------------------------
# Lexer

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<var>p[0-9]+)
    | (?P<atom>a[0-9]+)
    | (?P<special>r1|r2|s1|s2)
    | (?P<true>true)
    | (?P<false>false)
    | (?P<choice>u)
    | (?P<op><->|->|\|\||[~&|;*?()\[\]<>])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tok_text = m.group()
            if kind == "op":
                kind = tok_text
            tokens.append(_Token(kind, tok_text, pos))
        pos = m.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# Parser
#
# Formula precedence, loosest first:  <->  ->  |  &  unary.
# '->' and '<->' associate to the right; '|' and '&' to the left.
# Program precedence, loosest first:  ||  u  &  ;  postfix.
# Tests are written <unary formula>?; a parenthesized group followed by '?'
# is a test on the enclosed formula, otherwise it is a grouped program.


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def accept(self, kind: str) -> bool:
        if self.peek().kind == kind:
            self.i += 1
            return True
        return False

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            found = tok.text or "end of input"
            raise ParseError(f"expected {what}, found {found!r}", tok.pos)
        return self.advance()

    # formulas

    def formula(self) -> Formula:
        left = self.implication()
        if self.accept("<->"):
            return iff(left, self.formula())
        return left

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.accept("->"):
            return Implies(left, self.implication())
        return left

    def disjunction(self) -> Formula:
        left = self.conjunction()
        while self.accept("|"):
            left = disj(left, self.conjunction())
        return left

    def conjunction(self) -> Formula:
        left = self.unary()
        while self.accept("&"):
            left = conj(left, self.unary())
        return left

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "~":
            self.advance()
            return neg(self.unary())
        if tok.kind == "[":
            self.advance()
            prog = self.program()
            self.expect("]", "']'")
            return Box(prog, self.unary())
        if tok.kind == "<":
            self.advance()
            prog = self.program()
            self.expect(">", "'>'")
            return diamond(prog, self.unary())
        return self.formula_primary()

    def formula_primary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "false":
            self.advance()
            return FALSUM
        if tok.kind == "true":
            self.advance()
            return TOP
        if tok.kind == "var":
            self.advance()
            index = int(tok.text[1:])
            if index < 1:
                raise ParseError("variable index must be >= 1", tok.pos)
            return Var(index)
        if tok.kind == "(":
            self.advance()
            inner = self.formula()
            self.expect(")", "')'")
            return inner
        found = tok.text or "end of input"
        raise ParseError(f"expected a formula, found {found!r}", tok.pos)

    # programs

    def program(self) -> Program:
        left = self.par_level()
        while self.accept("||"):
            left = Par(left, self.par_level())
        return left

    def par_level(self) -> Program:
        left = self.choice_level()
        while self.accept("choice"):
            left = Choice(left, self.choice_level())
        return left

    def choice_level(self) -> Program:
        left = self.inter_level()
        while self.accept("&"):
            left = Inter(left, self.inter_level())
        return left

    def inter_level(self) -> Program:
        left = self.postfix()
        while self.accept(";"):
            left = Seq(left, self.postfix())
        return left

    def postfix(self) -> Program:
        prog = self.program_primary()
        while self.accept("*"):
            prog = Star(prog)
        return prog

    def program_primary(self) -> Program:
        tok = self.peek()
        if tok.kind == "atom":
            self.advance()
            index = int(tok.text[1:])
            if index < 1:
                raise ParseError("atomic program index must be >= 1", tok.pos)
            return Atomic(index)
        if tok.kind == "special":
            self.advance()
            return Special(tok.text)
        if tok.kind == "(":
            # A parenthesized group is a program unless a '?' follows the
            # closing parenthesis, in which case the group is a test formula.
            mark = self.i
            self.advance()
            try:
                prog = self.program()
                self.expect(")", "')'")
                if self.peek().kind != "?":
                    return prog
            except ParseError:
                pass
            self.i = mark
            self.advance()
            formula = self.formula()
            self.expect(")", "')'")
            self.expect("?", "'?'")
            return Test(formula)
        if tok.kind in ("var", "true", "false", "~", "[", "<"):
            formula = self.unary()
            self.expect("?", "'?' after test formula")
            return Test(formula)
        found = tok.text or "end of input"
        raise ParseError(f"expected a program, found {found!r}", tok.pos)


def parse_formula(text: str, dialect: Dialect) -> Formula:
    """Parse a formula, expanding abbreviations; rejects constructs outside the dialect."""
    parser = _Parser(_tokenize(text))
    phi = parser.formula()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
    validate(phi, dialect)
    return phi


def parse_program(text: str, dialect: Dialect) -> Program:
    """Parse a standalone program; rejects constructs outside the dialect."""
    parser = _Parser(_tokenize(text))
    alpha = parser.program()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
    validate(alpha, dialect)
    return alpha


def parse_formula_lines(text: str, dialect: Dialect) -> list[Formula]:
    """Parse one formula per line; blank lines and '#' comments are skipped."""
    formulas = []
    for line in text.splitlines():
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            formulas.append(parse_formula(stripped, dialect))
    return formulas


# ---------------------------------------------------------------------------
# Printer

_F_IMPL, _F_UNARY, _F_ATOM = 1, 2, 3
_P_PAR, _P_CHOICE, _P_INTER, _P_SEQ, _P_POSTFIX, _P_ATOM = 1, 2, 3, 4, 5, 6


def print_formula(phi: Formula) -> str:
    """Render a formula; parse_formula inverts this exactly."""
    return _print(phi)


def print_program(alpha: Program) -> str:
    """Render a program; parse_program inverts this exactly."""
    return _print(alpha)


def _print(root: Union[Formula, Program]) -> str:
    # Not a fold: memoized subterm texts would take memory quadratic in depth.
    # The stack holds text still to write and (node, minimum level) pairs still
    # to lay out, a node below its minimum level being parenthesized; output
    # goes to one byte buffer, a byte per character.
    out = bytearray()
    stack: list = [(root, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out += item.encode()
            continue
        node, min_level = item
        level, pieces = _layout(node)
        if level < min_level:
            out += b"("
            stack.append(")")
        stack.extend(reversed(pieces))
    return out.decode()


def _layout(node: Union[Formula, Program]) -> tuple[int, tuple]:
    """A node's precedence level and its pieces: text, or (subterm, minimum level)."""
    match node:
        case Implies(left, Falsum()):
            match left:
                case Falsum():
                    return _F_ATOM, ("true",)
                case Box(program, Implies(body, Falsum())):
                    return _F_UNARY, ("<", (program, 0), ">", (body, _F_UNARY))
            return _F_UNARY, ("~", (left, _F_UNARY))
        case Implies(left, right):
            return _F_IMPL, ((left, _F_UNARY), " -> ", (right, _F_IMPL))
        case Box(program, body):
            return _F_UNARY, ("[", (program, 0), "]", (body, _F_UNARY))
        case Atomic(index):
            return _P_ATOM, (f"a{index}",)
        case Var(index):
            return _F_ATOM, (f"p{index}",)
        case Falsum():
            return _F_ATOM, ("false",)
        case Special(kind):
            return _P_ATOM, (kind,)
        case Test(formula):
            return _P_POSTFIX, ((formula, _F_UNARY), "?")
        case Star(inner):
            return _P_POSTFIX, ((inner, _P_POSTFIX), "*")
        case Seq(left, right):
            return _P_SEQ, ((left, _P_SEQ), ";", (right, _P_SEQ + 1))
        case Inter(left, right):
            return _P_INTER, ((left, _P_INTER), " & ", (right, _P_INTER + 1))
        case Choice(left, right):
            return _P_CHOICE, ((left, _P_CHOICE), " u ", (right, _P_CHOICE + 1))
        case Par(left, right):
            return _P_PAR, ((left, _P_PAR), " || ", (right, _P_PAR + 1))
    raise TypeError(f"not a formula or program node: {node!r}")
