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
import weakref
from dataclasses import dataclass
from enum import Enum
from functools import partial
from operator import attrgetter
from typing import Iterable, Iterator, Union


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

    __slots__ = ()


class Program:
    """Base class for program nodes."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Nodes
#
# Every node is hash-consed (Filliatre & Conchon, "Type-safe modular
# hash-consing", 2006). A constructor returns the live node of its class
# with the same leaf value, or with the same child objects, when there is
# one, and builds and enters a new node otherwise. Children are interned
# before their parent, so structurally equal terms are one object: == is
# identity and hash is the identity's hash, object's own, and neither
# walks the term. The table holds weak references, each of which removes
# its entry when its node dies, so it keeps no node alive; a child's id in
# a key stays valid because the node under that key holds the child.

class _Ref(weakref.ref):
    __slots__ = ("key",)


_table: dict[tuple, _Ref] = {}


def _forget(ref: _Ref, table: dict = _table) -> None:
    # a newer node may already be entered under the key
    if table.get(ref.key) is ref:
        del table[ref.key]


def _enter(key: tuple, node):
    """Enter a newly built node under key; the node entered under it."""
    ref = _Ref(node, _forget)
    ref.key = key
    entered = _table.setdefault(key, ref)
    if entered is not ref:
        # another thread entered the key first, or its node died and the
        # entry awaits its callback
        found = entered()
        if found is not None:
            return found
        _table[key] = ref
    return node


_set = object.__setattr__


class _Node:
    """Immutable interned node; __match_args__ names its fields in
    constructor order."""

    __slots__ = ("__weakref__",)
    __match_args__: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the constructor, which
        # returns the interned node
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"


class _Leaf(_Node):
    """A node holding one plain value, which _check vets."""

    __slots__ = ()

    def __new__(cls, value):
        key = (cls, value)
        ref = _table.get(key)
        if ref is not None and (node := ref()) is not None:
            return node
        cls._check(value)
        node = object.__new__(cls)
        _set(node, cls.__match_args__[0], value)
        return _enter(key, node)


class _Unary(_Node):
    """A node with one subterm."""

    __slots__ = ()

    def __new__(cls, inner):
        key = (cls, id(inner))
        ref = _table.get(key)
        if ref is not None and (node := ref()) is not None:
            return node
        node = object.__new__(cls)
        _set(node, cls.__match_args__[0], inner)
        return _enter(key, node)


class _Binary(_Node):
    """A node with two subterms."""

    __slots__ = ()

    def __new__(cls, left, right):
        key = (cls, id(left), id(right))
        ref = _table.get(key)
        if ref is not None and (node := ref()) is not None:
            return node
        node = object.__new__(cls)
        first, second = cls.__match_args__
        _set(node, first, left)
        _set(node, second, right)
        return _enter(key, node)


class Var(_Leaf, Formula):
    """Propositional variable p<index>, index >= 1."""

    __slots__ = __match_args__ = ("index",)

    @staticmethod
    def _check(index):
        if index < 1:
            raise ValueError(f"variable index must be >= 1, got {index}")


class Falsum(_Node, Formula):
    """The constant false; FALSUM is its one node."""

    __slots__ = ()

    def __new__(cls):
        return FALSUM


class Implies(_Binary, Formula):
    """Material implication."""

    __slots__ = __match_args__ = ("left", "right")


class Box(_Binary, Formula):
    """[program] body."""

    __slots__ = __match_args__ = ("program", "body")


class Atomic(_Leaf, Program):
    """Atomic program a<index>, index >= 1."""

    __slots__ = __match_args__ = ("index",)

    @staticmethod
    def _check(index):
        if index < 1:
            raise ValueError(f"atomic program index must be >= 1, got {index}")


SPECIAL_KINDS = ("r1", "r2", "s1", "s2")


class Special(_Leaf, Program):
    """One of the four store-access programs r1, r2, s1, s2."""

    __slots__ = __match_args__ = ("kind",)

    @staticmethod
    def _check(kind):
        if kind not in SPECIAL_KINDS:
            raise ValueError(f"special program must be one of {SPECIAL_KINDS}, got {kind!r}")


class Test(_Unary, Program):
    """formula? -- identity on states satisfying the formula."""

    __test__ = False  # not a pytest class, despite the name
    __slots__ = __match_args__ = ("formula",)


class Seq(_Binary, Program):
    """Sequential composition."""

    __slots__ = __match_args__ = ("left", "right")


class Choice(_Binary, Program):
    """Nondeterministic choice."""

    __slots__ = __match_args__ = ("left", "right")


class Inter(_Binary, Program):
    """Intersection of programs."""

    __slots__ = __match_args__ = ("left", "right")


class Par(_Binary, Program):
    """Parallel composition."""

    __slots__ = __match_args__ = ("left", "right")


class Star(_Unary, Program):
    """Reflexive-transitive iteration."""

    __slots__ = __match_args__ = ("inner",)


FALSUM = _enter((Falsum,), object.__new__(Falsum))
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

# Every node class a term of each dialect may contain.
_KINDS = {
    dialect: frozenset((Var, Falsum, Implies, Box, *programs))
    for dialect, programs in _ALLOWED.items()
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

    def visit(node, results):
        # the first offending node of the subterm in preorder, or None
        if isinstance(node, Program) and not isinstance(node, allowed):
            return node
        return next(filter(None, results), None)

    offending = fold(root, visit)
    if offending is not None:
        raise DialectError(
            f"{_PROGRAM_NAMES[type(offending)]} is not available under {dialect.value.upper()}"
        )


def admits(dialect: Dialect, kinds: Iterable[type]) -> bool:
    """Whether a term whose nodes are of these classes lies in the dialect."""
    return _KINDS[dialect].issuperset(kinds)


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
    identity, and nodes are interned, so every subterm that occurs more
    than once within the root, wherever it was built, is visited once.
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
    | (?P<op><->|->|\|\||[~&|;*?()\[\]<>]|true|false|u)
    """,
    re.VERBOSE,
)
_EOF = "end of input"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) triples, the last one (_EOF, _EOF, len(text)).
    The kind of an operator, bracket or keyword is its text."""
    tokens = []
    pos = 0
    match = _TOKEN_RE.match
    while pos < len(text):
        m = match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            token = m.group()
            tokens.append((token if kind == "op" else kind, token, pos))
        pos = m.end()
    tokens.append((_EOF, _EOF, len(text)))
    return tokens


# ---------------------------------------------------------------------------
# Parser
#
# Operator precedence with explicit stacks (Pratt 1973; Dijkstra's
# shunting-yard), one left-to-right pass and no backtracking. Formulas and
# programs share the loop: the kind of an infix operator's left operand picks
# its table below, so '&' is conjunction after a formula and intersection
# after a program, and '(' never has to guess what it encloses.
#
# Formula operators, tightest first: unary (~ [prog] <prog>), &, |, ->, <->.
# '->' and '<->' group to the right, '&' and '|' to the left.
# Program operators, tightest first: postfix (* ?), ;, &, u, ||, all grouping
# to the left. A test is written <unary formula>?: '?' first applies the
# pending prefix operators, then wraps the formula. A closing ']' or '>'
# turns the bracketed program into a prefix operator for the body after it.

# token -> (binding strength, groups to the right, constructor), by the kind
# of the left operand. A formula and a program operator never meet without a
# bracket between them, so the strengths share one scale; the printer lays
# out '->' and the program operators from the same entries.
_BINARY = {
    Formula: {
        "<->": (1, True, iff),
        "->": (2, True, Implies),
        "|": (3, False, disj),
        "&": (4, False, conj),
    },
    Program: {
        "||": (1, False, Par),
        "u": (2, False, Choice),
        "&": (3, False, Inter),
        ";": (4, False, Seq),
    },
}
_UNARY = 5  # prefix formula and postfix program operators
_ATOM = 6

# The closing token of each opening bracket; the input as a whole is
# bracketed by its start and the end-of-input token.
_CLOSER = {"(": ")", "[": "]", "<": ">", "": _EOF}
_PREFIX = {"]": Box, ">": diamond}
_CONSTANTS = {"true": TOP, "false": FALSUM}


def _parse(text: str, goal: type) -> Union[Formula, Program]:
    """Parse text as one node of the goal kind, Formula or Program."""
    operands: list = []
    # Pending operators, innermost last: (strength, build, takes, token, pos),
    # takes being the kind of node the entry takes as its operand. A bracket
    # has strength 0 and takes Program for '[' and '<', None (either kind) for
    # '(' and the goal for the input as a whole.
    ops: list = [(0, None, goal, "", 0)]

    def reduce(threshold):
        # apply the pending operators that bind tighter than threshold
        while ops[-1][0] > threshold:
            strength, build, takes, token, pos = ops.pop()
            operand = operands.pop()
            if not isinstance(operand, takes):
                raise ParseError(f"expected a {_noun(takes)} after {token!r}", pos)
            if strength == _UNARY:
                operands.append(build(operand))
            else:
                operands[-1] = build(operands[-1], operand)

    expect_operand = True
    for kind, token, pos in _tokenize(text):
        if expect_operand:
            if kind in ("(", "[", "<"):
                ops.append((0, None, None if kind == "(" else Program, kind, pos))
                continue
            if kind == "~":
                ops.append((_UNARY, neg, Formula, kind, pos))
                continue
            if kind == "var" or kind == "atom":
                index = int(token[1:])
                if index < 1:
                    raise ParseError(f"index must be >= 1 in {token!r}", pos)
                operands.append(Var(index) if kind == "var" else Atomic(index))
            elif kind in _CONSTANTS:
                operands.append(_CONSTANTS[kind])
            elif kind == "special":
                operands.append(Special(token))
            else:
                wanted = next(entry[2] for entry in reversed(ops) if entry[2])
                raise ParseError(f"expected a {_noun(wanted)}, found {token!r}", pos)
            expect_operand = False
            continue

        left = Formula if isinstance(operands[-1], Formula) else Program
        binary = _BINARY[left].get(kind)
        if binary:
            strength, right, build = binary
            reduce(strength if right else strength - 1)
            ops.append((strength, build, left, kind, pos))
            expect_operand = True
        elif kind == "*" and left is Program:
            operands[-1] = Star(operands[-1])
        elif kind == "?" and left is Formula:
            reduce(_UNARY - 1)
            operands[-1] = Test(operands[-1])
        elif kind in (")", "]", ">", _EOF):
            reduce(0)
            _, _, enclosed, opener, _ = ops.pop()
            if _CLOSER[opener] != kind:
                raise ParseError(f"expected {_CLOSER[opener]!r}, found {token!r}", pos)
            if enclosed and not isinstance(operands[-1], enclosed):
                raise ParseError(f"expected a {_noun(enclosed)} before {token!r}", pos)
            if kind in _PREFIX:
                ops.append((_UNARY, partial(_PREFIX[kind], operands.pop()), Formula, kind, pos))
                expect_operand = True
        else:
            raise ParseError(f"unexpected {token!r} after a {_noun(left)}", pos)
    return operands[0]


def _noun(kind: type) -> str:
    return kind.__name__.lower()


def parse_formula(text: str, dialect: Dialect) -> Formula:
    """Parse a formula, expanding abbreviations; rejects constructs outside the dialect."""
    phi = _parse(text, Formula)
    validate(phi, dialect)
    return phi


def parse_program(text: str, dialect: Dialect) -> Program:
    """Parse a standalone program; rejects constructs outside the dialect."""
    alpha = _parse(text, Program)
    validate(alpha, dialect)
    return alpha


def parse_formula_lines(text: str, dialect: Dialect) -> list[Formula]:
    """Parse one formula per line; blank lines and '#' comments are skipped.
    An error names its 1-based line, and its position counts within that line."""
    formulas = []
    for number, line in enumerate(text.splitlines(), 1):
        source = line.split("#", 1)[0]
        if source.strip():
            try:
                formulas.append(parse_formula(source, dialect))
            except (ParseError, DialectError) as err:
                err.args = (f"line {number}: {err}",)
                raise
    return formulas


# ---------------------------------------------------------------------------
# Printer

# Infix node types: printed operator, binding strength, groups to the right.
# The other formula connectives are functions that expand into the core.
_INFIX = {
    build: (token if token == ";" else f" {token} ", strength, right)
    for table in _BINARY.values()
    for token, (strength, right, build) in table.items()
    if isinstance(build, type)
}


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
    """A node's binding strength and its pieces: text, or (subterm, minimum strength)."""
    match node:
        case Implies(left, Falsum()):
            match left:
                case Falsum():
                    return _ATOM, ("true",)
                case Box(program, Implies(body, Falsum())):
                    return _UNARY, ("<", (program, 0), ">", (body, _UNARY))
            return _UNARY, ("~", (left, _UNARY))
        case Box(program, body):
            return _UNARY, ("[", (program, 0), "]", (body, _UNARY))
        case Atomic(index):
            return _ATOM, (f"a{index}",)
        case Var(index):
            return _ATOM, (f"p{index}",)
        case Falsum():
            return _ATOM, ("false",)
        case Special(kind):
            return _ATOM, (kind,)
        case Test(formula):
            return _UNARY, ((formula, _UNARY), "?")
        case Star(inner):
            return _UNARY, ((inner, _UNARY), "*")
    try:
        operator, strength, right = _INFIX[type(node)]
    except KeyError:
        raise TypeError(f"not a formula or program node: {node!r}") from None
    # the operand on the side the operator does not group to needs a tighter one
    left_min, right_min = (strength + 1, strength) if right else (strength, strength + 1)
    return strength, ((node.left, left_min), operator, (node.right, right_min))
