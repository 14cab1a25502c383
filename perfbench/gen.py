"""Seeded input generator: formula text and model JSON, independent of pdlkit.

Formulas are built as nested tuples, rendered to pdlkit's concrete syntax
with every compound subterm parenthesised, and handed to pdlkit only as
text. Nothing here imports pdlkit, so a change to the library (its own
fuzzer included) cannot change a workload's inputs.

Tuple shapes:
  formulas  ("p", i) ("false",) ("true",) ("not", f) ("imp", f, g)
            ("and", f, g) ("or", f, g) ("box", a, f) ("dia", a, f)
  programs  ("a", i) ("sp", "r1"|"r2"|"s1"|"s2") ("test", f) ("seq", a, b)
            ("cup", a, b) ("cap", a, b) ("par", a, b) ("star", a)
"""

from __future__ import annotations

import json
import random

PDL, IPDL, PRSPDL = "pdl", "ipdl", "prspdl"
DIALECTS = (PDL, IPDL, PRSPDL)
SPECIALS = ("r1", "r2", "s1", "s2")


# ---------------------------------------------------------------------------
# Random formulas

def formula(rng: random.Random, dialect: str, budget: int, nvars: int, natoms: int):
    """A random formula using roughly `budget` primitive nodes."""
    if budget < 3:
        return _leaf(rng, nvars)
    roll = rng.random()
    if roll < 0.2:
        return _leaf(rng, nvars)
    if roll < 0.35:
        return ("not", formula(rng, dialect, budget - 2, nvars, natoms))
    if roll < 0.6:
        left = rng.randint(1, budget - 2)
        op = rng.choice(("imp", "imp", "and", "or"))
        return (op, formula(rng, dialect, left, nvars, natoms),
                formula(rng, dialect, budget - 1 - left, nvars, natoms))
    prog_budget = rng.randint(1, max(1, (budget - 1) // 2))
    kind = "box" if rng.random() < 0.55 else "dia"
    return (kind, program(rng, dialect, prog_budget, nvars, natoms),
            formula(rng, dialect, budget - 1 - prog_budget, nvars, natoms))


def _leaf(rng: random.Random, nvars: int):
    roll = rng.random()
    if nvars and roll < 0.7:
        return ("p", rng.randint(1, nvars))
    return ("true",) if roll < 0.85 else ("false",)


def _atomic(rng: random.Random, dialect: str, natoms: int):
    if dialect == PRSPDL and rng.random() < 0.25:
        return ("sp", rng.choice(SPECIALS))
    return ("a", rng.randint(1, natoms))


def program(rng: random.Random, dialect: str, budget: int, nvars: int, natoms: int):
    """A random program of the dialect using roughly `budget` nodes."""
    if budget < 3:
        if budget == 2 and dialect != PDL and rng.random() < 0.2:
            return ("test", _leaf(rng, nvars))
        if budget == 2 and rng.random() < 0.5:
            return ("star", _atomic(rng, dialect, natoms))
        return _atomic(rng, dialect, natoms)
    roll = rng.random()
    if roll < 0.3:
        return _atomic(rng, dialect, natoms)
    if roll < 0.75:
        left = rng.randint(1, budget - 2)
        a = program(rng, dialect, left, nvars, natoms)
        b = program(rng, dialect, budget - 1 - left, nvars, natoms)
        if roll < 0.5:
            return ("seq", a, b)
        if dialect == PRSPDL:
            return ("par", a, b)
        if dialect == IPDL and rng.random() < 0.4:
            return ("cap", a, b)
        return ("cup", a, b)
    if roll < 0.85 and dialect != PDL:
        return ("test", formula(rng, dialect, budget - 1, nvars, natoms))
    return ("star", program(rng, dialect, budget - 1, nvars, natoms))


def vocabulary(node) -> tuple[set, int]:
    """Variables and number of stars in a tuple formula or program."""
    variables, stars, stack = set(), 0, [node]
    while stack:
        node = stack.pop()
        if node[0] == "p":
            variables.add(node[1])
        elif node[0] == "star":
            stars += 1
        stack.extend(child for child in node[1:] if isinstance(child, tuple))
    return variables, stars


def star_under_par(node) -> bool:
    """Whether some || in a tuple formula or program has a starred operand."""
    if node[0] == "par" and any(vocabulary(child)[1] for child in node[1:]):
        return True
    return any(star_under_par(child) for child in node[1:] if isinstance(child, tuple))


# ---------------------------------------------------------------------------
# Rendering

def text(node) -> str:
    """pdlkit concrete syntax; compound subterms are always parenthesised."""
    tag = node[0]
    if tag == "p":
        return f"p{node[1]}"
    if tag in ("false", "true"):
        return tag
    if tag == "not":
        return f"~{_group(node[1])}"
    if tag in ("imp", "and", "or"):
        op = {"imp": "->", "and": "&", "or": "|"}[tag]
        return f"{_group(node[1])} {op} {_group(node[2])}"
    if tag == "box":
        return f"[{program_text(node[1])}]{_group(node[2])}"
    if tag == "dia":
        return f"<{program_text(node[1])}>{_group(node[2])}"
    raise ValueError(f"not a formula tuple: {node!r}")


def _group(node) -> str:
    body = text(node)
    return body if node[0] in ("p", "false", "true") else f"({body})"


def program_text(node) -> str:
    tag = node[0]
    if tag == "a":
        return f"a{node[1]}"
    if tag == "sp":
        return node[1]
    if tag == "test":
        return f"({text(node[1])})?"
    if tag == "star":
        return f"{_pgroup(node[1])}*"
    op = {"seq": ";", "cup": " u ", "cap": " & ", "par": " || "}[tag]
    return f"{_pgroup(node[1])}{op}{_pgroup(node[2])}"


def _pgroup(node) -> str:
    body = program_text(node)
    return body if node[0] in ("a", "sp") else f"({body})"


# ---------------------------------------------------------------------------
# One-state reference evaluator (used only to build guaranteed bounded hits)

def holds_one_state(node, edges: dict, valuation: dict, star: bool) -> bool:
    """Truth at the single state of a one-state model.

    edges[i] says whether a_i loops; star says whether 0 * 0 = {0}.
    """
    tag = node[0]
    if tag == "p":
        return valuation.get(node[1], False)
    if tag == "false":
        return False
    if tag == "true":
        return True
    if tag == "not":
        return not holds_one_state(node[1], edges, valuation, star)
    if tag in ("imp", "and", "or"):
        left = holds_one_state(node[1], edges, valuation, star)
        right = holds_one_state(node[2], edges, valuation, star)
        return {"imp": not left or right, "and": left and right, "or": left or right}[tag]
    step = _loops(node[1], edges, valuation, star)
    body = holds_one_state(node[2], edges, valuation, star)
    return (not step or body) if tag == "box" else (step and body)


def _loops(node, edges, valuation, star) -> bool:
    tag = node[0]
    if tag == "a":
        return edges.get(node[1], False)
    if tag == "sp":
        return star
    if tag == "test":
        return holds_one_state(node[1], edges, valuation, star)
    if tag == "star":
        return True
    a = _loops(node[1], edges, valuation, star)
    b = _loops(node[2], edges, valuation, star)
    if tag == "cup":
        return a or b
    if tag == "par":
        return star and a and b
    return a and b  # seq, cap


# ---------------------------------------------------------------------------
# Deep formulas (built as text, iteratively)

def deep_text(rng: random.Random, depth: int, shape: int) -> str:
    """A formula nested `depth` deep. Shape 0 is a box chain, 1 alternates
    diamonds and implications, 2 nests negations."""
    if shape == 0:
        return "".join(f"[a{rng.randint(1, 2)}]" for _ in range(depth)) + "p1"
    if shape == 1:
        opens = []
        for level in range(depth):
            if level % 2:
                opens.append(f"(p{rng.randint(1, 2)} -> ")
            else:
                opens.append(f"<a{rng.randint(1, 2)}>")
        closes = ")" * (depth // 2)
        return "".join(opens) + "p1" + closes
    return "~(" * depth + "p1" + ")" * depth


# ---------------------------------------------------------------------------
# Random models as JSON text

def model_json(rng: random.Random, states: int, natoms: int, nvars: int,
               out_degree: float, star_density: float | None = None) -> str:
    """A random model with about `out_degree` successors per state and atom."""
    p = out_degree / states
    relations = {}
    for a in range(1, natoms + 1):
        pairs = [[s, t] for s in range(states) for t in range(states) if rng.random() < p]
        relations[f"a{a}"] = pairs
    valuation = {
        f"p{v}": [s for s in range(states) if rng.random() < 0.5]
        for v in range(1, nvars + 1)
    }
    obj = {"states": states, "relations": relations, "valuation": valuation}
    if star_density is not None:
        obj["star"] = [
            [x, y, [z for z in range(states) if rng.random() < star_density]]
            for x in range(states) for y in range(states)
        ]
    return json.dumps(obj)
