"""Test-side evaluator of emit_smtlib's scripts: parses the commands and
s-expressions the emitter writes, and evaluates them under a model (a value
for every declared constant), so that tier-1 can check a solver solution
against its script without an SMT solver.

Takes declare-const, define-fun (no arguments), assert, minimize, maximize,
and set-option, check-sat and get-objectives, which it skips. Terms: Int and
decimal literals, constants and functions, ite, and, or, =>, =, distinct,
<=, <, >=, +, - (negation too) and *. Anything else raises ValueError.
"""

from __future__ import annotations

import math
import operator
import re

_TOKEN = re.compile(r";[^\n]*|\(|\)|[^\s();]+")
_COMPARE = {"=": operator.eq, "<=": operator.le, "<": operator.lt, ">=": operator.ge}
_SKIPPED = ("set-option", "check-sat", "get-objectives")


def parse(text: str) -> list:
    """The script's top-level s-expressions, as nested lists of atoms."""
    stack: list[list] = [[]]
    for tok in _TOKEN.findall(text):
        if tok.startswith(";"):
            continue
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if len(stack) == 1:
                raise ValueError("unbalanced ')'")
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        raise ValueError("unbalanced '('")
    return stack[0]


class Script:
    """One script's declarations, definitions, asserts and objective."""

    def __init__(self, text: str):
        self.consts: dict[str, str] = {}
        self.funs: dict[str, object] = {}
        self.asserts: list = []
        self.objective: tuple[str, object] | None = None
        for cmd in parse(text):
            head = cmd[0]
            if head == "declare-const":
                self.consts[cmd[1]] = cmd[2]
            elif head == "define-fun":
                if cmd[2]:
                    raise ValueError(f"define-fun {cmd[1]} takes arguments")
                self.funs[cmd[1]] = cmd[4]
            elif head == "assert":
                self.asserts.append(cmd[1])
            elif head in ("minimize", "maximize"):
                self.objective = (head, cmd[1])
            elif head not in _SKIPPED:
                raise ValueError(f"unknown command {head!r}")

    def failed(self, model: dict) -> list[int]:
        """The index of every assert that does not hold under model."""
        if set(model) != set(self.consts):
            raise ValueError(f"model and declarations differ: {set(model) ^ set(self.consts)}")
        memo: dict = {}
        return [k for k, a in enumerate(self.asserts) if self.value(a, model, memo) is not True]

    def value(self, expr, model: dict, memo: dict | None = None):
        """expr under model; memo caches each function's value under it."""
        memo = {} if memo is None else memo
        while isinstance(expr, list) and expr[0] == "ite":
            cond = self.value(expr[1], model, memo)
            expr = expr[2] if _bool(cond) else expr[3]
        if isinstance(expr, str):
            return self._atom(expr, model, memo)
        op, args = expr[0], expr[1:]
        if op == "and":
            return all(_bool(self.value(a, model, memo)) for a in args)
        if op == "or":
            return any(_bool(self.value(a, model, memo)) for a in args)
        if op == "=>":
            return not _bool(self.value(args[0], model, memo)) \
                or _bool(self.value(args[1], model, memo))
        vals = [self.value(a, model, memo) for a in args]
        if op in _COMPARE:
            return all(_COMPARE[op](a, b) for a, b in zip(vals, vals[1:]))
        if op == "distinct":
            return len(set(vals)) == len(vals)
        if op == "+":
            return sum(vals)
        if op == "-":
            return -vals[0] if len(vals) == 1 else vals[0] - sum(vals[1:])
        if op == "*":
            return math.prod(vals)
        raise ValueError(f"unknown operator {op!r}")

    def _atom(self, tok: str, model: dict, memo: dict):
        if tok in model:
            return model[tok]
        if tok in self.funs:
            if tok not in memo:
                memo[tok] = self.value(self.funs[tok], model, memo)
            return memo[tok]
        if re.fullmatch(r"\d+", tok):
            return int(tok)
        if re.fullmatch(r"\d+\.\d+", tok):
            return float(tok)
        raise ValueError(f"unknown symbol {tok!r}")


def _bool(v) -> bool:
    if type(v) is not bool:
        raise ValueError(f"{v!r} is not a Bool")
    return v
