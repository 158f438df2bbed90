"""Checks on one request's outcome, run outside the timed region."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

_FACTOR = re.compile(r"Y\[(-?\d+),(-?\d+)\](?:\^(-?\d+))?")


@dataclass
class Outcome:
    """What one ``cli.main`` call left behind."""

    argv: list[str]
    code: int | None  # None when an exception escaped main
    stdout: str
    stderr: str
    error: str | None  # formatted traceback of an escaped exception
    seconds: float


def check(outcome: Outcome) -> str | None:
    """None when the answer is correct, otherwise the reason it is not."""
    if outcome.error is not None:
        return "exception escaped cli.main: " + outcome.error.strip().splitlines()[-1]
    if outcome.code != 0:
        return f"exit code {outcome.code}: {outcome.stderr.strip()[:200]}"
    try:
        answer = json.loads(outcome.stdout)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    if not isinstance(answer, dict):
        return "output is not a JSON object"
    argv = outcome.argv
    if argv[:2] == ["hall", "relations"]:
        # this answer carries no "ok": main's verdict is the constant
        # identity holding with no relation failures
        if answer.get("constant_identity") is not True or answer.get("failures") != []:
            return "hall relations reported a failure"
        return None
    if argv[:2] == ["qchar", "simple"]:
        return _check_simple(answer, argv[argv.index("-m") + 1])
    if answer.get("ok") is not True:
        return "answer is not ok"
    return None


def _check_simple(answer: dict, monomial: str) -> str | None:
    """A simple class is bar-invariant, so every coefficient is symmetric under
    t^(1/2) -> t^(-1/2); its labelling monomial has coefficient 1."""
    if answer.get("kind") != "simple" or not isinstance(answer.get("terms"), list):
        return "not a simple-class answer"
    exps: dict[tuple[int, int], int] = {}
    for i, p, e in _FACTOR.findall(monomial):
        key = (int(i), int(p))
        exps[key] = exps.get(key, 0) + (int(e) if e else 1)
    label = [[i, p, e] for (i, p), e in sorted(exps.items(), key=lambda t: (t[0][1], t[0][0]))]
    label_coeff = None
    for key, coeff in answer["terms"]:
        c = {e: v for e, v in coeff}
        if any(c.get(-e) != v for e, v in c.items()):
            return f"coefficient {coeff} of {key} is not bar-invariant"
        if key == label:
            label_coeff = coeff
    if label_coeff != [[0, 1]]:
        return f"labelling monomial has coefficient {label_coeff}"
    return None
