"""The code stays readable by Python 3.10, the oldest version pyproject.toml
accepts: every file parses with 3.10's grammar, and no regex uses a
possessive quantifier or an atomic group, both new in Python 3.11."""

import ast
import re
from pathlib import Path

import pytest

try:
    from re import _parser as sre_parse  # Python 3.11 and later
except ImportError:
    import sre_parse  # Python 3.10, where possessive and atomic syntax fails to parse

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src", "scripts", "tests") for p in (ROOT / d).rglob("*.py"))
# each re function taking a pattern first, and the position of its flags argument
REGEX_CALLS = {
    "compile": 1, "search": 2, "match": 2, "fullmatch": 2, "findall": 2, "finditer": 2,
    "split": 3, "sub": 4, "subn": 4,
}
NEW_IN_311 = {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}


def _text(node, names) -> str:
    """The literal text of a string expression; an unknown part reads as empty."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(_text(v, names) for v in node.values)
    if isinstance(node, ast.FormattedValue):
        return _text(node.value, names)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _text(node.left, names) + _text(node.right, names)
    if isinstance(node, ast.Name):
        return names.get(node.id, "")
    return ""


def regex_literals(tree):
    """(pattern, flags) of each call re.compile(...), re.match(...) and the like."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            if isinstance(node.targets[0], ast.Name):
                names[node.targets[0].id] = _text(node.value, names)
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        if (
            isinstance(func, ast.Attribute) and func.attr in REGEX_CALLS
            and isinstance(func.value, ast.Name) and func.value.id == "re" and node.args
        ):
            at = REGEX_CALLS[func.attr]
            flags = node.args[at:at + 1] or [k.value for k in node.keywords if k.arg == "flags"]
            flags = eval(compile(ast.Expression(flags[0]), "", "eval"), {"re": re}) if flags else 0
            yield _text(node.args[0], names), flags


def _ops(tree):
    """The opcode names of a parsed pattern, nested groups and repeats included."""
    for op, av in tree:
        yield str(op)
        for x in av if isinstance(av, (tuple, list)) else ():
            for y in x if isinstance(x, list) else [x]:
                if isinstance(y, sre_parse.SubPattern):
                    yield from _ops(y)


def uses_311_regex(pattern: str, flags: int = 0) -> bool:
    try:
        return not NEW_IN_311.isdisjoint(_ops(sre_parse.parse(pattern, flags)))
    except re.error:
        return True


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_file_parses_as_python_310(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
    bad = [p for p, flags in regex_literals(tree) if uses_311_regex(p, flags)]
    assert not bad, bad


def test_possessive_and_atomic_regexes_are_caught():
    tree = ast.parse('import re\nW = r"[ \\t]"\nT = re.compile(rf"(?:{W}|#x)*+(a)", re.VERBOSE)\n')
    assert [uses_311_regex(*r) for r in regex_literals(tree)] == [True]
    assert uses_311_regex(r"(?>ab)c")
    assert not uses_311_regex(r"\*+[*+]a{2}?(?:b)*")
