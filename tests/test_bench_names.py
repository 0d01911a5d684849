"""The benchmark's tracer and answer checker reach into crpqbound by name.

The benchmark's own tests are not part of the default suite, so these
checks fail here when a rename or deletion would break the benchmark.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
KEPT = "# unused here; kept importable because the benchmark's"


def _module(name):
    return importlib.import_module(f"crpqbound.{name}")


def _trace_targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


def test_every_trace_target_exists():
    missing = [
        (module, attr)
        for module, attr, _ in _trace_targets()
        if not hasattr(_module(module), attr)
    ]
    assert not missing


def _checker_names():
    """(module, attribute) for each attribute check.py reads from a module
    it is handed as ``self.m["module"]``, directly or through a local name."""
    tree = ast.parse((BENCH / "check.py").read_text(encoding="utf-8"))

    def handed(node):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "m"
            and isinstance(node.slice, ast.Constant)
        ):
            return node.slice.value
        return None

    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                pairs = zip(target.elts, value.elts)
            else:
                pairs = [(target, value)]
            for name, source in pairs:
                if isinstance(name, ast.Name) and handed(source):
                    aliases[name.id] = handed(source)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            inner = node.value
            module = handed(inner) or (isinstance(inner, ast.Name) and aliases.get(inner.id))
            if module:
                names.add((module, node.attr))
    return names


def test_every_name_the_checker_calls_exists():
    names = _checker_names()
    # the scan must see the checker's references, not an empty set
    assert {
        ("expansion", "bound_query"),
        ("succinct_nfa", "SNFATransition"),
        ("oracle", "nfa_membership_brute"),
    } <= names
    missing = sorted((m, a) for m, a in names if not hasattr(_module(m), a))
    assert not missing


def _kept_imports():
    """(module, name) for each name imported on the unused-import lines
    (``# noqa: F401``) under a comment that says they are kept only for
    the benchmark."""
    kept = set()
    for path in sorted((ROOT / "src" / "crpqbound").glob("*.py")):
        marked = False
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.startswith(KEPT):
                marked = True
            elif marked and line.endswith("# noqa: F401"):
                (node,) = ast.parse(line).body
                kept.update((path.stem, alias.name) for alias in node.names)
            else:
                marked = False
    return kept


def test_every_import_kept_for_the_benchmark_is_still_read_by_it():
    kept = _kept_imports()
    # the scan must see the marked imports, not an empty set
    assert {("cli", "compute_bounds"), ("homomorphism", "membership")} <= kept
    read = {(module, attr) for module, attr, _ in _trace_targets()} | _checker_names()
    unread = sorted(kept - read)
    assert not unread, f"no longer read by the benchmark; delete the import: {unread}"
