"""Layer trace: timed wrappers around the calls into each crpqbound module.

Each wrapper replaces a function in the namespace that calls it, so only
calls crossing a module boundary are timed.  A span records its name, its
parent span, start and end times, the item it belongs to and a note (a
count, an answer, or why it raised).  Spans stay in memory; ``summary``
turns one pass of them into per-layer metrics, and ``dump`` writes them.

Self time is a span's duration minus the durations of its direct
children; spans nest strictly because the program is single-threaded and
generator bodies only run inside the timed ``next`` calls.
"""

from __future__ import annotations

import json
from time import perf_counter

# (module, attribute, span name); the module is where the call is made
TARGETS = (
    ("cli", "cmd_analyze", "cli.cmd_analyze"),
    ("cli", "cmd_contains", "cli.cmd_contains"),
    ("cli", "cmd_member", "cli.cmd_member"),
    ("cli", "parse_ucrpq", "syntax.parse_ucrpq"),
    ("cli", "parse_nfa", "syntax.parse_nfa"),
    ("cli", "is_bounded", "boundedness.is_bounded"),
    ("cli", "is_bounded_in", "boundedness.is_bounded_in"),
    ("cli", "maximal_bounded_letters", "boundedness.maximal_bounded_letters"),
    ("cli", "compute_bounds", "boundedness.compute_bounds"),
    ("cli", "succinct_containment", "homomorphism.succinct_containment"),
    ("cli", "expansion_contained", "homomorphism.expansion_contained"),
    ("cli", "membership", "succinct_nfa.membership"),
    ("boundedness", "is_bounded_in", "boundedness.letter_run"),
    ("boundedness", "expansion_contained", "homomorphism.expansion_contained"),
    ("boundedness", "enumerate_expansions", "expansion.enumerate"),
    ("homomorphism", "materialize", "expansion.materialize"),
    ("homomorphism", "normalize_succinct", "expansion.normalize_succinct"),
    ("homomorphism", "membership", "succinct_nfa.membership"),
    ("homomorphism", "cq_hom", "homomorphism.cq_hom"),
    ("expansion", "normalize_succinct", "expansion.normalize_succinct"),
    ("succinct_nfa", "normalize", "succinct_nfa.normalize"),
    ("succinct_nfa", "build_product", "succinct_nfa.build_product"),
    ("succinct_nfa", "length_reach", "succinct_nfa.length_reach"),
)

ROOT = "cli.main"
GENERATORS = {"expansion.enumerate"}


def _note(name: str, result):
    if name == "expansion.materialize":
        return len(result.atoms)
    if name == "homomorphism.expansion_contained":
        return type(result).__name__
    return None


class _TimedIterator:
    """Times every ``next`` of a wrapped generator as its own span."""

    def __init__(self, tracer: "Tracer", name: str, inner):
        self._tracer = tracer
        self._name = name
        self._inner = iter(inner)

    def __iter__(self):
        return self

    def __next__(self):
        span = self._tracer.open(self._name)
        try:
            value = next(self._inner)
        except StopIteration:
            self._tracer.close(span, "end")
            raise
        except BaseException as exc:
            self._tracer.close(span, type(exc).__name__)
            raise
        self._tracer.close(span, "yield")
        return value


class Tracer:
    """Span recorder; ``install`` patches the targets, ``uninstall`` undoes it."""

    def __init__(self, modules: dict):
        self.modules = modules  # short module name -> module object
        self.spans = []  # [name, parent, t0, t1, item, note]
        self.item = -1
        self._stack = []
        self._saved = []

    # ----------------------------------------------------------- recording

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, perf_counter(), 0.0, self.item, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int, note=None) -> None:
        span = self.spans[index]
        span[3] = perf_counter()
        span[5] = note
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        if name in GENERATORS:
            def wrapper(*args, **kwargs):
                return _TimedIterator(tracer, name, fn(*args, **kwargs))
        else:
            def wrapper(*args, **kwargs):
                span = tracer.open(name)
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    tracer.close(span, type(exc).__name__)
                    raise
                tracer.close(span, _note(name, result))
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, span_name in TARGETS:
            module = self.modules[mod_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        rows = [
            [ids[s[0]], s[1], round(s[2] * 1e6, 1), round(s[3] * 1e6, 1), s[4], s[5]]
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "columns": ["name", "parent", "t0_us", "t1_us", "item", "note"], "spans": rows}, fh)


# --------------------------------------------------------------- summary


def _by_name(spans):
    """Per span name: calls, total ms, self ms, and the list of notes."""
    child = [0.0] * len(spans)
    for name, parent, t0, t1, _, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    stats = {}
    for i, (name, parent, t0, t1, _, note) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0, "notes": []})
        s["calls"] += 1
        s["ms"] += (t1 - t0) * 1000.0
        s["self_ms"] += (t1 - t0 - child[i]) * 1000.0
        s["notes"].append(note)
    return stats


def summary(spans, letters_max_items: int) -> dict:
    """Per-layer metrics of one traced pass, named as in BENCHMARK.json."""
    st = _by_name(spans)
    empty = {"calls": 0, "ms": 0.0, "self_ms": 0.0, "notes": []}

    def g(name):
        return st.get(name, empty)

    def total(prefix, key):
        return sum(v[key] for k, v in st.items() if k.startswith(prefix))

    def capped(prefix):
        return sum(
            1 for k, v in st.items() if k.startswith(prefix)
            for n in v["notes"] if n == "CapExceeded"
        )

    # checks are the containment calls the decision procedure makes
    bounded_spans = {i for i, s in enumerate(spans) if s[0].startswith("boundedness.")}
    checks = sum(
        1 for s in spans
        if s[0] == "homomorphism.expansion_contained" and s[1] in bounded_spans
    )
    enum = g("expansion.enumerate")
    yields = sum(1 for n in enum["notes"] if n == "yield")
    contained = g("homomorphism.expansion_contained")
    succinct = g("homomorphism.succinct_containment")
    materialize = g("expansion.materialize")
    membership = g("succinct_nfa.membership")
    return {
        "cli.self_ms": total("cli.", "self_ms"),
        "syntax.parse_calls": total("syntax.", "calls"),
        "syntax.parse_ms": total("syntax.", "ms"),
        "boundedness.calls": sum(
            g(n)["calls"] for n in (
                "boundedness.is_bounded",
                "boundedness.is_bounded_in",
                "boundedness.maximal_bounded_letters",
            )
        ),
        "boundedness.self_ms": total("boundedness.", "self_ms"),
        "boundedness.checks": checks,
        "boundedness.check_yield": checks / yields if yields else 0.0,
        "boundedness.letter_runs": (
            g("boundedness.letter_run")["calls"] / letters_max_items
            if letters_max_items else 0.0
        ),
        "expansion.self_ms": total("expansion.", "self_ms"),
        "expansion.enumerate_yields": yields,
        "expansion.enumerate_ms": enum["ms"],
        "expansion.normalize_calls": g("expansion.normalize_succinct")["calls"],
        "expansion.normalize_ms": g("expansion.normalize_succinct")["ms"],
        "expansion.materialize_calls": materialize["calls"],
        "expansion.materialize_ms": materialize["ms"],
        "expansion.materialized_atoms": sum(n for n in materialize["notes"] if isinstance(n, int)),
        "expansion.capped": capped("expansion."),
        "homomorphism.contained_calls": contained["calls"],
        "homomorphism.contained_ms": contained["ms"],
        "homomorphism.contained_self_ms": contained["self_ms"],
        "homomorphism.contained_yes_ratio": (
            sum(1 for n in contained["notes"] if n == "Contained") / contained["calls"]
            if contained["calls"] else 0.0
        ),
        "homomorphism.succinct_calls": succinct["calls"],
        "homomorphism.succinct_ms": succinct["ms"],
        "homomorphism.succinct_self_ms": succinct["self_ms"],
        "homomorphism.cq_hom_calls": g("homomorphism.cq_hom")["calls"],
        "homomorphism.cq_hom_ms": g("homomorphism.cq_hom")["ms"],
        "homomorphism.capped": capped("homomorphism."),
        "succinct_nfa.membership_calls": membership["calls"],
        "succinct_nfa.membership_ms": membership["ms"],
        "succinct_nfa.normalize_calls": g("succinct_nfa.normalize")["calls"],
        "succinct_nfa.build_product_ms": g("succinct_nfa.build_product")["ms"],
        "succinct_nfa.length_reach_ms": g("succinct_nfa.length_reach")["ms"],
        "succinct_nfa.capped": sum(1 for n in membership["notes"] if n == "CapExceeded"),
        "trace.spans": len(spans),
    }
