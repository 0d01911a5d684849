"""Query data model: regex AST, textual grammar, parser, printer, fragment checks.

The textual grammar (UTF-8, ``#`` starts a comment running to end of line):

    query    := crpq ( "|" crpq )*
    crpq     := atom ( "," atom )*
    atom     := VAR "-[" regex "]->" VAR  |  VAR "=" VAR
    regex    := term ( "+" term )*
    term     := factor+
    factor   := base ( "^" NAT | "^<=" NAT | "*" )?
    base     := WORD | QSYM | "(" regex ")" | "eps"
    VAR      := "?" [A-Za-z0-9_]+
    QSYM     := "'" [A-Za-z0-9_]+ "'"

A bare WORD denotes the concatenation of its characters, each being a
single-character alphabet symbol: ``ab`` is the two-letter word a.b and
``(ab)^3`` repeats it three times.  Postfix operators bind to the whole
preceding token, so ``ab^3`` equals ``(ab)^3``; write ``a b^3`` when the
power should apply to b alone.  Multi-character symbols are quoted:
``'x1'`` is one symbol.  ``eps`` is reserved for the empty word.  ``*``,
``^`` and ``^<=`` apply only to literal words.

The lexer keeps each token as a (kind, text, offset) tuple; a ParseError
works out its line and column from the offset when it is raised.  The
analyses take a star only as a whole label: ``a b*`` parses, but the
fragment checks refuse it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from crpqbound.errors import ParseError, UnsupportedFragment

# ------------------------------------------------------------------ regex AST


@dataclass(frozen=True)
class Epsilon:
    """The empty word."""


@dataclass(frozen=True)
class Letter:
    symbol: str

    def __post_init__(self):
        if not self.symbol:
            raise ValueError("empty symbol name")


@dataclass(frozen=True)
class Concat:
    parts: tuple

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ValueError("Concat needs at least 2 parts")


@dataclass(frozen=True)
class Union:
    parts: tuple

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ValueError("Union needs at least 2 parts")


@dataclass(frozen=True)
class Power:
    """w^n: the word w repeated exactly n times, n kept in binary."""

    word: tuple
    exponent: int

    def __post_init__(self):
        if not self.word:
            raise ValueError("Power word must be non-empty")
        if self.exponent < 0:
            raise ValueError("negative exponent")


@dataclass(frozen=True)
class PowerLE:
    """w^{<=n}: the word w repeated between 0 and n times."""

    word: tuple
    exponent: int

    def __post_init__(self):
        if not self.word:
            raise ValueError("PowerLE word must be non-empty")
        if self.exponent < 0:
            raise ValueError("negative exponent")


@dataclass(frozen=True)
class Star:
    """w*: any number of repetitions of a fixed non-empty word."""

    word: tuple

    def __post_init__(self):
        if not self.word:
            raise ValueError("Star word must be non-empty")


RegexExpr = Epsilon | Letter | Concat | Union | Power | PowerLE | Star


def concat(parts) -> RegexExpr:
    """Smart constructor: flattens nested Concats and drops Epsilons."""
    flat = []
    for p in parts:
        if isinstance(p, Concat):
            flat.extend(p.parts)
        elif isinstance(p, Epsilon):
            continue
        else:
            flat.append(p)
    if not flat:
        return Epsilon()
    if len(flat) == 1:
        return flat[0]
    return Concat(tuple(flat))


def union(parts) -> RegexExpr:
    """Smart constructor: flattens nested Unions."""
    flat = []
    for p in parts:
        if isinstance(p, Union):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        raise ValueError("empty union")
    if len(flat) == 1:
        return flat[0]
    return Union(tuple(flat))


def as_word(e: RegexExpr):
    """Return the literal word an expression spells, or None.

    Epsilon counts as the empty word ().  Anything with operators other
    than plain concatenation of letters returns None.
    """
    if isinstance(e, Epsilon):
        return ()
    if isinstance(e, Letter):
        return (e.symbol,)
    if isinstance(e, Concat):
        out = []
        for p in e.parts:
            if not isinstance(p, Letter):
                return None
            out.append(p.symbol)
        return tuple(out)
    return None


def as_power(e: RegexExpr):
    """Return (w, n) for a label spelling w^n (w alone is w^1, eps ()^0), or None."""
    if isinstance(e, Power):
        return e.word, e.exponent
    w = as_word(e)
    if w is None:
        return None
    return w, 1 if w else 0


# ----------------------------------------------------------- atoms and queries


@dataclass(frozen=True)
class EdgeAtom:
    src: str
    label: RegexExpr
    dst: str


@dataclass(frozen=True)
class EqualityAtom:
    left: str
    right: str


Atom = EdgeAtom | EqualityAtom


@dataclass(frozen=True)
class CRPQ:
    """A conjunction of atoms; all variables are existential."""

    atoms: tuple

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("CRPQ needs at least one atom")

    @property
    def edge_atoms(self):
        return tuple(a for a in self.atoms if isinstance(a, EdgeAtom))

    @property
    def equality_atoms(self):
        return tuple(a for a in self.atoms if isinstance(a, EqualityAtom))

    def variables(self):
        seen = set()
        for a in self.atoms:
            if isinstance(a, EdgeAtom):
                seen.add(a.src)
                seen.add(a.dst)
            else:
                seen.add(a.left)
                seen.add(a.right)
        return tuple(sorted(seen))


@dataclass(frozen=True)
class UCRPQ:
    """A union of CRPQs; disjuncts have independent variable namespaces."""

    disjuncts: tuple

    def __post_init__(self):
        if not self.disjuncts:
            raise ValueError("UCRPQ needs at least one disjunct")


def _letters_of(e: RegexExpr):
    if isinstance(e, Epsilon):
        return
    if isinstance(e, Letter):
        yield e.symbol
        return
    if isinstance(e, (Power, PowerLE, Star)):
        yield from e.word
        return
    for p in e.parts:
        yield from _letters_of(p)


def _labels(q: UCRPQ | CRPQ):
    """Yield the label of every edge atom, disjunct by disjunct."""
    for d in q.disjuncts if isinstance(q, UCRPQ) else (q,):
        for a in d.edge_atoms:
            yield a.label


def alphabet(q: UCRPQ | CRPQ) -> frozenset:
    """All symbols occurring in the query."""
    return frozenset(s for e in _labels(q) for s in _letters_of(e))


def star_letters(q: UCRPQ | CRPQ) -> frozenset:
    """Letters a such that some atom is labeled a* (single-letter stars)."""
    return frozenset(
        e.word[0] for e in _labels(q) if isinstance(e, Star) and len(e.word) == 1
    )


def holds_star(e: RegexExpr) -> bool:
    if isinstance(e, (Concat, Union)):
        return any(map(holds_star, e.parts))
    return isinstance(e, Star)


def check_ssf_wstar(q: UCRPQ) -> None:
    """Raise UnsupportedFragment unless every label is a star or holds no star."""
    if any(not isinstance(e, Star) and holds_star(e) for e in _labels(q)):
        raise UnsupportedFragment(
            "query labels fall outside the supported fragment: unsupported"
        )


def check_single_letter_stars(q: UCRPQ) -> None:
    """Raise UnsupportedFragment if some star spans a multi-letter word."""
    check_ssf_wstar(q)
    if any(isinstance(e, Star) and len(e.word) > 1 for e in _labels(q)):
        raise UnsupportedFragment(
            "letter-boundedness analysis needs single-letter stars"
        )


# ----------------------------------------------------------------------- size


def ceil_log2(n: int) -> int:
    """Symbols needed to write n in binary; 1 for n in {0, 1}."""
    return 1 if n <= 1 else (n - 1).bit_length()


def size_regex(e: RegexExpr) -> int:
    if isinstance(e, (Epsilon, Letter)):
        return 1
    if isinstance(e, (Concat, Union)):
        return sum(size_regex(p) for p in e.parts)
    if isinstance(e, (Power, PowerLE)):
        return len(e.word) + ceil_log2(e.exponent)
    if isinstance(e, Star):
        return len(e.word)
    raise TypeError(f"not a regex: {e!r}")


def size(q: UCRPQ | CRPQ) -> int:
    """Encoding size: sum of label sizes over all edge atoms."""
    return sum(map(size_regex, _labels(q)))


# ------------------------------------------------------------------- collapse


def identify(pairs):
    """Identify each pair of variables (an equality atom or a path of length 0).

    Returns the map from a variable to the lexicographically least member
    of its class; a variable that no pair names is its own class.
    """
    parent = {}

    def find(v):
        parent.setdefault(v, v)
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            lo, hi = sorted((ru, rv))
            parent[hi] = lo
    return find


def collapse(q):
    """Merge variables identified by equality atoms.

    Each equivalence class is renamed to its lexicographically least
    member (see identify); equality atoms are dropped and duplicate edge
    atoms removed.  Accepts a CRPQ or a UCRPQ (collapsed disjunct by
    disjunct).
    """
    if isinstance(q, UCRPQ):
        return UCRPQ(tuple(collapse(d) for d in q.disjuncts))
    find = identify((a.left, a.right) for a in q.equality_atoms)
    out = []
    seen = set()
    for a in q.edge_atoms:
        na = EdgeAtom(find(a.src), a.label, find(a.dst))
        if na not in seen:
            seen.add(na)
            out.append(na)
    if not out:
        raise UnsupportedFragment("query collapses to no edge atoms")
    return CRPQ(tuple(out))


def reduce_free_vars(q: UCRPQ, free_vars) -> UCRPQ:
    """Make a query Boolean by marking each free variable with a self-loop.

    Every free variable v gets a fresh symbol a_v and an atom v -[a_v]-> v
    in every disjunct, which pins v to a unique vertex up to the loop.
    """
    free_vars = list(free_vars)
    sigma = alphabet(q)
    fresh = {}
    for v in free_vars:
        sym = f"a_{v}"
        if sym in sigma:
            raise ValueError(f"fresh symbol {sym!r} already occurs in the alphabet")
        fresh[v] = sym
    if not free_vars:
        return q
    new_disjuncts = []
    for d in q.disjuncts:
        loops = tuple(EdgeAtom(v, Letter(fresh[v]), v) for v in free_vars)
        new_disjuncts.append(CRPQ(loops + d.atoms))
    return UCRPQ(tuple(new_disjuncts))


# ---------------------------------------------------------------------- lexer


# whitespace and comments are read as the prefix of the token they precede;
# a tail of them matches no token group
_TOKEN_RE = re.compile(
    r"""
    (?:[ \t\r\n]|\#[^\n]*)*
    (?:
      (?P<ARROWOPEN>-\[)
    | (?P<ARROWCLOSE>\]->)
    | (?P<POWLE>\^<=)
    | (?P<CARET>\^)
    | (?P<STAR>\*)
    | (?P<PLUS>\+)
    | (?P<PIPE>\|)
    | (?P<COMMA>,)
    | (?P<LPAREN>\()
    | (?P<RPAREN>\))
    | (?P<EQ>=)
    | (?P<VAR>\?[A-Za-z0-9_]+)
    | (?P<QSYM>'[A-Za-z0-9_]+')
    | (?P<WORD>[A-Za-z0-9_]+)
    | (?P<BAD>.)
    | \Z
    )
    """,
    re.VERBOSE,
)
_KINDS = {index: kind for kind, index in _TOKEN_RE.groupindex.items()}


def _error_at(text: str, pos: int, message: str) -> ParseError:
    """A ParseError naming the line and column of offset pos in text."""
    return ParseError(message, text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos))


def _lex(text: str, start: int, stop: int):
    """(kind, text, offset) per token of text[start:stop], then one END
    token where the last token ends."""
    toks = []
    for m in _TOKEN_RE.finditer(text, start, stop):
        group = m.lastindex
        if group is None:
            break
        kind = _KINDS[group]
        if kind == "BAD":
            raise _error_at(text, m.start(group), f"unexpected character {m[group]!r}")
        toks.append((kind, m[group], m.start(group)))
    end = toks[-1][2] + len(toks[-1][1]) if toks else start
    toks.append(("END", "", end))
    return toks


# --------------------------------------------------------------------- parser


# parentheses one label may nest: the parser and the walks over the
# expression tree recurse once per level, under the interpreter's limit
MAX_NESTING = 100


class _Parser:
    """Recursive descent over the tokens of text[start:stop]; self.tok is
    the current token, and the END token is never taken."""

    def __init__(self, text, start, stop):
        self.text = text
        self.rest = iter(_lex(text, start, stop))
        self.tok = next(self.rest)
        self.depth = 0

    def take(self):
        tok, self.tok = self.tok, next(self.rest)
        return tok

    def fail(self, pos, message):
        raise _error_at(self.text, pos, message)

    def error(self, message):
        kind, lexeme, pos = self.tok
        if kind == "END":
            self.fail(pos, message + " (at end of input)")
        self.fail(pos, f"{message}, got {lexeme!r}")

    def expect(self, kind, what):
        if self.tok[0] != kind:
            self.error(f"expected {what}")
        return self.take()

    # regex := term ("+" term)*
    def regex(self):
        terms = [self.term()]
        if self.tok[0] != "PLUS":
            return terms[0]
        while self.tok[0] == "PLUS":
            self.take()
            terms.append(self.term())
        return union(terms)

    _FACTOR_START = frozenset({"WORD", "QSYM", "LPAREN"})

    # term := factor+
    def term(self):
        factors = [self.factor()]
        if self.tok[0] not in self._FACTOR_START:
            return factors[0]
        while self.tok[0] in self._FACTOR_START:
            factors.append(self.factor())
        return concat(factors)

    # factor := base ("^" NAT | "^<=" NAT | "*")?
    def factor(self):
        kind, lexeme, pos = self.tok
        if kind not in self._FACTOR_START:
            self.error("expected an expression")
        self.take()
        base = None
        if kind == "WORD":
            if lexeme == "eps":
                word, base = None, Epsilon()
            else:
                word = tuple(lexeme)
        elif kind == "QSYM":
            word = (lexeme[1:-1],)
        else:
            self.depth += 1
            if self.depth > MAX_NESTING:
                self.fail(pos, f"parentheses nested deeper than {MAX_NESTING}")
            base = self.regex()
            self.expect("RPAREN", "')'")
            self.depth -= 1
            word = as_word(base) or None

        kind, _, pos = self.tok
        if kind in ("CARET", "POWLE"):
            self.take()
            num_kind, digits, num_pos = self.tok
            if num_kind != "WORD" or not digits.isdigit():
                self.error("expected a number after the power operator")
            self.take()
            if word is None:
                self.fail(pos, "power over non-word")
            try:
                n = int(digits)
            except ValueError as exc:  # more digits than int() converts
                raise _error_at(self.text, num_pos, str(exc)) from None
            return Power(word, n) if kind == "CARET" else PowerLE(word, n)
        if kind == "STAR":
            self.take()
            if word is None:
                self.fail(pos, "star over non-word")
            return Star(word)
        if base is not None:
            return base
        return concat(tuple(map(Letter, word)))

    # atom := VAR "-[" regex "]->" VAR | VAR "=" VAR
    def atom(self):
        v1 = self.expect("VAR", "a variable like ?x")[1][1:]
        if self.tok[0] == "EQ":
            self.take()
            return EqualityAtom(v1, self.expect("VAR", "a variable after '='")[1][1:])
        if self.tok[0] == "ARROWOPEN":
            self.take()
            label = self.regex()
            self.expect("ARROWCLOSE", "']->'")
            return EdgeAtom(v1, label, self.expect("VAR", "a target variable")[1][1:])
        self.error("expected '-[' or '=' after variable")

    # crpq := atom ("," atom)*
    def crpq(self):
        start = self.tok[2]
        atoms = [self.atom()]
        while self.tok[0] == "COMMA":
            self.take()
            atoms.append(self.atom())
        if not any(isinstance(a, EdgeAtom) for a in atoms):
            self.fail(start, "conjunct needs at least one edge atom")
        return CRPQ(tuple(atoms))

    # query := crpq ("|" crpq)*
    def query(self):
        disjuncts = [self.crpq()]
        while self.tok[0] == "PIPE":
            self.take()
            disjuncts.append(self.crpq())
        return UCRPQ(tuple(disjuncts))


def _parse(rule, empty, text, start=0, stop=None):
    """Read all of text[start:stop] by one rule of the grammar."""
    p = _Parser(text, start, len(text) if stop is None else stop)
    if p.tok[0] == "END":
        p.fail(p.tok[2], empty)
    out = rule(p)
    if p.tok[0] != "END":
        p.error("unexpected trailing input")
    return out


def parse_ucrpq(text: str) -> UCRPQ:
    return _parse(_Parser.query, "empty query", text)


def parse_regex(text: str, start: int = 0, stop: int | None = None) -> RegexExpr:
    """Parse text[start:stop] as a label; an error names its line and
    column in the whole text."""
    return _parse(_Parser.regex, "empty expression", text, start, stop)


# ------------------------------------------------------------------- renderer


def _render_symbol(s: str) -> str:
    return s if len(s) == 1 else f"'{s}'"


def _render_run(run: str) -> str:
    """One-letter symbols written as one WORD; e.p.s is not the empty word."""
    return "e ps" if run == "eps" else run


def _render_word_base(word) -> str:
    if len(word) == 1:
        return _render_symbol(word[0])
    if all(len(c) == 1 for c in word):
        return f"({_render_run(''.join(word))})"
    return f"({' '.join(map(_render_symbol, word))})"


def render_regex(e: RegexExpr) -> str:
    return _render(e, 0)


def _render(e: RegexExpr, prec: int) -> str:
    # prec 0: union context, 1: concat context
    if isinstance(e, Epsilon):
        return "eps"
    if isinstance(e, Letter):
        return _render_symbol(e.symbol)
    if isinstance(e, Star):
        return _render_word_base(e.word) + "*"
    if isinstance(e, Power):
        return f"{_render_word_base(e.word)}^{e.exponent}"
    if isinstance(e, PowerLE):
        return f"{_render_word_base(e.word)}^<={e.exponent}"
    if isinstance(e, Concat):
        chunks = []
        run = []
        for p in e.parts:
            if isinstance(p, Letter) and len(p.symbol) == 1:
                run.append(p.symbol)
                continue
            if run:
                chunks.append(_render_run("".join(run)))
                run = []
            chunks.append(_render(p, 1))
        if run:
            chunks.append(_render_run("".join(run)))
        return " ".join(chunks)
    if isinstance(e, Union):
        s = " + ".join(_render(p, 0) for p in e.parts)
        return f"({s})" if prec >= 1 else s
    raise TypeError(f"not a regex: {e!r}")


def render_atom(a: Atom) -> str:
    if isinstance(a, EqualityAtom):
        return f"?{a.left} = ?{a.right}"
    return f"?{a.src} -[{render_regex(a.label)}]-> ?{a.dst}"


def render_crpq(q: CRPQ) -> str:
    return ", ".join(render_atom(a) for a in q.atoms)


def render_ucrpq(q: UCRPQ) -> str:
    return " | ".join(render_crpq(d) for d in q.disjuncts)
