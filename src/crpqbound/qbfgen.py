"""Hard test instances: from forall-exists 3CNF to boundedness questions.

A formula yields two conjunctive path queries over the alphabet
{a, b, s, j, x1.., y1..}: q1 encodes the quantifier structure with one
a*-tail gadget per universal variable, q2 encodes the clauses.  The
formula is satisfiable exactly when q1 is contained in q2, equivalently
when their conjunction is a bounded query.  Tiny instances are decidable
end to end; a capped containment check over low-exponent expansions gives
an independent answer at the same scale.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from crpqbound.config import DEFAULT_CAPS, Caps
from crpqbound.errors import ParseError, UnsupportedFragment
from crpqbound.expansion import ExponentDomain, cq_hom, enumerate_expansions, materialize
from crpqbound.syntax import CRPQ, EdgeAtom, Letter, Star

# ----------------------------------------------------------------------- QBF


@dataclass(frozen=True)
class QBF:
    """forall x_1..x_n exists y_1..y_l, conjunction of 3-literal clauses.

    Literals are signed 1-based indices; index i <= n names x_i, larger
    indices name y_{i-n}.
    """

    n: int
    l: int
    clauses: tuple

    def __post_init__(self):
        if self.n < 0 or self.l < 0:
            raise ValueError("variable counts must be nonnegative")
        for clause in self.clauses:
            if len(clause) != 3:
                raise ValueError(f"clause needs exactly 3 literals: {clause!r}")
            for lit in clause:
                if lit == 0 or abs(lit) > self.n + self.l:
                    raise ValueError(f"literal out of range: {lit}")


def parse_qbf(text: str) -> QBF:
    """Read the QDIMACS-like form: forall/exists headers, clause lines.

    The exists header may count from n+1 (index form) or from 1 (count
    form).  Clause lines carry three signed indices, optionally followed
    by a terminating 0.
    """
    n = None
    l = None
    clauses = []
    header = re.compile(r"^(forall|exists)\s+(\d+)\s*\.\.\s*(\d+)$")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = header.match(line)
        if m:
            try:
                kind, lo, hi = m.group(1), int(m.group(2)), int(m.group(3))
            except ValueError:  # more digits than int() converts
                raise ParseError("header bound too long", lineno, 1) from None
            count = hi - lo + 1 if hi >= lo else 0
            if kind == "forall":
                if n is not None:
                    raise ParseError("duplicate forall header", lineno, 1)
                if lo != 1 and count > 0:
                    raise ParseError("forall range must start at 1", lineno, 1)
                n = count
            else:
                if l is not None:
                    raise ParseError("duplicate exists header", lineno, 1)
                if n is None:
                    raise ParseError("exists header before forall", lineno, 1)
                if count == 0:
                    l = 0
                elif lo == n + 1:
                    l = count
                elif lo == 1:
                    l = hi
                else:
                    raise ParseError("exists range must start at 1 or n+1", lineno, 1)
            continue
        if n is None or l is None:
            raise ParseError("clause before forall/exists headers", lineno, 1)
        try:
            ints = [int(tok) for tok in line.split()]
        except ValueError:
            raise ParseError(f"bad clause line: {line!r}", lineno, 1)
        if len(ints) == 4 and ints[3] == 0:
            ints = ints[:3]
        if len(ints) != 3:
            raise ParseError("clause needs exactly 3 literals", lineno, 1)
        clauses.append(tuple(ints))
    if n is None or l is None:
        raise ParseError("missing forall/exists headers", 1, 1)
    try:
        return QBF(n, l, tuple(clauses))
    except ValueError as exc:  # a literal that names no variable
        raise ParseError(str(exc)) from None


# ------------------------------------------------------------------- gadgets


@dataclass(frozen=True)
class Gadget:
    """A query fragment hanging off a root, exposing its port variables."""

    atoms: tuple
    root: str
    ports: tuple


def _edge(src, symbol, dst):
    return EdgeAtom(src, Letter(symbol), dst)


def _star(src, symbol, dst):
    return EdgeAtom(src, Star((symbol,)), dst)


def _true_pattern(end, mid, port):
    """The t-shape: port <-b mid <-a end."""
    return (_edge(end, "a", mid), _edge(mid, "b", port))


def _false_pattern(end, mid, port):
    """The f-shape: port <-b mid a-> end."""
    return (_edge(mid, "b", port), _edge(mid, "a", end))


def _strict_choice(port, prefix):
    """The decision tail under a universal variable: port <-b . <-a* . a-> .

    In an expansion the a*-exponent collapses the shape to the f-pattern
    (exponent 0) or stretches it into the t-pattern (exponent >= 1), which
    is how a truth value gets chosen.
    """
    m1, m2, v = f"{prefix}_m1", f"{prefix}_m2", f"{prefix}_v"
    return (
        _edge(m1, "b", port),
        _star(m2, "a", m1),
        _edge(m2, "a", v),
    )


def _var_symbol(phi: QBF, index: int) -> str:
    return f"x{index}" if index <= phi.n else f"y{index - phi.n}"


_Q1_ROOTS = ("e0", "e1", "d", "e3", "e4")


def build_q1(phi: QBF) -> CRPQ:
    """The quantifier-side query: one strict chooser per x_i at the centre
    root d, all four truth patterns per variable at the outer roots, plus
    an s self-loop on every root and a j-labeled chain connecting them.
    Does not depend on the clauses.
    """
    atoms = []
    for r1, r2 in zip(_Q1_ROOTS, _Q1_ROOTS[1:]):
        atoms.append(_edge(r1, "j", r2))
    for r in _Q1_ROOTS:
        atoms.append(_edge(r, "s", r))

    for i in range(1, phi.n + 1):
        port = f"d_x{i}"
        atoms.append(_edge("d", f"x{i}", port))
        atoms.extend(_strict_choice(port, f"d_x{i}"))
    for j in range(1, phi.l + 1):
        tport, fport = f"d_y{j}_t", f"d_y{j}_f"
        atoms.append(_edge("d", f"y{j}", tport))
        atoms.extend(_true_pattern(f"y{j}_t", f"d_y{j}_tm", tport))
        atoms.append(_edge("d", f"y{j}", fport))
        atoms.extend(_false_pattern(f"y{j}_f", f"d_y{j}_fm", fport))

    for e in _Q1_ROOTS:
        if e == "d":
            continue
        for i in range(1, phi.n + 1):
            port = f"{e}_x{i}"
            atoms.append(_edge(e, f"x{i}", port))
            atoms.extend(_true_pattern(f"{e}_x{i}_tz", f"{e}_x{i}_tm", port))
            atoms.extend(_false_pattern(f"{e}_x{i}_fz", f"{e}_x{i}_fm", port))
        for j in range(1, phi.l + 1):
            port = f"{e}_y{j}"
            atoms.append(_edge(e, f"y{j}", port))
            atoms.extend(_true_pattern(f"y{j}_t", f"{e}_y{j}_m1", port))
            atoms.extend(_false_pattern(f"y{j}_t", f"{e}_y{j}_m2", port))
            atoms.extend(_true_pattern(f"y{j}_f", f"{e}_y{j}_m3", port))
            atoms.extend(_false_pattern(f"y{j}_f", f"{e}_y{j}_m4", port))
    return CRPQ(tuple(atoms))


def clause_gadget(phi: QBF, ci: int, clause) -> Gadget:
    """One clause sub-query: an s.s* loop at the root, a j-chain of three
    attachment points, and per literal a variable-labeled edge into a port
    carrying the t-pattern (positive) or f-pattern (negative).  Ends of
    y-literal patterns share the global y{j}_tf variable.
    """
    root = f"c{ci}"
    atoms = [
        _edge(root, "s", f"{root}_s"),
        _star(f"{root}_s", "s", root),
        _edge(root, "j", f"{root}_j1"),
        _edge(f"{root}_j1", "j", f"{root}_j2"),
    ]
    attach_points = (root, f"{root}_j1", f"{root}_j2")
    ports = []
    for p, lit in enumerate(clause, start=1):
        index = abs(lit)
        port = f"{root}_p{p}"
        ports.append(port)
        atoms.append(_edge(attach_points[p - 1], _var_symbol(phi, index), port))
        mid = f"{root}_p{p}_m"
        if index > phi.n:
            end = f"y{index - phi.n}_tf"
        else:
            end = f"{root}_p{p}_end"
        if lit > 0:
            atoms.extend(_true_pattern(end, mid, port))
        else:
            atoms.extend(_false_pattern(end, mid, port))
    return Gadget(tuple(atoms), root, tuple(ports))


def build_q2(phi: QBF) -> CRPQ:
    """The clause-side query: one gadget per clause, disjoint except for
    the shared y{j}_tf ends."""
    if not phi.clauses:
        raise UnsupportedFragment("q2 needs at least one clause (empty conjunction)")
    atoms = []
    for ci, clause in enumerate(phi.clauses, start=1):
        atoms.extend(clause_gadget(phi, ci, clause).atoms)
    return CRPQ(tuple(atoms))


def reduction(phi: QBF) -> CRPQ:
    """The conjunction q1 AND q2, bounded exactly when phi is satisfiable.

    Variable namespaces of the two sides are disjoint, so the conjunction
    is their disjoint union as one CRPQ.  With no clauses the reduction
    degenerates to q1 alone.
    """
    q1 = build_q1(phi)
    if not phi.clauses:
        return q1
    q2 = build_q2(phi)
    return CRPQ(q1.atoms + q2.atoms)


# ------------------------------------------------------- capped containment


def _star_indices(d: CRPQ):
    return [i for i, a in enumerate(d.edge_atoms) if isinstance(a.label, Star)]


def capped_containment(phi: QBF, caps: Caps = DEFAULT_CAPS) -> bool:
    """Does q1 map into q2 at low exponents?  Equals satisfiability.

    Left expansions range over a*-exponents {0,1} (stretching further
    never changes the chosen truth values), right expansions over
    s*-exponents {0,1,2} (enough for the s-loops to wrap).  For each left
    expansion some right expansion must map homomorphically into it.
    """
    if not phi.clauses:
        return True
    q1 = build_q1(phi)
    q2 = build_q2(phi)
    dom1 = ExponentDomain.uniform(_star_indices(q1), (0, 1))
    dom2 = ExponentDomain.uniform(_star_indices(q2), (0, 1, 2))
    rights = [
        materialize(lam2, caps=caps)
        for lam2 in enumerate_expansions(q2, dom2, caps=caps)
    ]
    for lam1 in enumerate_expansions(q1, dom1, caps=caps):
        left = materialize(lam1, caps=caps)
        if not any(cq_hom(right, left) is not None for right in rights):
            return False
    return True
