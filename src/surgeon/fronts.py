"""Parser and evaluator for a plain-text front projection language.

A Legendrian front is encoded as a left-to-right sequence of elementary
events acting on a stack of horizontal strands, numbered from 1 at the
top.  With `s` strands currently open:

    L<p>   left cusp: inserts two new adjacent strands at positions p and
           p+1 (strands previously at positions >= p shift down by two);
           valid for 1 <= p <= s+1.
    R<p>   right cusp: joins the strands at positions p and p+1 and
           removes them; valid for 1 <= p <= s-1.
    X<p>   crossing of the strands at positions p and p+1; the strand
           descending from position p to p+1 has the lesser slope and is
           therefore in front (the over strand); valid for 1 <= p <= s-1.

The strand count starts and ends at zero.  Tracing the events joins the
strand arcs into closed components, numbered in order of creation.

File grammar (UTF-8, '#' starts a comment running to end of line):

    document  := header* events-marker? event*
    header    := "surgery" NAME "coeff" COEFF ["reversed"]
               | "companion" NAME "legendrian" ["reversed"]
               | "companion" NAME "transverse" ("positive"|"negative") ["reversed"]
    events-marker := "events:"
    event     := ("L"|"R"|"X") POSITIVE-INTEGER

Headers assign roles to components in trace order: the i-th header
describes the i-th component.  COEFF is "+1", "-1", "+1/m" or "-1/m".
The "events:" marker is mandatory when headers are present.  Documents
consisting of bare event tokens (no headers, no marker) are accepted.

Orientation conventions (fixed here, since any consistent choice works;
they are pinned by the requirement that the maximal unknot front "L1 R1"
has tb = -1 and the maximal right-handed trefoil front
"L1 L3 X2 X2 X2 R1 R1" has tb = +1):

  * by default, the upper branch of a component's first left cusp is
    directed rightward; "reversed" in the component's header flips it;
  * horizontal direction flips exactly at cusps, so every strand arc has
    a well-defined direction;
  * a cusp counts as "down" when the traversal enters it on the upper
    branch (and so exits on the lower one), "up" otherwise;
  * a crossing is positive iff its two strands are traversed in the same
    horizontal direction.  Equivalently, the ordered pair (over strand
    direction, under strand direction) is a positively oriented frame.

Per component, tb = writhe - (#cusps)/2 and rot = (#down - #up)/2; for two
components, lk = half the signed count of their mutual crossings.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import Optional

from .diagrams import (
    LEGENDRIAN,
    TRANSVERSE,
    CompanionKnot,
    ContactCoefficient,
    LegendrianComponent,
    SurgeryDiagram,
)

_EVENT_RE = re.compile(r"^([LRX])([1-9][0-9]*)$")


class FrontError(ValueError):
    """Parse or validity error, carrying a 1-based source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class FrontEvent:
    kind: str  # "L", "R" or "X"
    position: int
    line: int
    column: int


@dataclass(frozen=True)
class ComponentRole:
    """Role header for one traced component."""

    role: str  # "surgery" or "companion"
    name: str
    coeff: Optional[ContactCoefficient]  # surgery only
    kind: Optional[str]  # companion only
    transverse_sign: Optional[int]  # transverse companions only
    reversed: bool
    line: int


@dataclass(frozen=True)
class FrontDocument:
    events: tuple[FrontEvent, ...]
    roles: tuple[ComponentRole, ...]


def _tokens(text: str):
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        for match in re.finditer(r"\S+", body):
            yield match.group(0), lineno, match.start() + 1


def _parse_header(words, lineno: int) -> ComponentRole:
    def fail(msg, col=1):
        raise FrontError(msg, lineno, col)

    rev = False
    if words and words[-1][0] == "reversed":
        rev = True
        words = words[:-1]
    keyword = words[0][0]
    if keyword == "surgery":
        if len(words) != 4 or words[2][0] != "coeff":
            fail("expected: surgery <name> coeff <s/m> [reversed]", words[0][2])
        try:
            coeff = ContactCoefficient.parse(words[3][0])
        except ValueError as exc:
            fail(str(exc), words[3][2])
        return ComponentRole("surgery", words[1][0], coeff, None, None, rev, lineno)
    if len(words) < 3 or words[2][0] not in (LEGENDRIAN, TRANSVERSE):
        fail("expected: companion <name> legendrian|transverse [positive|negative] [reversed]",
             words[0][2])
    kind = words[2][0]
    sign = None
    rest = words[3:]
    if kind == TRANSVERSE:
        if not rest or rest[0][0] not in ("positive", "negative"):
            fail("transverse companion needs 'positive' or 'negative'", words[2][2])
        sign = 1 if rest[0][0] == "positive" else -1
        rest = rest[1:]
    if rest:
        fail(f"unexpected token {rest[0][0]!r}", rest[0][2])
    return ComponentRole("companion", words[1][0], None, kind, sign, rev, lineno)


def parse_front(text: str) -> FrontDocument:
    """Parse and validate a front document.

    Raises FrontError with a source position on malformed tokens, on event
    positions that are out of range for the current strand count, and on a
    nonzero final strand count.
    """
    roles: list[ComponentRole] = []
    events: list[FrontEvent] = []
    marker_seen = False
    strands = 0
    last = (1, 1)

    lines: dict[int, list] = {}
    for tok in _tokens(text):
        lines.setdefault(tok[1], []).append(tok)

    for lineno in sorted(lines):
        words = lines[lineno]
        first = words[0][0]
        if first in ("surgery", "companion"):
            if marker_seen or events:
                raise FrontError("role headers must precede all events", lineno, words[0][2])
            roles.append(_parse_header(words, lineno))
            continue
        for word, ln, col in words:
            last = (ln, col)
            if word == "events:":
                if marker_seen:
                    raise FrontError("duplicate 'events:' marker", ln, col)
                if events:
                    raise FrontError("'events:' marker must precede all events", ln, col)
                marker_seen = True
                continue
            m = _EVENT_RE.match(word)
            if m is None:
                raise FrontError(f"unrecognized token {word!r}", ln, col)
            if roles and not marker_seen:
                raise FrontError("missing 'events:' marker after role headers", ln, col)
            kind = m.group(1)
            try:
                p = int(m.group(2))
            except ValueError:  # more digits than the interpreter reads into an int
                raise FrontError(f"position of {kind} has more than {sys.get_int_max_str_digits()} "
                                 "digits, the limit for reading integers", ln, col) from None
            if kind == "L":
                if p > strands + 1:
                    raise FrontError(
                        f"L{p} with {strands} strands requires position <= {strands + 1}", ln, col)
                strands += 2
            else:
                if p > strands - 1:
                    raise FrontError(
                        f"{kind}{p} with {strands} strands requires position <= {strands - 1}", ln, col)
                if kind == "R":
                    strands -= 2
            events.append(FrontEvent(kind, p, ln, col))

    if strands != 0:
        raise FrontError(f"{strands} strands left open at end of document", *last)
    return FrontDocument(tuple(events), tuple(roles))


@dataclass(frozen=True)
class FrontInvariants:
    """Classical invariants computed from one front document: per-component
    tb and rot, and the symmetric matrix of pairwise linking numbers."""

    tb: tuple[int, ...]
    rot: tuple[int, ...]
    linking: tuple[tuple[int, ...], ...]

    @property
    def n_components(self) -> int:
        return len(self.tb)


class _Trace:
    """Resolution of a front document into arcs, cusps and crossings.

    An arc is a maximal left-right monotone strand piece; arcs begin at
    left cusps and end at right cusps.  Components alternate arcs and
    cusps in an even cycle, so a consistent direction assignment always
    exists.
    """

    def __init__(self, doc: FrontDocument):
        open_: list[int] = []
        parent: list[int] = []
        self.cusps: list[tuple[str, int, int]] = []  # (kind, upper arc, lower arc)
        self.crossings: list[tuple[int, int]] = []  # (over arc, under arc): over enters on top

        def fresh() -> int:
            parent.append(len(parent))
            return len(parent) - 1

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x: int, y: int) -> None:
            parent[find(x)] = find(y)

        for ev in doc.events:
            i = ev.position - 1
            if ev.kind == "L":
                upper, lower = fresh(), fresh()
                open_[i:i] = [upper, lower]
                union(upper, lower)
                self.cusps.append(("L", upper, lower))
            elif ev.kind == "R":
                upper = open_.pop(i)
                lower = open_.pop(i)
                union(upper, lower)
                self.cusps.append(("R", upper, lower))
            else:
                over, under = open_[i], open_[i + 1]
                self.crossings.append((over, under))
                open_[i], open_[i + 1] = under, over
        assert not open_

        # Components in creation order of their first arc.
        component_of_root: dict[int, int] = {}
        self.component: list[int] = []
        for arc in range(len(parent)):
            root = find(arc)
            if root not in component_of_root:
                component_of_root[root] = len(component_of_root)
            self.component.append(component_of_root[root])
        self.n_components = len(component_of_root)

        # Direction of each arc: +1 rightward, -1 leftward.  The traversal
        # turns around at every cusp, so paired arcs get opposite signs.
        reversed_flags = [False] * self.n_components
        for idx, role in enumerate(doc.roles):
            if idx < self.n_components:
                reversed_flags[idx] = role.reversed
        direction = [0] * len(parent)
        adjacency: dict[int, list[int]] = {a: [] for a in range(len(parent))}
        for _, upper, lower in self.cusps:
            adjacency[upper].append(lower)
            adjacency[lower].append(upper)
        for comp in range(self.n_components):
            anchor = next(a for a in range(len(parent)) if self.component[a] == comp)
            direction[anchor] = -1 if reversed_flags[comp] else 1
            stack = [anchor]
            while stack:
                arc = stack.pop()
                for other in adjacency[arc]:
                    if direction[other] == 0:
                        direction[other] = -direction[arc]
                        stack.append(other)
                    else:
                        assert direction[other] == -direction[arc]
        self.direction = direction

    def crossing_sign(self, over: int, under: int) -> int:
        # Over strand descends; parallel traversal makes the frame
        # (over direction, under direction) positively oriented.
        return 1 if self.direction[over] == self.direction[under] else -1


def classical_invariants(doc: FrontDocument) -> FrontInvariants:
    """tb and rot per component and all pairwise linking numbers."""
    trace = _Trace(doc)
    n = trace.n_components
    cusp_count = [0] * n
    down = [0] * n
    up = [0] * n
    writhe = [0] * n
    lk2 = [[0] * n for _ in range(n)]

    for kind, upper, lower in trace.cusps:
        comp = trace.component[upper]
        cusp_count[comp] += 1
        # Entering arc: the leftward one at a left cusp, the rightward one
        # at a right cusp.  Entering on the upper branch means the strand
        # passes downward through the cusp.
        entering_upper = trace.direction[upper] == (-1 if kind == "L" else 1)
        if entering_upper:
            down[comp] += 1
        else:
            up[comp] += 1

    for over, under in trace.crossings:
        sign = trace.crossing_sign(over, under)
        a, b = trace.component[over], trace.component[under]
        if a == b:
            writhe[a] += sign
        else:
            lk2[a][b] += sign
            lk2[b][a] += sign

    assert all(c % 2 == 0 for c in cusp_count)
    assert all(lk2[a][b] % 2 == 0 for a in range(n) for b in range(n))
    tb = tuple(writhe[c] - cusp_count[c] // 2 for c in range(n))
    rot = tuple((down[c] - up[c]) // 2 for c in range(n))
    linking = tuple(tuple(lk2[a][b] // 2 for b in range(n)) for a in range(n))
    return FrontInvariants(tb, rot, linking)


def component_names(doc: FrontDocument, n_components: int) -> tuple[str, ...]:
    """Display names: header names where declared, K<i> otherwise."""
    names = []
    for i in range(n_components):
        names.append(doc.roles[i].name if i < len(doc.roles) else f"K{i + 1}")
    return tuple(names)


def to_diagram(doc: FrontDocument) -> SurgeryDiagram:
    """Assemble a surgery diagram from a fully annotated front document.

    Every traced component must carry a role header; surgery components
    contribute link components, Legendrian companions contribute knots.
    Transverse companions are rejected: they carry no front here and must
    be entered numerically in a diagram file.
    """
    inv = classical_invariants(doc)
    n = inv.n_components
    if len(doc.roles) < n:
        raise FrontError(
            f"component {len(doc.roles) + 1} has no role header (missing coefficient or companion marker)",
            1, 1)
    if len(doc.roles) > n:
        extra = doc.roles[n]
        raise FrontError(
            f"role header {extra.name!r} has no matching component (document has {n})",
            extra.line, 1)

    surgery_idx = [i for i, r in enumerate(doc.roles) if r.role == "surgery"]
    components = tuple(
        LegendrianComponent(doc.roles[i].name, inv.tb[i], inv.rot[i], doc.roles[i].coeff)
        for i in surgery_idx)
    linking = tuple(tuple(inv.linking[a][b] for b in surgery_idx) for a in surgery_idx)

    knots = []
    for i, role in enumerate(doc.roles):
        if role.role != "companion":
            continue
        if role.kind == TRANSVERSE:
            raise FrontError(
                f"transverse companion {role.name!r} cannot be drawn as a front; "
                "enter it numerically (sl, sign, lk vector) in a diagram file",
                role.line, 1)
        knots.append(CompanionKnot(
            name=role.name, kind=LEGENDRIAN,
            lk=tuple(inv.linking[i][b] for b in surgery_idx),
            tb=inv.tb[i], rot=inv.rot[i]))
    return SurgeryDiagram(components, linking, tuple(knots))
