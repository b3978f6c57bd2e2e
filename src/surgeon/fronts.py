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

The strand count starts and ends at zero.  Each left cusp starts two
arcs and each right cusp ends two, so every arc runs from a left cusp to a
right cusp.  A component is traced by one walk that leaves an arc through
its right cusp, runs back along the partner arc to the partner's left
cusp, and so on until it returns to its first arc.  Components are
numbered in order of creation of their first arc.

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
            fail("expected: surgery <name> coeff <s/m> [reversed]", words[0][1])
        try:
            coeff = ContactCoefficient.parse(words[3][0])
        except ValueError as exc:
            fail(str(exc), words[3][1])
        return ComponentRole("surgery", words[1][0], coeff, None, None, rev, lineno)
    if len(words) < 3 or words[2][0] not in (LEGENDRIAN, TRANSVERSE):
        fail("expected: companion <name> legendrian|transverse [positive|negative] [reversed]",
             words[0][1])
    kind = words[2][0]
    sign = None
    rest = words[3:]
    if kind == TRANSVERSE:
        if not rest or rest[0][0] not in ("positive", "negative"):
            fail("transverse companion needs 'positive' or 'negative'", words[2][1])
        sign = 1 if rest[0][0] == "positive" else -1
        rest = rest[1:]
    if rest:
        fail(f"unexpected token {rest[0][0]!r}", rest[0][1])
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

    for ln, line in enumerate(text.splitlines(), start=1):
        words = [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", line.split("#", 1)[0])]
        if not words:
            continue
        if words[0][0] in ("surgery", "companion"):
            if marker_seen or events:
                raise FrontError("role headers must precede all events", ln, words[0][1])
            roles.append(_parse_header(words, ln))
            continue
        for word, col in words:
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


def classical_invariants(doc: FrontDocument) -> FrontInvariants:
    """tb and rot per component and all pairwise linking numbers.

    One sweep over the events numbers the arcs in creation order and
    records every cusp, every crossing and each arc's partner at its left
    and at its right cusp.  One walk per component, arc -> right-cusp
    partner -> left-cusp partner -> ... back to its first arc, then numbers
    the components and directs the arcs: directions alternate along the
    walk, and the first arc runs rightward unless the component's header
    says "reversed".
    """
    open_: list[int] = []
    left: dict[int, int] = {}  # arc -> partner arc at its left cusp
    right: dict[int, int] = {}  # arc -> partner arc at its right cusp
    cusps: list[tuple[str, int, int]] = []  # (kind, upper arc, lower arc)
    crossings: list[tuple[int, int]] = []  # (over arc, under arc): over enters on top
    for ev in doc.events:
        i = ev.position - 1
        if ev.kind == "L":
            upper, lower = len(left), len(left) + 1
            open_[i:i] = [upper, lower]
            left[upper], left[lower] = lower, upper
            cusps.append(("L", upper, lower))
        elif ev.kind == "R":
            upper, lower = open_.pop(i), open_.pop(i)
            right[upper], right[lower] = lower, upper
            cusps.append(("R", upper, lower))
        else:
            over, under = open_[i], open_[i + 1]
            crossings.append((over, under))
            open_[i], open_[i + 1] = under, over

    # Direction of each arc: +1 rightward, -1 leftward.
    component = [-1] * len(left)
    direction = [0] * len(left)
    n = 0
    for start in range(len(left)):
        if component[start] >= 0:
            continue
        first = -1 if n < len(doc.roles) and doc.roles[n].reversed else 1
        arc = start
        while component[arc] < 0:
            partner = right[arc]
            component[arc] = component[partner] = n
            direction[arc], direction[partner] = first, -first
            arc = left[partner]
        n += 1

    cusp_count = [0] * n
    down = [0] * n
    up = [0] * n
    writhe = [0] * n
    lk2 = [[0] * n for _ in range(n)]

    for kind, upper, lower in cusps:
        comp = component[upper]
        cusp_count[comp] += 1
        # Entering arc: the leftward one at a left cusp, the rightward one
        # at a right cusp.  Entering on the upper branch means the strand
        # passes downward through the cusp.
        entering_upper = direction[upper] == (-1 if kind == "L" else 1)
        if entering_upper:
            down[comp] += 1
        else:
            up[comp] += 1

    for over, under in crossings:
        # Over strand descends; parallel traversal makes the frame
        # (over direction, under direction) positively oriented.
        sign = 1 if direction[over] == direction[under] else -1
        a, b = component[over], component[under]
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
