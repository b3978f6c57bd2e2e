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

File grammar (UTF-8, '#' starts a comment running to end of line; lines
end at "\n", "\r\n" or "\r", and any other whitespace separates tokens):

    document  := header* events-marker? event*
    header    := "surgery" NAME "coeff" COEFF ["reversed"]
               | "companion" NAME "legendrian" ["reversed"]
               | "companion" NAME "transverse" ("positive"|"negative") ["reversed"]
    events-marker := "events:"
    event     := ("L"|"R"|"X") POSITIVE-INTEGER

Headers assign roles to components in trace order: the i-th header
describes the i-th component.  COEFF is "+1", "-1", "+1/m" or "-1/m".
A transverse companion is the positive or negative (t = +1 or -1)
transverse push-off of its drawn Legendrian knot: sl = tb - t*rot.
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
from typing import NamedTuple, Optional

from .diagrams import (
    LEGENDRIAN,
    TRANSVERSE,
    TRANSVERSE_SIGNS,
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


class FrontEvent(NamedTuple):
    kind: str  # "L", "R" or "X"
    position: int
    line: int
    column: int


class ComponentRole(NamedTuple):
    """Role header for one traced component."""

    kind: str  # "surgery", "legendrian" or "transverse"
    name: str
    coeff: Optional[ContactCoefficient]  # surgery only
    sign: Optional[int]  # transverse only: +1 positive, -1 negative
    reversed: bool
    line: int


class FrontDocument(NamedTuple):
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
        return ComponentRole("surgery", words[1][0], coeff, None, rev, lineno)
    if len(words) < 3 or words[2][0] not in (LEGENDRIAN, TRANSVERSE):
        fail("expected: companion <name> legendrian|transverse [positive|negative] [reversed]",
             words[0][1])
    kind = words[2][0]
    rest = words[3:]
    sign = None
    if kind == TRANSVERSE:
        if not rest or rest[0][0] not in TRANSVERSE_SIGNS:
            fail("transverse companion needs 'positive' or 'negative'", words[2][1])
        sign = TRANSVERSE_SIGNS[rest.pop(0)[0]]
    if rest:
        fail(f"unexpected token {rest[0][0]!r}", rest[0][1])
    return ComponentRole(kind, words[1][0], None, sign, rev, lineno)


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

    for ln, line in enumerate(re.split(r"\r\n?|\n", text), start=1):
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


class FrontInvariants(NamedTuple):
    """Classical invariants computed from one front document: per component
    in trace order its display name (the header's name where one is
    declared, K<i> otherwise), tb and rot, and the symmetric matrix of
    pairwise linking numbers."""

    names: tuple[str, ...]
    tb: tuple[int, ...]
    rot: tuple[int, ...]
    linking: tuple[tuple[int, ...], ...]


def _trace(doc: FrontDocument):
    """Cusps, crossings, and each arc's component and direction.

    One sweep over the events numbers the arcs in creation order (the
    j-th left cusp starts arcs 2j and 2j+1) and records every cusp, every
    crossing and each arc's partner at its left and at its right cusp.
    One walk per component, arc -> right-cusp partner -> left-cusp
    partner -> ... back to its first arc, then numbers the components and
    directs the arcs: directions alternate along the walk, and the first
    arc runs rightward unless the component's header says "reversed".

    Returns (cusps, crossings, component, direction, starts): cusps as
    (kind, upper arc, lower arc), crossings as (over arc, under arc), per
    arc its component and direction (+1 rightward, -1 leftward), and per
    component its first arc.
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

    component = [-1] * len(left)
    direction = [0] * len(left)
    starts: list[int] = []
    for start in range(len(left)):
        if component[start] >= 0:
            continue
        n = len(starts)
        first = -1 if n < len(doc.roles) and doc.roles[n].reversed else 1
        arc = start
        while component[arc] < 0:
            partner = right[arc]
            component[arc] = component[partner] = n
            direction[arc], direction[partner] = first, -first
            arc = left[partner]
        starts.append(start)
    return cusps, crossings, component, direction, starts


def classical_invariants(doc: FrontDocument) -> FrontInvariants:
    """Names, tb and rot per component and all pairwise linking numbers;
    rot is half the component's signed cusp count (+1 down, -1 up).

    Raises FrontError at a role header beyond the last component.
    """
    cusps, crossings, component, direction, starts = _trace(doc)
    n = len(starts)
    if len(doc.roles) > n:
        extra = doc.roles[n]
        raise FrontError(f"role header {extra.name!r} has no matching component (document has {n})",
                         extra.line, 1)
    cusp_count = [0] * n
    rot2 = [0] * n
    writhe = [0] * n
    lk2 = [[0] * n for _ in range(n)]

    for kind, upper, lower in cusps:
        comp = component[upper]
        cusp_count[comp] += 1
        # Entering arc: the leftward one at a left cusp, the rightward one
        # at a right cusp.  Entering on the upper branch means the strand
        # passes downward through the cusp.
        rot2[comp] += 1 if direction[upper] == (-1 if kind == "L" else 1) else -1

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

    # A closed component has as many cusps as arcs, an even number, and two
    # closed components cross an even number of times.
    if any(c % 2 for c in cusp_count) or any(x % 2 for row in lk2 for x in row):
        raise RuntimeError("odd cusp or mutual crossing count: the front tracing is inconsistent")
    tb = tuple(writhe[c] - cusp_count[c] // 2 for c in range(n))
    rot = tuple(r // 2 for r in rot2)
    linking = tuple(tuple(lk2[a][b] // 2 for b in range(n)) for a in range(n))
    names = tuple(r.name for r in doc.roles) + tuple(f"K{i + 1}" for i in range(len(doc.roles), n))
    return FrontInvariants(names, tb, rot, linking)


def to_diagram(doc: FrontDocument, inv: FrontInvariants) -> SurgeryDiagram:
    """Assemble a surgery diagram from a fully annotated front document.

    Every traced component must carry a role header; surgery components
    contribute link components, companions contribute knots.  `inv` is
    classical_invariants(doc), so the front is not traced again.
    """
    if len(doc.roles) < len(inv.names):
        *_, starts = _trace(doc)
        first_event = [ev for ev in doc.events if ev.kind == "L"][starts[len(doc.roles)] // 2]
        raise FrontError(
            f"component {len(doc.roles) + 1} has no role header (missing coefficient or companion marker)",
            first_event.line, first_event.column)

    surgery_idx = [i for i, r in enumerate(doc.roles) if r.kind == "surgery"]
    components, linking, knots = [], [], []
    for i, role in enumerate(doc.roles):
        tb, rot, lk = inv.tb[i], inv.rot[i], tuple(inv.linking[i][b] for b in surgery_idx)
        if role.kind == "surgery":
            components.append(LegendrianComponent(role.name, tb, rot, role.coeff))
            linking.append(lk)
        elif role.kind == LEGENDRIAN:
            knots.append(CompanionKnot(role.name, LEGENDRIAN, lk, tb=tb, rot=rot))
        else:  # the transverse push-off of sign t of the drawn knot: sl = tb - t*rot
            knots.append(CompanionKnot(role.name, TRANSVERSE, lk, sl=tb - role.sign * rot,
                                       transverse_sign=role.sign))
    return SurgeryDiagram(components, linking, knots)
