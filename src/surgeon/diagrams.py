"""Core data types for contact surgery diagrams.

A diagram consists of an ordered Legendrian surgery link (each component
carrying tb, rot and a reciprocal-integer contact surgery coefficient),
the symmetric matrix of pairwise linking numbers, and a list of companion
knots living in the link complement whose invariants in the surgered
manifold are to be computed.  `validate` checks the rules across records.

Every record of the package is a `typing.NamedTuple`: an immutable,
hashable value, copied with changes by `_replace` and equal to a plain
tuple of its fields.  (Importing `dataclasses` would cost each command more
than a small diagram takes.)  A NamedTuple body cannot define `__new__`, so
the records that check or normalize their fields (ContactCoefficient,
CompanionKnot, SurgeryDiagram) subclass a bare NamedTuple; their `_make`
calls `__new__`, so `_replace` checks too.  All arithmetic is exact: plain
Python integers and fractions.Fraction, never floats.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

_COEFF_RE = re.compile(r"^([+-])1(?:/([1-9][0-9]*))?$")

LEGENDRIAN = "legendrian"
TRANSVERSE = "transverse"
TRANSVERSE_SIGNS = {"positive": 1, "negative": -1}


_ContactCoefficient = NamedTuple("_ContactCoefficient", [("sign", int), ("magnitude", int)])


class ContactCoefficient(_ContactCoefficient):
    """A contact surgery coefficient sign/magnitude with magnitude >= 1.

    Only reciprocal integers +-1/m are representable.  General rational
    coefficients must be expanded into a sequence of +-1/m surgeries
    before they reach this library; `parse` rejects them with a pointer
    to that requirement.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))

    def __new__(cls, sign: int, magnitude: int) -> ContactCoefficient:
        if sign not in (1, -1):
            raise ValueError(f"coefficient sign must be +1 or -1, got {sign!r}")
        if not isinstance(magnitude, int) or magnitude < 1:
            raise ValueError(f"coefficient magnitude must be a positive integer, got {magnitude!r}")
        return super().__new__(cls, sign, magnitude)

    @classmethod
    def parse(cls, text: str) -> "ContactCoefficient":
        m = _COEFF_RE.match(text.strip())
        if m is None:
            raise ValueError(
                f"unsupported contact surgery coefficient {text!r}: only '+1', '-1', "
                "'+1/m' and '-1/m' are accepted; rewrite general rational coefficients "
                "as an already-expanded diagram of +-1/m surgeries"
            )
        sign = 1 if m.group(1) == "+" else -1
        return cls(sign, int(m.group(2) or "1"))

    def __str__(self) -> str:
        s = "+" if self.sign > 0 else "-"
        return f"{s}1" if self.magnitude == 1 else f"{s}1/{self.magnitude}"


class LegendrianComponent(NamedTuple):
    """One component of the surgery link."""

    name: str
    tb: int
    rot: int
    coeff: ContactCoefficient


_CompanionKnot = NamedTuple("_CompanionKnot", [
    ("name", str), ("kind", str), ("lk", tuple[int, ...]), ("tb", Optional[int]),
    ("rot", Optional[int]), ("sl", Optional[int]), ("transverse_sign", Optional[int])])


class CompanionKnot(_CompanionKnot):
    """A knot in the complement of the surgery link.

    Legendrian companions carry (tb, rot); transverse companions carry the
    self-linking number and an orientation sign (+1 positively transverse,
    -1 negatively transverse).  `lk` lists the linking numbers with the
    surgery link components, in diagram order.  Fields that do not fit the
    kind raise ValueError, naming the knot, here and in `_replace`.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))

    def __new__(cls, name: str, kind: str, lk, tb: Optional[int] = None, rot: Optional[int] = None,
                sl: Optional[int] = None, transverse_sign: Optional[int] = None) -> CompanionKnot:
        if kind not in (LEGENDRIAN, TRANSVERSE):
            raise ValueError(f"knot {name!r}: unknown knot kind {kind!r}")
        own = ("tb", "rot") if kind == LEGENDRIAN else ("sl", "transverse_sign")
        for field, value in (("tb", tb), ("rot", rot), ("sl", sl), ("transverse_sign", transverse_sign)):
            if (value is None) == (field in own):
                verb = "needs" if value is None else "cannot carry"
                raise ValueError(f"knot {name!r}: a {kind} knot {verb} {field}")
        if kind == TRANSVERSE and transverse_sign not in (1, -1):
            raise ValueError(f"knot {name!r}: transverse sign must be +1 or -1, got {transverse_sign!r}")
        return super().__new__(cls, name, kind, tuple(lk), tb, rot, sl, transverse_sign)

    @property
    def is_legendrian(self) -> bool:
        return self.kind == LEGENDRIAN


_SurgeryDiagram = NamedTuple("_SurgeryDiagram", [
    ("components", tuple[LegendrianComponent, ...]), ("linking", tuple[tuple[int, ...], ...]),
    ("knots", tuple[CompanionKnot, ...])])


class SurgeryDiagram(_SurgeryDiagram):
    """An oriented Legendrian surgery link with companion knots.

    `linking` is the full k x k matrix of pairwise linking numbers with
    zero diagonal; framing information lives exclusively in the tb of each
    component, never on the diagonal.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))

    def __new__(cls, components, linking, knots=()) -> SurgeryDiagram:
        return super().__new__(cls, tuple(components), tuple(tuple(row) for row in linking),
                               tuple(knots))

    @property
    def k(self) -> int:
        return len(self.components)

    def knot(self, name: str) -> CompanionKnot:
        for knot in self.knots:
            if knot.name == name:
                return knot
        raise KeyError(f"no companion knot named {name!r}")


class Diagnostic(NamedTuple):
    severity: str  # "error" or "warning"
    message: str


def _parity_check(name: str, tb: int, rot: int, out: list[Diagnostic]) -> None:
    # Every Legendrian knot in the standard 3-sphere has tb+rot odd; treat
    # violations as warnings so hypothetical data stays usable.
    if (tb + rot) % 2 == 0:
        out.append(Diagnostic("warning", f"{name}: tb+rot even (tb={tb}, rot={rot})"))


def validate(diagram: SurgeryDiagram) -> list[Diagnostic]:
    """Check a diagram against the rules that span its records.

    Returns an empty list iff the diagram is fully consistent.  Structural
    problems (duplicate names, a linking matrix that is not square,
    symmetric and zero on the diagonal, an lk vector of the wrong length)
    are errors; tb+rot parity violations are warnings.
    """
    out: list[Diagnostic] = []
    k = diagram.k

    names = [c.name for c in diagram.components] + [w.name for w in diagram.knots]
    seen = set()
    for name in names:
        if name in seen:
            out.append(Diagnostic("error", f"duplicate name {name!r}"))
        seen.add(name)

    if len(diagram.linking) != k or any(len(row) != k for row in diagram.linking):
        out.append(Diagnostic("error", f"linking matrix must be {k}x{k}"))
    else:
        for i in range(k):
            if diagram.linking[i][i] != 0:
                out.append(Diagnostic("error", f"linking matrix diagonal must be zero (entry ({i},{i}))"))
            for j in range(i + 1, k):
                if diagram.linking[i][j] != diagram.linking[j][i]:
                    out.append(Diagnostic(
                        "error", f"linking matrix not symmetric (entries ({i},{j}) and ({j},{i}))"))

    for c in diagram.components:
        _parity_check(c.name, c.tb, c.rot, out)

    for w in diagram.knots:
        if len(w.lk) != k:
            out.append(Diagnostic("error", f"{w.name}: lk vector has length {len(w.lk)}, expected {k}"))
        if w.is_legendrian:
            _parity_check(w.name, w.tb, w.rot, out)

    return out


def topological_coefficient(component: LegendrianComponent) -> tuple[int, int]:
    """Topological surgery slope (p, q) of a component, normalized to q > 0.

    The topological coefficient is the contact coefficient plus tb, so for
    a contact coefficient s/m the slope is p/q = (m*tb + s)/m.  The result
    is always reduced: p is congruent to +-1 mod m, hence coprime to q.
    """
    m = component.coeff.magnitude
    p = m * component.tb + component.coeff.sign
    return p, m
