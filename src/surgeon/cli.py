"""Command-line interface and file formats.

Diagram files are JSON documents:

    {
      "components": [{"name": "L1", "tb": -1, "rot": 0, "coeff": "+1"}, ...],
      "linking": [[0, 1], [1, 0]],
      "knots": [
        {"name": "K", "kind": "legendrian", "tb": -1, "rot": 0, "lk": [1, 1]},
        {"name": "T", "kind": "transverse", "sl": -1, "sign": "positive", "lk": [-1, 0]}
      ]
    }

Unknown keys are rejected.  Coefficients are the strings "+1", "-1",
"+1/m" or "-1/m".  Reports are JSON with deterministic key order; every
rational value is serialized as an exact "p/q" string (plain "p" when the
denominator is 1), never as a decimal.

Exit codes: 0 success, 1 user error (parse or validation failure, unknown
knot, bad flags) or a standard output closed before the report was
written (as by `| head`), 2 internal error.  Set SURGEON_COLOR=1/0 to force
colored diagnostics on or off; the default follows whether stderr is a
terminal.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Optional

from . import d3, fronts, invariants, surgery
from .diagrams import (
    LEGENDRIAN,
    TRANSVERSE,
    TRANSVERSE_SIGNS,
    CompanionKnot,
    ContactCoefficient,
    Diagnostic,
    LegendrianComponent,
    SurgeryDiagram,
    validate,
)


class UserError(Exception):
    """Invalid input; reported without a traceback, exit code 1."""


# ---------------------------------------------------------------------------
# serialization

def _require_int(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise UserError(f"{where}: expected an integer, got {value!r}")
    return value


def _require_str(value, where: str) -> str:
    if not isinstance(value, str):
        raise UserError(f"{where}: expected a string, got {value!r}")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate from an escape such as "\ud800"
        raise UserError(f"{where}: {value!r} is not Unicode text (it holds a lone surrogate)") from None
    return value


def _check_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise UserError(f"{where}: unknown key(s) {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise UserError(f"{where}: missing key(s) {sorted(missing)}")


def _int_vector(value, where: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise UserError(f"{where}: expected a list of integers")
    if all(type(x) is int for x in value):  # format entry locations only for an error
        return tuple(value)
    return tuple(_require_int(x, f"{where}[{i}]") for i, x in enumerate(value))


# The keys of a companion knot beyond name, kind and lk, per kind.
_KNOT_KEYS = {LEGENDRIAN: ("tb", "rot"), TRANSVERSE: ("sl", "sign")}


def diagram_from_dict(data: Any) -> SurgeryDiagram:
    if not isinstance(data, dict):
        raise UserError("diagram file must contain a JSON object")
    _check_keys(data, {"components", "linking", "knots"}, {"components", "linking"}, "diagram")
    if not isinstance(data["components"], list):
        raise UserError("'components' must be a list")

    components = []
    for i, raw in enumerate(data["components"]):
        where = f"components[{i}]"
        if not isinstance(raw, dict):
            raise UserError(f"{where}: expected an object")
        _check_keys(raw, {"name", "tb", "rot", "coeff"}, {"name", "tb", "rot", "coeff"}, where)
        try:
            coeff = ContactCoefficient.parse(_require_str(raw["coeff"], f"{where}.coeff"))
        except ValueError as exc:
            raise UserError(f"{where}.coeff: {exc}") from exc
        components.append(LegendrianComponent(
            _require_str(raw["name"], f"{where}.name"),
            _require_int(raw["tb"], f"{where}.tb"),
            _require_int(raw["rot"], f"{where}.rot"),
            coeff))

    if not isinstance(data["linking"], list) or any(not isinstance(r, list) for r in data["linking"]):
        raise UserError("'linking' must be a list of integer rows")
    linking = tuple(_int_vector(row, f"linking[{i}]") for i, row in enumerate(data["linking"]))

    raw_knots = data.get("knots", [])
    if not isinstance(raw_knots, list):
        raise UserError("'knots' must be a list")
    knots = []
    for i, raw in enumerate(raw_knots):
        where = f"knots[{i}]"
        if not isinstance(raw, dict):
            raise UserError(f"{where}: expected an object")
        kind = _require_str(raw.get("kind", ""), f"{where}.kind")
        if kind not in _KNOT_KEYS:
            raise UserError(f"{where}.kind: expected 'legendrian' or 'transverse', got {kind!r}")
        keys = {"name", "kind", "lk", *_KNOT_KEYS[kind]}
        _check_keys(raw, keys, keys, where)
        sign = None
        if kind == TRANSVERSE:
            sign = _require_str(raw["sign"], f"{where}.sign")
            if sign not in TRANSVERSE_SIGNS:
                raise UserError(f"{where}.sign: expected 'positive' or 'negative', got {sign!r}")
        name = _require_str(raw["name"], f"{where}.name")
        lk = _int_vector(raw["lk"], f"{where}.lk")
        numbers = {key: _require_int(raw[key], f"{where}.{key}") for key in _KNOT_KEYS[kind] if key != "sign"}
        knots.append(CompanionKnot(name, kind, lk, transverse_sign=TRANSVERSE_SIGNS.get(sign), **numbers))

    return SurgeryDiagram(tuple(components), linking, tuple(knots))


def diagram_to_dict(diagram: SurgeryDiagram) -> dict:
    data: dict[str, Any] = {
        "components": [
            {"name": c.name, "tb": c.tb, "rot": c.rot, "coeff": str(c.coeff)}
            for c in diagram.components
        ],
        "linking": [list(row) for row in diagram.linking],
    }
    knots = []
    for w in diagram.knots:
        if w.is_legendrian:
            knots.append({"name": w.name, "kind": w.kind, "tb": w.tb, "rot": w.rot,
                          "lk": list(w.lk)})
        else:
            sign = next(word for word, s in TRANSVERSE_SIGNS.items() if s == w.transverse_sign)
            knots.append({"name": w.name, "kind": w.kind, "sl": w.sl, "sign": sign,
                          "lk": list(w.lk)})
    if knots:
        data["knots"] = knots
    return data


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UserError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise UserError(f"{path}: not UTF-8 text: byte 0x{exc.object[exc.start]:02x} "
                        f"at offset {exc.start}") from exc


def load_diagram(path: str) -> SurgeryDiagram:
    text = _read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UserError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:
        # An integer literal longer than the interpreter's int_max_str_digits.
        raise UserError(f"{path}: an integer has more than {sys.get_int_max_str_digits()} digits, "
                        "the limit for reading integers") from exc
    except RecursionError as exc:
        # The decoder recurses once per nested array or object.
        raise UserError(f"{path}: arrays or objects nest deeper than the reader's limit of about "
                        f"{sys.getrecursionlimit()} levels") from exc
    try:
        return diagram_from_dict(data)
    except UserError as exc:
        raise UserError(f"{path}: {exc}") from exc


def invariant_report_dict(report: invariants.InvariantReport) -> dict:
    if report.order is None:
        dependence: Any = None
    elif report.unique_class:
        dependence = "unique"
    else:
        dependence = [
            {"kernel_vector": list(v), "rot_shift": str(shift)}
            for v, shift in report.seifert_shifts
        ]
    return {
        "knot": report.knot,
        "kind": report.kind,
        "order": "not rationally nullhomologous" if report.order is None else report.order,
        "solution": None if report.solution is None else list(report.solution),
        "tb": None if report.tb is None else str(report.tb),
        "rot": None if report.rot is None else str(report.rot),
        "sl": None if report.sl is None else str(report.sl),
        "seifert_dependence": dependence,
    }


def d3_report_dict(diagram: SurgeryDiagram) -> dict:
    report = d3.d3_report(diagram)
    # The central cross-check: the closed form again on the +-1 expansion,
    # where it is the classical formula.  A +-1 diagram expands to itself, so
    # there the check cannot be independent and its closed form is reused.
    try:
        expanded = surgery.expand_to_pm1(diagram)
    except ValueError as exc:  # over surgery.EXPANSION_LIMIT
        via_expansion = f"skipped: {exc}"
    else:
        cross = report.d3 if expanded is diagram else d3.d3_report(expanded).d3
        via_expansion = "undefined" if cross is None else str(cross)
    return {
        "euler_class": list(report.coefficients),
        "torsion": report.torsion,
        "b": None if report.b is None else [str(x) for x in report.b],
        "d3_closed_form": "undefined" if report.d3 is None else str(report.d3),
        "d3_via_expansion": via_expansion,
        "homology": {
            "invariant_factors": list(report.homology.invariant_factors),
            "free_rank": report.homology.free_rank,
        },
    }


# ---------------------------------------------------------------------------
# output helpers

def _color_enabled() -> bool:
    env = os.environ.get("SURGEON_COLOR")
    if env == "1":
        return True
    if env == "0":
        return False
    return sys.stderr.isatty()


def _paint(text: str, code: str) -> str:
    return f"\x1b[{code}m{text}\x1b[0m" if _color_enabled() else text


def print_diagnostics(diagnostics: list[Diagnostic], path: str) -> None:
    for d in diagnostics:
        tag = _paint(d.severity, "31" if d.severity == "error" else "33")
        print(f"{path}: {tag}: {d.message}", file=sys.stderr)


def _emit(data: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(data, indent=2))
    else:
        _emit_text(data)


def _emit_text(data: dict, indent: str = "") -> None:
    for key, value in data.items():
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _emit_text(value, indent + "  ")
        else:
            print(f"{indent}{key}: {value}")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_check(args) -> int:
    diagram = load_diagram(args.file)
    diagnostics = validate(diagram)
    print_diagnostics(diagnostics, args.file)
    errors = sum(1 for d in diagnostics if d.severity == "error")
    warnings = len(diagnostics) - errors
    if errors:
        print(f"{args.file}: {errors} error(s), {warnings} warning(s)", file=sys.stderr)
        return 1
    print(f"{args.file}: ok ({warnings} warning(s))" if warnings else f"{args.file}: ok")
    return 0


def _checked_diagram(path: str) -> SurgeryDiagram:
    diagram = load_diagram(path)
    diagnostics = validate(diagram)
    errors = [d for d in diagnostics if d.severity == "error"]
    if errors:
        print_diagnostics(diagnostics, path)
        raise UserError(f"{path}: diagram is invalid")
    return diagram


def _cmd_invariants(args) -> int:
    diagram = _checked_diagram(args.file)
    name = args.knot
    if name is None:
        if len(diagram.knots) != 1:
            raise UserError(
                "--knot is required when the file does not contain exactly one companion knot")
        name = diagram.knots[0].name
    try:
        report = invariants.invariant_report(diagram, name)
    except KeyError:
        known = ", ".join(w.name for w in diagram.knots) or "none"
        raise UserError(f"unknown knot {name!r} (knots in file: {known})") from None
    _emit(invariant_report_dict(report), args.format)
    return 0


def _cmd_d3(args) -> int:
    diagram = _checked_diagram(args.file)
    _emit(d3_report_dict(diagram), args.format)
    return 0


def _diagram_json(data: dict) -> str:
    """A diagram dict as JSON text with one component, linking row or knot
    per line."""
    blocks = []
    for key, items in data.items():
        lines = ",\n".join(f"    {json.dumps(item)}" for item in items)
        blocks.append(f"  {json.dumps(key)}: " + (f"[\n{lines}\n  ]" if items else "[]"))
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def _write_diagram(diagram: SurgeryDiagram, path: str, described: str) -> None:
    """Write a diagram file that `check` accepts, or raise UserError naming
    the errors (`described` names the diagram) or the failed write."""
    errors = [d.message for d in validate(diagram) if d.severity == "error"]
    if errors:
        raise UserError(f"{described} would be invalid: {'; '.join(errors)}")
    payload = _diagram_json(diagram_to_dict(diagram))
    try:
        Path(path).write_text(payload, encoding="utf-8")
    except OSError as exc:
        raise UserError(f"{path}: {exc.strerror or exc}") from exc


def _cmd_expand(args) -> int:
    diagram = _checked_diagram(args.file)
    try:
        expanded = surgery.expand_to_pm1(diagram)
    except ValueError as exc:
        raise UserError(f"{args.file}: {exc}") from exc
    # A copy "X.j" may take the name of a companion knot.
    _write_diagram(expanded, args.out, f"{args.file}: the expanded diagram")
    return 0


def _cmd_front(args) -> int:
    try:
        doc = fronts.parse_front(_read_text(args.file))
        inv = fronts.classical_invariants(doc)
        diagram = fronts.to_diagram(doc, inv) if args.emit_diagram else None
    except fronts.FrontError as exc:
        raise UserError(f"{args.file}: {exc}") from exc
    if args.emit_diagram:
        # Before the table, so that a refused diagram (a companion may take
        # the name of a surgery component) prints nothing.
        _write_diagram(diagram, args.emit_diagram, f"{args.file}: the emitted diagram")

    if args.format == "json":
        data = {
            "components": [{"name": name, "tb": tb, "rot": rot}
                           for name, tb, rot in zip(inv.names, inv.tb, inv.rot)],
            "linking": [list(row) for row in inv.linking],
        }
        print(json.dumps(data, indent=2))
    else:
        width = max([len("component")] + [len(n) for n in inv.names])
        print(f"{'component':<{width + 2}}{'tb':>5}{'rot':>5}")
        for name, tb, rot in zip(inv.names, inv.tb, inv.rot):
            print(f"{name:<{width + 2}}{tb:>5}{rot:>5}")
        if len(inv.names) > 1:
            print("linking:")
            for row in inv.linking:
                print("  " + " ".join(f"{x:>3}" for x in row))
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as a UserError (exit 1) after the usage line;
    subparsers are built from the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UserError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="surgeon",
        description="Classical invariants of knots and contact structures "
                    "in contact (+-1/n)-surgery diagrams.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and validate a diagram file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("invariants", help="invariants of a companion knot in the surgered manifold")
    p.add_argument("file")
    p.add_argument("--knot", help="name of the companion knot (optional when the file has exactly "
                   "one); write --knot=NAME for a name that starts with '-'")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("d3", help="Euler class, torsion test, homology and d3-invariant")
    p.add_argument("file")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_d3)

    p = sub.add_parser("expand", help="rewrite 1/m coefficients as m push-off copies with coefficient 1")
    p.add_argument("file")
    p.add_argument("out")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("front", help="evaluate a front projection file")
    p.add_argument("file")
    p.add_argument("--emit-diagram", metavar="PATH", help="also write the assembled diagram file")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_front)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UserError as exc:
        print(f"{_paint('error', '31')}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader closed stdout, as `| head` does
        try:
            fd = sys.stdout.fileno()
        except OSError:  # an in-process stdout such as StringIO has no descriptor
            return 1
        with open(os.devnull, "wb") as devnull:  # so that the flush at shutdown stays quiet
            os.dup2(devnull.fileno(), fd)
        return 1
    except Exception as exc:  # noqa: BLE001 - last-resort guard for exit code 2
        print(f"{_paint('internal error', '31')}: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
