"""Exact checks of surgeon's reports, written without the library code.

Every check works from the generated input itself: it rebuilds the
relation matrix Q, eliminates with its own sparse fraction-free
(Bareiss) and rational routines, and recomputes each reported quantity
from the reported solution vectors.  A check returns None when the
report is right and a one-line reason when it is not.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod


def parse_coeff(text: str) -> tuple[int, int]:
    """(sign, magnitude) of a coefficient string "+1", "-1", "+1/m" or "-1/m"."""
    sign = 1 if text[0] == "+" else -1
    return sign, int(text.split("/")[1]) if "/" in text else 1


def relation_matrix(diagram: dict) -> tuple[list[list[int]], list[int], list[int]]:
    """Q with Q_ii = m_i tb_i + s_i and Q_ij = m_j lk_ij, the magnitudes
    m_i and the rotation numbers rot_i of a diagram dict."""
    comps = diagram["components"]
    coeffs = [parse_coeff(c["coeff"]) for c in comps]
    mags = [m for _, m in coeffs]
    k = len(comps)
    q = [[mags[i] * comps[i]["tb"] + coeffs[i][0] if i == j else mags[j] * diagram["linking"][i][j]
          for j in range(k)] for i in range(k)]
    return q, mags, [c["rot"] for c in comps]


def mat_vec(matrix, vector) -> list:
    return [sum(x * y for x, y in zip(row, vector) if x) for row in matrix]


def rank_det(matrix) -> tuple[int, int]:
    """Rank and determinant (0 unless square of full rank) by sparse Bareiss
    elimination with row pivoting; every division is exact."""
    rows = [{j: v for j, v in enumerate(row) if v} for row in matrix]
    n = len(rows)
    ncols = len(matrix[0]) if n else 0
    prev, sign, r = 1, 1, 0
    for c in range(ncols):
        piv = next((i for i in range(r, n) if rows[i].get(c)), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        prow = rows[r]
        p = prow[c]
        for i in range(r + 1, n):
            row = rows[i]
            f = row.get(c, 0)
            new = {}
            for j in row.keys() | prow.keys() if f else row.keys():
                q, rem = divmod(row.get(j, 0) * p - f * prow.get(j, 0), prev)
                if rem:
                    raise ArithmeticError("inexact Bareiss division")
                if q:
                    new[j] = q
            rows[i] = new
        prev = p
        r += 1
    det = sign * prev if r == n == ncols else 0
    return r, det


def solve(matrix, rhs) -> list[Fraction] | None:
    """One rational solution of matrix * x = rhs (free unknowns set to 0),
    or None when the system is inconsistent."""
    rows = [({j: Fraction(v) for j, v in enumerate(row) if v}, Fraction(b))
            for row, b in zip(matrix, rhs)]
    ncols = len(matrix[0]) if matrix else 0
    pivots = []
    for c in range(ncols):
        piv = next((i for i, (row, _) in enumerate(rows) if c in row), None)
        if piv is None:
            continue
        prow, pb = rows.pop(piv)
        for i, (row, b) in enumerate(rows):
            f = row.get(c)
            if f is None:
                continue
            f /= prow[c]
            for j, v in prow.items():
                x = row.get(j, 0) - f * v
                if x:
                    row[j] = x
                else:
                    row.pop(j, None)
            rows[i] = (row, b - f * pb)
        pivots.append((c, prow, pb))
    if any(b for _, b in rows):
        return None
    x = [Fraction(0)] * ncols
    for c, prow, pb in reversed(pivots):
        x[c] = (pb - sum(v * x[j] for j, v in prow.items() if j != c)) / prow[c]
    return x


def check_invariants(diagram: dict, name: str, report: dict) -> str | None:
    """Check an `invariants` report for companion `name` of `diagram`."""
    q, mags, rots = relation_matrix(diagram)
    k = len(q)
    knot = next(w for w in diagram.get("knots", []) if w["name"] == name)
    lk = knot["lk"]
    if report.get("knot") != name or report.get("kind") != knot["kind"]:
        return "knot name or kind differs from the input"
    x = solve(q, lk)
    if report["order"] == "not rationally nullhomologous":
        if x is not None:
            return "lk has a rational preimage but the knot is reported not nullhomologous"
        if any(report[f] is not None for f in ("solution", "tb", "rot", "sl", "seifert_dependence")):
            return "non-nullhomologous report carries values"
        return None
    if x is None:
        return "an order is reported but lk has no rational preimage"
    d, a = report["order"], report["solution"]
    if not isinstance(d, int) or d < 1 or len(a) != k:
        return "malformed order or solution"
    if mat_vec(q, a) != [d * v for v in lk]:
        return "Q·a != d·l"
    rank, _ = rank_det(q)
    if rank == k and d != lcm(*(v.denominator for v in x)):
        return "order is not minimal"

    def pairing(weights) -> Fraction:
        return Fraction(sum(ai * mi * wi for ai, mi, wi in zip(a, mags, weights)), d)

    if knot["kind"] == "legendrian":
        expected = {"tb": knot["tb"] - pairing(lk), "rot": knot["rot"] - pairing(rots), "sl": None}
    else:
        t = 1 if knot["sign"] == "positive" else -1
        expected = {"tb": None, "rot": None,
                    "sl": knot["sl"] - pairing([li - t * ri for li, ri in zip(lk, rots)])}
    for field, value in expected.items():
        got = report[field]
        if (value is None) != (got is None) or (value is not None and Fraction(got) != value):
            return f"{field} differs from the value recomputed from a"

    dependence = report["seifert_dependence"]
    if rank == k:
        return None if dependence == "unique" else "Q is injective but the class is reported non-unique"
    if not isinstance(dependence, list) or len(dependence) != k - rank:
        return "kernel basis size differs from k - rank Q"
    basis = [entry["kernel_vector"] for entry in dependence]
    if rank_det(basis)[0] != k - rank:
        return "kernel vectors are dependent"
    for entry, v in zip(dependence, basis):
        if len(v) != k or any(mat_vec(q, v)):
            return "kernel vector is not in ker Q"
        if Fraction(entry["rot_shift"]) != Fraction(sum(vi * mi * ri for vi, mi, ri in zip(v, mags, rots)), d):
            return "rot_shift differs from (1/d) Σ v_i m_i rot_i"
    return None


def check_d3(diagram: dict, report: dict) -> str | None:
    """Check a `d3` report of `diagram`."""
    q, mags, rots = relation_matrix(diagram)
    k = len(q)
    if report["euler_class"] != [m * r for m, r in zip(mags, rots)]:
        return "euler_class != (m_i rot_i)"
    torsion = solve(q, rots) is not None
    if report["torsion"] is not torsion:
        return "torsion flag differs from the solvability of Q·b = rot"
    if torsion:
        b = [Fraction(s) for s in report["b"]]
        if len(b) != k or mat_vec(q, b) != rots:
            return "Q·b != rot"
        if report["d3_closed_form"] == "undefined" or report["d3_closed_form"] != report["d3_via_expansion"]:
            return "d3_closed_form != d3_via_expansion"
    elif report["b"] is not None or report["d3_closed_form"] != "undefined" \
            or report["d3_via_expansion"] != "undefined":
        return "non-torsion report carries a d3 value"
    rank, det = rank_det(q)
    factors = report["homology"]["invariant_factors"]
    if report["homology"]["free_rank"] != k - rank:
        return "free rank != k - rank Q"
    if any(f < 2 for f in factors) or any(b % a for a, b in zip(factors, factors[1:])):
        return "invariant factors are not a divisibility chain of integers > 1"
    if rank == k and prod(factors) != abs(det):
        return "product of invariant factors != |det Q|"
    return None


def expected_expansion(diagram: dict) -> dict:
    """The documented ±1 expansion: m push-off copies "X.j" per component,
    copies of one component linked tb times, companion lk repeated per copy."""
    comps = diagram["components"]
    if all(parse_coeff(c["coeff"])[1] == 1 for c in comps):
        return diagram
    origin, out = [], []
    for i, c in enumerate(comps):
        sign, m = parse_coeff(c["coeff"])
        for j in range(m):
            out.append({"name": f"{c['name']}.{j + 1}", "tb": c["tb"], "rot": c["rot"],
                        "coeff": "+1" if sign > 0 else "-1"})
            origin.append(i)
    n = len(out)
    linking = [[0 if a == b else comps[origin[a]]["tb"] if origin[a] == origin[b]
                else diagram["linking"][origin[a]][origin[b]] for b in range(n)] for a in range(n)]
    result = {"components": out, "linking": linking}
    if diagram.get("knots"):
        result["knots"] = [dict(w, lk=[w["lk"][origin[a]] for a in range(n)]) for w in diagram["knots"]]
    return result


def check_diagnostics(diagram: dict) -> tuple[int, int]:
    """(errors, warnings) that `check` must report: structural errors, and
    tb+rot parity warnings for components and Legendrian companions."""
    comps, knots = diagram["components"], diagram.get("knots", [])
    k = len(comps)
    names = [c["name"] for c in comps] + [w["name"] for w in knots]
    lk = diagram["linking"]
    errors = len(names) - len(set(names))
    if len(lk) != k or any(len(row) != k for row in lk):
        errors += 1
    else:
        errors += sum(1 for i in range(k) if lk[i][i]) + sum(
            1 for i in range(k) for j in range(i + 1, k) if lk[i][j] != lk[j][i])
    errors += sum(1 for w in knots if len(w["lk"]) != k)
    legendrian = comps + [w for w in knots if w["kind"] == "legendrian"]
    warnings = sum(1 for x in legendrian if (x["tb"] + x["rot"]) % 2 == 0)
    return errors, warnings


def parse_front_table(text: str) -> tuple[dict[str, tuple[int, int]], list[list[int]]]:
    """Components {name: (tb, rot)} and the linking rows of `front`'s text table."""
    lines = text.splitlines()
    if not lines or lines[0].split() != ["component", "tb", "rot"]:
        raise ValueError("missing table header")
    comps, linking, i = {}, [], 1
    while i < len(lines) and lines[i] != "linking:":
        name, tb, rot = lines[i].split()
        comps[name] = (int(tb), int(rot))
        i += 1
    linking = [[int(x) for x in line.split()] for line in lines[i + 1:]]
    if not linking:
        linking = [[0]]
    return comps, linking
