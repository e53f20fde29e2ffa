"""Correctness checks of one round's outputs against refs.py.

Each check function takes the round's outputs (operation name -> result)
and returns a list of failure messages; an empty list means every output
holds.  Operations that failed (rc != 0) are counted by run.py, not here.
"""

from __future__ import annotations

import math

import refs

REL = 1e-12


def _rows(outputs: dict, name: str, expected: int, bad: list[str],
          key: str = "rows") -> list[dict]:
    """The operation's rows; a wrong count is a failure unless the operation
    itself failed."""
    rows = outputs[name].get(key, [])
    if outputs[name]["rc"] == 0 and len(rows) != expected:
        bad.append(f"{name}: {len(rows)} {key}, expected {expected}")
    return rows


def _value(row: dict) -> float:
    return float(row["value"])


def sup_sup(outputs: dict, certificates: dict[float, float]) -> list[str]:
    bad = []
    for row in _rows(outputs, "disk", 2, bad):
        a, v = float(row["a"]), _value(row)
        if not 0 < v <= certificates.get(a, -math.inf):
            bad.append(f"disk a={a:g}: {v!r} not in (0, LP certificate "
                       f"{certificates.get(a)!r}]")
    for row in _rows(outputs, "segment", 2, bad):
        a, v = float(row["a"]), _value(row)
        if not 0 < v <= math.floor(a) / a:
            bad.append(f"segment a={a:g}: {v!r} not in (0, floor(a)/a]")
    return bad


def lower_bound_disk_a8(outputs: dict) -> float | None:
    for row in outputs["disk"].get("rows", []):
        if float(row["a"]) == 8.0:
            return _value(row)
    return None


def l1_sup_square(outputs: dict) -> list[str]:
    bad = []
    for row in _rows(outputs, "square", 2, bad):
        a, v = float(row["a"]), _value(row)
        if not 0 < v <= refs.dirichlet_l1_sup(a, 2):
            bad.append(f"square a={a:g}: {v!r} not in (0, Dirichlet bound "
                       f"{refs.dirichlet_l1_sup(a, 2)!r}]")
    return bad


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL * abs(want)


def closed_and_continuum(outputs: dict) -> list[str]:
    bad = []
    sweeps = [("converge_disk", 25, lambda a: refs.laplacian_p2_inf(a, 2),
               refs.E_DISK),
              ("converge_ball3", 12, lambda a: refs.laplacian_p2_inf(a, 3),
               refs.E_BALL3),
              ("converge_l3", 12, refs.mixed_p22_l3, None)]
    for name, count, reference, e_value in sweeps:
        for row in _rows(outputs, name, count, bad):
            a, v = float(row["a"]), _value(row)
            if not _close(v, reference(a)):
                bad.append(f"{name} a={a!r}: {v!r}, exact enumeration gives "
                           f"{reference(a)!r}")
        got_e = outputs[name].get("manifest", {}).get("reference_E")
        if e_value is not None and outputs[name]["rc"] == 0 and (
                got_e is None or not _close(got_e, e_value)):
            bad.append(f"{name}: reference_E {got_e!r}, expected {e_value!r}")
    last = outputs["converge_disk"].get("rows", [])[-1:]
    if outputs["converge_disk"]["rc"] == 0 and not (
            last and float(last[0]["a"]) == 400.0 and
            abs(_value(last[0]) - refs.E_DISK) <= 1e-3 * refs.E_DISK):
        bad.append(f"converge_disk: the a = 400 row {last} is not within "
                   f"0.1 % of E = {refs.E_DISK!r}")

    for row in _rows(outputs, "levitan", 18, bad):
        prop = row["property"]
        bound, observed, slack = (float(row[k]) for k in
                                  ("bound", "observed", "slack"))
        ok = (observed <= bound if prop == "spectrum" else
              slack >= 0 if prop == "pointwise-bound" else slack >= -bound)
        if not ok:
            bad.append(f"levitan a={row['a']} {prop}: bound={bound!r} "
                       f"observed={observed!r} slack={slack!r}")

    for row in _rows(outputs, "candidates_disk", 3, bad):
        if row["kind"] == "lower-bound-candidate":
            limit = refs.E_DISK_IDENTITY * (1.0 + float(row["tolerance"]))
            if _value(row) > limit:
                bad.append(f"disk candidate {_value(row)!r} above "
                           f"sqrt(pi)/(2 pi) (1 + tolerance) = {limit!r}")
    for row in _rows(outputs, "candidates_box", 3, bad):
        if row["kind"] == "lower-bound-candidate" and _value(row) > 2.0:
            bad.append(f"box candidate {_value(row)!r} above sigma^alpha = 2")

    for rep in _rows(outputs, "contraction", 12, bad, "reports"):
        if not rep["passed"]:
            bad.append(f"contraction a={rep['a']} p={rep['p']} not passed")
    for point in _rows(outputs, "window_sum", 20, bad, "points"):
        if point["deviation"] > point["bound"]:
            bad.append(f"window sum |sum-1| = {point['deviation']!r} above "
                       f"its bound {point['bound']!r}")
    return bad
