"""Per-layer metrics of a traced run, derived from the span table.

Definitions (all per timed op unless the unit says otherwise):

- ``calls``: spans of the function;
- ``busy_ms``: wall time covered by its spans (nested spans of the same
  function are counted once);
- ``self_ms``: span durations minus the time covered by their child spans;
- ``p50_ms``: median duration of one call;
- ``failed``: calls that raised.

The layer-to-workload map these numbers are meant to move is in METRICS.md.
"""

from __future__ import annotations

import numpy as np

STAT_UNITS = {"calls": "count/op", "busy_ms": "ms/op", "self_ms": "ms/op",
              "p50_ms": "ms", "knots_mean": "count", "failed": "count/op",
              "bytes": "bytes/op"}

FUNCTION_STATS = (
    ("legendre.tau_of_s", ("calls", "busy_ms")),
    ("legendre.s_of_tau", ("calls", "busy_ms")),
    ("legendre.build_map", ("calls", "busy_ms", "p50_ms", "knots_mean")),
    ("geometry.metric_at", ("calls", "self_ms")),
    ("geometry.ricci_fd", ("calls", "self_ms")),
    ("geometry.einstein_residual", ("busy_ms", "self_ms")),
    ("geometry.fiber_length", ("calls", "busy_ms")),
    ("geometry.cone_angle_probe", ("busy_ms",)),
    ("geometry.fiber_volume", ("busy_ms",)),
    ("geometry.total_volume", ("busy_ms",)),
    ("quadrature.quad_checked", ("calls", "busy_ms", "failed")),
    ("profile.make_profile", ("calls", "busy_ms")),
    ("profile.ode_residual", ("calls", "busy_ms")),
    ("cohomology.kee_class", ("busy_ms",)),
    ("cohomology.proportionality_check", ("busy_ms",)),
    ("cohomology.class_volume", ("busy_ms",)),
    ("limits.collapse_entry", ("calls", "busy_ms", "self_ms")),
    ("cli.parse", ("busy_ms",)),
    ("cli.run", ("self_ms",)),
    ("cli.render", ("busy_ms", "bytes")),
    ("cli._sweep", ("busy_ms",)),
)

OTHER_UNITS = {
    "import.package_ms": "ms",
    "import.scipy_interpolate_ms": "ms",
    "geometry.metric_at.calls_per_grid_point": "count",
    "quadrature.quad_checked.failed_per_call": "ratio",
    "trace.overhead_pct": "%",
    "trace.op_ms": "ms",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name, stats in FUNCTION_STATS:
        for stat in stats:
            units[f"{name}.{stat}"] = STAT_UNITS[stat]
    units.update(OTHER_UNITS)
    return units


def _union_ms(start: np.ndarray, end: np.ndarray) -> float:
    if not len(start):
        return 0.0
    order = np.argsort(start, kind="stable")
    s, e = start[order], end[order]
    reach = np.maximum.accumulate(e)
    covered_from = np.maximum(s, np.concatenate(([-np.inf], reach[:-1])))
    return float(np.clip(e - covered_from, 0.0, None).sum()) * 1e3


def _under(spans: dict, ancestor_id: int) -> np.ndarray:
    """Mask of spans that have an ancestor with name id `ancestor_id`."""
    parent = spans["parent"]
    has_parent = parent >= 0
    mark = np.zeros(len(parent), dtype=bool)
    mark[has_parent] = spans["name_id"][parent[has_parent]] == ancestor_id
    while True:
        grown = mark.copy()
        grown[has_parent] |= mark[parent[has_parent]]
        if np.array_equal(grown, mark):
            return mark
        mark = grown


def function_stats(spans: dict, n_ops: int) -> dict[str, float]:
    """The FUNCTION_STATS metrics plus the two ratios, from one span table."""
    names = [str(x) for x in spans["names"]]
    name_id = spans["name_id"]
    start, end = spans["start"], spans["end"]
    dur = end - start
    covered = np.zeros(len(dur))
    child = spans["parent"] >= 0
    np.add.at(covered, spans["parent"][child], dur[child])
    self_time = dur - covered
    ops = max(n_ops, 1)
    ids = {name: i for i, name in enumerate(names)}
    out = {}
    for name, stats in FUNCTION_STATS:
        sel = name_id == ids.get(name, -1)
        payload = spans["payload"][sel]
        for stat in stats:
            if stat == "calls":
                value = int(sel.sum()) / ops
            elif stat == "busy_ms":
                value = _union_ms(start[sel], end[sel]) / ops
            elif stat == "self_ms":
                value = float(self_time[sel].sum()) * 1e3 / ops
            elif stat == "p50_ms":
                value = float(np.median(dur[sel])) * 1e3 if sel.any() else 0.0
            elif stat == "knots_mean":          # -1 marks a map without a ladder
                value = float(payload[payload >= 0].mean()) if (payload >= 0).any() else 0.0
            elif stat == "failed":
                value = int(spans["raised"][sel].sum()) / ops
            else:                               # bytes
                value = float(payload.clip(0).sum()) / ops
            out[f"{name}.{stat}"] = value
    quad_calls = out["quadrature.quad_checked.calls"]
    out["quadrature.quad_checked.failed_per_call"] = (
        out["quadrature.quad_checked.failed"] / quad_calls if quad_calls else 0.0)
    per_point = 0.0
    if "geometry.einstein_residual" in ids:
        er = ids["geometry.einstein_residual"]
        points = int(spans["payload"][name_id == er].clip(0).sum())
        inside = _under(spans, er) & (name_id == ids.get("geometry.metric_at", -1))
        per_point = int(inside.sum()) / points if points else 0.0
    out["geometry.metric_at.calls_per_grid_point"] = per_point
    return out
