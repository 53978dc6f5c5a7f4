"""Command-line front end.

Subcommands: solve, scan, verify, fiber, classes, limit.  Reports are flat
key-value rows, emitted as JSON ({"meta": ..., "rows": [...]}) or CSV with a
header row, every float serialized with 17 significant digits so that
parsing the report reproduces the computed doubles exactly.  Output is byte
deterministic: rows are sorted by (n, beta1), key order is fixed, and sweep
concurrency (capped by the KEE_THREADS environment variable) never reorders
results.  Exit codes: 0 success, 1 a verification residual exceeded its
threshold (or a numeric error was reported), 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import cohomology, geometry, limits
from .errors import KeeError, UsageError
from .legendre import build_map, tau_of_s
from .profile import (BETA1_CONSTRAINT, EinsteinProfile, _validate_n_beta1,
                      eval_phi, eval_phi_prime, make_profile, ode_residual)
from .quadrature import QuadratureConfig

ODE_THRESHOLD = 1e-12
DET_THRESHOLD = 1e-12
EINSTEIN_THRESHOLD = 1e-5
PROPORTIONALITY_THRESHOLD = 1e-12
VOLUME_MATCH_THRESHOLD = 1e-9
ANGLE_THRESHOLD = 1e-3          # fraction of the 2 pi beta target
FIBER_AREA_THRESHOLD = 1e-10    # relative, quadrature vs 2 pi (alpha2 - 1)
# two converged Gauss-Legendre sums agree only to their rounding, a few ulps
# of the integral, so a relative target under 50 eps would fail on rounding
# alone
MIN_QUAD_TOL = 50.0 * sys.float_info.epsilon


@dataclass
class RunConfig:
    command: str
    n: int
    beta1: float | None = None
    beta1_list: tuple[float, ...] | None = None
    beta1_min: float | None = None
    beta1_max: float | None = None
    count: int | None = None
    log_grid: bool = True
    emit_profile: int | None = None
    grid: int = 5
    fd_step: float = 1e-3
    quad_tol: float = 1e-10
    s_hull: float = 40.0
    probe_distance: float = 1e-6
    output_format: str = "json"
    output_path: str | None = None


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_output_flags(sp):
    sp.add_argument("--format", choices=("json", "csv"), default=None,
                    help="report format (default json)")
    sp.add_argument("--out", default=None, metavar="FMT_OR_PATH",
                    help="either a format name (json/csv) or an output file path")


def _build_parser() -> _Parser:
    parser = _Parser(prog="kee", description="Kahler-Einstein edge metrics on Hirzebruch surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="profile data for one (n, beta1)")
    solve.add_argument("--n", type=int, required=True)
    solve.add_argument("--beta1", type=float, required=True)
    solve.add_argument("--emit-profile", type=int, default=None, metavar="N",
                       help="append N equispaced (tau, phi, phi') samples")
    _add_output_flags(solve)

    scan = sub.add_parser("scan", help="sweep beta1 over a grid")
    scan.add_argument("--n", type=int, required=True)
    scan.add_argument("--beta1-min", type=float, required=True)
    scan.add_argument("--beta1-max", type=float, required=True)
    scan.add_argument("--count", type=int, required=True)
    scan.add_argument("--linear", action="store_true",
                      help="linear beta1 grid (default is logarithmic)")
    _add_output_flags(scan)

    verify = sub.add_parser("verify", help="ODE, determinant, and Einstein residuals")
    verify.add_argument("--n", type=int, required=True)
    verify.add_argument("--beta1", type=float, required=True)
    verify.add_argument("--grid", type=int, default=5,
                        help="G: Einstein residual sweeps a GxGx3 chart grid")
    verify.add_argument("--fd-step", type=float, default=1e-3)
    verify.add_argument("--s-hull", type=float, default=40.0)
    _add_output_flags(verify)

    fiber = sub.add_parser("fiber", help="fiber lengths, cone angle probes, volumes")
    fiber.add_argument("--n", type=int, required=True)
    fiber.add_argument("--beta1", type=float, required=True)
    fiber.add_argument("--probe-distance", type=float, default=1e-6)
    fiber.add_argument("--quad-tol", type=float, default=1e-10)
    _add_output_flags(fiber)

    classes = sub.add_parser("classes", help="cohomology of the Einstein class")
    classes.add_argument("--n", type=int, required=True)
    classes.add_argument("--beta1", type=float, required=True)
    classes.add_argument("--quad-tol", type=float, default=1e-10)
    _add_output_flags(classes)

    limit = sub.add_parser("limit", help="small-angle collapse diagnostics")
    limit.add_argument("--n", type=int, required=True)
    limit.add_argument("--beta1-seq", required=True, metavar="B1,B2,...",
                       help="strictly decreasing beta1 ladder")
    limit.add_argument("--s-hull", type=float, default=40.0)
    _add_output_flags(limit)

    return parser


def _resolve_output(ns) -> tuple[str, str | None]:
    fmt, path = ns.format, None
    if ns.out is not None:
        if ns.out in ("json", "csv"):
            fmt = fmt or ns.out
        else:
            path = ns.out
            if fmt is None and path.lower().endswith(".csv"):
                fmt = "csv"
            elif fmt is None and path.lower().endswith(".json"):
                fmt = "json"
    return fmt or "json", path


def _check_flag(flag: str, value: float, lo: float, hi: float = math.inf,
                lo_closed: bool = False) -> float:
    """A finite flag value inside (lo, hi), or [lo, hi) when lo_closed."""
    value = float(value)
    above = value >= lo if lo_closed else value > lo
    if not (math.isfinite(value) and above and value < hi):
        span = f"{'[' if lo_closed else '('}{lo:g}, {hi:g})"
        raise UsageError(f"{flag} must be a finite value in {span}, got {value}")
    return value


def _check_beta1(n: int, beta1: float) -> float:
    try:
        _validate_n_beta1(n, beta1)
    except KeeError as exc:
        raise UsageError(str(exc)) from exc
    return float(beta1)


def parse(argv) -> RunConfig:
    """Parse an argv list into a validated RunConfig (UsageError on misuse)."""
    ns = _build_parser().parse_args(list(argv))
    fmt, path = _resolve_output(ns)
    cfg = RunConfig(command=ns.command, n=ns.n, output_format=fmt, output_path=path)
    if ns.n < 1:
        raise UsageError(f"n must be a positive integer, got {ns.n}")

    if ns.command == "solve":
        cfg.beta1 = _check_beta1(ns.n, ns.beta1)
        if ns.emit_profile is not None:
            if ns.emit_profile < 2:
                raise UsageError("--emit-profile needs N >= 2 samples")
            cfg.emit_profile = ns.emit_profile
    elif ns.command == "scan":
        lo = _check_beta1(ns.n, ns.beta1_min)
        hi = _check_beta1(ns.n, ns.beta1_max)
        if not lo <= hi:
            raise UsageError(f"need beta1-min <= beta1-max, got {lo} > {hi}")
        if ns.count < 1:
            raise UsageError(f"count must be >= 1, got {ns.count}")
        cfg.beta1_min, cfg.beta1_max, cfg.count = lo, hi, ns.count
        cfg.log_grid = not ns.linear
    elif ns.command == "verify":
        cfg.beta1 = _check_beta1(ns.n, ns.beta1)
        if ns.grid < 1:
            raise UsageError(f"grid must be >= 1, got {ns.grid}")
        cfg.grid = ns.grid
        cfg.fd_step = _check_flag("--fd-step", ns.fd_step, 0.0, 1.0)
        cfg.s_hull = _check_flag("--s-hull", ns.s_hull, 1.0, lo_closed=True)
    elif ns.command == "fiber":
        cfg.beta1 = _check_beta1(ns.n, ns.beta1)
        # the upper end depends on the profile; cone_angle_probe reports it
        cfg.probe_distance = _check_flag("--probe-distance", ns.probe_distance, 0.0)
        cfg.quad_tol = _check_flag("--quad-tol", ns.quad_tol, MIN_QUAD_TOL, 1.0, lo_closed=True)
    elif ns.command == "classes":
        cfg.beta1 = _check_beta1(ns.n, ns.beta1)
        cfg.quad_tol = _check_flag("--quad-tol", ns.quad_tol, MIN_QUAD_TOL, 1.0, lo_closed=True)
    elif ns.command == "limit":
        try:
            seq = tuple(float(tok) for tok in ns.beta1_seq.split(",") if tok.strip())
        except ValueError as exc:
            raise UsageError(f"could not parse --beta1-seq {ns.beta1_seq!r}") from exc
        if not seq:
            raise UsageError("--beta1-seq must list at least one value")
        for b in seq:
            _check_beta1(ns.n, b)
        if any(b2 >= b1 for b1, b2 in zip(seq, seq[1:])):
            raise UsageError(f"--beta1-seq must decrease strictly, got {list(seq)}")
        cfg.beta1_list = seq
        cfg.s_hull = _check_flag("--s-hull", ns.s_hull, 1.0, lo_closed=True)
    return cfg


def _worker_count() -> int:
    raw = os.environ.get("KEE_THREADS", "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise UsageError(f"KEE_THREADS must be a positive integer, got {raw!r}") from None
    if value < 1:
        raise UsageError(f"KEE_THREADS must be a positive integer, got {value}")
    return value


def _sweep(items, fn):
    """Order-preserving map over sweep entries, threaded when allowed.

    Each entry is computed independently, so the result bytes do not depend
    on the worker count."""
    workers = _worker_count()
    if workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _quad_config(quad_tol: float) -> QuadratureConfig:
    return QuadratureConfig(epsabs=0.01 * quad_tol, epsrel=quad_tol)


def _solve_row(cfg: RunConfig, p: EinsteinProfile, kind: str = "summary",
               tau: float | None = None) -> dict:
    row = {
        "command": cfg.command, "kind": kind, "n": p.n, "beta1": p.beta1,
        "beta2": p.beta2, "lambda": p.lam, "alpha1": p.alpha1,
        "alpha2": p.alpha2, "leading": p.leading,
        "tau": None, "phi": None, "phi_prime": None,
    }
    if tau is not None:
        row["tau"] = tau
        row["phi"] = eval_phi(p, tau)
        row["phi_prime"] = eval_phi_prime(p, tau)
    return row


def _run_solve(cfg: RunConfig):
    p = make_profile(cfg.n, cfg.beta1)
    rows = [_solve_row(cfg, p)]
    if cfg.emit_profile:
        for tau in np.linspace(1.0, p.alpha2, cfg.emit_profile):
            rows.append(_solve_row(cfg, p, kind="profile", tau=float(tau)))
    return rows, 0


def _run_scan(cfg: RunConfig):
    if cfg.count == 1:
        grid = [cfg.beta1_min]
    elif cfg.log_grid:
        grid = [float(b) for b in np.geomspace(cfg.beta1_min, cfg.beta1_max, cfg.count)]
    else:
        grid = [float(b) for b in np.linspace(cfg.beta1_min, cfg.beta1_max, cfg.count)]

    def one(beta1):
        return _solve_row(cfg, make_profile(cfg.n, beta1))

    return _sweep(grid, one), 0


def _run_verify(cfg: RunConfig):
    p = make_profile(cfg.n, cfg.beta1)
    m = build_map(p, s_hull=cfg.s_hull)

    taus = np.linspace(1.0, p.alpha2, 1002)[1:-1]
    ode_max = float(np.max([abs(ode_residual(p, float(t))) for t in taus]))

    grid = geometry.chart_grid(p, n_abs=cfg.grid, n_arg=cfg.grid, n_s=3)
    defects = []
    for pt in grid:
        g = geometry.metric_at(p, m, pt)
        s = geometry.chart_s(p.n, pt)
        tau = tau_of_s(m, s)
        phi = eval_phi(p, tau)
        target = p.n * tau * phi
        scale = abs(pt.w) ** 2 * (1.0 + abs(pt.z) ** 2) ** 2
        defects.append(abs(g.det() * scale - target) / target)
    det_max = float(np.max(defects))     # np.max keeps a NaN; max() drops it

    einstein_max = geometry.einstein_residual(p, m, grid, step=cfg.fd_step)

    ok = (ode_max <= ODE_THRESHOLD and det_max <= DET_THRESHOLD
          and einstein_max <= EINSTEIN_THRESHOLD)
    row = {
        "command": cfg.command, "n": p.n, "beta1": p.beta1, "grid": cfg.grid,
        "fd_step": cfg.fd_step, "s_hull": cfg.s_hull,
        "beta2": p.beta2, "lambda": p.lam,
        "ode_residual_max": ode_max, "ode_threshold": ODE_THRESHOLD,
        "det_defect_max": det_max, "det_threshold": DET_THRESHOLD,
        "einstein_residual_max": einstein_max, "einstein_threshold": EINSTEIN_THRESHOLD,
        "status": "pass" if ok else "fail",
    }
    return [row], 0 if ok else 1


def _run_fiber(cfg: RunConfig):
    p = make_profile(cfg.n, cfg.beta1)
    quad = _quad_config(cfg.quad_tol)
    d = cfg.probe_distance
    length_full = geometry.fiber_length(p, 1.0, p.alpha2, quad)
    vol_quad = geometry.fiber_volume(p, quad)
    vol_closed = 2.0 * math.pi * (p.alpha2 - 1.0)
    angle_lo = geometry.cone_angle_probe(p, "lower", 1.0 + d, quad)
    angle_hi = geometry.cone_angle_probe(p, "upper", p.alpha2 - d, quad)
    defect_lo = abs(angle_lo - 2.0 * math.pi * p.beta1) / (2.0 * math.pi)
    defect_hi = abs(angle_hi - 2.0 * math.pi * p.beta2) / (2.0 * math.pi)
    vol_defect = abs(vol_quad - vol_closed) / vol_closed
    ok = (defect_lo <= ANGLE_THRESHOLD and defect_hi <= ANGLE_THRESHOLD
          and vol_defect <= FIBER_AREA_THRESHOLD)
    row = {
        "command": cfg.command, "n": p.n, "beta1": p.beta1,
        "quad_tol": cfg.quad_tol, "probe_distance": d,
        "fiber_length_full": length_full,
        "length_asymptote": limits.fiber_length_asymptote(p.n),
        "fiber_volume_quad": vol_quad, "fiber_volume_closed": vol_closed,
        "volume_defect": vol_defect, "volume_defect_threshold": FIBER_AREA_THRESHOLD,
        "cone_angle_lower": angle_lo, "cone_angle_upper": angle_hi,
        "angle_defect_lower": defect_lo, "angle_defect_upper": defect_hi,
        "angle_threshold": ANGLE_THRESHOLD,
        "status": "pass" if ok else "fail",
    }
    return [row], 0 if ok else 1


def _run_classes(cfg: RunConfig):
    p = make_profile(cfg.n, cfg.beta1)
    quad = _quad_config(cfg.quad_tol)
    kee = cohomology.kee_class(p.n, p.beta1, p.beta2)
    vol = cohomology.class_volume(kee)
    total = geometry.total_volume(p, quad)
    vol_rel = abs(total - (2.0 * math.pi) ** 2 * vol) / total
    prop = cohomology.proportionality_check(p.n, p.beta1, p.beta2)
    k = cohomology.canonical_class(p.n)
    zn = cohomology.zero_section(p.n)
    zi = cohomology.infinity_section(p.n)
    adj_zero = cohomology.intersect(k + zn, zn)
    adj_inf = cohomology.intersect(k + zi, zi)
    ratio_defect = abs(p.alpha2 - float(kee.b) / p.n)
    ok = (prop <= PROPORTIONALITY_THRESHOLD and vol_rel <= VOLUME_MATCH_THRESHOLD
          and adj_zero == -2 and adj_inf == -2
          and ratio_defect <= PROPORTIONALITY_THRESHOLD
          and cohomology.is_kahler(kee))
    row = {
        "command": cfg.command, "n": p.n, "beta1": p.beta1, "beta2": p.beta2,
        "lambda": p.lam, "kee_a": float(kee.a), "kee_b": float(kee.b),
        "is_kahler": cohomology.is_kahler(kee),
        "class_volume": float(vol), "total_volume_quad": total,
        "volume_match_rel": vol_rel, "volume_threshold": VOLUME_MATCH_THRESHOLD,
        "proportionality_defect": prop,
        "proportionality_threshold": PROPORTIONALITY_THRESHOLD,
        "adjunction_zero": int(adj_zero), "adjunction_infinity": int(adj_inf),
        "alpha2": p.alpha2, "alpha2_class_ratio_defect": ratio_defect,
        "status": "pass" if ok else "fail",
    }
    return [row], 0 if ok else 1


def _run_limit(cfg: RunConfig):
    probe = limits._DEFAULT_PROBE

    def one(beta1):
        e = limits.collapse_entry(cfg.n, beta1, probe=probe, s_hull=cfg.s_hull)
        return {
            "command": cfg.command, "n": cfg.n, "beta1": e.beta1,
            "s_hull": cfg.s_hull,
            "probe_z_re": probe.z.real, "probe_z_im": probe.z.imag,
            "probe_w_re": probe.w.real, "probe_w_im": probe.w.imag,
            "beta2": e.beta2, "alpha2": e.alpha2,
            "fiber_length": e.fiber_length, "rescaled_length": e.rescaled_length,
            "rescaled_coeff_y": e.rescaled_coeff_y,
            "rescaled_coeff_theta": e.rescaled_coeff_theta,
            "tensor_deviation": e.tensor_deviation_at_probe,
        }

    return _sweep(list(cfg.beta1_list), one), 0


_RUNNERS = {
    "solve": _run_solve, "scan": _run_scan, "verify": _run_verify,
    "fiber": _run_fiber, "classes": _run_classes, "limit": _run_limit,
}


def run(cfg: RunConfig):
    """Execute a config; returns (rows, exit_status).

    Numeric failures inside a command become a structured error row with
    exit status 1 rather than a traceback; usage problems (bad KEE_THREADS)
    still raise UsageError.
    """
    _worker_count()  # validate the env var before doing any work
    try:
        rows, status = _RUNNERS[cfg.command](cfg)
    except UsageError:
        raise
    except KeeError as exc:
        return [{"command": cfg.command, "error": f"{type(exc).__name__}: {exc}"}], 1
    rows.sort(key=lambda r: (r.get("n", 0), r.get("beta1", 0.0)))
    return rows, status


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def _json_scalar(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        # NaN and Infinity as Python's json module writes and reads them
        return _fmt17(v) if math.isfinite(v) else json.dumps(v)
    return json.dumps(str(v))


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return _fmt17(v)
    return str(v)


# the RunConfig fields each subcommand parses, in RunConfig order
_META_FIELDS = {
    "solve": ("n", "beta1", "emit_profile"),
    "scan": ("n", "beta1_min", "beta1_max", "count", "log_grid"),
    "verify": ("n", "beta1", "grid", "fd_step", "s_hull"),
    "fiber": ("n", "beta1", "quad_tol", "probe_distance"),
    "classes": ("n", "beta1", "quad_tol"),
    "limit": ("n", "beta1_list", "s_hull"),
}


def _meta(cfg: RunConfig) -> dict:
    # echo only the computation config the subcommand reads: where the
    # report lands must not change its bytes
    meta = {"tool": "kee", "command": cfg.command}
    for name in _META_FIELDS[cfg.command]:
        v = getattr(cfg, name)
        meta[name] = list(v) if isinstance(v, tuple) else v
    return meta


def render(records: list, output_format: str, meta: dict | None = None,
           fieldnames: list | None = None) -> bytes:
    """Serialize records deterministically (stable key order, 17-digit floats)."""
    if fieldnames is None:
        seen = {}
        for row in records:
            for key in row:
                seen.setdefault(key, None)
        fieldnames = list(seen)
    if output_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in records:
            writer.writerow([_csv_cell(row.get(k)) for k in fieldnames])
        return buf.getvalue().encode("utf-8")
    # hand-rolled JSON keeps float formatting and key order pinned down
    out = ["{\n  \"meta\": {"]
    out.append(", ".join(f"{_qjson(k)}: {_json_value(v)}"
                         for k, v in (meta or {}).items()))
    out.append("},\n  \"rows\": [\n")
    lines = []
    for row in records:
        cells = ", ".join(f"{_qjson(k)}: {_json_value(row.get(k))}" for k in fieldnames)
        lines.append("    {" + cells + "}")
    out.append(",\n".join(lines))
    out.append("\n  ]\n}\n")
    return "".join(out).encode("utf-8")


def _qjson(s: str) -> str:
    return json.dumps(s)


def _json_value(v) -> str:
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_json_value(x) for x in v) + "]"
    return _json_scalar(v)


def emit(records: list, output_format: str, output_path: str | None = None,
         meta: dict | None = None, fieldnames: list | None = None) -> int:
    """Write a rendered report to a path (or stdout); returns bytes written."""
    payload = render(records, output_format, meta, fieldnames)
    if output_path is None:
        sys.stdout.write(payload.decode("utf-8"))
        sys.stdout.flush()
    else:
        with open(output_path, "wb") as fh:
            fh.write(payload)
    return len(payload)


def main(argv=None) -> int:
    try:
        cfg = parse(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        rows, status = run(cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        emit(rows, cfg.output_format, cfg.output_path, meta=_meta(cfg))
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return status


if __name__ == "__main__":
    raise SystemExit(main())
