"""Command-line front end.

Subcommands: solve, scan, verify, fiber, classes, limit.  Reports are flat
key-value rows, emitted as JSON ({"meta": ..., "rows": [...]}) or CSV with a
header row, every float serialized with 17 significant digits so that
parsing the report reproduces the computed doubles exactly.  Output is byte
deterministic: rows are sorted by (n, beta1), key order is fixed, sweeps
run serially, and no environment variable is read.  Exit codes: 0 success,
1 a verification residual exceeded its threshold (or a numeric error was
reported), 2 usage error, 3 I/O error.

The argparse parser is the one declaration of each flag: its name, default
and validator (a type= callable).  The parsed namespace is the run
configuration, and the report meta echoes it in parser order.  A flag
exists only where it changes a number: the tau <-> s map covers every
finite s, and the two volumes use a fixed trapezoid rule in the map's
coordinate q, whose integrands decay like exp(-|q|) on every profile.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from . import cohomology, geometry, limits
from ._floats import geomspace, linspace, max_keep_nan
from .errors import KeeError, UsageError
from .legendre import build_map, tau_phi_of_s
from .profile import (EinsteinProfile, _validate_n_beta1,
                      eval_phi, eval_phi_prime, make_profile, ode_residual)

ODE_THRESHOLD = 1e-12
DET_THRESHOLD = 1e-12
EINSTEIN_THRESHOLD = 1e-5
PROPORTIONALITY_THRESHOLD = 1e-12
VOLUME_MATCH_THRESHOLD = 1e-9
ANGLE_THRESHOLD = 1e-3          # fraction of the 2 pi beta target
FIBER_AREA_THRESHOLD = 1e-10    # relative, quadrature vs 2 pi (alpha2 - 1)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _float_in(lo: float, hi: float = math.inf):
    """Make a type= callable that accepts a finite float in (lo, hi)."""
    def check(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and lo < value < hi):
            raise argparse.ArgumentTypeError(f"must be a finite value in ({lo:g}, {hi:g}), got {text}")
        return value
    return check


def _int_at_least(k: int):
    """Make a type= callable that accepts an integer >= k."""
    def check(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < k:
            raise argparse.ArgumentTypeError(f"must be an integer >= {k}, got {text}")
        return value
    return check


def _ladder(text: str) -> tuple[float, ...]:
    """A type= callable: a comma-separated, strictly decreasing beta1 ladder."""
    try:
        seq = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"could not parse {text!r}") from None
    if not seq:
        raise argparse.ArgumentTypeError("must list at least one value")
    if any(b2 >= b1 for b1, b2 in zip(seq, seq[1:])):
        raise argparse.ArgumentTypeError(f"must decrease strictly, got {list(seq)}")
    return seq


def _build_parser() -> _Parser:
    # each subcommand's flags are added in the order its report meta echoes them
    parser = _Parser(prog="kee", description="Kahler-Einstein edge metrics on Hirzebruch surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, beta1=True):
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("--n", type=_int_at_least(1), required=True)
        if beta1:
            sp.add_argument("--beta1", type=float, required=True)
        return sp

    solve = command("solve", "profile data for one (n, beta1)")
    solve.add_argument("--emit-profile", type=_int_at_least(2), default=None, metavar="N",
                       help="append N equispaced (tau, phi, phi') samples")

    scan = command("scan", "sweep beta1 over a grid", beta1=False)
    scan.add_argument("--beta1-min", type=float, required=True)
    scan.add_argument("--beta1-max", type=float, required=True)
    scan.add_argument("--count", type=_int_at_least(1), required=True)
    scan.add_argument("--linear", dest="log_grid", action="store_false",
                      help="linear beta1 grid (default is logarithmic)")

    verify = command("verify", "ODE, determinant, and Einstein residuals")
    verify.add_argument("--grid", type=_int_at_least(1), default=5,
                        help="G: Einstein residual sweeps a GxGx3 chart grid")
    verify.add_argument("--fd-step", type=_float_in(0.0, 1.0), default=1e-3)

    fiber = command("fiber", "fiber lengths, cone angle probes, volumes")
    # the upper end depends on the profile; cone_angle_probe reports it
    fiber.add_argument("--probe-distance", type=_float_in(0.0), default=1e-6)

    command("classes", "cohomology of the Einstein class")

    limit = command("limit", "small-angle collapse diagnostics", beta1=False)
    limit.add_argument("--beta1-seq", dest="beta1_list", type=_ladder, required=True,
                       metavar="B1,B2,...", help="strictly decreasing beta1 ladder")

    for sp in sub.choices.values():
        sp.add_argument("--format", dest="output_format", choices=("json", "csv"),
                        default=None, help="report format (default json)")
        sp.add_argument("--out", dest="output_path", default=None, metavar="FMT_OR_PATH",
                        help="either a format name (json/csv) or an output file path")
    return parser


def _resolve_output(fmt: str | None, out: str | None) -> tuple[str, str | None]:
    path = None
    if out is not None:
        if out in ("json", "csv"):
            fmt = fmt or out
        else:
            path = out
            if fmt is None and path.lower().endswith(".csv"):
                fmt = "csv"
            elif fmt is None and path.lower().endswith(".json"):
                fmt = "json"
    return fmt or "json", path


def parse(argv) -> argparse.Namespace:
    """Parse an argv list into a validated namespace (UsageError on misuse).

    Each flag validates itself through its type=; only the checks that
    tie two flags together run here."""
    ns = _build_parser().parse_args(list(argv))
    ns.output_format, ns.output_path = _resolve_output(ns.output_format, ns.output_path)
    beta1s = [getattr(ns, k) for k in ("beta1", "beta1_min", "beta1_max") if hasattr(ns, k)]
    for beta1 in beta1s + list(getattr(ns, "beta1_list", ())):
        try:
            _validate_n_beta1(ns.n, beta1)
        except KeeError as exc:
            raise UsageError(str(exc)) from exc
    if ns.command == "scan" and not ns.beta1_min <= ns.beta1_max:
        raise UsageError(f"need beta1-min <= beta1-max, got {ns.beta1_min} > {ns.beta1_max}")
    return ns


def _solve_row(cfg: argparse.Namespace, p: EinsteinProfile, kind: str = "summary",
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


def _run_solve(cfg: argparse.Namespace):
    p = make_profile(cfg.n, cfg.beta1)
    rows = [_solve_row(cfg, p)]
    if cfg.emit_profile:
        for tau in linspace(1.0, p.alpha2, cfg.emit_profile):
            rows.append(_solve_row(cfg, p, kind="profile", tau=tau))
    return rows, 0


def _run_scan(cfg: argparse.Namespace):
    spaced = geomspace if cfg.log_grid else linspace
    grid = spaced(cfg.beta1_min, cfg.beta1_max, cfg.count)
    return [_solve_row(cfg, make_profile(cfg.n, beta1)) for beta1 in grid], 0


def _run_verify(cfg: argparse.Namespace):
    p = make_profile(cfg.n, cfg.beta1)
    m = build_map(p)

    taus = linspace(1.0, p.alpha2, 1002)[1:-1]
    ode_max = max_keep_nan([abs(ode_residual(p, t)) for t in taus])

    grid = geometry.chart_grid(p, n_abs=cfg.grid, n_arg=cfg.grid, n_s=3)
    defects = []
    for pt in grid:
        g = geometry.metric_at(p, m, pt)
        tau, phi = tau_phi_of_s(m, geometry.chart_s(p.n, pt))
        target = p.n * tau * phi
        # products overflow to inf where ** 2 would raise
        aw, az = abs(pt.w), 1.0 + abs(pt.z) * abs(pt.z)
        scale = aw * aw * (az * az)
        defects.append(abs(g.det() * scale - target) / target)
    det_max = max_keep_nan(defects)

    einstein_max = geometry.einstein_residual(p, m, grid, step=cfg.fd_step)

    ok = (ode_max <= ODE_THRESHOLD and det_max <= DET_THRESHOLD
          and einstein_max <= EINSTEIN_THRESHOLD)
    row = {
        "command": cfg.command, "n": p.n, "beta1": p.beta1, "grid": cfg.grid,
        "fd_step": cfg.fd_step,
        "beta2": p.beta2, "lambda": p.lam,
        "ode_residual_max": ode_max, "ode_threshold": ODE_THRESHOLD,
        "det_defect_max": det_max, "det_threshold": DET_THRESHOLD,
        "einstein_residual_max": einstein_max, "einstein_threshold": EINSTEIN_THRESHOLD,
        "status": "pass" if ok else "fail",
    }
    return [row], 0 if ok else 1


def _run_fiber(cfg: argparse.Namespace):
    p = make_profile(cfg.n, cfg.beta1)
    d = cfg.probe_distance
    length_full = geometry.fiber_length(p, 1.0, p.alpha2)
    vol_quad = geometry.fiber_volume(p)
    vol_closed = 2.0 * math.pi * (p.alpha2 - 1.0)
    angle_lo = geometry.cone_angle_probe(p, "lower", 1.0 + d)
    angle_hi = geometry.cone_angle_probe(p, "upper", p.alpha2 - d)
    defect_lo = abs(angle_lo - 2.0 * math.pi * p.beta1) / (2.0 * math.pi)
    defect_hi = abs(angle_hi - 2.0 * math.pi * p.beta2) / (2.0 * math.pi)
    vol_defect = abs(vol_quad - vol_closed) / vol_closed
    ok = (defect_lo <= ANGLE_THRESHOLD and defect_hi <= ANGLE_THRESHOLD
          and vol_defect <= FIBER_AREA_THRESHOLD)
    row = {
        "command": cfg.command, "n": p.n, "beta1": p.beta1,
        "probe_distance": d,
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


def _run_classes(cfg: argparse.Namespace):
    p = make_profile(cfg.n, cfg.beta1)
    kee = cohomology.kee_class(p.n, p.beta1, p.beta2)
    vol = cohomology.class_volume(kee)
    total = geometry.total_volume(p)
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


def _run_limit(cfg: argparse.Namespace):
    report = limits.collapse_report(cfg.n, cfg.beta1_list)
    probe = report.probe
    return [{
        "command": cfg.command, "n": cfg.n, "beta1": e.beta1,
        "probe_z_re": probe.z.real, "probe_z_im": probe.z.imag,
        "probe_w_re": probe.w.real, "probe_w_im": probe.w.imag,
        "beta2": e.beta2, "alpha2": e.alpha2,
        "fiber_length": e.fiber_length, "rescaled_length": e.rescaled_length,
        "rescaled_coeff_y": e.rescaled_coeff_y,
        "rescaled_coeff_theta": e.rescaled_coeff_theta,
        "tensor_deviation": e.tensor_deviation_at_probe,
    } for e in report.entries], 0


_RUNNERS = {
    "solve": _run_solve, "scan": _run_scan, "verify": _run_verify,
    "fiber": _run_fiber, "classes": _run_classes, "limit": _run_limit,
}


def run(cfg: argparse.Namespace):
    """Execute a parsed namespace; returns (rows, exit_status).

    Numeric failures inside a command become a structured error row with
    exit status 1 rather than a traceback.
    """
    try:
        rows, status = _RUNNERS[cfg.command](cfg)
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


def _meta(cfg: argparse.Namespace) -> dict:
    # echo the subcommand and the flags it parses, in parser order; where
    # the report lands must not change its bytes
    return {"tool": "kee", **{k: v for k, v in vars(cfg).items()
                              if k not in ("output_format", "output_path")}}


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
    out.append(", ".join(f"{json.dumps(k)}: {_json_value(v)}"
                         for k, v in (meta or {}).items()))
    out.append("},\n  \"rows\": [\n")
    lines = []
    for row in records:
        cells = ", ".join(f"{json.dumps(k)}: {_json_value(row.get(k))}" for k in fieldnames)
        lines.append("    {" + cells + "}")
    out.append(",\n".join(lines))
    out.append("\n  ]\n}\n")
    return "".join(out).encode("utf-8")


def _json_value(v) -> str:
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_json_value(x) for x in v) + "]"
    return _json_scalar(v)


def emit(records: list, output_format: str, output_path: str | None = None,
         meta: dict | None = None) -> int:
    """Write a rendered report to a path (or stdout); returns bytes written."""
    payload = render(records, output_format, meta)
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
    rows, status = run(cfg)
    try:
        emit(rows, cfg.output_format, cfg.output_path, meta=_meta(cfg))
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return status


if __name__ == "__main__":
    raise SystemExit(main())
