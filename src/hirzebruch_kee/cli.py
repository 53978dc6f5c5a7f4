"""Command-line front end.

Subcommands: solve, scan, verify, fiber, classes, limit.  Reports are flat
key-value rows, emitted as JSON ({"meta": ..., "rows": [...]}) or CSV with a
header row, every float serialized with 17 significant digits so that
parsing the report reproduces the computed doubles exactly.  Output is byte
deterministic: each runner emits its rows in (n, beta1) order, key order
is fixed, sweeps run serially, and no environment variable is read.  Exit
codes: 0 success, 1 a row has status "fail" (a verification residual
exceeded its threshold) or the report is an error row (a numeric error), 2
usage error, 3 I/O error.  The exit status is read off the rows, so it
always agrees with the report.

The argparse parser is the one declaration of each flag: its name, default
and validator (a type= callable).  It is built once per process, at the
first parse, and repeated main() calls share it; a parse keeps no state in
it, so each namespace depends on its argv alone.  The parsed namespace is
the run configuration, and the report meta echoes it in parser order.  A
flag exists only where it changes a number: the tau <-> s map covers every
finite s, and the two volumes use a fixed trapezoid rule in the map's
coordinate q, whose integrands decay like exp(-|q|) on every profile.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

from . import cohomology, geometry, limits
from ._floats import geomspace, linspace, max_keep_nan
from .errors import KeeError, UsageError
from .legendre import build_map
from .profile import (EinsteinProfile, _validate_n, _validate_n_beta1,
                      eval_phi, eval_phi_prime, make_profile, ode_residual)

ODE_THRESHOLD = 1e-12
DET_THRESHOLD = 1e-12
EINSTEIN_THRESHOLD = 1e-5
PROPORTIONALITY_THRESHOLD = 1e-12
VOLUME_MATCH_THRESHOLD = 1e-9
ANGLE_THRESHOLD = 1e-3          # fraction of the 2 pi beta target
FIBER_AREA_THRESHOLD = 1e-10    # relative, quadrature vs 2 pi span


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


def _int_in(lo: int, hi: float = math.inf):
    """Make a type= callable that accepts an integer in [lo, hi]."""
    def check(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"must be an integer in [{lo}, {hi:g}], got {text}")
        return value
    return check


def _ladder(text: str) -> tuple[float, ...]:
    """A type= callable: a comma-separated, strictly decreasing beta1 ladder."""
    try:
        return limits._checked_ladder(tok for tok in text.split(",") if tok.strip())
    except ValueError as exc:       # a token that is no float, or a DomainError
        raise argparse.ArgumentTypeError(str(exc)) from None


@functools.cache
def _build_parser() -> _Parser:
    # each subcommand's flags are added in the order its report meta echoes them
    parser = _Parser(prog="kee", description="Kahler-Einstein edge metrics on Hirzebruch surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, beta1=True):
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("--n", type=_int_in(1), required=True)
        if beta1:
            sp.add_argument("--beta1", type=float, required=True)
        return sp

    solve = command("solve", "profile data for one (n, beta1)")
    solve.add_argument("--emit-profile", type=_int_in(2, 100_000), default=None, metavar="N",
                       help="append N equispaced (tau, phi, phi') samples, N <= 100000")

    scan = command("scan", "sweep beta1 over a grid", beta1=False)
    scan.add_argument("--beta1-min", type=float, required=True)
    scan.add_argument("--beta1-max", type=float, required=True)
    scan.add_argument("--count", type=_int_in(1, 100_000), required=True,
                      help="number of beta1 values, at most 100000")
    scan.add_argument("--linear", dest="log_grid", action="store_false",
                      help="linear beta1 grid (default is logarithmic)")

    verify = command("verify", "ODE, determinant, and Einstein residuals")
    verify.add_argument("--grid", type=_int_in(1, 100), default=5,
                        help="G <= 100: Einstein residual sweeps a GxGx3 chart grid")
    verify.add_argument("--fd-step", type=_float_in(0.0, 1.0), default=1e-3,
                        help="Ricci stencil step; steps from 1e-3 to 3e-2 are usable: "
                             "truncation fails the gate above, rounding (about "
                             "eps/step^2) below.  The default fails valid profiles "
                             "from n = 6 up; 1e-2 passes them up to n = 9")

    fiber = command("fiber", "fiber lengths, cone angle probes, volumes")
    # the upper end depends on the profile; cone_angle_probe reports it
    fiber.add_argument("--probe-distance", type=_float_in(0.0), default=1e-6)

    command("classes", "cohomology of the Einstein class")

    limit = command("limit", "small-angle collapse diagnostics", beta1=False)
    limit.add_argument("--beta1-seq", dest="beta1_list", type=_ladder, required=True,
                       metavar="B1,B2,...", help="strictly decreasing beta1 ladder")

    for sp in sub.choices.values():
        sp.add_argument("--format", dest="output_format", choices=("json", "csv"),
                        default=None, help="report format (default csv for a .csv --out "
                                           "path, else json)")
        sp.add_argument("--out", dest="output_path", default=None, metavar="PATH",
                        help="write the report to PATH (default stdout)")
    return parser


def parse(argv) -> argparse.Namespace:
    """Parse an argv list into a validated namespace (UsageError on misuse).

    Each flag validates itself through its type=; only the checks that
    tie two flags together run here."""
    ns = _build_parser().parse_args(list(argv))
    if ns.output_format is None:
        to_csv = ns.output_path is not None and ns.output_path.lower().endswith(".csv")
        ns.output_format = "csv" if to_csv else "json"
    # each value is checked under the flag that held it
    beta1s = [(f"--{k.replace('_', '-')}", getattr(ns, k))
              for k in ("beta1", "beta1_min", "beta1_max") if hasattr(ns, k)]
    beta1s += [("--beta1-seq", b) for b in getattr(ns, "beta1_list", ())]
    flag = "--n"
    try:
        _validate_n(ns.n)
        for flag, beta1 in beta1s:
            _validate_n_beta1(ns.n, beta1)
    except KeeError as exc:
        raise UsageError(f"argument {flag}: {exc}") from exc
    if ns.command == "scan" and not ns.beta1_min <= ns.beta1_max:
        raise UsageError(f"need beta1-min <= beta1-max, got {ns.beta1_min} > {ns.beta1_max}")
    return ns


def _solve_row(cfg: argparse.Namespace, p: EinsteinProfile, tau: float | None = None) -> dict:
    row = {
        "command": cfg.command, "kind": "summary" if tau is None else "profile",
        "n": p.n, "beta1": p.beta1,
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
    taus = linspace(1.0, p.alpha2, cfg.emit_profile) if cfg.emit_profile else []
    return [_solve_row(cfg, p, tau) for tau in (None, *taus)]


def _run_scan(cfg: argparse.Namespace):
    spaced = geomspace if cfg.log_grid else linspace
    # geomspace's interior points come from pow and need not lie between
    # its exact ends: on a range of a few ulp they fall on either side
    grid = sorted(spaced(cfg.beta1_min, cfg.beta1_max, cfg.count))
    return [_solve_row(cfg, make_profile(cfg.n, beta1)) for beta1 in grid]


def _run_verify(cfg: argparse.Namespace):
    p = make_profile(cfg.n, cfg.beta1)
    m = build_map(p)

    taus = linspace(1.0, p.alpha2, 1002)[1:-1]
    ode_max = max_keep_nan([abs(ode_residual(p, t)) for t in taus])

    # (det defect, Einstein residual) per grid point, both from one solve
    points = [geometry._grid_point(p, m, pt, cfg.fd_step)
              for pt in geometry.chart_grid(p, cfg.grid)]
    det_max, einstein_max = map(max_keep_nan, zip(*points))

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
    return [row]


def _run_fiber(cfg: argparse.Namespace):
    p = make_profile(cfg.n, cfg.beta1)
    d = cfg.probe_distance
    length_full = geometry.fiber_length(p, 1.0, p.alpha2)
    vol_quad = geometry.fiber_volume(p)
    vol_closed = 2.0 * math.pi * p.span
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
    return [row]


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
    kahler = cohomology.is_kahler(kee)
    ok = (prop <= PROPORTIONALITY_THRESHOLD and vol_rel <= VOLUME_MATCH_THRESHOLD
          and adj_zero == -2 and adj_inf == -2
          and ratio_defect <= PROPORTIONALITY_THRESHOLD and kahler)
    row = {
        "command": cfg.command, "n": p.n, "beta1": p.beta1, "beta2": p.beta2,
        "lambda": p.lam, "kee_a": float(kee.a), "kee_b": float(kee.b),
        "is_kahler": kahler,
        "class_volume": float(vol), "total_volume_quad": total,
        "volume_match_rel": vol_rel, "volume_threshold": VOLUME_MATCH_THRESHOLD,
        "proportionality_defect": prop,
        "proportionality_threshold": PROPORTIONALITY_THRESHOLD,
        "adjunction_zero": int(adj_zero), "adjunction_infinity": int(adj_inf),
        "alpha2": p.alpha2, "alpha2_class_ratio_defect": ratio_defect,
        "status": "pass" if ok else "fail",
    }
    return [row]


def _run_limit(cfg: argparse.Namespace):
    # the ladder decreases, and the report lists beta1 increasing
    return [{"command": cfg.command, "n": cfg.n, **rung}
            for rung in reversed(limits.collapse_report(cfg.n, cfg.beta1_list))]


_RUNNERS = {
    "solve": _run_solve, "scan": _run_scan, "verify": _run_verify,
    "fiber": _run_fiber, "classes": _run_classes, "limit": _run_limit,
}


def run(cfg: argparse.Namespace):
    """Execute a parsed namespace; returns (rows, exit_status).

    The exit status is read off the rows: 1 if any row has status "fail",
    else 0.  A numeric failure inside a command becomes a structured error
    row with exit status 1 rather than a traceback.
    """
    try:
        rows = _RUNNERS[cfg.command](cfg)
    except KeeError as exc:
        return [{"command": cfg.command, "error": f"{type(exc).__name__}: {exc}"}], 1
    return rows, int(any(row.get("status") == "fail" for row in rows))


def _cell(v, as_json: bool) -> str:
    """One report value as JSON or as a CSV cell; floats keep 17 digits."""
    if isinstance(v, float):    # first, as floats are the bulk of every report
        if as_json and not math.isfinite(v):
            return json.dumps(v)    # NaN and Infinity as Python's json reads them
        return format(v, ".17g")
    if v is None:
        return "null" if as_json else ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)       # .17g would print an int of 18 digits as 1e+17
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_cell(x, as_json) for x in v) + "]"
    return json.dumps(str(v)) if as_json else str(v)


def _meta(cfg: argparse.Namespace) -> dict:
    # echo the subcommand and the flags it parses, in parser order; where
    # the report lands must not change its bytes
    return {"tool": "kee", **{k: v for k, v in vars(cfg).items()
                              if k not in ("output_format", "output_path")}}


def render(records: list, output_format: str, meta: dict | None = None) -> bytes:
    """Serialize records deterministically (stable key order, 17-digit floats)."""
    # every key of every row, in order of first appearance
    fieldnames = list(dict.fromkeys(key for row in records for key in row))
    if output_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in records:
            writer.writerow([_cell(row.get(k), False) for k in fieldnames])
        return buf.getvalue().encode("utf-8")
    # hand-rolled JSON keeps float formatting and key order pinned down
    out = ["{\n  \"meta\": {"]
    out.append(", ".join(f"{json.dumps(k)}: {_cell(v, True)}"
                         for k, v in (meta or {}).items()))
    out.append("},\n  \"rows\": [\n")
    keys = [(k, json.dumps(k) + ": ") for k in fieldnames]     # encoded once per report
    lines = ["    {" + ", ".join(key + _cell(row.get(k), True) for k, key in keys) + "}"
             for row in records]
    out.append(",\n".join(lines))
    out.append("\n  ]\n}\n")
    return "".join(out).encode("utf-8")


def main(argv=None) -> int:
    try:
        cfg = parse(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    rows, status = run(cfg)
    payload = render(rows, cfg.output_format, meta=_meta(cfg))
    try:
        if cfg.output_path is None:
            sys.stdout.write(payload.decode("utf-8"))
            sys.stdout.flush()
        else:
            with open(cfg.output_path, "wb") as fh:
                fh.write(payload)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return status

