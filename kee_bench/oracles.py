"""Independent references for the kee benchmark's output checks.

Nothing here calls the package: the closed forms of beta2, alpha1, alpha2,
lambda and the class volume are evaluated at 30 digits with mpmath, and the
full fiber length is an mpmath tanh-sinh quadrature of dtau/sqrt(2 phi) at
20 digits (after the substitutions tau = 1 + u^2 and tau = alpha2 - u^2 that
remove the endpoint singularities).  All comparisons use tolerances, never
byte equality, so a refactor that changes results only at rounding level
still passes.  References are cached per input, and computed outside the
timed region.
"""

from __future__ import annotations

import math

import mpmath as mp

TWO_PI = 2.0 * math.pi
EINSTEIN_GATE = 1e-5          # acceptance criterion 3
ODE_GATE = 1e-12              # criterion 4
DET_GATE = 1e-12
ANGLE_GATE = 1e-3             # criterion 2, in units of 2 pi
VOLUME_REL = 1e-9             # criterion 5
FIBER_AREA_ABS = 1e-10        # criterion 6, scaled by max(1, area)
CLOSED_FORM_REL = 1e-12
FIBER_LENGTH_REL = 1e-9
DETECTOR_GAIN = 100.0         # criterion 3


def number(v) -> bool:
    """A finite JSON number (17-digit reports print 0.0 as the integer 0)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def close(got, want: float, rel: float, abs_tol: float = 0.0) -> bool:
    """|got - want| <= max(rel*|want|, abs_tol); False for NaN, inf or non-numbers."""
    return number(got) and abs(got - want) <= max(rel * abs(want), abs_tol)


class References:
    """Cached mpmath references keyed by (n, beta1)."""

    def __init__(self):
        self._closed: dict = {}
        self._length: dict = {}

    def closed(self, n: int, beta1: float) -> dict:
        key = (n, beta1)
        if key not in self._closed:
            with mp.workdps(30):
                b, nn = mp.mpf(beta1), mp.mpf(n)
                x = nn * b
                ssum = (1 + x) / (2 - x)
                a2 = (ssum + mp.sqrt(ssum * (ssum + 4))) / 2
                b2 = (x - 3 + mp.sqrt(3 * (3 - x) * (1 + x))) / (2 * nn)
                ka = nn * (b + b2) / (2 - x)
                kb = nn * (2 + nn * b2) / (2 - x)
                self._closed[key] = {
                    "beta2": float(b2), "alpha2": float(a2), "alpha1": float(-ssum / a2),
                    "lambda": float(2 / nn - b), "leading": float((b - 2 / nn) / 3),
                    "class_volume": float(-nn * ka * ka + 2 * ka * kb),
                }
        return self._closed[key]

    def fiber_length(self, n: int, beta1: float) -> float:
        key = (n, beta1)
        if key not in self._length:
            with mp.workdps(20):
                b, nn = mp.mpf(beta1), mp.mpf(n)
                x = nn * b
                ssum = (1 + x) / (2 - x)
                a2 = (ssum + mp.sqrt(ssum * (ssum + 4))) / 2
                a1 = -ssum / a2
                cbar = (2 / nn - b) / 3
                mid = (1 + a2) / 2

                def lower(u):
                    t = 1 + u * u
                    return mp.sqrt(2 * t / (cbar * (a2 - t) * (t - a1)))

                def upper(u):
                    t = a2 - u * u
                    return mp.sqrt(2 * t / (cbar * (t - 1) * (t - a1)))

                total = (mp.quad(lower, [0, mp.sqrt(mid - 1)])
                         + mp.quad(upper, [0, mp.sqrt(a2 - mid)]))
                self._length[key] = float(total)
        return self._length[key]


    def prefetch(self, points) -> None:
        for n, beta1, needs_length in points:
            self.closed(n, beta1)
            if needs_length:
                self.fiber_length(n, beta1)


class Checker:
    """Turns an op's outputs into a list of problems (empty: the op passed)."""

    def __init__(self, refs: References):
        self.refs = refs
        self.clean_residual: dict[tuple[int, float], float] = {}

    def check_cli(self, argv: list[str], code: int, doc: dict | None,
                  wrong_row: bool = False) -> list[str]:
        cmd = argv[0]
        if code != 0:
            return [f"{cmd}: exit code {code}"]
        if not doc or not isinstance(doc.get("rows"), list) or not doc["rows"]:
            return [f"{cmd}: no report rows"]
        rows = doc["rows"]
        if wrong_row:              # self-test: a checked value off by one part in 1e6
            key = "fiber_length_full" if cmd == "fiber" else "beta2"
            rows[0] = dict(rows[0], **{key: rows[0][key] * (1.0 + 1e-6)})
        errors = [f"{cmd}: error row {r['error']}" for r in rows if "error" in r]
        if errors:
            return errors
        args = dict(zip(argv[1::2], argv[2::2]))
        n = int(args["--n"])
        check = getattr(self, f"_check_{cmd}")
        return [f"{cmd} n={n}: {msg}" for msg in check(n, args, rows)]

    def check_detector(self, values: dict) -> list[str]:
        key = (values["n"], values["beta1"])
        clean = self.clean_residual.get(key)
        bad = values["perturbed_residual"]
        if clean is None:
            return [f"detector n={key[0]} beta1={key[1]!r}: no clean residual to compare"]
        if not (number(bad) and bad > 0.0 and bad >= DETECTOR_GAIN * clean):
            return [f"detector n={key[0]} beta1={key[1]!r}: perturbed residual {bad!r} "
                    f"is not {DETECTOR_GAIN:g}x the clean {clean!r}"]
        return []

    # -- per-subcommand checks ----------------------------------------------

    def _profile_fields(self, n: int, row: dict, keys) -> list[str]:
        ref = self.refs.closed(n, row["beta1"])
        return [f"{k}={row.get(k)!r} vs reference {ref[k]!r} (beta1={row['beta1']!r})"
                for k in keys if not close(row.get(k), ref[k], CLOSED_FORM_REL, 1e-15)]

    def _check_solve(self, n, args, rows):
        row = rows[0]
        out = []
        if not close(row.get("beta1"), float(args["--beta1"]), 1e-15):
            out.append(f"beta1 echo {row.get('beta1')!r}")
        return out + self._profile_fields(
            n, row, ("beta2", "alpha1", "alpha2", "lambda", "leading"))

    def _check_scan(self, n, args, rows):
        count = int(args["--count"])
        lo, hi = float(args["--beta1-min"]), float(args["--beta1-max"])
        if len(rows) != count:
            return [f"{len(rows)} rows, expected {count}"]
        betas = [r.get("beta1") for r in rows]
        out = []
        if not (close(betas[0], lo, 1e-12) and close(betas[-1], hi, 1e-12)):
            out.append(f"grid ends {betas[0]!r}..{betas[-1]!r}, expected {lo!r}..{hi!r}")
        if count > 1 and not all(a < b for a, b in zip(betas, betas[1:])):
            out.append("beta1 grid not increasing")
        for row in rows:
            out += self._profile_fields(n, row, ("beta2", "alpha1", "alpha2", "lambda"))
        return out

    def _check_verify(self, n, args, rows):
        row = rows[0]
        out = self._profile_fields(n, row, ("beta2", "lambda"))
        for key, gate in (("ode_residual_max", ODE_GATE), ("det_defect_max", DET_GATE),
                          ("einstein_residual_max", EINSTEIN_GATE)):
            value = row.get(key)
            if not (number(value) and value <= gate):
                out.append(f"{key}={value!r} above its gate {gate:g}")
        if row.get("status") != "pass":
            out.append(f"status {row.get('status')!r}")
        if not out:
            self.clean_residual[(n, float(args["--beta1"]))] = row["einstein_residual_max"]
        return out

    def _check_fiber(self, n, args, rows):
        row = rows[0]
        beta1 = row["beta1"]
        ref = self.refs.closed(n, beta1)
        out = []
        want = self.refs.fiber_length(n, beta1)
        if not close(row.get("fiber_length_full"), want, FIBER_LENGTH_REL):
            out.append(f"fiber_length_full={row.get('fiber_length_full')!r} vs {want!r}")
        area = TWO_PI * (ref["alpha2"] - 1.0)
        if not close(row.get("fiber_volume_quad"), area, 0.0, FIBER_AREA_ABS * max(1.0, area)):
            out.append(f"fiber_volume_quad={row.get('fiber_volume_quad')!r} vs 2pi(alpha2-1)={area!r}")
        for key, beta in (("cone_angle_lower", beta1), ("cone_angle_upper", ref["beta2"])):
            if not close(row.get(key), TWO_PI * beta, 0.0, ANGLE_GATE * TWO_PI):
                out.append(f"{key}={row.get(key)!r} vs 2pi*{beta!r}")
        if row.get("status") != "pass":
            out.append(f"status {row.get('status')!r}")
        return out

    def _check_classes(self, n, args, rows):
        row = rows[0]
        ref = self.refs.closed(n, row["beta1"])
        out = self._profile_fields(n, row, ("beta2",))
        vol = ref["class_volume"]
        if not close(row.get("class_volume"), vol, 1e-10):
            out.append(f"class_volume={row.get('class_volume')!r} vs {vol!r}")
        total = TWO_PI ** 2 * vol
        if not close(row.get("total_volume_quad"), total, VOLUME_REL):
            out.append(f"total_volume_quad={row.get('total_volume_quad')!r} vs (2pi)^2 class_volume={total!r}")
        if row.get("adjunction_zero") != -2 or row.get("adjunction_infinity") != -2:
            out.append("adjunction numbers are not -2")
        if row.get("is_kahler") is not True:
            out.append("class not reported Kahler")
        if row.get("status") != "pass":
            out.append(f"status {row.get('status')!r}")
        return out

    def _check_limit(self, n, args, rows):
        rungs = sorted(float(tok) for tok in args["--beta1-seq"].split(","))
        if len(rows) != len(rungs):
            return [f"{len(rows)} rows for {len(rungs)} rungs"]
        out = []
        for row, beta1 in zip(rows, rungs):
            if not close(row.get("beta1"), beta1, 1e-15):
                out.append(f"rung {row.get('beta1')!r}, expected {beta1!r}")
                continue
            out += self._profile_fields(n, row, ("beta2", "alpha2"))
            length = row.get("fiber_length")
            want = self.refs.fiber_length(n, beta1)
            if not close(length, want, FIBER_LENGTH_REL):
                out.append(f"fiber_length={length!r} vs {want!r} at beta1={beta1!r}")
            elif not close(row.get("rescaled_length"), length / beta1, 1e-12):
                out.append(f"rescaled_length={row.get('rescaled_length')!r} at beta1={beta1!r}")
            bound = 5.0 * beta1 * (n / 2.0)           # criterion 8
            for key in ("rescaled_coeff_y", "rescaled_coeff_theta"):
                if not close(row.get(key), n / 2.0, 0.0, bound):
                    out.append(f"{key}={row.get(key)!r} not within {bound:g} of n/2")
        devs = [row.get("tensor_deviation") for row in rows]
        if not all(number(d) for d in devs) or not all(
                a < b for a, b in zip(devs, devs[1:])):
            out.append(f"tensor deviation does not fall with beta1: {devs!r}")
        if rungs[0] <= 1e-3:                          # criterion 9
            asym = math.pi * math.sqrt(n / 2.0)
            if not close(rows[0].get("fiber_length"), asym, 0.01):
                out.append(f"fiber length {rows[0].get('fiber_length')!r} not within 1% of pi*sqrt(n/2)")
        return out
