"""Command-line workbench: constants, kernel tables, boundary-layer
tabulation, lattice verification campaigns, and coefficient conversion.

Every command is deterministic for a fixed configuration (sampling uses
fixed seeds), writes CSV or JSON with identical numbers in either format,
and exits with 0 on success, 2 on usage errors, 3 on numerical failures,
and 4 when a verification assertion fails.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .halfline import FractionalOrder, HalfLineModel, _spectral_edge
from . import constants as consts
from . import lattice
from . import localization as loc

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_ASSERTION = 4


class UsageError(Exception):
    pass


@dataclass
class ReportRecord:
    """Flat map of named quantities; every entry carries its route label."""

    entries: dict = field(default_factory=dict)

    def add(self, name: str, value: float, err: float = 0.0, route: str = ""):
        self.entries[name] = {"value": float(value), "err": float(err),
                              "route": route}

    def write(self, path: str | None, fmt: str):
        if fmt == "json":
            text = json.dumps(self.entries, indent=2, sort_keys=True)
            _emit(path, text + "\n")
        else:
            lines = ["name,value,err,route"]
            for name in sorted(self.entries):
                e = self.entries[name]
                lines.append(f"{name},{_num(e['value'])},{_num(e['err'])},{e['route']}")
            _emit(path, "\n".join(lines) + "\n")


def _num(x: float) -> str:
    if x != 0.0 and abs(x) < 1e-3:
        return f"{x:.12e}"
    return repr(float(x))


def _emit(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _table_write(path: str | None, fmt: str, columns, rows):
    if fmt == "json":
        payload = {"columns": list(columns),
                   "rows": [dict(zip(columns, r)) for r in rows]}
        _emit(path, json.dumps(payload, indent=2) + "\n")
    else:
        lines = [",".join(columns)]
        for r in rows:
            lines.append(",".join(_num(v) for v in r))
        _emit(path, "\n".join(lines) + "\n")


def _float_list(admissible=lambda v: True, what: str = "numbers"):
    """argparse type: a comma list of finite floats, each ``admissible``."""
    def parse(text: str) -> list[float]:
        try:
            vals = [float(v) for v in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a comma list of numbers: {text!r}")
        if not all(math.isfinite(v) and admissible(v) for v in vals):
            raise argparse.ArgumentTypeError(f"values must be {what} and finite: {text!r}")
        return vals
    return parse


def _positive(kind):
    """argparse type: a finite number of type ``kind`` above zero."""
    def parse(text: str):
        try:
            val = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}")
        if not (math.isfinite(val) and val > 0):
            raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
        return val
    return parse


def _add_common(p: argparse.ArgumentParser, with_order=True):
    if with_order:
        p.add_argument("--s", type=float, required=True,
                       help="fractional exponent in (0,1)")
        p.add_argument("--d", type=int, default=2, help="ambient dimension >= 2")
    p.add_argument("--output", type=str, default=None,
                   help="output file (stdout when omitted)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _order(args) -> FractionalOrder:
    try:
        return FractionalOrder(args.s, args.d)
    except ValueError as exc:
        raise UsageError(str(exc))


def _dense(domain: lattice.LatticeDomain) -> lattice.LatticeDomain:
    """The domain, unless its dense matrices would exceed the dense cap."""
    if domain.size > lattice.DENSE_LIMIT:
        raise UsageError(f"lattice size {domain.size} exceeds dense cap "
                         f"{lattice.DENSE_LIMIT}")
    return domain


def cmd_constants(args) -> int:
    order = _order(args)
    wc = consts.compute_weyl_coefficients(order)
    rec = ReportRecord()
    rec.add("L1", wc.bulk, wc.err_estimates["L1"], "closed_radial_form")
    rec.add("L2", wc.surface, wc.err_estimates["L2:K_integral"], "L2:K_integral")
    rec.add("L2_eigenfunction", wc.surface_eigenfunction_route,
            wc.err_estimates["L2:eigenfunction_form"], "L2:eigenfunction_form")
    rec.add("L2_energy_shift", wc.surface_shift_route,
            wc.err_estimates["L2:energy_shift"], "L2:energy_shift")
    rec.add("L2_tilde", wc.surface_dirichlet, wc.err_estimates["L2_tilde"],
            "dirichlet_power_layer")
    positive = wc.surface > 0
    below = wc.surface < wc.surface_dirichlet
    rec.add("flag_L2_positive", float(positive), 0.0, "assertion")
    rec.add("flag_L2_below_tilde", float(below), 0.0, "assertion")
    if args.volume is not None and args.surface is not None:
        c1, c2 = consts.eigenvalue_sum_coefficients(
            order, args.volume, args.surface, l1=wc.bulk, l2=wc.surface)
        rec.add("C1", c1, 0.0, "sum_side_conversion")
        rec.add("C2", c2, 0.0, "sum_side_conversion")
    rec.write(args.output, args.format)
    return EXIT_OK if positive and below else EXIT_ASSERTION


def cmd_kernels(args) -> int:
    order = _order(args)
    model = HalfLineModel(order)
    rows = []
    for mu in args.mu:
        a_line = model.riesz_kernel_line(mu)
        edge = _spectral_edge(mu, order.s)
        phase = model.phase_vec(edge) if edge > 0 else 0.0
        a_diag = a_line - model.kernel_gap(np.array(args.t), mu)
        for t, a in zip(args.t, a_diag):
            rows.append((mu, t, edge, phase, a_line, float(a),
                         model.projector_profile(t, [t], mu)[0]))
    _table_write(args.output, args.format,
                 ("mu", "t", "spectral_edge", "phase_at_edge", "a_line",
                  "a_diag", "proj_diag"),
                 rows)
    return EXIT_OK


def cmd_layer(args) -> int:
    order = _order(args)
    model = HalfLineModel(order)
    ts = np.geomspace(args.t_min, args.t_max, args.points)
    ks = model.boundary_layer(ts)
    cum = 0.0
    rows = []
    prev_t, prev_k = 0.0, ks[0]
    for t, k in zip(ts, ks):
        cum += 0.5 * (k + prev_k) * (t - prev_t)
        rows.append((t, k, cum))
        prev_t, prev_k = t, k
    total, err = consts.surface_via_layer(order, model)
    rows.append((math.inf, 0.0, total))
    _table_write(args.output, args.format, ("t", "K", "cumulative"), rows)
    if args.plot_script and args.output:
        script = (
            "import csv\n"
            "import matplotlib.pyplot as plt\n"
            f"rows = [r for r in csv.DictReader(open({args.output!r}))]\n"
            "ts = [float(r['t']) for r in rows[:-1]]\n"
            "ks = [float(r['K']) for r in rows[:-1]]\n"
            "plt.loglog(ts, [abs(k) for k in ks])\n"
            "plt.xlabel('t'); plt.ylabel('|K(t)|')\n"
            "plt.show()\n")
        with open(args.output + ".plot.py", "w") as fh:
            fh.write(script)
    return EXIT_OK


def cmd_verify_square(args) -> int:
    order = _order(args)
    if order.d != 2:
        raise UsageError("verify-square runs in dimension 2")
    dom = _dense(lattice.square_domain(args.lattice_points))
    hs = np.geomspace(4.0 * dom.spacing, args.h_max, args.h_count)
    try:
        lattice.check_h_grid(hs)
    except ValueError as exc:
        raise UsageError(str(exc))
    spec = lattice.eigenvalues_sym(lattice.build_restricted_fractional(dom, order.s))
    samples = [(h, lattice.riesz_mean(spec, h, order.s)) for h in hs]
    fit = lattice.two_term_fit(samples, 2)
    model = HalfLineModel(order)
    l1 = consts.bulk_coefficient(order)
    l2, l2_err = consts.surface_via_layer(order, model)
    c0_target = l1 * dom.volume
    c1_target = -l2 * dom.surface
    rel0 = abs(fit.c0 - c0_target) / abs(c0_target)
    rel1 = abs(fit.c1 - c1_target) / abs(c1_target)
    rec = ReportRecord()
    rec.add("c0_fit", fit.c0, fit.rms_residual, "lattice_two_term_fit")
    rec.add("c1_fit", fit.c1, fit.rms_residual, "lattice_two_term_fit")
    rec.add("c0_target", c0_target, 0.0, "L1*volume")
    rec.add("c1_target", c1_target, l2_err * dom.surface, "-L2:K_integral*perimeter")
    rec.add("c0_rel_dev", rel0, 0.0, "derived")
    rec.add("c1_rel_dev", rel1, 0.0, "derived")
    for h, tr in samples:
        rec.add(f"trace_h={h:.6f}", tr, 0.0, "riesz_mean")
    rec.write(args.output, args.format)
    ok = rel0 < args.c0_tol and rel1 < args.c1_tol
    return EXIT_OK if ok else EXIT_ASSERTION


def cmd_verify_halfspace(args) -> int:
    order = _order(args)
    rep = lattice.halfspace_kernel_check(order.s, args.h)
    rec = ReportRecord()
    rec.add("worst_rel_in_window", rep.quantities["worst_rel_in_window"], 0.0,
            "lattice_vs_layer")
    rec.add("interior_rel", rep.quantities["interior_rel"], 0.0,
            "lattice_vs_bulk")
    for xd, ratio, dens, pred, rel in rep.quantities["rows"]:
        rec.add(f"profile_ratio={ratio:.4f}", dens, abs(dens - pred),
                "negative_part_diagonal")
    rec.write(args.output, args.format)
    return EXIT_OK if rep.passed else EXIT_ASSERTION


def cmd_order_check(args) -> int:
    interval = _dense(lattice.interval_domain(args.interval_points))
    square = _dense(lattice.square_domain(args.square_points))
    rec = ReportRecord()
    ok = True
    for s in args.s_list:
        if not 0.0 < s < 1.0:
            raise UsageError(f"fractional exponent must lie in (0,1), got {s}")
        r1 = lattice.operator_order_check(interval, s)
        r2 = lattice.operator_order_check(square, s)
        ok &= r1.passed and r2.passed
        rec.add(f"interval_min_eig_s={s}", r1.quantities["min_eig"],
                0.0, "dirichlet_power_minus_restricted")
        rec.add(f"square_min_eig_s={s}", r2.quantities["min_eig"],
                0.0, "dirichlet_power_minus_restricted")
    rec.write(args.output, args.format)
    return EXIT_OK if ok else EXIT_ASSERTION


def cmd_localization_check(args) -> int:
    if args.shape == "interval":
        geom = loc.interval_geometry(args.extent)
    elif args.shape == "rectangle":
        geom = loc.rectangle_geometry(args.extent, args.extent)
    else:
        geom = loc.disk_geometry(args.extent / 2.0)
    try:
        fam = loc.LocalizationFamily(geom, args.l0)
    except ValueError as exc:
        raise UsageError(str(exc))
    rng = np.random.default_rng(args.seed)
    lo, hi = geom.interior_box()
    rec = ReportRecord()
    worst = 0.0
    for i in range(args.points):
        x = lo + (hi - lo) * rng.uniform(0.08, 0.92, size=geom.dim)
        if geom.shape == "disk":
            while geom.distance(x) <= 0.02:
                x = lo + (hi - lo) * rng.uniform(0.08, 0.92, size=geom.dim)
        val = loc.partition_check(x, fam, args.resolution)
        worst = max(worst, abs(val - 1.0))
        rec.add(f"partition_{i}", val, abs(val - 1.0), "scale_grid_quadrature")
    scaling = loc.neighborhood_integrals(geom)
    rec.add("bulk_exponent", scaling["bulk_exponent"],
            abs(scaling["bulk_exponent"] + 1.0), "loglog_fit")
    rec.add("collar_exponent", scaling["collar_exponent"],
            abs(scaling["collar_exponent"] - 1.0), "loglog_fit")
    rec.add("worst_partition_error", worst, 0.0, "derived")
    rec.write(args.output, args.format)
    ok = (worst < args.tolerance
          and abs(scaling["bulk_exponent"] + 1.0) < 0.2
          and abs(scaling["collar_exponent"] - 1.0) < 0.2)
    return EXIT_OK if ok else EXIT_ASSERTION


def cmd_convert(args) -> int:
    try:
        C, D = consts.cesaro_riesz_convert(args.A, args.B, args.a, args.b)
        A_back, B_back = consts.cesaro_riesz_invert(C, D, args.a, args.b)
    except ValueError as exc:
        raise UsageError(str(exc))
    rec = ReportRecord()
    rec.add("C", C, 0.0, "sum_to_riesz")
    rec.add("D", D, 0.0, "sum_to_riesz")
    rec.add("A_roundtrip", A_back, abs(A_back - args.A), "riesz_to_sum")
    rec.add("B_roundtrip", B_back, abs(B_back - args.B), "riesz_to_sum")
    rec.write(args.output, args.format)
    ok = abs(A_back - args.A) <= 1e-10 * max(1.0, abs(args.A)) and \
        abs(B_back - args.B) <= 1e-10 * max(1.0, abs(args.B))
    return EXIT_OK if ok else EXIT_ASSERTION


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fracweyl",
        description="two-term spectral asymptotics workbench for the "
                    "fractional Laplacian")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="bulk/surface coefficients, all routes")
    _add_common(p)
    p.add_argument("--volume", type=float, default=None)
    p.add_argument("--surface", type=float, default=None)
    p.set_defaults(fn=cmd_constants)

    p = sub.add_parser("kernels", help="tabulate half-line kernels")
    _add_common(p)
    p.add_argument("--mu", type=_float_list(lambda v: v > 0, "positive"),
                   default="2.0,4.0")
    p.add_argument("--t", type=_float_list(lambda v: v >= 0, "nonnegative"),
                   default="0.5,1.0,2.0")
    p.set_defaults(fn=cmd_kernels)

    p = sub.add_parser("layer", help="tabulate the boundary layer profile")
    _add_common(p)
    p.add_argument("--t-min", type=_positive(float), default=0.05)
    p.add_argument("--t-max", type=_positive(float), default=40.0)
    p.add_argument("--points", type=_positive(int), default=60)
    p.add_argument("--plot-script", action="store_true")
    p.set_defaults(fn=cmd_layer)

    p = sub.add_parser("verify-square", help="two-term fit on the unit square")
    _add_common(p)
    p.add_argument("--lattice-points", type=_positive(int), default=64)
    p.add_argument("--h-max", type=_positive(float), default=0.25)
    p.add_argument("--h-count", type=_positive(int), default=6)
    p.add_argument("--c0-tol", type=_positive(float), default=0.03)
    p.add_argument("--c1-tol", type=_positive(float), default=0.25)
    p.set_defaults(fn=cmd_verify_square)

    p = sub.add_parser("verify-halfspace", help="half-space kernel law")
    _add_common(p)
    p.add_argument("--h", type=_positive(float), default=0.5)
    p.set_defaults(fn=cmd_verify_halfspace)

    p = sub.add_parser("order-check", help="operator ordering on lattice blocks")
    _add_common(p, with_order=False)
    p.add_argument("--s-list", type=_float_list(), default="0.25,0.5,0.75")
    p.add_argument("--interval-points", type=_positive(int), default=64)
    p.add_argument("--square-points", type=_positive(int), default=20)
    p.set_defaults(fn=cmd_order_check)

    p = sub.add_parser("localization-check", help="partition of unity checks")
    _add_common(p, with_order=False)
    p.add_argument("--shape", choices=("interval", "rectangle", "disk"),
                   default="interval")
    p.add_argument("--extent", type=_positive(float), default=4.0)
    p.add_argument("--l0", type=float, default=0.25)
    p.add_argument("--resolution", type=_positive(int), default=8)
    p.add_argument("--points", type=_positive(int), default=8)
    p.add_argument("--tolerance", type=_positive(float), default=1e-3)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(fn=cmd_localization_check)

    p = sub.add_parser("convert", help="partial-sum <-> Riesz coefficient map")
    _add_common(p, with_order=False)
    p.add_argument("--A", type=float, required=True)
    p.add_argument("--B", type=float, default=0.0)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.set_defaults(fn=cmd_convert)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:  # NonConvergenceError among them
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
