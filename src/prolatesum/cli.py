"""Command-line front end: compute bases, run the verification battery,
sweep convergence, tabulate kernels, and print exponent tables.

Exit codes: 0 all good, 1 usage or invalid configuration, 2 a verification
check failed, 3 an internal numerical routine failed, the Galerkin truncation
(--n, --keep-fraction) does not certify every retained eigenvalue, or the
quadrature rule (--quad-size) cannot resolve the retained modes.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np
import numpy.random  # noqa: F401  numpy loads it on first use: load it here, not inside an op

from . import analysis, riesz, transforms
from .prolate import Family, ProlateSpec, check_bounds, family_grid, solve
from .riesz import ExponentTable, RieszConfig, delta_threshold, dual_exponent
from .specfun import NumericsError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK = 2
EXIT_NUMERICS = 3


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    """Fully resolved run parameters; embedded in every output file so a run
    can be reproduced bit-for-bit from its artifact.  A quad_size of None
    asks for EigenSystem.default_rule's size; verify and sweep record the
    size of the rule they build."""

    command: str
    family: str = "gpswf"
    alpha: float = 0.0
    c: float = 1.0
    N: int = 128
    keep_fraction: float = 0.5
    quad_size: int | None = None
    p: float = 2.0
    delta: float = 1.0
    r_start: float | None = None
    r_stop: float | None = None
    r_count: int = 8
    fn: str = "exp"
    R: float | None = None
    grid_points: int = 16
    p_value: float | None = None
    p_start: float = 1.05
    p_stop: float = 64.0
    p_count: int = 12
    eps_choice: float = 0.01
    seed: int = 0
    output: str | None = None
    fmt: str = "json"

    def validate(self):
        if self.family not in ("gpswf", "cpswf"):
            raise UsageError("family must be gpswf or cpswf")
        if self.fmt not in ("json", "csv"):
            raise UsageError("format must be json or csv")
        if self.quad_size is not None and self.quad_size < 8:
            raise UsageError("quadrature size must be >= 8")
        if not self.p >= 1:
            raise UsageError("p must be >= 1")
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise UsageError("delta must be finite and positive")
        if self.R is not None and not (math.isfinite(self.R) and self.R > 0):
            raise UsageError("R must be finite and positive")
        if not (math.isfinite(self.p_start) and math.isfinite(self.p_stop)):
            raise UsageError("p grid ends must be finite")
        if self.p_count < 1:
            raise UsageError("p grid needs at least 1 point")
        if self.r_count < 2:
            raise UsageError("R grid needs at least 2 points")
        if self.grid_points < 1:
            raise UsageError("kernel grid needs at least 1 point")


def _spec(cfg: RunConfig) -> ProlateSpec:
    return ProlateSpec(family=Family(cfg.family), alpha=cfg.alpha, c=cfg.c,
                       N=cfg.N, keep_fraction=cfg.keep_fraction)


def _fn_values(name: str, x: np.ndarray) -> np.ndarray:
    if name == "exp":
        return np.exp(x)
    if name == "sin":
        return np.sin(3.0 * x)
    if name == "runge":
        return 1.0 / (1.0 + 25.0 * x * x)
    raise UsageError(f"unknown probe function {name!r}")


def _json_text(obj) -> str:
    """Strict JSON of obj with the bytes of json.dumps(obj, indent=2,
    sort_keys=True), except that a non-finite float is written as null.

    An ndarray is written with the bytes of its tolist(); a nonempty float64
    array of one or two axes formats only its nonzero entries
    (_float_rows).  A finite float (np.float64 included) is written with
    float.__repr__, the form json itself writes; other scalars are written by
    json.dumps.  Dict keys must be strings.
    """
    return b"".join(_json_chunks(obj, "\n")).decode()


def _json_line(obj) -> str:
    """_json_text(obj) on one line: the bytes of json.dumps(obj,
    sort_keys=True), except that a non-finite float is written as null."""
    return json.dumps(json.loads(_json_text(obj)), sort_keys=True)


def _json_chunks(obj, pad: str):
    """Yield the JSON of obj as ASCII bytes-like chunks, for _json_text.
    pad is the newline and indent that close obj; its items sit one level in."""
    inner = pad + "  "
    if isinstance(obj, np.ndarray):
        if obj.dtype != np.float64 or obj.size == 0 or obj.ndim == 0:
            obj = obj.tolist()
        elif obj.ndim == 1:
            yield from _float_rows(obj[None, :], pad)
            return
        elif obj.ndim == 2:
            yield ("[" + inner).encode()
            yield from _float_rows(obj, inner)
            yield (pad + "]").encode()
            return
        else:  # the list of its 2-d slabs
            obj = list(obj)
    if isinstance(obj, float):
        yield (float.__repr__(obj) if math.isfinite(obj) else "null").encode()
    elif isinstance(obj, dict) and obj:
        if not all(isinstance(k, str) for k in obj):
            raise TypeError("artifact keys must be strings")
        sep = "{" + inner
        for k, v in sorted(obj.items()):
            yield (sep + json.dumps(k) + ": ").encode()
            yield from _json_chunks(v, inner)
            sep = "," + inner
        yield (pad + "}").encode()
    elif isinstance(obj, (list, tuple)) and obj:
        sep = "[" + inner
        for v in obj:
            yield sep.encode()
            yield from _json_chunks(v, inner)
            sep = "," + inner
        yield (pad + "]").encode()
    else:  # str, int, bool, None, {} and []
        yield json.dumps(obj).encode()


def _float_rows(a: np.ndarray, pad: str):
    """Yield the rows of the nonempty 2-d float64 array a, each with the
    bytes of its tolist() closed by pad, the rows separated by "," + pad.

    The whole array takes a fixed number of numpy calls, and only entries
    whose bits are not those of +0.0 (-0.0 among them) are formatted.  Each
    row is written as three pieces: the zeros before its first formatted
    entry and those after its last are slices of one shared buffer, which
    also is the row object of every all-zero row, and only the band between
    is built as text.
    """
    k, n = a.shape
    cell = pad + "  "
    unit = len(cell) + 4  # one more zero entry: "," + cell + "0.0"
    # the buffer is "," + pad + "[", an all-zero row, then its closing pad + "]"
    opening = len(pad) + 2
    zeros = memoryview(("," + pad + "[" + cell + "0.0" + ("," + cell + "0.0") * (n - 1)
                        + pad + "]").encode())
    flat = np.ascontiguousarray(a).reshape(-1)
    nonzero = np.flatnonzero(flat.view(np.int64))
    values = flat[nonzero]
    text = list(map(float.__repr__, values.tolist()))
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        text[i] = "null"
    cols = (nonzero % n).tolist()
    bounds = np.searchsorted(nonzero, np.arange(k + 1) * n).tolist()
    sep = "," + cell
    start = opening - 1  # the first row has no separator
    for lo, hi in zip(bounds, bounds[1:]):
        if lo == hi:
            yield zeros[start:] if start else zeros
        else:
            first, last = cols[lo], cols[hi - 1]
            band = ["0.0"] * (last - first + 1)
            for c, t in zip(cols[lo:hi], text[lo:hi]):
                band[c - first] = t
            yield zeros[start:opening + first * unit + len(cell)]
            yield sep.join(band).encode()
            yield zeros[opening + (last + 1) * unit - 1:]
        start = 0


def _csv_text(header: str, rows) -> str:
    """CSV text: the header line, then one line per row with every integer
    (int or np.integer) written exactly as str(int(v)), a bool as 1 or 0,
    and every other value as format(v, ".17g"), the same bytes for a float,
    nan, inf or np.float64."""
    lines = [header]
    lines.extend(",".join(str(int(v)) if isinstance(v, (int, np.integer)) else format(v, ".17g")
                          for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _emit(cfg: RunConfig, results, csv=None, checks=()) -> None:
    """Write the run's artifact; the one place cfg.fmt is read.  CSV holds
    the table csv = (header, rows), or results as one JSON line when there is
    none; rows() is called only for CSV, so a JSON run never builds them.
    JSON is streamed chunk by chunk, the same bytes to a file and to stdout."""
    if cfg.fmt == "json":
        chunks = itertools.chain(
            _json_chunks({"config": asdict(cfg), "results": results, "checks": checks}, "\n"), [b"\n"])
    else:
        # each comment line and a results dict is one line of strict JSON
        text = "# config: " + _json_line(asdict(cfg)) + "\n"
        text += _csv_text(csv[0], csv[1]()) if csv else _json_line(results) + "\n"
        if checks:
            text += "# checks: " + _json_line(checks) + "\n"
        chunks = [text.encode()]
    if cfg.output:
        try:
            with open(cfg.output, "wb") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise UsageError(f"cannot write {cfg.output}: {exc.strerror}") from exc
    else:
        sys.stdout.flush()  # text written before the artifact stays before it
        out = getattr(sys.stdout, "buffer", None)
        if out is None:  # a text stream with no bytes layer, such as io.StringIO
            sys.stdout.write(b"".join(chunks).decode())
        else:
            out.writelines(chunks)
            out.flush()


# ---------------------------------------------------------------------------
# verification battery
# ---------------------------------------------------------------------------

def _check(name: str, value: float, tolerance: float, larger_ok: bool = False) -> dict:
    ok = value >= tolerance if larger_ok else value <= tolerance
    return {"name": name, "pass": bool(ok), "value": float(value), "tolerance": float(tolerance)}


# the largest c for the transform checks: apply_Qc evaluates bessel_j, whose
# range is x <= 1e6, at c|x - y| < 2c; mode_transforms' Miller pass starts
# past order c, so the bound also keeps it to about 1e6 steps
VERIFY_C_MAX = {"gpswf": 5e5, "cpswf": 1e6}


def _dyadic_grid_maxima(rc: RieszConfig) -> tuple[float, float]:
    """For the dyadic pieces k = 1..K on a 100,001-point grid of [0, 1.05 R]:
    the largest ratio of a piece's sup to its bound 2^delta 2^{-k delta}, and
    the largest value a piece takes outside its support window.  Its arrays
    die on return, before the transform checks reach their peak memory."""
    grid = np.linspace(0.0, rc.R * 1.05, 100_001)
    K = riesz.dyadic_cutoff(rc)
    k, lower, upper = riesz.dyadic_split(grid, rc)
    # the grid ascends, so k does too: piece j is upper on the run k == j - 1,
    # lower on the run k == j, and +0.0 at every other point
    first = np.searchsorted(k, np.arange(K + 2))  # first[j]: the first point with k >= j
    worst_rel = 0.0
    support_leak = 0.0
    for j in range(1, K + 1):
        s, m, e = first[j - 1], first[j], first[j + 1]
        vals = np.concatenate((upper[s:m], lower[m:e]))  # piece j on grid[s:e]
        # a piece that is 0 on the grid meets any bound, even one that underflows to 0
        peak = np.max(vals, initial=0.0)
        worst_rel = max(worst_rel, float(peak / 2.0 ** (rc.delta - j * rc.delta)) if peak > 0 else 0.0)
        lo_j, hi_j = rc.R * (1 - 2.0 ** (-j + 1)), rc.R * (1 - 2.0 ** (-j - 1))
        # the points outside (lo_j, hi_j) are grid[:a] and grid[b:]
        a, b = np.searchsorted(grid, lo_j, side="right"), np.searchsorted(grid, hi_j)
        outside = np.concatenate((vals[:max(a - s, 0)], vals[max(b - s, 0):]))
        support_leak = max(support_leak, float(np.max(outside, initial=0.0)))
    return worst_rel, support_leak


def _verify_checks(cfg: RunConfig) -> list[dict]:
    if cfg.c > VERIFY_C_MAX[cfg.family]:
        raise UsageError(f"verify needs --c <= {VERIFY_C_MAX[cfg.family]:.0e} for {cfg.family} "
                         f"(its transform checks evaluate Bessel J up to 1e6), got {cfg.c:g}")
    if cfg.family == "gpswf" and cfg.alpha > transforms.GPSWF_ALPHA_MAX:
        raise UsageError(f"verify needs --alpha <= {transforms.GPSWF_ALPHA_MAX:g} for gpswf (its transform "
                         f"checks scale Bessel J by 2^(alpha+1/2) Gamma(alpha+3/2)), got {cfg.alpha:g}")
    spec = _spec(cfg)
    es = solve(spec)
    if es.n_retained < 3:
        raise UsageError(f"verify needs at least 3 retained modes, have {es.n_retained}")
    rule = es.default_rule(cfg.quad_size)
    cfg.quad_size = rule.size  # the artifact records the rule the run used
    rng = np.random.default_rng(cfg.seed)
    checks = []

    gaps = np.diff(es.chi)
    checks.append(_check("eigenvalues_strictly_increasing", float(np.min(gaps)), 0.0, larger_ok=True))

    lo, hi = es.lower_bounds(), es.upper_bounds()
    violation = float(np.max(np.maximum(lo - es.chi, es.chi - hi)))
    checks.append(_check("eigenvalue_sandwich", violation, es.bounds_slack))
    in_bounds = check_bounds(es)
    checks.append(_check("eigenvalue_sandwich_all_true", np.sum(in_bounds), es.n_retained, larger_ok=True))

    modes = es.rule_modes(rule)
    gram = (modes * rule.weights) @ modes.T
    gram.flat[:: es.n_retained + 1] -= 1.0  # gram - I, in place
    checks.append(_check("orthonormality_gram", float(max(gram.max(), -gram.min())), 1e-8))

    # solve's bound on each chi_n's distance to the untruncated operator's
    checks.append(_check("truncation_refinement",
                         float(np.max(es.chi_error / np.maximum(1.0, es.chi))), 1e-10))

    if spec.family is Family.GPSWF:
        # a parity-0 mode lives on the even rows, a parity-1 mode on the odd ones
        wrong = np.where(es.parity == 0, np.max(np.abs(es.coeffs[1::2]), axis=0),
                         np.max(np.abs(es.coeffs[0::2]), axis=0))
        checks.append(_check("parity_support", float(np.max(wrong)), 0.0))

    checks.append(_check("condition_b1_counting", analysis.calibrate_b1(es), 1.0))

    n = np.arange(es.n_retained, dtype=float)
    if spec.family is Family.GPSWF and spec.alpha >= 0:
        ratios = es.chi[1:] / n[1:] ** 2
        checks.append(_check("condition_b2_chi_ge_n2", float(np.min(ratios)), 1.0 - 1e-12, larger_ok=True))
    if spec.family is Family.CPSWF and spec.alpha >= 0.5:
        ratios = es.chi[1:] / (4 * n[1:] ** 2)
        checks.append(_check("condition_b2_chi_ge_4n2", float(np.min(ratios)), 1.0 - 1e-12, larger_ok=True))

    if es.n_retained > 40:
        hi_n = min(100, es.n_retained - 1)
        slope = analysis.norm_growth_fit(es, math.inf, (20, hi_n))
        checks.append(_check("condition_a_sup_growth", slope, spec.alpha + 1.0 + 0.1))

    t = rng.uniform(1e-6, 1.0, size=10_000)
    part = np.zeros_like(t)
    for k in range(-40, 41):
        part += riesz.bump(np.ldexp(t, k))
    checks.append(_check("dyadic_partition_of_unity", float(np.max(np.abs(part - 1.0))), 1e-13))

    worst_gap = 0.0
    for _ in range(5):
        R = float(rng.uniform(es.chi[2], es.certified_max))
        delta = float(rng.uniform(0.1, 3.0))
        rc = RieszConfig(R=R, delta=delta)
        K = riesz.dyadic_cutoff(rc)
        k, lower, upper = riesz.dyadic_split(es.chi, rc)
        # pieces 0..K: a point's lower part is piece k, its upper part piece k + 1 (k >= -1)
        total = np.where((k >= 0) & (k <= K), lower, 0.0) + np.where(k < K, upper, 0.0)
        total = total + riesz.dyadic_tail(es.chi, rc)
        worst_gap = max(worst_gap, float(np.max(np.abs(total - riesz.riesz_weight(es.chi, rc)))))
    checks.append(_check("dyadic_decomposition_identity", worst_gap, 1e-12))

    worst_rel, support_leak = _dyadic_grid_maxima(RieszConfig(R=float(es.certified_max), delta=cfg.delta))
    checks.append(_check("dyadic_piece_sup_bound", worst_rel, 1.0))
    checks.append(_check("dyadic_piece_support", support_leak, 0.0))

    if spec.c > 0:
        # transform eigenvalues mu_n of the first 9 modes, their transforms in
        # closed form; modes with |mu_n| below the noise floor are left out of
        # both checks.  Q_c keeps its quadrature kernel, a route independent of F
        f = transforms.SampledFunction(rule=rule, values=modes[:9])
        g = transforms.mode_transforms(es, rule, f.values.shape[0])
        mu = transforms.rayleigh(g, f)
        kept = np.abs(mu) >= 1e-8
        resid = analysis._lp_norms(g.values - mu[:, None] * f.values, rule.weights, 2.0)
        worst_resid = float(np.max(resid[kept] / np.abs(mu[kept]), initial=0.0))
        checks.append(_check("transform_eigenrelation_residual", worst_resid, 1e-4))
        if spec.family is Family.GPSWF:
            f5 = transforms.SampledFunction(rule=rule, values=modes[:5])
            lam = transforms.rayleigh(transforms.apply_Qc(spec.alpha, spec.c, f5), f5).real
            gap = np.abs(lam - spec.c / (2 * math.pi) * np.abs(mu[:5]) ** 2)[kept[:5]]
            checks.append(_check("qc_eigenvalue_consistency", float(np.max(gap, initial=0.0)), 1e-8))

    return checks


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_basis(cfg: RunConfig) -> int:
    es = solve(_spec(cfg))
    _emit(cfg, es.to_dict(),
          csv=("n,chi,lower_bound,upper_bound",
               lambda: zip(range(es.n_retained), es.chi, es.lower_bounds(), es.upper_bounds())))
    return EXIT_OK


def _cmd_verify(cfg: RunConfig) -> int:
    checks = _verify_checks(cfg)
    n_pass = sum(1 for c in checks if c["pass"])
    _emit(cfg, {"n_checks": len(checks), "n_pass": n_pass}, checks=checks)
    return EXIT_OK if n_pass == len(checks) else EXIT_CHECK


def _cmd_sweep(cfg: RunConfig) -> int:
    es = solve(_spec(cfg))
    # a missing end of the R grid defaults to chi_4 (start) or the largest
    # retained eigenvalue (stop); a given end is kept as given
    if cfg.r_start is None:
        if es.n_retained < 6:
            raise UsageError(
                f"the default R grid start is chi_4 and needs at least 6 retained "
                f"modes, have {es.n_retained}"
            )
        r_start = float(es.chi[4])
    else:
        r_start = cfg.r_start
    r_stop = float(es.certified_max) if cfg.r_stop is None else cfg.r_stop
    es.check_radius(r_stop)
    if not 0 < r_start < r_stop:
        raise UsageError("need 0 < r_start < r_stop")
    if r_start <= es.chi[0]:
        # every summation weight is 0 at such a radius
        raise UsageError(f"r_start must exceed chi_0 = {float(es.chi[0])!r}, the smallest eigenvalue")
    R_grid = np.geomspace(r_start, r_stop, cfg.r_count)
    rule = es.default_rule(cfg.quad_size)
    cfg.quad_size = rule.size  # the artifact records the rule the run used
    f = transforms.SampledFunction(rule=rule, values=_fn_values(cfg.fn, rule.nodes))
    report = analysis.convergence_sweep(f, es, cfg.p, cfg.delta, R_grid)
    probes = analysis.boundary_probes(es, rule, seed=cfg.seed)
    sups = analysis.operator_norm_probe(es, cfg.p, cfg.delta, R_grid, probes)
    report.probe_growth = float(sups[-1] / sups[0])
    _emit(cfg, report.to_dict(),
          csv=("R,error,weight_count,slope_so_far",
               lambda: zip(report.R_grid, report.errors, report.weight_counts, report.slope_so_far)))
    return EXIT_OK


def _cmd_kernel(cfg: RunConfig) -> int:
    es = solve(_spec(cfg))
    R = cfg.R if cfg.R is not None else float(es.certified_max)
    lo, hi = family_grid(es.spec.family, es.spec.alpha).interval
    pts = lo + (hi - lo) * (np.arange(cfg.grid_points) + 0.5) / cfg.grid_points
    K = riesz.riesz_kernel_table(es, RieszConfig(R=R, delta=cfg.delta), pts)
    x = pts.tolist()
    _emit(cfg, {"R": R, "delta": cfg.delta, "points": pts, "kernel": K},
          csv=("x,y,value",
               lambda: ((xi, yj, v) for xi, row in zip(x, K.tolist()) for yj, v in zip(x, row))))
    return EXIT_OK


def _cmd_exponents(cfg: RunConfig) -> int:
    table = ExponentTable(Family(cfg.family), cfg.alpha, eps_choice=cfg.eps_choice)
    if cfg.p_value is not None:
        ps = [cfg.p_value]
    else:
        ps = list(np.geomspace(cfg.p_start, cfg.p_stop, cfg.p_count))
    rows = []
    for p in ps:
        thr = delta_threshold(table, p)
        rows.append({
            "p": p,
            "gamma_p": table.gamma(p),
            "p_dual": dual_exponent(p),
            "gamma_p_dual": table.gamma(dual_exponent(p)),
            "delta_threshold": thr.value,
            "critical": thr.critical,
        })
    for r in rows:
        sys.stdout.write(
            f"p={r['p']:.6g} gamma={r['gamma_p']:.6g} p'={r['p_dual']:.6g} "
            f"gamma(p')={r['gamma_p_dual']:.6g} delta_threshold={r['delta_threshold']:.6g}"
            + (" (critical line p=p_0)" if r["critical"] else "") + "\n"
        )
    if cfg.output:
        keys = ("p", "gamma_p", "p_dual", "gamma_p_dual", "delta_threshold", "critical")
        _emit(cfg, {"p0": table.p0, "p0_dual": table.p0_dual, "rows": rows},
              csv=(",".join(keys), lambda: ([r[k] for k in keys] for r in rows)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # options left out stay out of the namespace: every default is RunConfig's
    def __init__(self, **kwargs):
        super().__init__(argument_default=argparse.SUPPRESS, **kwargs)

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="prolatesum",
                     description="prolate eigenbases and spectral summation diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family_args(sp):
        sp.add_argument("--family", choices=["gpswf", "cpswf"])
        sp.add_argument("--alpha", type=float)
        sp.add_argument("--c", type=float)
        sp.add_argument("--n", type=int, dest="N")
        sp.add_argument("--keep-fraction", type=float)
        sp.add_argument("--quad-size", type=int)

    def add_io_args(sp):
        sp.add_argument("--output")
        sp.add_argument("--format", choices=["json", "csv"], dest="fmt")

    sp = sub.add_parser("basis", help="solve the eigenproblem and export it")
    add_family_args(sp); add_io_args(sp)

    sp = sub.add_parser("verify", help="run the aggregated verification battery")
    add_family_args(sp); add_io_args(sp)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--delta", type=float)

    sp = sub.add_parser("sweep", help="convergence sweep over a geometric R grid")
    add_family_args(sp); add_io_args(sp)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--p", type=float)
    sp.add_argument("--delta", type=float)
    sp.add_argument("--r-start", type=float)
    sp.add_argument("--r-stop", type=float)
    sp.add_argument("--r-count", type=int)
    sp.add_argument("--fn", choices=["exp", "sin", "runge"])

    sp = sub.add_parser("kernel", help="tabulate the summation kernel on a grid")
    add_family_args(sp); add_io_args(sp)
    sp.add_argument("--R", type=float)
    sp.add_argument("--delta", type=float)
    sp.add_argument("--grid-points", type=int)

    sp = sub.add_parser("exponents", help="print the exponent and threshold tables")
    sp.add_argument("--family", choices=["gpswf", "cpswf"])
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--p", type=float, dest="p_value")
    sp.add_argument("--p-start", type=float)
    sp.add_argument("--p-stop", type=float)
    sp.add_argument("--p-count", type=int)
    sp.add_argument("--eps-choice", type=float)
    add_io_args(sp)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(**vars(args))
    cfg.validate()
    return cfg


_COMMANDS = {
    "basis": _cmd_basis,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "kernel": _cmd_kernel,
    "exponents": _cmd_exponents,
}


def run(config: RunConfig) -> int:
    """Execute one resolved configuration; returns the process exit code."""
    try:
        return _COMMANDS[config.command](config)
    except NumericsError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICS
    except ValueError as exc:  # UsageError among them
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = config_from_args(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
