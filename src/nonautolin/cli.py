"""Command-line front end.

Subcommands:

  check        certify the admissibility conditions, emit the hypothesis report
  conjugate    build the conjugacies and measure inverse + equivariance residuals
  derivatives  validate the analytic Jacobians against central finite differences
  report       all of the above, plus CSV residual/jacobian tables

Exit codes: 0 pass, 1 fail, 2 configuration error.  The JSON report is
written to stdout or --out; with --format csv (or the report subcommand and
an --out directory) the residual tables are written as CSV.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys as _sys
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .catalog import BUILDERS, ExampleParams, check_field_types, make_system
from .conjugacy import ConjugacyEngine
from .derivatives import validate_jacobians
from .errors import ConfigError, NonautolinError
from .hypotheses import certify
from .system import SystemSpec

SCHEMA_VERSION = "1"


@dataclass
class RunConfig:
    system: str = "ex1"
    system_params: dict = field(default_factory=dict)
    window_halfwidth: int = 40
    n_min: int = -10
    n_max: int = 10
    probes_per_axis: int = 5
    probe_extent: float = 1.0
    series_tol: float = 1e-9
    fp_tol: float = 1e-10
    fd_step: float = 1e-5
    seed: int = 0
    steps: int = 10
    bc_probes: int = 64
    jacobian_probe_cap: int = 12
    equivariance_threshold: float = 1e-7
    jacobian_threshold: float = 1e-4
    inverse_threshold: Optional[float] = None
    force: bool = False

    def __post_init__(self):
        check_field_types(self, ConfigError)
        if self.seed < 0 or self.steps < 0:
            raise ConfigError("seed and steps must be >= 0")
        if self.bc_probes < 1 or self.jacobian_probe_cap < 1:
            raise ConfigError("bc_probes and jacobian_probe_cap must be >= 1")
        if self.series_tol <= 0 or self.fp_tol <= 0 or self.fd_step <= 0:
            raise ConfigError("tolerances must be positive")
        if not min(self.equivariance_threshold, self.jacobian_threshold, self.inverse_tol) > 0:
            raise ConfigError("thresholds must be positive")
        if self.probes_per_axis < 1:
            raise ConfigError("probes_per_axis must be >= 1")
        if not (self.probe_extent >= 0 and math.isfinite(2 * self.probe_extent)):
            raise ConfigError("probe_extent must be >= 0 with 2 * probe_extent finite")
        if self.window_halfwidth < 1:
            raise ConfigError("window must be >= 1")
        if self.n_min > self.n_max:
            raise ConfigError("n-min must be <= n-max")
        if self.system not in BUILDERS:
            raise ConfigError(f"unknown system {self.system!r}; choose from {sorted(BUILDERS)}")

    @property
    def n_range(self) -> tuple[int, int]:
        return (self.n_min, self.n_max)

    @property
    def inverse_tol(self) -> float:
        if self.inverse_threshold is not None:
            return self.inverse_threshold
        return self.fp_tol + 10.0 * self.series_tol


def build_system(cfg: RunConfig) -> SystemSpec:
    try:
        params = ExampleParams(variant=cfg.system, **cfg.system_params)
        return make_system(params)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad system parameters: {exc}") from exc


def probe_grid(dim: int, per_axis: int, extent: float, rng: np.random.Generator) -> np.ndarray:
    """Deterministic lattice plus seeded jitter; shape (n_probes, dim)."""
    axis = np.linspace(-extent, extent, per_axis)
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    lattice = np.stack([m.ravel() for m in mesh], axis=1)
    spacing = 2.0 * extent / (per_axis - 1) if per_axis > 1 else extent
    jitter = rng.uniform(-spacing / 4.0, spacing / 4.0, lattice.shape)
    return lattice + jitter


def _split_probes(sys: SystemSpec, probes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    dx = sys.space.dim_x
    return probes[:, :dx].T.copy(), probes[:, dx:].T.copy()


# -- phases ---------------------------------------------------------------------


def _engine(cfg: RunConfig, sys: SystemSpec) -> ConjugacyEngine:
    """The engine of the conjugate and derivatives phases: window cap 4 check windows, >= 64."""
    return ConjugacyEngine(
        sys,
        window_halfwidth=max(cfg.window_halfwidth * 4, 64),
        series_tol=cfg.series_tol,
        fp_tol=cfg.fp_tol,
        advanced_halfwidth=cfg.window_halfwidth,
    )


def phase_check(cfg: RunConfig, sys: SystemSpec) -> tuple[dict, bool]:
    report = certify(
        sys,
        n_range=cfg.n_range,
        window_halfwidth=cfg.window_halfwidth,
        probes=cfg.bc_probes,
        seed=cfg.seed,
        probe_extent=cfg.probe_extent,
    )
    return report.to_json(), report.overall_ok


def phase_conjugate(cfg: RunConfig, engine: ConjugacyEngine) -> tuple[dict, dict, bool]:
    """The equivariance and inverse tables over n_min..n_max at the probes.

    A residual is a difference of values of the probe's magnitude, so a
    probe p with eps max(1, |p|) > threshold, where that difference cannot
    resolve the threshold, is listed under the table's `errors` at every n,
    as `phase_derivatives` lists one with fd_step 1.  A probe's error from
    the walks (`ConjugacyEngine.residual_tables`) is listed in its place.
    """
    sys = engine.sys
    rng = np.random.default_rng(cfg.seed)
    grid = probe_grid(sys.space.dim_x + sys.space.dim_y, cfg.probes_per_axis,
                      cfg.probe_extent, rng)
    xi_b, eta_b = _split_probes(sys, grid)
    tables = engine.residual_tables(range(cfg.n_min, cfg.n_max + 1), xi_b, eta_b,
                                    steps=cfg.steps)
    thresholds = {"inverse": cfg.inverse_tol, "equivariance": cfg.equivariance_threshold}
    resolution = [_resolution(probe) for probe in grid]
    unresolved = {name: {i: f"residual resolution eps max(1, |p|) = {r:.3g} exceeds the "
                            f"{name} threshold {threshold:g}"
                         for i, r in enumerate(resolution) if not r <= threshold}
                  for name, threshold in thresholds.items()}
    out: dict = {name: ([], []) for name in thresholds}  # (rows, errors)
    for n, res in tables.items():
        equi = None if res.forward is None else np.maximum(res.forward, res.dual)
        for name, failed, value, residual in (
                ("inverse", res.inverse_errors, res.h, res.inverse),
                ("equivariance", res.equivariance_errors, res.bar_h, equi)):
            rows, errors = out[name]
            for i, probe in enumerate(grid):  # a probe with an error has no row
                error = failed.get(i) or unresolved[name].get(i)
                if error:
                    errors.append({"n": n, "probe": [float(v) for v in probe],
                                   "error": str(error)})
                else:
                    rows.append(_row(n, probe, value[:, i], float(residual[i]), res.tail_bound))
    inverse, equivariance = (_table(*out[name], thresholds[name]) for name in thresholds)
    return equivariance, inverse, bool(inverse["ok"] and equivariance["ok"])


def _resolution(probe: np.ndarray, step: float = 1.0) -> float:
    """eps max(1, |probe|) / step, |.| the max norm, as a Python float (inf
    on overflow): what a difference of values of the probe's size, divided
    by `step`, can resolve."""
    return _sys.float_info.epsilon * max(1.0, float(np.max(np.abs(probe)))) / step


def _table(rows: list, errors: list, threshold: float, key: str = "residual") -> dict:
    """One result table: its rows and errors, the largest `key` of its rows,
    and whether that is within threshold with no errors."""
    values = [r[key] for r in rows]
    max_val = max(values) if values else None
    ok = not errors and max_val is not None and max_val <= threshold
    return {
        "rows": rows,
        "errors": errors,
        f"max_{key}": max_val,
        "threshold": threshold,
        "ok": bool(ok),
    }


def _row(n: int, probe: np.ndarray, value: np.ndarray, residual: float,
         tail: Optional[float]) -> dict:
    return {
        "n": int(n),
        "probe": [float(v) for v in probe],
        "value": [float(v) for v in np.atleast_1d(value)],
        "residual": float(residual),
        "tail_bound": None if tail is None or not math.isfinite(tail) else float(tail),
    }


def phase_derivatives(cfg: RunConfig, engine: ConjugacyEngine) -> tuple[dict, bool]:
    """Jacobian rows at every probe of the three indices n_min, mid, n_max.

    A probe z at which the step cannot resolve the threshold,
    eps max(1, |z|) / fd_step > jacobian_threshold, is listed under
    `errors` at every n: no finite difference can check a Jacobian there.
    Per n, one validate_jacobians call takes the other probes as columns.
    It gives each probe its reports, or its error when its blocks are not
    finite; when it raises, its error is listed for every one of them.
    """
    sys = engine.sys
    rng = np.random.default_rng(cfg.seed + 1)
    grid = probe_grid(sys.space.dim_x + sys.space.dim_y, cfg.probes_per_axis,
                      cfg.probe_extent, rng)
    if grid.shape[0] > cfg.jacobian_probe_cap:
        take = rng.choice(grid.shape[0], size=cfg.jacobian_probe_cap, replace=False)
        grid = grid[np.sort(take)]
    n_values = sorted({cfg.n_min, (cfg.n_min + cfg.n_max) // 2, cfg.n_max})
    xi_b, eta_b = _split_probes(sys, grid)
    unresolved = {}
    for i, probe in enumerate(grid):
        resolution = _resolution(probe, cfg.fd_step)
        if not resolution <= cfg.jacobian_threshold:
            unresolved[i] = (f"finite-difference resolution eps max(1, |z|) / fd_step = "
                             f"{resolution:.3g} exceeds the Jacobian threshold "
                             f"{cfg.jacobian_threshold:g}")
    live = [i for i in range(grid.shape[0]) if i not in unresolved]

    rows, errors = [], []
    for n in n_values:
        per_probe = dict(unresolved)  # probe index -> reports, or an error message
        try:
            per_probe.update(zip(live, validate_jacobians(
                engine, n, xi_b[:, live], eta_b[:, live], fd_step=cfg.fd_step) if live else []))
        except NonautolinError as exc:
            per_probe.update(dict.fromkeys(live, str(exc)))
        for i, probe in enumerate(grid):
            point, reports = [float(v) for v in probe], per_probe[i]
            if isinstance(reports, str):
                errors.append({"n": int(n), "probe": point, "error": reports})
                continue
            rows += [{"kind": kind, "n": int(n), "probe": point, "rel_error": rep.rel_error,
                      "fd_step": rep.fd_step, "analytic_norm": float(np.linalg.norm(rep.analytic))}
                     for kind, rep in reports.items()]
    table = _table(rows, errors, cfg.jacobian_threshold, key="rel_error")
    return table, table["ok"]


# -- report assembly --------------------------------------------------------------


def run_command(command: str, cfg: RunConfig) -> dict:
    sys_spec = build_system(cfg)
    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "command": command,
            "dim_x": sys_spec.space.dim_x,
            "dim_y": sys_spec.space.dim_y,
            **asdict(cfg),
        },
        "hypothesis": None,
        "equivariance": None,
        "inverse": None,
        "jacobians": None,
        "timing": {},
        "verdict": "fail",
    }
    checks: list[bool] = []

    t0 = time.perf_counter()
    hyp_json, hyp_ok = phase_check(cfg, sys_spec)
    report["hypothesis"] = hyp_json
    report["timing"]["check"] = time.perf_counter() - t0
    checks.append(hyp_ok)

    if command in ("conjugate", "report", "derivatives") and not hyp_ok and not cfg.force:
        return report

    engine = _engine(cfg, sys_spec)
    if command in ("conjugate", "report"):
        t0 = time.perf_counter()
        equi, inv, ok = phase_conjugate(cfg, engine)
        report["equivariance"] = equi
        report["inverse"] = inv
        report["timing"]["conjugate"] = time.perf_counter() - t0
        checks.append(ok)

    if command in ("derivatives", "report"):
        t0 = time.perf_counter()
        jac, ok = phase_derivatives(cfg, engine)
        report["jacobians"] = jac
        report["timing"]["derivatives"] = time.perf_counter() - t0
        checks.append(ok)

    report["verdict"] = "pass" if all(checks) else "fail"
    return report


# -- output writers ----------------------------------------------------------------


# The columns of each CSV table, in order: one per row key, except that the
# list-valued keys "probe" and "value" spread over one column per entry.
_CSV_COLUMNS = {
    "equivariance": ("n", "probe", "value", "residual", "tail_bound"),
    "inverse": ("n", "probe", "value", "residual", "tail_bound"),
    "jacobians": ("kind", "n", "probe", "rel_error", "fd_step", "analytic_norm"),
}
_LIST_KEYS = ("probe", "value")


def _header(report: dict, key: str, rows: list) -> list:
    if key not in _LIST_KEYS:
        return [key]
    width = len(rows[0][key]) if rows else 0
    if key == "value":
        return [f"value{i}" for i in range(width)]
    dx = min(report["config"].get("dim_x", width), width)
    return [f"xi{i}" for i in range(dx)] + [f"eta{i}" for i in range(width - dx)]


def _write_directory(report: dict, out_dir: Path, text: str) -> None:
    """report.json plus one CSV per result table of the report."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(text + "\n")
    for section, keys in _CSV_COLUMNS.items():
        table = report.get(section)
        if not table:
            continue
        rows = table["rows"]
        with (out_dir / f"{section}.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([col for key in keys for col in _header(report, key, rows)])
            writer.writerows(
                [v for key in keys
                 for v in (r[key] if key in _LIST_KEYS else [r[key]])]
                for r in rows
            )


# json's C encoder, compact; json.dumps takes the pure-Python encoder to indent
_compact = json.encoder.c_make_encoder(None, None, json.encoder.encode_basestring_ascii, None,
                                       ": ", ", ", True, False, False)
_string = json.encoder.encode_basestring_ascii


def _indented(obj, pad: str) -> str:
    """The text of json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    on the line whose newline and indent is `pad`.  The containers are laid
    out here, each joined as soon as its items are, and every scalar is
    written by the C encoder, which writes each as the indenting encoder
    does."""
    inner = pad + "  "
    if isinstance(obj, dict) and obj:
        items = []
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):  # json's key rule: floats, ints, True/False/None
                if not (key is None or isinstance(key, (int, float))):
                    raise TypeError(f"key of type {type(key).__name__}")
                key = "".join(_compact(key, 0))
            items.append(_string(key) + ": " + _indented(value, inner))
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(obj, (list, tuple)) and obj:
        return "[" + inner + ("," + inner).join([_indented(v, inner) for v in obj]) + pad + "]"
    return "".join(_compact(obj, 0))


def _report_text(report: dict) -> str:
    """json.dumps(report, indent=2, sort_keys=True, allow_nan=False), byte
    for byte, without the pure-Python encoder that indenting takes; a report
    it cannot encode goes through json.dumps, which raises as it does."""
    try:
        return _indented(report, "\n")
    except (TypeError, ValueError):
        json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
        raise


def write_report(report: dict, out: Optional[str], fmt: str, command: str) -> None:
    """The JSON report to stdout or to the file --out, or with CSV output the
    report directory --out; an --out that cannot be written is a ConfigError."""
    text = _report_text(report)
    if out is None:
        if fmt == "csv":
            raise ConfigError("--format csv requires --out <directory>")
        print(text)
        return
    try:
        if command == "report" or fmt == "csv":
            _write_directory(report, Path(out), text)
        else:
            Path(out).parent.mkdir(parents=True, exist_ok=True)
            Path(out).write_text(text + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc}") from exc


# -- argument parsing ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonautolin",
        description="Conjugacies for coupled nonautonomous difference systems: "
        "hypothesis certification, construction, and smoothness validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("check", "certify the admissibility conditions"),
        ("conjugate", "build conjugacies; inverse and equivariance residuals"),
        ("derivatives", "validate analytic Jacobians against finite differences"),
        ("report", "run all phases and write JSON + CSV reports"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--system", required=True,
                       help="built-in name (ex1|ex2|remm|end_cfg|emo) or a JSON parameter file")
        # dest is the field a flag sets; None (not given) leaves the field to the file or default
        p.add_argument("--lambda", dest="lam", type=float,
                       help="decay rate of the ex1/emo operator blocks")
        p.add_argument("--gamma-scale", type=float, help="coupling envelope scale in [0, 1]")
        p.add_argument("--c", type=float, help="emo constant coupling bound")
        p.add_argument("--theta-ratio", type=float, help="ex2 ramp ratio bound T >= 1")
        p.add_argument("--rotation-angle", type=float,
                       help="ex2/end_cfg rotation angle (default 0 for ex2, 0.7 for end_cfg)")
        p.add_argument("--window", dest="window_halfwidth", type=int, metavar="WINDOW",
                       help=f"series window halfwidth (default {RunConfig.window_halfwidth})")
        p.add_argument("--n-min", type=int)
        p.add_argument("--n-max", type=int)
        p.add_argument("--series-tol", type=float)
        p.add_argument("--fp-tol", type=float)
        p.add_argument("--fd-step", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--out", default=None, help="output file (json) or directory (csv/report)")
        p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
        p.add_argument("--force", action="store_true", default=None,
                       help="run later phases even if hypothesis certification fails")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """Field defaults, overridden by the parameter file, overridden by the flags given.
    The file may set the fields of ExampleParams but `variant` (`lambda` for `lam`)
    and of RunConfig but `system_params` and `force`."""
    system_keys = {f.name for f in fields(ExampleParams)} - {"variant"}
    run_keys = {f.name for f in fields(RunConfig)} - {"system", "system_params", "force"}
    settings = {"system": args.system}
    if args.system.endswith(".json") or os.path.sep in args.system:
        path = Path(args.system)
        if not path.exists():
            raise ConfigError(f"parameter file not found: {args.system}")
        try:
            settings = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read parameter file {args.system}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"cannot parse parameter file {args.system}: {exc}") from exc
        if not isinstance(settings, dict) or "system" not in settings:
            raise ConfigError("parameter file must be an object with a 'system' key")
        if "lambda" in settings:
            if "lam" in settings:
                raise ConfigError("parameter file gives both 'lambda' and 'lam'")
            settings["lam"] = settings.pop("lambda")
        unknown = set(settings) - system_keys - run_keys - {"system"}
        if unknown:
            raise ConfigError(f"unknown parameter-file keys: {sorted(unknown)}")
    settings.update((k, v) for k, v in vars(args).items()
                    if v is not None and k in system_keys | run_keys | {"force"})
    system_params = {k: settings.pop(k) for k in list(settings) if k in system_keys}
    return RunConfig(system_params=system_params, **settings)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        report = run_command(args.command, cfg)
        write_report(report, args.out, args.fmt, args.command)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=_sys.stderr)
        return 2
    return 0 if report["verdict"] == "pass" else 1


if __name__ == "__main__":
    raise SystemExit(main())
