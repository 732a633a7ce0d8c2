"""Command line interface.

Three commands share one JSON config schema: ``classify`` prints a spectral
report, ``solve`` constructs a singular solution and checks its residuals,
``convergence`` prints a refinement-study CSV.  Reruns with the same inputs
produce byte-identical output: iteration starts are fixed, dict keys are
sorted, and no timestamps enter the payload.  The only environment knob is
SPECMEASURE_LOG for log verbosity.
"""

from __future__ import annotations

import argparse
import copy
import json
import logging
import os
import sys

import numpy as np

from .errors import ConfigurationError, NonFiniteResultError, SpecmeasureError
from .geometry import Ball, Box, Cylinder, GradeSpec, Segment, build_grid
from .measure import DiscreteMeasure, _singular_solution, cantor_approximant
from .model import (
    ArgmaxSet,
    Problem,
    argmax_point,
    build_problem,
    constant_coefficient,
    constant_kernel,
    coordinate_linear,
    detect_argmax_set,
    gaussian_kernel,
    radial_power,
)
from .spectral import RegimeReport, _classify, classify_regime
from .verify import _verify, refinement_study

__all__ = ["main"]

_REGIME_LABEL = {
    "continuous": "continuous_eigenfunction",
    "l1": "l1_eigenfunction",
    "singular": "singular_measure",
}

_DEFAULTS: dict = {
    "problem": None,
    "grid": {
        "resolution": 6,
        "grading_depth": 8,
        "grading_ratio": 0.5,
        "grading_targets": "auto",
    },
    "tolerances": {
        "power": 1e-10,
        "linear": 1e-10,
        "classify": 1e-3,
        "guard": 1e-3,
        "maxset": 1e-8,
    },
    "options": {
        "alpha": None,
        "x0": None,
        "cantor_level": None,
        "levels": 3,
        "quantity": "lambda1",
        "residual_kind": "weak",
        "confirm": True,
    },
}


def _example_config(name: str) -> dict:
    if name == "ball":
        return {
            "problem": {
                "domain": {"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0},
                "kernel": {"family": "constant", "rho": 0.05},
                "coefficient": {
                    "family": "radial_power",
                    "top": 1.0,
                    "scale": 1.0,
                    "power": 2.0,
                    "center": [0.0, 0.0, 0.0],
                },
            },
            "grid": {"grading_targets": [{"point": [0.0, 0.0, 0.0]}]},
        }
    if name == "cylinder":
        return {
            "problem": {
                "domain": {"kind": "cylinder", "radius": 1.0, "height": 1.0},
                "kernel": {"family": "constant", "rho": 0.05},
                "coefficient": {
                    "family": "radial_power",
                    "top": 1.0,
                    "scale": 1.0,
                    "power": 1.0,
                    "center": [0.0, 0.0],
                    "axes": [0, 1],
                },
            },
            "grid": {
                "grading_targets": [
                    {"segment": [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]}
                ]
            },
        }
    raise ConfigurationError(f"unknown example {name!r}")


def _deep_update(base: dict, extra: dict) -> dict:
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _deep_update(base[key], value)
        else:
            base[key] = value
    return base


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigurationError(f"config section {where!r} needs the key {key!r}")
    return section[key]


def _build_domain(spec: dict):
    kind = _require(spec, "kind", "problem.domain")
    if kind == "ball":
        return Ball(center=tuple(_require(spec, "center", "domain")),
                    radius=float(_require(spec, "radius", "domain")))
    if kind == "cylinder":
        return Cylinder(radius=float(_require(spec, "radius", "domain")),
                        height=float(_require(spec, "height", "domain")))
    if kind == "box":
        return Box(lo=tuple(_require(spec, "lo", "domain")),
                   hi=tuple(_require(spec, "hi", "domain")))
    raise ConfigurationError(f"unknown domain kind {kind!r}")


def _build_kernel(spec: dict):
    family = _require(spec, "family", "problem.kernel")
    if family == "constant":
        return constant_kernel(float(_require(spec, "rho", "kernel")))
    if family == "gaussian":
        return gaussian_kernel(amplitude=float(_require(spec, "amplitude", "kernel")),
                               width=float(_require(spec, "width", "kernel")))
    raise ConfigurationError(f"unknown kernel family {family!r}")


def _build_coefficient(spec: dict):
    family = _require(spec, "family", "problem.coefficient")
    if family == "radial_power":
        axes = spec.get("axes")
        return radial_power(top=float(_require(spec, "top", "coefficient")),
                            scale=float(_require(spec, "scale", "coefficient")),
                            power=float(_require(spec, "power", "coefficient")),
                            center=tuple(_require(spec, "center", "coefficient")),
                            axes=None if axes is None else tuple(axes))
    if family == "coordinate_linear":
        return coordinate_linear(tuple(_require(spec, "coeffs", "coefficient")),
                                 offset=float(spec.get("offset", 0.0)))
    if family == "constant":
        return constant_coefficient(float(_require(spec, "value", "coefficient")))
    raise ConfigurationError(f"unknown coefficient family {family!r}")


def _parse_targets(raw) -> tuple:
    targets = []
    for item in raw:
        if "point" in item:
            targets.append(tuple(float(v) for v in item["point"]))
        elif "segment" in item:
            start, end = item["segment"]
            targets.append(Segment(tuple(float(v) for v in start),
                                   tuple(float(v) for v in end)))
        else:
            raise ConfigurationError(
                "each grading target must carry a 'point' or a 'segment'"
            )
    return tuple(targets)


def _build(cfg: dict) -> Problem:
    if not isinstance(cfg.get("problem"), dict):
        raise ConfigurationError(
            "no problem defined; pass --example ball|cylinder or a config "
            "file with a 'problem' section"
        )
    for name, value in cfg["tolerances"].items():
        if not value > 0:
            raise ConfigurationError(f"tolerance {name!r} must be > 0, got {value}")
    domain = _build_domain(_require(cfg["problem"], "domain", "problem"))
    kernel = _build_kernel(_require(cfg["problem"], "kernel", "problem"))
    coeff = _build_coefficient(_require(cfg["problem"], "coefficient", "problem"))
    grid_cfg = cfg["grid"]
    resolution = int(grid_cfg["resolution"])
    depth = grid_cfg["grading_depth"]
    raw_targets = grid_cfg["grading_targets"]
    grading = None
    if depth and raw_targets:
        if raw_targets == "auto":
            probe = build_grid(domain, resolution)
            amax = detect_argmax_set(coeff, probe, cfg["tolerances"]["maxset"])
            targets = amax.targets
        else:
            targets = _parse_targets(raw_targets)
        grading = GradeSpec(targets=targets,
                            ratio=float(grid_cfg["grading_ratio"]),
                            depth=int(depth))
    return build_problem(domain, kernel, coeff, resolution, grading=grading)


def _auto_alpha(problem: Problem, kernel_cfg: dict, a0: float) -> float:
    # constant kernels admit atom weight 1/rho - I with I the grid value of
    # the reciprocal-gap integral; that choice makes the density factor 1
    if kernel_cfg.get("family") == "constant":
        rho = float(kernel_cfg["rho"])
        i_h = float(np.sum(problem.grid.weights / (a0 - problem.a_at_nodes)))
        return 1.0 / rho - i_h
    return 1.0


def _prescribe(problem: Problem, cfg: dict,
               amax: ArgmaxSet | None = None) -> tuple[list, float]:
    """Atoms of the prescribed singular part, and the eigenvalue -sup a.

    One atom at the resolved argmax point, or a Cantor approximant on a
    segment argmax set; ``alpha`` sets or scales the weights in both cases.
    ``amax`` is the argmax set already detected on the problem grid, if any.
    """
    opts = cfg["options"]
    if amax is None:
        amax = detect_argmax_set(problem.coeff, problem.grid,
                                 cfg["tolerances"]["maxset"])
    x0 = argmax_point(amax, problem.domain, opts["x0"])
    alpha = opts["alpha"]
    if opts["cantor_level"] is not None:
        comp = amax.components[0]
        if comp.kind != "segment":
            raise ConfigurationError(
                "a Cantor singular part needs a segment argmax set"
            )
        scale = 1.0 if alpha is None else float(alpha)
        cantor = cantor_approximant(comp.representative, int(opts["cantor_level"]))
        atoms = [(p, scale * w) for p, w in cantor.atoms]
    else:
        if alpha is None:
            alpha = _auto_alpha(problem, cfg["problem"]["kernel"], amax.sup_value)
        atoms = [(x0, float(alpha))]
    return atoms, -amax.sup_value


def _spectral_payload(report: RegimeReport, problem: Problem,
                      eigenobject: dict) -> dict:
    diagnostics = []
    if report.coarse_lambda1 is not None:
        diagnostics.append({
            "level": 0,
            "n": report.coarse_size,
            "lambda_p": None,
            "lambda1": float(report.coarse_lambda1),
            "residual": None,
        })
    lo, hi = report.lambda1_interval
    diagnostics.append({
        "level": len(diagnostics),
        "n": problem.grid.size,
        "lambda_p": float(report.lambda_p),
        "lambda1": float(report.lambda1),
        "residual": float(abs(hi - lo)),
    })
    return {
        "lambda_p": float(report.lambda_p),
        "lambda1_ktilde": float(report.lambda1),
        "regime": _REGIME_LABEL[report.regime],
        "sup_a": float(report.sup_a),
        "eigenobject": eigenobject,
        "diagnostics": diagnostics,
    }


def _classify_eigenobject(report: RegimeReport, problem: Problem) -> dict:
    if report.regime == "continuous":
        return {"kind": "function_values", "normalization": "max",
                "size": problem.grid.size}
    if report.regime == "l1":
        return {"kind": "l1_density", "normalization": "mass",
                "size": problem.grid.size}
    return {"kind": "singular_measure",
            "x0": [float(v) for v in report.x0]}


def _run_classify(cfg: dict) -> dict:
    problem = _build(cfg)
    tol = cfg["tolerances"]
    report = classify_regime(problem,
                             tol_classify=tol["classify"],
                             tol_power=tol["power"],
                             tol_maxset=tol["maxset"],
                             confirm=bool(cfg["options"]["confirm"]))
    return _spectral_payload(report, problem,
                             _classify_eigenobject(report, problem))


def _run_solve(cfg: dict, density_csv: str | None) -> dict:
    problem = _build(cfg)
    tol = cfg["tolerances"]
    opts = cfg["options"]
    # the solve reuses the fine grid's K W that the classification built
    report, kw = _classify(problem,
                           tol_classify=tol["classify"],
                           tol_power=tol["power"],
                           tol_maxset=tol["maxset"],
                           confirm=bool(opts["confirm"]))
    atoms, lam = _prescribe(problem, cfg, report.argmax)
    mu = _singular_solution(problem, atoms, kw, tol["linear"], tol["guard"],
                            tol["maxset"])
    pw, wk = _verify(problem, mu, lam, problem.grid, ("pointwise", "weak"))

    if density_csv is not None:
        _write_density_csv(density_csv, mu)

    eigenobject = {
        "kind": "measure",
        "atoms": [{"point": [float(v) for v in p], "weight": float(w)}
                  for p, w in mu.atoms],
        "atom_mass": mu.atom_mass(),
        "density_mass": mu.density_mass(),
        "total_mass": mu.total_mass(),
        "atom_fraction": mu.atom_fraction(),
        "signed": mu.signed,
        "density_size": problem.grid.size,
        "residuals": {"pointwise": pw.value, "weak": wk.value},
    }
    return _spectral_payload(report, problem, eigenobject)


def _write_density_csv(path: str, mu: DiscreteMeasure) -> None:
    grid = mu.grid
    dim = grid.nodes.shape[1]
    lines = [",".join([f"x{i}" for i in range(dim)] + ["weight", "density"])]
    for node, w, f in zip(grid.nodes, grid.weights, mu.density_values):
        cells = [repr(float(v)) for v in node] + [repr(float(w)), repr(float(f))]
        lines.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _run_convergence(cfg: dict) -> str:
    tol = cfg["tolerances"]
    opts = cfg["options"]
    base = copy.deepcopy(cfg)

    def factory(level: int) -> Problem:
        sub = copy.deepcopy(base)
        sub["grid"]["resolution"] = int(base["grid"]["resolution"]) + level
        sub["grid"]["grading_depth"] = int(base["grid"]["grading_depth"]) + level
        return _build(sub)

    solution = None
    if opts["quantity"] == "residual":
        def solution(prob: Problem):
            atoms, lam = _prescribe(prob, cfg)
            mu = _singular_solution(prob, atoms, None, tol["linear"],
                                    tol["guard"], tol["maxset"])
            return mu, lam

    rows = refinement_study(factory, int(opts["levels"]), opts["quantity"],
                            solution=solution,
                            residual_kind=opts["residual_kind"],
                            value_tol=tol["classify"],
                            tol_maxset=tol["maxset"])

    def fmt(x) -> str:
        return "" if x is None else repr(float(x))

    lines = ["level,size,value,delta,ratio"]
    for row in rows:
        lines.append(",".join([
            str(row["level"]), str(row["size"]),
            fmt(row["value"]), fmt(row["delta"]), fmt(row["ratio"]),
        ]))
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; code 2 is reserved for named violations
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="specmeasure",
                     description="Principal eigenvalue solver and regime "
                                 "classifier for nonlocal operators.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("classify", "decide the eigenfunction regime and report lambda_p"),
        ("solve", "construct a singular eigensolution and check residuals"),
        ("convergence", "run a refinement study and print CSV"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="JSON config file")
        cmd.add_argument("--example", choices=("ball", "cylinder"),
                         help="built-in problem preset")
        cmd.add_argument("--rho", type=float,
                         help="constant kernel value override")
        cmd.add_argument("--resolution", type=int, help="grid resolution")
        cmd.add_argument("--depth", type=int, help="grading depth")
        cmd.add_argument("--output", help="also write the report to this file")
        if name == "solve":
            cmd.add_argument("--alpha", type=float, help="atom weight")
            cmd.add_argument("--x0", type=float,
                             help="position selector along a segment argmax")
            cmd.add_argument("--cantor-level", type=int, dest="cantor_level",
                             help="replace the atom with a Cantor approximant")
            cmd.add_argument("--density-csv", dest="density_csv",
                             help="write density samples to this CSV file")
        if name == "convergence":
            cmd.add_argument("--quantity",
                             choices=("lambda_p", "lambda1",
                                      "recip_integral", "residual"))
            cmd.add_argument("--levels", type=int)
            cmd.add_argument("--residual-kind", dest="residual_kind",
                             choices=("pointwise", "weak"))
            cmd.add_argument("--alpha", type=float, help="atom weight")
            cmd.add_argument("--x0", type=float,
                             help="position selector along a segment argmax")
            cmd.add_argument("--cantor-level", type=int, dest="cantor_level")
    return parser


def _assemble_config(args: argparse.Namespace) -> dict:
    cfg = copy.deepcopy(_DEFAULTS)
    if args.example:
        _deep_update(cfg, _example_config(args.example))
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ConfigurationError("config file must hold a JSON object")
        _deep_update(cfg, data)
    if not args.example and not args.config:
        raise ConfigurationError(
            "pass --config <path> or --example ball|cylinder"
        )
    if args.rho is not None:
        kernel = (cfg.get("problem") or {}).get("kernel", {})
        if kernel.get("family") != "constant":
            raise ConfigurationError(
                "--rho only applies to the constant kernel family"
            )
        kernel["rho"] = args.rho
    if args.resolution is not None:
        cfg["grid"]["resolution"] = args.resolution
    if args.depth is not None:
        cfg["grid"]["grading_depth"] = args.depth
    for key in ("alpha", "x0", "cantor_level", "levels", "quantity",
                "residual_kind"):
        value = getattr(args, key, None)
        if value is not None:
            cfg["options"][key] = value
    alpha = cfg["options"]["alpha"]
    if alpha is not None and not (isinstance(alpha, (int, float))
                                  and np.isfinite(alpha) and alpha != 0):
        raise ConfigurationError(
            f"atom weights must be finite and not all zero, got alpha {alpha!r}"
        )
    return cfg


def _configure_logging() -> None:
    level = os.environ.get("SPECMEASURE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _dumps(payload: dict) -> str:
    # strict JSON: an infinite or NaN value is a named failure, not "Infinity"
    try:
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NonFiniteResultError(f"report holds a non-finite number ({exc})") from exc


def _emit(text: str, output: str | None) -> None:
    sys.stdout.write(text)
    if output:
        with open(output, "w") as fh:
            fh.write(text)


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _assemble_config(args)
        if args.command == "classify":
            text = _dumps(_run_classify(cfg))
        elif args.command == "solve":
            text = _dumps(_run_solve(cfg, args.density_csv))
        else:
            text = _run_convergence(cfg)
        _emit(text, args.output)
    except json.JSONDecodeError as exc:
        print(f"error[configuration]: config is not valid JSON: {exc}",
              file=sys.stderr)
        return 1
    except ConfigurationError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except SpecmeasureError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error[configuration]: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
