"""Command line interface.

Three commands share one JSON config schema: ``classify`` prints a spectral
report, ``solve`` constructs a singular solution and checks its residuals,
``convergence`` prints a refinement-study CSV.  Each refuses an option it
would ignore.  Reruns with the same inputs
produce byte-identical output: iteration starts are fixed, dict keys are
sorted, and no timestamps enter the payload.  The only environment knob is
SPECMEASURE_LOG for log verbosity.
"""

from __future__ import annotations

import argparse
import copy
import json
import logging
import math
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
from .spectral import _TOL_CLASSIFY, RegimeReport, _classify, classify_regime
from .verify import _QUANTITIES, _RESIDUAL_KINDS, _verify, refinement_study

__all__ = ["main"]

_REGIME_LABEL = {
    "continuous": "continuous_eigenfunction",
    "l1": "l1_eigenfunction",
    "singular": "singular_measure",
}

def _is_int(value) -> bool:
    # JSON true and false load as bool, a subclass of int; neither is a number
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return (_is_int(value) or isinstance(value, float)) and math.isfinite(value)


# section -> key -> (default, the rule its values keep, a test of the rule);
# a key not listed here is refused
_SCHEMA: dict = {
    "grid": {
        "resolution": (6, "the grid resolution must be an integer", _is_int),
        "grading_depth": (8, "the grading depth must be an integer", _is_int),
        "grading_ratio": (0.5, "the grading ratio must be a finite number", _is_finite),
        "grading_targets": ("auto", 'grading targets must be "auto", null or a list',
                            lambda v: v in ("auto", None) or isinstance(v, list)),
    },
    "tolerances": {"classify": (_TOL_CLASSIFY, "tolerances must be finite numbers > 0",
                                lambda v: _is_finite(v) and v > 0)},
    "options": {
        "alpha": (None, "atom weights must be finite and not all zero",
                  lambda v: v is None or (_is_finite(v) and v != 0)),
        "x0": (None, "the x0 selector must be a number in [0, 1] or null",
               lambda v: v is None or (_is_finite(v) and 0 <= v <= 1)),
        "cantor_level": (None, "the Cantor level must be an integer >= 0 or null",
                         lambda v: v is None or (_is_int(v) and v >= 0)),
        "levels": (3, "the number of levels must be an integer >= 2",
                   lambda v: _is_int(v) and v >= 2),
        "quantity": ("lambda1", f"the study quantity must be one of {_QUANTITIES}",
                     _QUANTITIES.__contains__),
        "residual_kind": ("weak", f"the residual kind must be one of {_RESIDUAL_KINDS}",
                          _RESIDUAL_KINDS.__contains__),
        "confirm": (True, "confirm must be true or false", lambda v: isinstance(v, bool)),
    },
}

_DEFAULTS: dict = {"problem": None, **{
    section: {key: entry[0] for key, entry in fields.items()}
    for section, fields in _SCHEMA.items()}}

# command -> the options it reads; convergence reads the atom options only
# for the residual study
_ATOM_OPTIONS = ("alpha", "x0", "cantor_level")
_READS = {
    "classify": ("confirm",),
    "solve": _ATOM_OPTIONS + ("confirm",),
    "convergence": ("levels", "quantity", "residual_kind"),
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


def _deep_update(base: dict, extra: dict) -> None:
    for key, value in extra.items():
        if not isinstance(base.get(key), dict):
            base[key] = value
        elif isinstance(value, dict):
            _deep_update(base[key], value)
        else:
            raise ConfigurationError(f"config key {key} must hold a JSON object")


def _check_config(cfg: dict, command: str) -> None:
    """Refuse an unknown key, an ill-typed value, x0 with a Cantor level, and
    an option ``command`` does not read; an option at its default counts as
    unset."""
    for key in sorted(cfg.keys() - _DEFAULTS.keys()):
        raise ConfigurationError(f"unknown config key {key}; the keys are "
                                 f"{', '.join(_DEFAULTS)}")
    if cfg["problem"] is not None:
        _object(cfg["problem"], "problem")
    for section, fields in _SCHEMA.items():
        for key, value in cfg[section].items():
            if key not in fields:
                raise ConfigurationError(
                    f"unknown config key {section}.{key}; {section} takes "
                    f"{', '.join(fields)}"
                )
            _, rule, test = fields[key]
            if not test(value):
                raise ConfigurationError(f"{rule}, got {section}.{key} = {value!r}")
    opts = cfg["options"]
    if opts["x0"] is not None and opts["cantor_level"] is not None:
        raise ConfigurationError("options.x0 places one atom, and a Cantor part "
                                 "(options.cantor_level) has none; pass one of them")
    reads = _READS[command]
    if command == "convergence" and opts["quantity"] == "residual":
        reads += _ATOM_OPTIONS
    for key, value in opts.items():
        if key in reads or value == _DEFAULTS["options"][key]:
            continue
        study = (" outside the residual study"
                 if command == "convergence" and key in _ATOM_OPTIONS else "")
        raise ConfigurationError(f"{command} ignores options.{key}{study}; it reads "
                                 f"{', '.join('options.' + k for k in reads)}")


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigurationError(f"config key {where} must hold a JSON object, "
                                 f"got {value!r}")
    return value


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigurationError(f"config section {where!r} needs the key {key!r}")
    return section[key]


def _number(spec: dict, key: str, where: str) -> float:
    value = _require(spec, key, where)
    if not _is_finite(value):
        raise ConfigurationError(f"{where}.{key} must be a finite number, got {value!r}")
    return float(value)


def _numbers(spec: dict, key: str, where: str, test=_is_finite) -> tuple:
    return _list_of(_require(spec, key, where), f"{where}.{key}", test)


def _list_of(value, where: str, test=_is_finite) -> tuple:
    if not (isinstance(value, list) and all(test(v) for v in value)):
        kind = "integers" if test is _is_int else "finite numbers"
        raise ConfigurationError(f"{where} must be a list of {kind}, got {value!r}")
    return tuple(value)


def _build_domain(spec: dict):
    where = "problem.domain"
    kind = _require(spec, "kind", where)
    if kind == "ball":
        return Ball(center=_numbers(spec, "center", where),
                    radius=_number(spec, "radius", where))
    if kind == "cylinder":
        return Cylinder(radius=_number(spec, "radius", where),
                        height=_number(spec, "height", where))
    if kind == "box":
        return Box(lo=_numbers(spec, "lo", where), hi=_numbers(spec, "hi", where))
    raise ConfigurationError(f"unknown domain kind {kind!r}")


def _build_kernel(spec: dict):
    where = "problem.kernel"
    family = _require(spec, "family", where)
    if family == "constant":
        return constant_kernel(_number(spec, "rho", where))
    if family == "gaussian":
        return gaussian_kernel(amplitude=_number(spec, "amplitude", where),
                               width=_number(spec, "width", where))
    raise ConfigurationError(f"unknown kernel family {family!r}")


def _build_coefficient(spec: dict):
    where = "problem.coefficient"
    family = _require(spec, "family", where)
    if family == "radial_power":
        axes = None
        if spec.get("axes") is not None:
            axes = _numbers(spec, "axes", where, _is_int)
        return radial_power(top=_number(spec, "top", where),
                            scale=_number(spec, "scale", where),
                            power=_number(spec, "power", where),
                            center=_numbers(spec, "center", where),
                            axes=axes)
    if family == "coordinate_linear":
        offset = _number(spec, "offset", where) if "offset" in spec else 0.0
        return coordinate_linear(_numbers(spec, "coeffs", where), offset=offset)
    if family == "constant":
        return constant_coefficient(_number(spec, "value", where))
    raise ConfigurationError(f"unknown coefficient family {family!r}")


def _parse_targets(raw: list) -> tuple:
    targets = []
    for i, item in enumerate(raw):
        where = f"grid.grading_targets[{i}]"
        item = _object(item, where)
        if "point" in item:
            targets.append(tuple(float(v) for v in _numbers(item, "point", where)))
        elif "segment" in item:
            ends = item["segment"]
            if not (isinstance(ends, list) and len(ends) == 2):
                raise ConfigurationError(
                    f"{where}.segment must hold two points, got {ends!r}")
            start, end = (tuple(float(v) for v in _list_of(e, f"{where}.segment"))
                          for e in ends)
            targets.append(Segment(start, end))
        else:
            raise ConfigurationError(
                "each grading target must carry a 'point' or a 'segment'"
            )
    return tuple(targets)


def _build(cfg: dict) -> Problem:
    if cfg["problem"] is None:
        raise ConfigurationError(
            "no problem defined; pass --example ball|cylinder or a config "
            "file with a 'problem' section"
        )
    spec = {key: _object(_require(cfg["problem"], key, "problem"), f"problem.{key}")
            for key in ("domain", "kernel", "coefficient")}
    domain = _build_domain(spec["domain"])
    kernel = _build_kernel(spec["kernel"])
    coeff = _build_coefficient(spec["coefficient"])
    grid_cfg = cfg["grid"]
    resolution = int(grid_cfg["resolution"])
    depth = grid_cfg["grading_depth"]
    raw_targets = grid_cfg["grading_targets"]
    grading = None
    if depth and raw_targets:
        if raw_targets == "auto":
            probe = build_grid(domain, resolution)
            amax = detect_argmax_set(coeff, probe)
            targets = amax.targets
        else:
            targets = _parse_targets(raw_targets)
        grading = GradeSpec(targets=targets,
                            ratio=float(grid_cfg["grading_ratio"]),
                            depth=int(depth))
    return build_problem(domain, kernel, coeff, resolution, grading=grading)


def _auto_alpha(problem: Problem, a0: float) -> float:
    # constant kernels admit atom weight 1/rho - I with I the grid value of
    # the reciprocal-gap integral; that choice makes the density factor 1
    if problem.kernel.family == "constant":
        rho = problem.kernel.params["rho"]
        i_h = float(np.sum(problem.grid.weights / (a0 - problem.a_at_nodes)))
        return 1.0 / rho - i_h
    return 1.0


def _prescribe(problem: Problem, cfg: dict,
               amax: ArgmaxSet) -> tuple[list, float]:
    """Atoms of the prescribed singular part, and the eigenvalue -sup a.

    One atom at the argmax point ``x0`` selects, or (without x0) a Cantor
    approximant on a segment argmax set; ``alpha`` sets or scales the weights.
    ``amax`` is the argmax set detected on the problem grid.
    """
    opts = cfg["options"]
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
            alpha = _auto_alpha(problem, amax.sup_value)
        atoms = [(argmax_point(amax, problem.domain, opts["x0"]), float(alpha))]
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
    if report.density_norm is None:
        return {"kind": "singular_measure",
                "x0": [float(v) for v in report.x0]}
    kind = "function_values" if report.regime == "continuous" else "l1_density"
    return {"kind": kind, "normalization": report.density_norm,
            "size": problem.grid.size}


def _run_classify(cfg: dict) -> dict:
    problem = _build(cfg)
    report = classify_regime(problem, tol_classify=cfg["tolerances"]["classify"],
                             confirm=cfg["options"]["confirm"])
    return _spectral_payload(report, problem,
                             _classify_eigenobject(report, problem))


def _measure(problem: Problem, cfg: dict, confirm: bool
             ) -> tuple[RegimeReport, DiscreteMeasure, float]:
    """The grid's classification report, and the singular measure and
    eigenvalue it allows: the report's regime decides whether a measure
    exists, and its argmax set, lambda1 and the grid's K W are reused."""
    report, kw = _classify(problem, cfg["tolerances"]["classify"], confirm)
    atoms, lam = _prescribe(problem, cfg, report.argmax)
    return report, _singular_solution(problem, atoms, (report, kw)), lam


def _run_solve(cfg: dict, density_csv: str | None) -> dict:
    problem = _build(cfg)
    report, mu, lam = _measure(problem, cfg, cfg["options"]["confirm"])
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
    opts = cfg["options"]
    solution = None
    if opts["quantity"] == "residual":
        def solution(prob: Problem):
            return _measure(prob, cfg, confirm=False)[1:]

    rows = refinement_study(_build(cfg), opts["levels"], opts["quantity"],
                            solution=solution,
                            residual_kind=opts["residual_kind"])

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
        cmd.add_argument("--depth", type=int, dest="grading_depth", metavar="DEPTH",
                         help="grading depth")
        cmd.add_argument("--output", help="also write the report to this file")
        if name != "classify":
            cmd.add_argument("--alpha", type=float, help="atom weight")
            cmd.add_argument("--x0", type=float,
                             help="position selector along a segment argmax")
            cmd.add_argument("--cantor-level", type=int, dest="cantor_level",
                             help="replace the atom with a Cantor approximant")
        if name == "solve":
            cmd.add_argument("--density-csv", dest="density_csv",
                             help="write density samples to this CSV file")
        if name == "convergence":
            cmd.add_argument("--quantity", choices=_QUANTITIES)
            cmd.add_argument("--levels", type=int)
            cmd.add_argument("--residual-kind", dest="residual_kind",
                             choices=_RESIDUAL_KINDS)
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
    # a flag overrides the grid or options key it is stored under
    for key, value in vars(args).items():
        for section in ("grid", "options"):
            if value is not None and key in _SCHEMA[section]:
                cfg[section][key] = value
    _check_config(cfg, args.command)
    if args.rho is not None:
        kernel = (cfg["problem"] or {}).get("kernel")
        if not isinstance(kernel, dict) or kernel.get("family") != "constant":
            raise ConfigurationError(
                "--rho only applies to the constant kernel family"
            )
        kernel["rho"] = args.rho
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
