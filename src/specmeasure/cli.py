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
    _find_argmax,
    argmax_point,
    build_problem,
    constant_coefficient,
    constant_kernel,
    coordinate_linear,
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


# parsers of a problem value: (value, its key path) -> the parsed value
def _number(value, where: str) -> float:
    if not _is_finite(value):
        raise ConfigurationError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _list_of(value, where: str, test=_is_finite) -> tuple:
    if not (isinstance(value, list) and all(test(v) for v in value)):
        kind = "integers" if test is _is_int else "finite numbers"
        raise ConfigurationError(f"{where} must be a list of {kind}, got {value!r}")
    return tuple(value)


def _axes(value, where: str) -> tuple | None:
    return None if value is None else _list_of(value, where, _is_int)


def _point(value, where: str) -> tuple:
    return tuple(float(v) for v in _list_of(value, where))


def _segment(value, where: str) -> Segment:
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigurationError(f"{where} must hold two points, got {value!r}")
    return Segment(*(_point(end, where) for end in value))


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

# problem part -> (the key naming its family, family -> (constructor, key ->
# parser)); a key in _OPTIONAL may be left out for the constructor's default,
# and a key no family of the part takes is refused
_FAMILIES: dict = {
    "domain": ("kind", {
        "ball": (Ball, {"center": _list_of, "radius": _number}),
        "cylinder": (Cylinder, {"radius": _number, "height": _number}),
        "box": (Box, {"lo": _list_of, "hi": _list_of}),
    }),
    "kernel": ("family", {
        "constant": (constant_kernel, {"rho": _number}),
        "gaussian": (gaussian_kernel, {"amplitude": _number, "width": _number}),
    }),
    "coefficient": ("family", {
        "radial_power": (radial_power, {"top": _number, "scale": _number, "power": _number,
                                        "center": _list_of, "axes": _axes}),
        "coordinate_linear": (coordinate_linear, {"coeffs": _list_of, "offset": _number}),
        "constant": (constant_coefficient, {"value": _number}),
    }),
}
_OPTIONAL = ("axes", "offset")

# grading-target key -> parser; a target holds exactly one of them
_TARGETS = {"point": _point, "segment": _segment}

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


def _reads(command: str, quantity: str = "residual") -> tuple:
    """The options ``command`` reads in a study of ``quantity``."""
    if command == "convergence" and quantity == "residual":
        return _READS[command] + _ATOM_OPTIONS
    return _READS[command]


# --example presets; a config file and the flags are merged over them
_EXAMPLES = {
    "ball": {"problem": {
        "domain": {"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0},
        "kernel": {"family": "constant", "rho": 0.05},
        "coefficient": {"family": "radial_power", "top": 1.0, "scale": 1.0,
                        "power": 2.0, "center": [0.0, 0.0, 0.0]},
    }, "grid": {"grading_targets": [{"point": [0.0, 0.0, 0.0]}]}},
    "cylinder": {"problem": {
        "domain": {"kind": "cylinder", "radius": 1.0, "height": 1.0},
        "kernel": {"family": "constant", "rho": 0.05},
        "coefficient": {"family": "radial_power", "top": 1.0, "scale": 1.0,
                        "power": 1.0, "center": [0.0, 0.0], "axes": [0, 1]},
    }, "grid": {"grading_targets": [{"segment": [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]}]}},
}


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
    reads = _reads(command, opts["quantity"])
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


def _part(part: str, spec: dict):
    """The domain, kernel or coefficient that ``problem.<part>`` names."""
    where = f"problem.{part}"
    name_key, families = _FAMILIES[part]
    name = _require(spec, name_key, where)
    if not (isinstance(name, str) and name in families):
        raise ConfigurationError(f"unknown {part} {name_key} {name!r}")
    build, keys = families[name]
    built = build(**{key: parse(_require(spec, key, where), f"{where}.{key}")
                     for key, parse in keys.items()
                     if key in spec or key not in _OPTIONAL})
    taken = {name_key}.union(*(fields for _, fields in families.values()))
    for key in sorted(spec.keys() - taken):
        raise ConfigurationError(f"unknown config key {where}.{key}; the {name} "
                                 f"{part} takes {', '.join(keys)}")
    return built


def _parts(problem: dict | None) -> tuple:
    """The problem section's domain, kernel and coefficient, the
    coefficient's vectors checked against the domain's dimension."""
    if problem is None:
        raise ConfigurationError(
            "no problem defined; pass --example ball|cylinder or a config "
            "file with a 'problem' section"
        )
    for key in sorted(problem.keys() - _FAMILIES.keys()):
        raise ConfigurationError(f"unknown config key problem.{key}; problem takes "
                                 f"{', '.join(_FAMILIES)}")
    specs = [_object(_require(problem, part, "problem"), f"problem.{part}")
             for part in _FAMILIES]
    domain, kernel, coeff = (_part(part, spec) for part, spec in zip(_FAMILIES, specs))
    # coeffs take one entry per coordinate; a center may leave trailing
    # coordinates out, and the axes index it
    p, dim, where = coeff.params, domain.dim, "problem.coefficient"
    if "coeffs" in p and len(p["coeffs"]) != dim:
        raise ConfigurationError(f"{where}.coeffs needs {dim} entries, one per "
                                 f"coordinate of the domain, got {list(p['coeffs'])}")
    center = p.get("center", ())
    if len(center) > dim:
        raise ConfigurationError(f"{where}.center has more coordinates than the "
                                 f"domain's {dim}, got {list(center)}")
    if not all(-len(center) <= ax < len(center) for ax in p.get("axes") or ()):
        raise ConfigurationError(f"{where}.axes must index the coordinates of "
                                 f"{where}.center, got {list(p['axes'])}")
    return domain, kernel, coeff


def _target(item, where: str):
    """The point or segment that one grading-target item holds."""
    if not _object(item, where).keys() & _TARGETS.keys():
        raise ConfigurationError("each grading target must carry a 'point' or a 'segment'")
    if len(item) > 1:
        raise ConfigurationError(f"{where} must hold one of 'point' and 'segment' "
                                 f"and nothing else, got {item!r}")
    (key, value), = item.items()
    return _TARGETS[key](value, f"{where}.{key}")


def _build(cfg: dict) -> Problem:
    domain, kernel, coeff = _parts(cfg["problem"])
    grid_cfg = cfg["grid"]
    resolution = int(grid_cfg["resolution"])
    depth = grid_cfg["grading_depth"]
    raw_targets = grid_cfg["grading_targets"]
    grading = None
    if depth and raw_targets:
        if raw_targets == "auto":
            targets = _find_argmax(coeff, build_grid(domain, resolution)).targets
        else:
            targets = tuple(_target(item, f"grid.grading_targets[{i}]")
                            for i, item in enumerate(raw_targets))
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
    ``amax`` is the argmax set on the problem grid.
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


_COMMANDS = {
    "classify": "decide the eigenfunction regime and report lambda_p",
    "solve": "construct a singular eigensolution and check residuals",
    "convergence": "run a refinement study and print CSV",
}

# flag -> (the (section, key) of the config it overrides, or None; how its
# value converts: a type, or the tuple of its choices; the commands that take
# it, or None for those that read its options key; help).  A flag is matched
# whole: no prefix of it stands for it.
_FLAGS: dict = {
    "--config": (None, str, _COMMANDS, "JSON config file"),
    "--example": (None, tuple(_EXAMPLES), _COMMANDS, "built-in problem preset"),
    "--rho": (None, float, _COMMANDS, "constant kernel value override"),
    "--resolution": (("grid", "resolution"), int, _COMMANDS, "grid resolution"),
    "--depth": (("grid", "grading_depth"), int, _COMMANDS, "grading depth"),
    "--output": (None, str, _COMMANDS, "also write the report to this file"),
    "--alpha": (("options", "alpha"), float, None, "atom weight"),
    "--x0": (("options", "x0"), float, None, "position selector along a segment argmax"),
    "--cantor-level": (("options", "cantor_level"), int, None,
                       "replace the atom with a Cantor approximant"),
    "--density-csv": (None, str, ("solve",), "write density samples to this CSV file"),
    "--quantity": (("options", "quantity"), _QUANTITIES, None, "study quantity"),
    "--levels": (("options", "levels"), int, None, "number of study levels"),
    "--residual-kind": (("options", "residual_kind"), _RESIDUAL_KINDS, None,
                        "residual of the study"),
}


def _takes(command: str, flag: str) -> bool:
    key, _, commands, _ = _FLAGS[flag]
    return command in commands if commands is not None else key[1] in _reads(command)


def _metavar(flag: str) -> str:
    convert = _FLAGS[flag][1]
    if isinstance(convert, tuple):
        return "{" + ",".join(convert) + "}"
    return flag[2:].upper().replace("-", "_")


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: specmeasure [-h] {{{','.join(_COMMANDS)}}} ...\n"
    head = f"usage: specmeasure {command}"
    lines, line = [], head
    for word in ["[-h]"] + [f"[{flag} {_metavar(flag)}]"
                            for flag in _FLAGS if _takes(command, flag)]:
        if len(line) + 1 + len(word) > 79:
            lines.append(line)
            line = " " * len(head)
        line += " " + word
    return "\n".join(lines + [line]) + "\n"


def _help(command: str | None) -> str:
    if command is None:
        head = ("Principal eigenvalue solver and regime classifier for nonlocal "
                "operators.\n\ncommands (specmeasure <command> -h lists the "
                "flags it takes):")
        rows = list(_COMMANDS.items())
    else:
        head = f"{_COMMANDS[command]}\n\noptions:"
        rows = [("-h, --help", "show this help message and exit")] + [
            (f"{flag} {_metavar(flag)}", _FLAGS[flag][3])
            for flag in _FLAGS if _takes(command, flag)]
    lines = [f"  {name}\n        {text}" for name, text in rows]
    return _usage(command) + "\n" + head + "\n" + "\n".join(lines) + "\n"


def _exit(text: str, code: int) -> None:
    (sys.stdout if code == 0 else sys.stderr).write(text)
    raise SystemExit(code)


def _usage_error(command: str | None, message: str) -> None:
    # usage problems exit 1; code 2 is reserved for named violations
    _exit(f"{_usage(command)}specmeasure: error: {message}\n", 1)


def _is_value(token: str) -> bool:
    # the token after a flag is its value unless it looks like another flag
    if not token.startswith("-") or token == "-" or " " in token:
        return True
    try:
        float(token)
    except ValueError:
        return False
    return True


def _convert(command: str, flag: str, text: str):
    convert = _FLAGS[flag][1]
    if isinstance(convert, tuple):
        if text not in convert:
            _usage_error(command, f"argument {flag}: invalid choice: {text!r} "
                                  f"(choose from {', '.join(map(repr, convert))})")
        return text
    try:
        return convert(text)
    except ValueError:
        _usage_error(command, f"argument {flag}: invalid {convert.__name__} "
                              f"value: {text!r}")


def _parse_args(argv: list[str]) -> dict:
    """The command a command line names, and each flag it gives mapped to the
    last value it gives, converted.  ``-h`` prints the help and raises
    SystemExit(0); a usage error prints the usage and raises SystemExit(1)."""
    if argv[:1] in (["-h"], ["--help"]):
        _exit(_help(None), 0)
    if not argv:
        _usage_error(None, "the following arguments are required: command")
    command, tokens = argv[0], iter(argv[1:])
    if command not in _COMMANDS:
        _usage_error(None, f"argument command: invalid choice: {command!r} "
                           f"(choose from {', '.join(map(repr, _COMMANDS))})")
    args = {"command": command}
    for token in tokens:
        if token in ("-h", "--help"):
            _exit(_help(command), 0)
        flag, eq, text = token.partition("=")
        if flag not in _FLAGS:
            _usage_error(command, f"unrecognized arguments: {token}")
        if not _takes(command, flag):
            _usage_error(command, f"{command} takes no {flag}")
        if not eq:
            text = next(tokens, None)
            if text is None or not _is_value(text):
                _usage_error(command, f"argument {flag}: expected one argument")
        args[flag] = _convert(command, flag, text)
    return args


def _assemble_config(args: dict) -> dict:
    cfg = copy.deepcopy(_DEFAULTS)
    example, config, rho = (args.get(f) for f in ("--example", "--config", "--rho"))
    if example:
        _deep_update(cfg, copy.deepcopy(_EXAMPLES[example]))
    if config:
        with open(config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ConfigurationError("config file must hold a JSON object")
        _deep_update(cfg, data)
    if not example and not config:
        raise ConfigurationError(
            "pass --config <path> or --example ball|cylinder"
        )
    # a flag overrides the grid or options key it is stored under
    for flag, (key, *_) in _FLAGS.items():
        if key is not None and flag in args:
            section, name = key
            cfg[section][name] = args[flag]
    _check_config(cfg, args["command"])
    if rho is not None:
        kernel = (cfg["problem"] or {}).get("kernel")
        if not isinstance(kernel, dict) or kernel.get("family") != "constant":
            raise ConfigurationError(
                "--rho only applies to the constant kernel family"
            )
        kernel["rho"] = rho
    _parts(cfg["problem"])   # a bad problem section fails before any grid
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
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _assemble_config(args)
        if args["command"] == "classify":
            text = _dumps(_run_classify(cfg))
        elif args["command"] == "solve":
            text = _dumps(_run_solve(cfg, args.get("--density-csv")))
        else:
            text = _run_convergence(cfg)
        _emit(text, args.get("--output"))
    except json.JSONDecodeError as exc:
        print(f"error[configuration]: config is not valid JSON: {exc}",
              file=sys.stderr)
        return 1
    except SpecmeasureError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ConfigurationError) else 2
    except OSError as exc:
        print(f"error[configuration]: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
