"""Command-line front end: signals, sensitivities, figure sweeps, validation.

Subcommands
    signal         parity signal vs angle through the matrix pipeline
    sensitivity    closed-form sensitivity vs angle plus the optimum
    fig2..fig5     the four reference parameter sweeps as CSV grids
    fock-validate  number-basis cross-check of the Gaussian results

Output is CSV on stdout or --out PATH, byte-identical across runs.  A JSON
--config file may supply any flag value of its command (keys use
underscores, e.g. "theta_steps").  Each value is parsed exactly as the flag
is, with the same type and choices checks, and explicit flags win; null
leaves a flag unset, and a bool, array or object is rejected.  Angles
accept radians or pi-fraction literals such as pi/4 or 3pi/8.  Exit codes:
0 success, 1 usage or configuration error, 2 validation failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import fock, sweeps
from .detection import (
    check_quantum_bound,
    closed_form_sensitivity,
    optimal_sensitivity,
    outcome_probabilities,
    pipeline_signal,
)
from .elements import VARIANTS, PipelineSpec
from .fock import CutoffTooSmallError
from .sweeps import serialize_rows

__all__ = ["parse_angle", "build_parser", "main", "entry"]

_PI_LITERAL = re.compile(
    r"^([+-]?)(\d+(?:\.\d*)?|\.\d+)?\*?pi(?:/(\d+(?:\.\d*)?|\.\d+))?$",
    re.IGNORECASE,
)

_FOCK_DEFAULT_NS = (0.5, 1.0, 2.0)
_FOCK_DEFAULT_TS = (0.5, 0.8, 1.0)
_FOCK_TOL = 1e-6

# Flag keys spelled differently from the builder keyword they set.
_BUILDER_KEYS = {"nth": "n_th"}


def parse_angle(text) -> float:
    """Angle in radians from a number or a pi-fraction literal like 'pi/4'.

    Numbers are read through str(), which round-trips floats exactly.
    Unparsable and non-finite angles raise ValueError.
    """
    s = str(text).strip().replace(" ", "")
    m = _PI_LITERAL.match(s)
    try:
        if m:
            coef = float(m.group(2)) if m.group(2) else 1.0
            if m.group(1) == "-":
                coef = -coef
            value = coef * np.pi
            if m.group(3):
                value = value / float(m.group(3))
        else:
            value = float(s)
    except (ValueError, ZeroDivisionError):
        raise ValueError(
            f"cannot parse angle {text!r}; give radians or a fraction of pi like pi/4"
        ) from None
    if not math.isfinite(value):
        raise ValueError(f"angle {text!r} is not finite")
    return value


def _theta_grid(steps: int) -> np.ndarray:
    """Evenly spaced angles over [0, pi/2] inclusive.

    Built as exact binary fractions times np.pi so that, for odd counts,
    the midpoint angle divides back to an exact quarter turn and divergent
    sensitivities serialize as inf instead of a large float.
    """
    if steps < 2:
        raise ValueError(f"theta_steps must be >= 2, got {steps}")
    return (0.5 * np.arange(steps) / (steps - 1)) * np.pi


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; 2 is reserved here for
    # validation failures, so usage errors are remapped to 1.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _config_tokens(ns: argparse.Namespace) -> list[str]:
    """The command's --config values as --key=value tokens for its parser."""
    try:
        raw = json.loads(Path(ns.config).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read config {ns.config}: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"config {ns.config} must hold a JSON object")
    flags = {**_COMMANDS[ns.command][2], "out": _COMMON["out"]}
    unknown = sorted(set(raw) - set(flags))
    if unknown:
        raise ValueError(f"unknown config keys for this command: {', '.join(unknown)}")
    tokens = []
    for key, value in raw.items():
        # A number stands for the text its flag would carry; a path is text.
        path = flags[key].get("type") is Path
        if isinstance(value, str) or (type(value) in (int, float) and not path):
            tokens.append(f"--{key.replace('_', '-')}={value}")
        elif value is not None:
            kind = "a string" if path else "a number or a string"
            raise ValueError(f"config key {key!r} takes {kind}, got {json.dumps(value)}")
    return tokens


def _spec_for(ns: argparse.Namespace) -> PipelineSpec:
    return PipelineSpec(variant=ns.variant, theta=0.0, n=ns.n, t1=ns.t1, t2=ns.t2, t=ns.t, n_th=ns.nth)


def _thetas_from(ns: argparse.Namespace) -> np.ndarray:
    if ns.theta is not None:
        return np.array([parse_angle(ns.theta)])
    return _theta_grid(ns.theta_steps)


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text, encoding="utf-8", newline="")


def cmd_signal(ns: argparse.Namespace) -> int:
    thetas = _thetas_from(ns)
    signals = pipeline_signal(_spec_for(ns), thetas)
    rows = zip(thetas, signals, *outcome_probabilities(signals))
    _emit(serialize_rows(("theta_rad", "signal", "p_even", "p_odd"), rows), ns.out)
    return 0


def cmd_sensitivity(ns: argparse.Namespace) -> int:
    n = ns.n
    if n <= 0.0:
        raise ValueError("sensitivity requires n > 0")
    spec = _spec_for(ns)
    theta_opt, d_opt = optimal_sensitivity(lambda x: closed_form_sensitivity(spec, x))
    check_quantum_bound(n, d_opt)
    hl = 1.0 / (2.0 * n)
    inv_n = 1.0 / n
    thetas = _thetas_from(ns)
    deltas = closed_form_sensitivity(spec, thetas)
    # 1/inf**2 = 0: a divergent row carries no Fisher information.
    fishers = 1.0 / (deltas * deltas)
    rows = [(th, d, f, hl, inv_n, 0.0) for th, d, f in zip(thetas, deltas, fishers)]
    rows.append((theta_opt, d_opt, 1.0 / (d_opt * d_opt), hl, inv_n, 1.0))
    columns = ("theta_rad", "delta_theta", "fisher", "hl", "inv_n", "is_optimal")
    _emit(serialize_rows(columns, rows), ns.out)
    return 0


def cmd_figure(ns: argparse.Namespace) -> int:
    _, _, flags = _COMMANDS[ns.command]
    kwargs = {_BUILDER_KEYS.get(k, k): getattr(ns, k) for k in flags if getattr(ns, k) is not None}
    if "n" in kwargs and kwargs["n"] <= 0.0:
        raise ValueError(f"{ns.command} requires n > 0, got {kwargs['n']:g}")
    grid = getattr(sweeps, f"{ns.command}_grid")(**kwargs)
    _emit(grid.to_csv(), ns.out)
    return 0


def cmd_fock_validate(ns: argparse.Namespace) -> int:
    ns_list = [ns.n] if ns.n is not None else list(_FOCK_DEFAULT_NS)
    if (ns.t1 is None) != (ns.t2 is None):
        raise ValueError("give both --t1 and --t2 or neither")
    if ns.t1 is not None:
        cases = [(ns.t1, ns.t2)]
    else:
        cases = [None] + [(t1, t2) for t1 in _FOCK_DEFAULT_TS for t2 in _FOCK_DEFAULT_TS]
    if ns.theta is not None:
        thetas = [parse_angle(ns.theta)]
    else:
        thetas = list(_theta_grid(9))

    lines = [f"fock-basis cross-check of the matrix pipeline (tolerance {_FOCK_TOL:g})"]
    failures = 0
    for n in ns_list:
        used_cutoff = ns.cutoff if ns.cutoff is not None else fock.required_cutoff(n)
        table = fock.oracle_parity_table(n, thetas, cases, cutoff=used_cutoff)
        for i, case in enumerate(cases):
            if case is None:
                spec = PipelineSpec.lossless(0.0, n)
            else:
                spec = PipelineSpec.generation_loss(0.0, n, case[0], case[1])
            fock_row = np.array([table[i, j] for j in range(len(thetas))])
            gauss = pipeline_signal(spec, np.array(thetas))
            worst = float(np.max(np.abs(fock_row - gauss)))
            detail = f"  fock={fock_row[0]:.9f} pipeline={gauss[0]:.9f}" if len(thetas) == 1 else ""
            ok = worst < _FOCK_TOL
            failures += 0 if ok else 1
            label = "lossless" if case is None else f"t1={case[0]:g} t2={case[1]:g}"
            lines.append(
                f"  n={n:g} cutoff={used_cutoff} {label:<16} "
                f"max|diff|={worst:.3e}  {'pass' if ok else 'FAIL'}{detail}"
            )
    total = len(ns_list) * len(cases)
    if failures:
        lines.append(f"{failures} of {total} cases FAIL")
    else:
        lines.append(f"all {total} cases pass")
    _emit("\n".join(lines) + "\n", ns.out)
    return 2 if failures else 0


# Each command's flags, declared once: key -> add_argument keywords.  The key
# is both the flag (underscores become hyphens) and the --config key.
_COMMON = {
    "config": {"help": "JSON file supplying default flag values"},
    "out": {"type": Path, "help": "write CSV/report to this path instead of stdout"},
}
_VARIANT_FLAGS = {
    "variant": {"choices": VARIANTS, "default": "lossless"},
    "n": {"type": float, "default": 10.0, "help": "total mean photon number of the probe"},
    "theta": {"help": "single angle (radians or pi fraction)"},
    "theta_steps": {"type": int, "default": 181, "help": "grid size over [0, pi/2]"},
    "t1": {"type": float, "help": "generation transmissivity, mode 1 (r1)"},
    "t2": {"type": float, "help": "generation transmissivity, mode 2 (r1)"},
    "t": {"type": float, "help": "detection efficiency (r2)"},
    "nth": {"type": float, "help": "thermal occupation of the detector port (r2)"},
}
_FLOAT, _INT = {"type": float}, {"type": int}
# Command -> (help, handler, flags), in the order the help lists them.  Figure
# flags default to None: only the values given reach sweeps.<command>_grid,
# which holds the defaults.
_COMMANDS = {
    "signal": ("parity signal vs rotation angle", cmd_signal, _VARIANT_FLAGS),
    "sensitivity": ("closed-form sensitivity vs angle", cmd_sensitivity, _VARIANT_FLAGS),
    "fig2": ("visibility and optimum over (t1, t2)", cmd_figure, {"n": _FLOAT, "t1_steps": _INT, "t2_steps": _INT}),
    "fig3": ("optimum over (t, n), equal generation loss", cmd_figure, {"t_steps": _INT, "n_steps": _INT}),
    "fig4": ("visibility and optimum over (t, n_th)", cmd_figure, {"n": _FLOAT, "t_steps": _INT, "nth_steps": _INT}),
    "fig5": ("optimum over (t, n), thermal detection", cmd_figure, {"nth": _FLOAT, "t_steps": _INT, "n_steps": _INT}),
    "fock-validate": ("number-basis cross-check", cmd_fock_validate, {
        "n": {"type": float, "help": "restrict to one photon number (default 0.5, 1, 2)"},
        "theta": {"help": "restrict to one angle (default 9-point grid)"},
        "t1": {"type": float, "help": "restrict to one loss pair (with --t2)"},
        "t2": {"type": float},
        "cutoff": {"type": int, "help": "explicit per-mode cutoff override"},
    }),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and never mutated."""
    parser = _Parser(prog="polrot", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_text, func, flags) in _COMMANDS.items():
        p = subs.add_parser(name, help=help_text)
        for key, kwargs in {**flags, **_COMMON}.items():
            p.add_argument("--" + key.replace("_", "-"), **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        if ns.config is not None:
            # The config's tokens go before the explicit flags, which win by
            # coming last.
            argv = sys.argv[1:] if argv is None else list(argv)
            at = argv.index(ns.command) + 1
            ns = parser.parse_args([*argv[:at], *_config_tokens(ns), *argv[at:]])
        return ns.func(ns)
    except CutoffTooSmallError as exc:
        print(f"polrot: validation error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"polrot: error: {exc}", file=sys.stderr)
        return 1


def entry() -> int:
    return main()
