"""Command-line front end: signals, sensitivities, figure sweeps, validation.

Subcommands
    signal         parity signal vs angle through the matrix pipeline
    sensitivity    closed-form sensitivity vs angle plus the optimum
    fig2..fig5     the four reference parameter sweeps as CSV grids
    fock-validate  number-basis cross-check of the Gaussian results

Output is CSV on stdout or --out PATH, byte-identical across runs.  A JSON
--config file may supply any flag value (keys use underscores, e.g.
"theta_steps"); explicit flags win.  Angles accept radians or pi-fraction
literals such as pi/4 or 3pi/8.  Exit codes: 0 success, 1 usage or
configuration error, 2 validation failure.
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

# Figure command -> (help, {flag key: type} in flag order).  Each command
# calls sweeps.<command>_grid, which holds the defaults.
_FIGURES = {
    "fig2": ("visibility and optimum over (t1, t2)", {"n": float, "t1_steps": int, "t2_steps": int}),
    "fig3": ("optimum over (t, n), equal generation loss", {"t_steps": int, "n_steps": int}),
    "fig4": ("visibility and optimum over (t, n_th)", {"n": float, "t_steps": int, "nth_steps": int}),
    "fig5": ("optimum over (t, n), thermal detection", {"nth": float, "t_steps": int, "n_steps": int}),
}
# Flag keys spelled differently from the builder keyword they set.
_BUILDER_KEYS = {"nth": "n_th"}


def parse_angle(text) -> float:
    """Angle in radians from a number or a pi-fraction literal like 'pi/4'.

    Numbers (from a JSON config) are read through str(), which round-trips
    floats exactly.  Unparsable and non-finite angles raise ValueError.
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
    steps = int(steps)
    if steps < 2:
        raise ValueError(f"theta_steps must be >= 2, got {steps}")
    return (0.5 * np.arange(steps) / (steps - 1)) * np.pi


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; 2 is reserved here for
    # validation failures, so usage errors are remapped to 1.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON file supplying default flag values")
    sub.add_argument("--out", help="write CSV/report to this path instead of stdout")


def _add_variant_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--variant", choices=VARIANTS)
    sub.add_argument("--n", type=float, help="total mean photon number of the probe")
    sub.add_argument("--theta", help="single angle (radians or pi fraction)")
    sub.add_argument("--theta-steps", type=int, help="grid size over [0, pi/2]")
    sub.add_argument("--t1", type=float, help="generation transmissivity, mode 1 (r1)")
    sub.add_argument("--t2", type=float, help="generation transmissivity, mode 2 (r1)")
    sub.add_argument("--t", type=float, help="detection efficiency (r2)")
    sub.add_argument("--nth", type=float, help="thermal occupation of the detector port (r2)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and never mutated."""
    parser = _Parser(prog="polrot", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = subs.add_parser("signal", help="parity signal vs rotation angle")
    _add_variant_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_signal)

    p = subs.add_parser("sensitivity", help="closed-form sensitivity vs angle")
    _add_variant_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_sensitivity)

    for name, (help_text, flags) in _FIGURES.items():
        p = subs.add_parser(name, help=help_text)
        for key, kind in flags.items():
            p.add_argument("--" + key.replace("_", "-"), type=kind)
        _add_common(p)
        p.set_defaults(func=cmd_figure, figure=name)

    p = subs.add_parser("fock-validate", help="number-basis cross-check")
    p.add_argument("--n", type=float, help="restrict to one photon number (default 0.5, 1, 2)")
    p.add_argument("--theta", help="restrict to one angle (default 9-point grid)")
    p.add_argument("--t1", type=float, help="restrict to one loss pair (with --t2)")
    p.add_argument("--t2", type=float)
    p.add_argument("--cutoff", type=int, help="explicit per-mode cutoff override")
    _add_common(p)
    p.set_defaults(func=cmd_fock_validate)

    return parser


def _merge(ns: argparse.Namespace, defaults: dict) -> dict:
    """Resolve flags > config file > hard defaults for one subcommand."""
    cfg = {}
    config_path = getattr(ns, "config", None)
    if config_path:
        try:
            raw = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config {config_path}: {exc}") from None
        if not isinstance(raw, dict):
            raise ValueError(f"config {config_path} must hold a JSON object")
        unknown = sorted(set(raw) - set(defaults))
        if unknown:
            raise ValueError(f"unknown config keys for this command: {', '.join(unknown)}")
        cfg = raw
    merged = {}
    for key, default in defaults.items():
        value = getattr(ns, key, None)
        if value is None:
            value = cfg.get(key, default)
        if value is None:
            value = default
        merged[key] = value
    return merged


_VARIANT_DEFAULTS = {
    "variant": "lossless",
    "n": 10.0,
    "theta": None,
    "theta_steps": 181,
    "t1": None,
    "t2": None,
    "t": None,
    "nth": None,
    "out": None,
}


def _spec_for(params: dict, theta: float) -> PipelineSpec:
    return PipelineSpec(
        variant=params["variant"],
        theta=theta,
        n=float(params["n"]),
        t1=None if params["t1"] is None else float(params["t1"]),
        t2=None if params["t2"] is None else float(params["t2"]),
        t=None if params["t"] is None else float(params["t"]),
        n_th=None if params["nth"] is None else float(params["nth"]),
    )


def _thetas_from(params: dict) -> np.ndarray:
    if params["theta"] is not None:
        return np.array([parse_angle(params["theta"])])
    return _theta_grid(params["theta_steps"])


def _emit(text: str, out) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="")


def cmd_signal(ns: argparse.Namespace) -> int:
    params = _merge(ns, _VARIANT_DEFAULTS)
    thetas = _thetas_from(params)
    signals = pipeline_signal(_spec_for(params, 0.0), thetas)
    rows = [(th, s, *outcome_probabilities(s)) for th, s in zip(thetas, signals)]
    _emit(serialize_rows(("theta_rad", "signal", "p_even", "p_odd"), rows), params["out"])
    return 0


def cmd_sensitivity(ns: argparse.Namespace) -> int:
    params = _merge(ns, _VARIANT_DEFAULTS)
    n = float(params["n"])
    if n <= 0.0:
        raise ValueError("sensitivity requires n > 0")
    spec = _spec_for(params, 0.0)
    theta_opt, d_opt = optimal_sensitivity(lambda x: closed_form_sensitivity(spec, x))
    check_quantum_bound(n, d_opt)
    hl = 1.0 / (2.0 * n)
    inv_n = 1.0 / n
    thetas = _thetas_from(params)
    deltas = closed_form_sensitivity(spec, thetas)
    # 1/inf**2 = 0: a divergent row carries no Fisher information.
    fishers = 1.0 / (deltas * deltas)
    rows = [(th, d, f, hl, inv_n, 0.0) for th, d, f in zip(thetas, deltas, fishers)]
    rows.append((theta_opt, d_opt, 1.0 / (d_opt * d_opt), hl, inv_n, 1.0))
    columns = ("theta_rad", "delta_theta", "fisher", "hl", "inv_n", "is_optimal")
    _emit(serialize_rows(columns, rows), params["out"])
    return 0


def cmd_figure(ns: argparse.Namespace) -> int:
    _, flags = _FIGURES[ns.figure]
    params = _merge(ns, dict.fromkeys([*flags, "out"]))
    # Only the values given reach the builder, so its defaults apply.
    kwargs = {_BUILDER_KEYS.get(k, k): kind(params[k]) for k, kind in flags.items() if params[k] is not None}
    grid = getattr(sweeps, f"{ns.figure}_grid")(**kwargs)
    _emit(grid.to_csv(), params["out"])
    return 0


def cmd_fock_validate(ns: argparse.Namespace) -> int:
    defaults = {"n": None, "theta": None, "t1": None, "t2": None, "cutoff": None, "out": None}
    params = _merge(ns, defaults)
    cutoff = None if params["cutoff"] is None else int(params["cutoff"])
    ns_list = [float(params["n"])] if params["n"] is not None else list(_FOCK_DEFAULT_NS)
    if (params["t1"] is None) != (params["t2"] is None):
        raise ValueError("give both --t1 and --t2 or neither")
    if params["t1"] is not None:
        cases = [(float(params["t1"]), float(params["t2"]))]
    else:
        cases = [None] + [(t1, t2) for t1 in _FOCK_DEFAULT_TS for t2 in _FOCK_DEFAULT_TS]
    if params["theta"] is not None:
        thetas = [parse_angle(params["theta"])]
    else:
        thetas = list(_theta_grid(9))

    lines = [f"fock-basis cross-check of the matrix pipeline (tolerance {_FOCK_TOL:g})"]
    failures = 0
    for n in ns_list:
        used_cutoff = cutoff if cutoff is not None else fock.required_cutoff(n)
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
    _emit("\n".join(lines) + "\n", params["out"])
    return 2 if failures else 0


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except CutoffTooSmallError as exc:
        print(f"polrot: validation error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"polrot: error: {exc}", file=sys.stderr)
        return 1


def entry() -> int:
    return main()
