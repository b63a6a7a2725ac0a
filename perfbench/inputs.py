"""Seeded request streams for the three workloads.

Every value is drawn from ``random.Random`` seeded with the workload name and
the seed, so one seed gives one stream on any machine.  A stream is a few
corner requests followed by repeated cycles.  A cycle is a fixed list of
slots, each fixing the amount of work of one request (figure and row count,
command, variant and angle count, or Fock cutoff); the seed draws the
physical parameters of every slot from the paper's ranges (for a figure, the
grid shape, which sets the t values of its rows) and the order of the slots.
Every run thus does the same mix of work and every seed other inputs, which
keeps the medians and the throughput of different seeds comparable.  The corners are the cases the paper plots: equal loss t1 = t2,
exact lossless parameters, and the quarter-turn angle whose sensitivity rows
are ``inf``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Parameter ranges of the paper's figures.
N_RANGE = (1.0, 20.0)
R1_T_RANGE = (0.1, 1.0)
R2_T_RANGE = (0.5, 1.0)
NTH_LOG10_RANGE = (-10.0, -1.0)
# The dense number-basis oracle covers n <= 2 with its automatic cutoff.
ORACLE_N_RANGE = (0.5, 2.0)
# Tail bound of the oracle's automatic cutoff (polrot.fock.DEFAULT_TAIL).
ORACLE_TAIL = 1e-10

# Cycles generated up front; a run that gets through all of them starts over.
STREAM_CYCLES = 200

QUARTER_TURN = "pi/4"
ORACLE_THETA_COUNT = 9


@dataclass(frozen=True)
class FigureRequest:
    """One ``sweeps.figN_grid`` call; ``params`` are its keyword arguments."""

    figure: str
    params: tuple[tuple[str, float | int], ...]

    def kwargs(self) -> dict:
        return dict(self.params)


@dataclass(frozen=True)
class CurveRequest:
    """One ``polrot signal`` or ``polrot sensitivity`` command line."""

    command: str
    variant: str
    n: float
    t1: float | None = None
    t2: float | None = None
    t: float | None = None
    nth: float | None = None
    theta: str | None = None
    theta_steps: int | None = None

    def argv(self) -> list[str]:
        argv = [self.command, "--variant", self.variant, "--n", repr(self.n)]
        for flag, value in (("--t1", self.t1), ("--t2", self.t2), ("--t", self.t), ("--nth", self.nth)):
            if value is not None:
                argv += [flag, repr(value)]
        if self.theta is not None:
            argv += ["--theta", self.theta]
        else:
            argv += ["--theta-steps", str(self.theta_steps)]
        return argv


@dataclass(frozen=True)
class OracleRequest:
    """One number-basis parity table: photon number and loss case (None = lossless)."""

    n: float
    case: tuple[float, float] | None


def _n(rng: random.Random) -> float:
    return rng.uniform(*N_RANGE)


def _nth(rng: random.Random) -> float:
    return 10.0 ** rng.uniform(*NTH_LOG10_RANGE)


# -- figures -----------------------------------------------------------------

# Grid shapes of each figure, as (first axis, second axis) point counts.  The
# seed picks the shape, and with it the t values of the rows.  All shapes of
# a figure have the same number of rows.  fig3 and fig5 rows run only the
# optimizer and cost about half a fig2 row, so their grids have twice the rows
# and do the same work.  fig4 rows cost as much as fig2 rows, and fig4 grids
# have as many rows as fig3 and fig5, so a fig4 request does twice the work of
# the others: a quarter of the requests, it holds the tail latency, and the
# median falls among the other three.  The t axis has at least 12 points, so
# few rows sit on its ends: t = 1 is 1/48 to 1/12 of the rows of a fig3-fig5
# grid (1/46 in the paper's grids).  Both axes of fig2 are t axes; its
# t1 = t2 diagonal is the two end rows of a grid.
_LONG_T = ((12, 8), (16, 6), (24, 4), (32, 3), (48, 2))
FIGURE_SHAPES = {
    "fig2": ((4, 12), (6, 8), (8, 6), (12, 4)),
    "fig3": _LONG_T,
    "fig4": _LONG_T,
    "fig5": _LONG_T,
}
_FIGURE_AXES = {
    "fig2": ("t1_steps", "t2_steps"),
    "fig3": ("t_steps", "n_steps"),
    "fig4": ("t_steps", "nth_steps"),
    "fig5": ("t_steps", "n_steps"),
}


def _figure(rng: random.Random, figure: str) -> FigureRequest:
    params = tuple(zip(_FIGURE_AXES[figure], rng.choice(FIGURE_SHAPES[figure])))
    if figure in ("fig2", "fig4"):
        params = (("n", _n(rng)),) + params
    elif figure == "fig5":
        params = (("n_th", _nth(rng)),) + params
    return FigureRequest(figure, params)


def _figure_corners(rng: random.Random) -> list[FigureRequest]:
    # The paper's operating points: a square fig2 grid has the whole t1 = t2
    # diagonal, and the t = 1 rows of fig3 are exact lossless parameters.
    return [
        FigureRequest("fig2", (("n", 10.0), ("t1_steps", 7), ("t2_steps", 7))),
        FigureRequest("fig3", (("t_steps", 12), ("n_steps", 8))),
        FigureRequest("fig4", (("n", 10.0), ("t_steps", 12), ("nth_steps", 8))),
        FigureRequest("fig5", (("n_th", 0.1), ("t_steps", 12), ("n_steps", 8))),
    ]


def _figure_cycle(rng: random.Random) -> list[FigureRequest]:
    return [_figure(rng, figure) for figure in FIGURE_SHAPES]


# -- curves ------------------------------------------------------------------

# (command, variant, angle count); None asks for a single --theta.  Signal
# runs the symplectic pipeline per angle and dominates the time.
CURVE_SLOTS = (
    ("signal", "lossless", None), ("signal", "r1", 9), ("signal", "r2", 37), ("signal", "lossless", 61),
    ("signal", "r1", 37), ("signal", "r2", 91), ("signal", "lossless", 181), ("signal", "r1", 181),
    ("sensitivity", "r2", None), ("sensitivity", "lossless", 91), ("sensitivity", "r1", 181),
)


def _variant_params(rng: random.Random, variant: str) -> dict:
    if variant == "r1":
        t1 = rng.uniform(*R1_T_RANGE)
        # One r1 request in three has equal loss, whose quarter-turn row is inf.
        t2 = t1 if rng.random() < 1.0 / 3.0 else rng.uniform(*R1_T_RANGE)
        return {"n": _n(rng), "t1": t1, "t2": t2}
    if variant == "r2":
        return {"n": _n(rng), "t": rng.uniform(*R2_T_RANGE), "nth": _nth(rng)}
    return {"n": _n(rng)}


def _curve(rng: random.Random, command: str, variant: str, steps: int | None) -> CurveRequest:
    params = _variant_params(rng, variant)
    if steps is not None:
        return CurveRequest(command, variant, theta_steps=steps, **params)
    theta = QUARTER_TURN if rng.random() < 0.5 else repr(rng.uniform(0.0, math.pi / 2))
    return CurveRequest(command, variant, theta=theta, **params)


def _curve_corners(rng: random.Random) -> list[CurveRequest]:
    n = _n(rng)
    t = rng.uniform(*R1_T_RANGE)
    return [
        CurveRequest("sensitivity", "r1", n, t1=t, t2=t, theta=QUARTER_TURN),
        CurveRequest("sensitivity", "r2", n, t=rng.uniform(*R2_T_RANGE), nth=_nth(rng), theta_steps=91),
        CurveRequest("signal", "r1", n, t1=1.0, t2=1.0, theta_steps=181),
        CurveRequest("sensitivity", "r2", n, t=1.0, nth=_nth(rng), theta_steps=181),
        CurveRequest("signal", "lossless", n, theta=QUARTER_TURN),
    ]


def _curve_cycle(rng: random.Random) -> list[CurveRequest]:
    return [_curve(rng, *slot) for slot in CURVE_SLOTS]


# -- oracle ------------------------------------------------------------------

# Per-mode cutoff of each slot; None is a lossless request at any n.  The
# work grows with the fourth to sixth power of the cutoff, so the slots fix
# the cutoff and the seed draws n within the band that gives it.
ORACLE_SLOTS = (None, 14, 17, 20, 26, 33, 33)


def _n_band(cutoff: int) -> tuple[float, float]:
    """Photon numbers whose automatic cutoff is ``cutoff``, inside ORACLE_N_RANGE.

    The cutoff is the smallest c with (n / (n + 2))**(c + 1) < tail; the band
    is shrunk by 1% at each end to stay clear of rounding at its edges.
    """
    lo_t, hi_t = ORACLE_TAIL ** (1.0 / cutoff), ORACLE_TAIL ** (1.0 / (cutoff + 1))
    lo = max(2.0 * lo_t / (1.0 - lo_t), ORACLE_N_RANGE[0])
    hi = min(2.0 * hi_t / (1.0 - hi_t), ORACLE_N_RANGE[1])
    pad = 0.01 * (hi - lo)
    return lo + pad, hi - pad


def _oracle_corners(rng: random.Random) -> list[OracleRequest]:
    # n = 2 first: its cutoff of 33 sets the run's memory high-water mark.
    t = rng.uniform(*R1_T_RANGE)
    return [OracleRequest(2.0, (t, t)), OracleRequest(0.5, None), OracleRequest(1.0, (1.0, 1.0))]


def _oracle_cycle(rng: random.Random) -> list[OracleRequest]:
    lossy = [c for c in ORACLE_SLOTS if c is not None]
    equal = rng.randrange(len(lossy))
    cycle = [OracleRequest(rng.uniform(*ORACLE_N_RANGE), None)]
    for i, cutoff in enumerate(lossy):
        n = rng.uniform(*_n_band(cutoff))
        if i == equal:
            t = rng.uniform(*R1_T_RANGE)
            cycle.append(OracleRequest(n, (t, t)))
        else:
            cycle.append(OracleRequest(n, (rng.uniform(*R1_T_RANGE), rng.uniform(*R1_T_RANGE))))
    return cycle


_GENERATORS = {
    "figures": (_figure_corners, _figure_cycle, len(FIGURE_SHAPES)),
    "curves": (_curve_corners, _curve_cycle, len(CURVE_SLOTS)),
    "oracle": (_oracle_corners, _oracle_cycle, len(ORACLE_SLOTS)),
}


@dataclass(frozen=True)
class Stream:
    """A workload's requests: ``corners`` of them, then cycles of ``cycle``."""

    requests: list
    corners: int
    cycle: int


def make_stream(workload: str, seed: int, cycles: int = STREAM_CYCLES) -> Stream:
    """The corners and the first ``cycles`` cycles of a workload's stream for ``seed``."""
    corners, cycle, length = _GENERATORS[workload]
    rng = random.Random(f"{workload}:{seed}")
    requests = corners(rng)
    first = len(requests)
    for _ in range(cycles):
        block = cycle(rng)
        rng.shuffle(block)
        requests.extend(block)
    return Stream(requests, first, length)
