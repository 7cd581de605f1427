"""The three workloads: seeded inputs, one op per input, and output checks.

Every call into topmonodromy goes through a module attribute (tracking.x,
periods.x, ...), so the traced run's wrappers see it.  An op's check returns
a list of misses; an empty list means the output matched its reference.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import references as ref
from topmonodromy import cli, periods, spectral, tracking
from topmonodromy.errors import NearDiscriminantError

# The package namespace binds the name `discriminant` to poly.discriminant.
discriminant = importlib.import_module("topmonodromy.discriminant")

NAMED = ("cushman", "kappa1", "kappa2", "kappa3")
MERIDIAN_RADIUS = {
    "cushman": (0.3, 0.7),
    "kappa1": (0.05, 0.15),
    "kappa2": (0.05, 0.15),
    "kappa3": (0.05, 0.15),
}
MERIDIAN_WAYPOINTS = (32, 96)
# Radius of the ball around each genus's base point that holds the
# contractible loops; the normalized discriminant stays above 4e-3 (g=2) and
# 49 (g=1) on spheres of this radius about the base.
CONTRACTIBLE_RADIUS = 0.15


@dataclass
class Input:
    label: str
    args: object
    expect: object = None


def _unit(v):
    return v / np.linalg.norm(v)


def _meridian(named, radius, count, orientation):
    """Circle of the given radius about the named loop's stratum point.

    The circle lies in the plane of the named loop's circle, starts at the
    same phase and turns the same way, and is joined to the same base point.
    """
    wp = np.array(named.waypoints)
    centre = np.array(named.stratum)
    u1 = _unit(wp[1] - centre)
    v = wp[2] - centre
    u2 = _unit(v - (v @ u1) * u1)
    pts = [named.waypoints[0]]
    for k in range(count + 1):
        ph = 2.0 * math.pi * k / count
        p = centre + radius * (math.cos(ph) * u1 + math.sin(ph) * u2)
        pts.append(tuple(float(c) for c in p))
    pts.append(named.waypoints[0])
    return tracking.parameter_loop(
        named.g,
        pts,
        orientation=orientation,
        name=f"{named.name}-meridian",
        stratum=named.stratum,
    )


def _contractible(rng, named):
    base = np.array(named.base)
    pts = [named.base]
    for _ in range(int(rng.integers(3, 5))):
        d = _unit(rng.normal(size=3))
        rho = float(rng.uniform(0.05, CONTRACTIBLE_RADIUS))
        pts.append(tuple(float(c) for c in base + rho * d))
    pts.append(named.base)
    return tracking.parameter_loop(named.g, pts, name=f"contractible-g{named.g}")


def _reduced(result, g):
    if g == 1:
        return tracking.monodromy_actions_g1(result).matrix
    return tracking.torus_block(result).matrix


class Loops:
    """One op: a loop's integer matrix by both routes (periods route alone
    for a contractible loop)."""

    name = "loops"

    def make_inputs(self, rng, tiny):
        named = {n: tracking.named_loop(n) for n in (NAMED[:1] if tiny else NAMED)}
        inputs = [Input(n, loop, ref.reduced_reference(n)) for n, loop in named.items()]
        # A meridian's cost grows with its waypoint count and falls with its
        # radius.  kappa2's draw mirrors kappa1's inside the common ranges,
        # and kappa3, the costliest, gets a mirrored pair, so that the cost
        # of a pass moves little from seed to seed.  One meridian of each
        # mirrored pair is reversed.
        u = {n: rng.uniform(size=2) for n in ("cushman", "kappa1", "kappa3")}
        draws = [("cushman", u["cushman"], int(rng.integers(2)))]
        flip = int(rng.integers(2))
        for a, b, ua in (("kappa1", "kappa2", u["kappa1"]), ("kappa3", "kappa3", u["kappa3"])):
            draws += [(a, ua, flip), (b, 1.0 - ua, 1 - flip)]
        wlo, whi = MERIDIAN_WAYPOINTS
        for n, (ur, un), rev in draws:
            if n not in named:
                continue
            lo, hi = MERIDIAN_RADIUS[n]
            radius = lo + (hi - lo) * float(ur)
            count = wlo + min(whi - wlo, int(un * (whi - wlo + 1)))
            expect = ref.reduced_reference(n)
            if rev:
                expect = ref.int_inverse3(expect)
            inputs.append(
                Input(
                    f"{n}-meridian r={radius:.4f} n={count}" + (" reversed" if rev else ""),
                    _meridian(named[n], radius, count, -1 if rev else 1),
                    expect,
                )
            )
        geni = ("cushman",) if tiny else ("cushman", "kappa1")
        for n in geni:
            loop = _contractible(rng, named[n])
            inputs.append(Input(loop.name, loop, None))
        return inputs

    def warm_up(self, inputs):
        self.op(inputs[0])

    def op(self, inp):
        lattice = tracking.monodromy_periods(inp.args)
        local = None
        if inp.expect is not None:
            local = tracking.picard_lefschetz_route(inp.args)
        return lattice, local

    def check(self, inp, out):
        lattice, local = out
        g = inp.args.g
        misses = []
        if abs(ref.int_det(lattice.matrix)) != 1:
            misses.append("|det| != 1")
        if inp.expect is None:
            n = 2 * g + 1
            if lattice.matrix != tuple(tuple(int(i == j) for j in range(n)) for i in range(n)):
                misses.append("contractible loop is not the identity")
        else:
            if _reduced(lattice, g) != inp.expect:
                misses.append("reduced matrix differs from the documented one")
            if local.matrix != lattice.matrix:
                misses.append("routes disagree on the matrix")
            if local.permutation != lattice.permutation:
                misses.append("routes disagree on the permutation")
        for r in (lattice, local):
            if r is not None and not r.residual < ref.RESIDUAL_BOUND[g]:
                misses.append(f"residual {r.residual:.1e} too large")
        return misses

    def counters(self, inp, out):
        return {"tracking.steps_used": sum(r.steps_used for r in out if r is not None)}


# Points closer than this to the plane a1 = -a3 are skipped.  On that plane
# u = -1 is a root of the cubic form, its integrand becomes singular at the
# endpoint, and action_I1_cubic's fixed pair of Gauss-Legendre rules stops
# converging (QuadratureError for |a1 + a3| below about 2e-3).
ANTI_PALINDROMIC_GAP = 0.01


def component_points(rng, count, palindromic):
    """Points of component C drawn as in acceptance criterion 05."""
    points = []
    while len(points) < count:
        a1, a3 = (float(v) for v in rng.uniform(-0.6, 0.6, size=2))
        a2 = float(rng.uniform(0.4, 1.9))
        if palindromic:
            a3 = a1
        if abs(a1 + a3) < ANTI_PALINDROMIC_GAP:
            continue
        coeffs = spectral.SpectralCoeffs.of(1, (a1, a2, a3, 1.0))
        try:
            inside = discriminant.in_component_C(coeffs)
        except NearDiscriminantError:
            continue
        if inside:
            points.append((a1, a2, a3))
    return points


class Actions:
    """One op: action_I1, action_I1_cubic and residue_check at one point."""

    name = "actions"
    # Per kind (general and palindromic a1 = a3).  A pass of this many
    # points takes about as long as the machine's fast and slow phases
    # last, so each point's few repeats fall in different phases and the
    # per-point medians do not all flip together with the machine's state.
    POINTS = 40

    def __init__(self):
        self._reference = {}

    def make_inputs(self, rng, tiny):
        n = 1 if tiny else self.POINTS
        pts = component_points(rng, n, False) + component_points(rng, n, True)
        return [Input("a=({:.4f}, {:.4f}, {:.4f})".format(*p), p) for p in pts]

    def warm_up(self, inputs):
        self.op(inputs[0])

    def op(self, inp):
        p = inp.args
        return periods.action_I1(p), periods.action_I1_cubic(p), periods.residue_check(p)

    def check(self, inp, out):
        i1, cubic, residue = out
        if inp.args not in self._reference:
            self._reference[inp.args] = ref.action_reference(inp.args)
        misses = []
        if not abs(i1 - self._reference[inp.args]) < ref.ACTION_TOL:
            misses.append("action_I1 differs from the mpmath reference")
        if not abs(i1 - cubic) < ref.ACTION_TOL:
            misses.append("the two action routes disagree")
        if not residue < ref.ACTION_TOL:
            misses.append("residue defect too large")
        return misses

    def counters(self, inp, out):
        return {}


def _format_state(omega, gammas):
    return ";".join(",".join(repr(float(v)) for v in row) for row in (omega, *gammas))


class Simulate:
    """One op: the `topmonodromy simulate` command run in-process."""

    name = "simulate"
    T_END, DT = 100.0, 1e-3
    TINY_T_END = 2.0

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.t_end = self.T_END
        self._serial = 0

    def make_inputs(self, rng, tiny):
        if tiny:
            self.t_end = self.TINY_T_END
        inputs = []
        for g in (1, 2):
            m = float(rng.uniform(0.2, 2.0))
            omega = tuple(float(v) for v in rng.uniform(-0.7, 0.7, size=3))
            gammas = tuple(
                tuple(float(v) for v in row) for row in rng.uniform(-0.7, 0.7, size=(g, 3))
            )
            inputs.append(Input(f"g={g} m={m:.3f}", (m, omega, gammas)))
        return inputs

    def _argv(self, inp, t_end, path):
        m, omega, gammas = inp.args
        return [
            # "--state=" because a value that starts with a minus sign would
            # otherwise be parsed as an option
            "simulate", "--m", repr(m), "--state=" + _format_state(omega, gammas),
            "--t", repr(t_end), "--dt", repr(self.DT), "--out", path,
        ]

    def warm_up(self, inputs):
        for inp in inputs[:1] + inputs[-1:]:
            path = os.path.join(self.out_dir, "warm-up.csv")
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(self._argv(inp, 1.0, path))
            os.remove(path)

    def op(self, inp):
        # A fresh file per op: the CSVs are checked after the timed passes.
        self._serial += 1
        path = os.path.join(self.out_dir, f"trajectory-{self._serial}.csv")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self._argv(inp, self.t_end, path))
        return code, buf.getvalue(), path

    def check(self, inp, out):
        code, report, path = out
        if code != 0:
            return [f"simulate exited with {code}"]
        m, omega, gammas = inp.args
        g = len(gammas)
        with open(path, newline="") as fh:
            rows = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
        misses = []
        first = rows[0][1:4], [rows[0][4 + 3 * i : 7 + 3 * i] for i in range(g)]
        if tuple(first[0]) != omega or tuple(map(tuple, first[1])) != gammas:
            misses.append("first CSV row is not the input state")
        base = ref.closed_form_integrals(m, omega, gammas)
        worst = 0.0
        for row in rows:
            values = ref.closed_form_integrals(
                m, row[1:4], [row[4 + 3 * i : 7 + 3 * i] for i in range(g)]
            )
            for v, w, b in zip(values, row[4 + 3 * g :], base):
                if abs(v - w) > 1e-12 * max(1.0, abs(v)):
                    misses.append("CSV integral columns differ from the closed forms")
                worst = max(worst, abs(v - b) / max(1.0, abs(b)))
        if not worst < ref.DRIFT_TOL:
            misses.append(f"first-integral drift {worst:.1e} over t={self.t_end}")
        if json.loads(report)["samples"] != len(rows):
            misses.append("report and CSV disagree on the sample count")
        return sorted(set(misses))

    def counters(self, inp, out):
        """RK4 steps from the CSV sample times, and the CSV size.

        Samples fall every `sample_every` fixed steps plus one at t_end, so
        the steps are those up to the second-last sample plus the dt steps
        (the last possibly shortened) that reach t_end.
        """
        code, report, path = out
        if code != 0:
            return {}
        every = json.loads(report)["sample_every"]
        with open(path, newline="") as fh:
            times = [float(row[0]) for row in list(csv.reader(fh))[1:]]
        tail = math.ceil((times[-1] - times[-2]) / self.DT - 1e-6)
        return {
            "topsys.rk4_steps": (len(times) - 2) * every + tail,
            "cli.csv_bytes": os.path.getsize(path),
        }

    def discard(self, out):
        os.remove(out[2])
