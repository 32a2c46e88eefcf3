"""The benchmark's workloads: seeded op streams, the library calls, and oracles.

Each workload turns a seed into an endless stream of ops, runs one op by
calling into qdilemma, and checks the op's output with an oracle that does
not reuse the code under test where it can avoid it.  Library functions are
looked up on their module at call time, so the traced pass can rebind them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import random

from qdilemma import cli, equilibrium, game, nmr, tomography
from qdilemma.equilibrium import StrategyGrid
from qdilemma.game import DEFAULT_TABLE, PayoffTable, sweep_gammas

HALF_PI = math.pi / 2
THRESHOLD_MARGIN = 1e-6


def table_thresholds(table: PayoffTable) -> tuple[float, float]:
    """The two entanglement thresholds, written out here from the closed form
    so the oracles do not lean on the library's own thresholds()."""
    r, s, t, p = table.as_tuple()
    return (math.asin(math.sqrt((p - s) / (t - s))), math.asin(math.sqrt((t - r) / (t - s))))


def expected_regime(gamma: float, table: PayoffTable) -> str:
    th1, th2 = table_thresholds(table)
    if gamma >= th2:
        return "quantum"
    return "intermediate" if gamma >= th1 else "classical"


def random_table(rng: random.Random) -> PayoffTable:
    """A Prisoner's Dilemma table with the two-threshold structure
    (punishment - sucker <= temptation - reward)."""
    sucker = rng.uniform(-2.0, 2.0)
    a, b, c = (rng.uniform(0.25, 3.0) for _ in range(3))
    a, c = min(a, c), max(a, c)
    punishment = sucker + a
    reward = punishment + b
    return PayoffTable(reward=reward, sucker=sucker, temptation=reward + c, punishment=punishment)


def away_from_thresholds(rng: random.Random, table: PayoffTable) -> float:
    while True:
        gamma = rng.uniform(0.0, HALF_PI)
        if all(abs(gamma - th) > THRESHOLD_MARGIN for th in table_thresholds(table)):
            return gamma


class Workload:
    """Interface shared by the workloads.

    cycle: ops in the smallest run of the stream whose mix of work repeats;
    throughput is computed over groups of whole cycles.
    trace_ops: the fixed op count of the traced pass, so counts repeat.
    """

    name = ""
    cycle = 1
    warmup_ops = 1
    mem_ops = 1
    trace_ops = 1

    def __init__(self, seed: int, tmpdir: str):
        self.seed = seed
        self.tmpdir = tmpdir

    def ops(self):
        raise NotImplementedError

    def setup_op(self):
        """A fixed, seed-independent op that touches every lazy set-up path."""
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out) -> bool:
        raise NotImplementedError

    def corruptions(self):
        """(label, op, corrupted output) triples that the oracle must reject."""
        raise NotImplementedError


# --- nash_scan ---------------------------------------------------------------

NASH_GRID = StrategyGrid(61, 31)
NASH_TOL = 1e-9
DEFECT = (math.pi, 0.0)
QUANTUM = (0.0, HALF_PI)
# In the lexicographic (theta, phi) order of the grid Q precedes D.
CORNERS = {
    "classical": [(DEFECT, DEFECT)],
    "intermediate": [(QUANTUM, DEFECT), (DEFECT, QUANTUM)],
    "quantum": [(QUANTUM, QUANTUM)],
}


@dataclasses.dataclass(frozen=True)
class NashOp:
    gamma: float
    table: PayoffTable


class NashScan(Workload):
    """One op is one find_nash_grid on the 61x31 grid (1861 strategies)."""

    name = "nash_scan"
    warmup_ops = 2
    mem_ops = 1
    trace_ops = 16
    extras_per_cycle = 6

    def ops(self):
        rng = random.Random(self.seed)
        standard = [NashOp(g, DEFAULT_TABLE) for g in sweep_gammas()]
        while True:
            block = list(standard)
            for _ in range(self.extras_per_cycle):
                table = random_table(rng)
                block.append(NashOp(away_from_thresholds(rng, table), table))
            rng.shuffle(block)
            yield from block

    def setup_op(self):
        return NashOp(sweep_gammas()[6], DEFAULT_TABLE)

    def run(self, op):
        return equilibrium.find_nash_grid(op.gamma, NASH_GRID, NASH_TOL, op.table)

    def check(self, op, out) -> bool:
        regime = expected_regime(op.gamma, op.table)
        if out.regime != regime or out.gamma != op.gamma:
            return False
        expected = CORNERS[regime]
        if len(out.equilibria) != len(expected):
            return False
        for (sa, sb, pa, pb), (ea, eb) in zip(out.equilibria, expected):
            if (sa.theta, sa.phi, sb.theta, sb.phi) != (*ea, *eb):
                return False
            ref = game.play(op.gamma, sa, sb, op.table)
            if abs(pa - ref.payoff_a) > 1e-9 or abs(pb - ref.payoff_b) > 1e-9:
                return False
        return True

    def corruptions(self):
        op = self.setup_op()  # intermediate regime: two equilibria
        out = self.run(op)
        sa, sb, pa, pb = out.equilibria[0]
        yield "wrong payoff", op, dataclasses.replace(
            out, equilibria=((sa, sb, pa + 1e-6, pb),) + out.equilibria[1:])
        yield "missing equilibrium", op, dataclasses.replace(out, equilibria=out.equilibria[1:])
        yield "extra equilibrium", op, dataclasses.replace(
            out, equilibria=out.equilibria + out.equilibria[:1])


# --- noisy_trials ------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Trial:
    gamma: float
    noise: nmr.NoiseModel
    apply_t2: bool
    flip: bool
    readout_sigma: float
    tomo_seed: int
    control: bool


class NoisyTrials(Workload):
    """One op is one simulated experiment: compile, run, read out, reconstruct,
    score.  Every block of ten trials holds one zero-noise control and five
    trials with T2 damping."""

    name = "noisy_trials"
    cycle = 10
    warmup_ops = 300
    mem_ops = 20
    trace_ops = 3000

    def ops(self):
        rng = random.Random(self.seed)
        while True:
            kinds = ["control"] + ["t2"] * 5 + ["plain"] * 4
            rng.shuffle(kinds)
            for kind in kinds:
                gamma = rng.uniform(0.0, HALF_PI)
                flip = rng.random() < 0.5
                tomo_seed = rng.getrandbits(32)
                if kind == "control":
                    yield Trial(gamma, nmr.NOISELESS, False, flip, 0.0, tomo_seed, True)
                    continue
                noise = nmr.NoiseModel(
                    rotation_angle_error=rng.uniform(0.0, 0.05),
                    field_inhomogeneity=rng.uniform(0.0, 0.05),
                    seed=rng.getrandbits(32),
                )
                yield Trial(gamma, noise, kind == "t2", flip, rng.uniform(0.0, 0.05),
                            tomo_seed, False)

    def setup_op(self):
        noise = nmr.NoiseModel(rotation_angle_error=0.03, field_inhomogeneity=0.03, seed=1)
        return Trial(0.6, noise, True, False, 0.03, 2, False)

    def run(self, op):
        seq = nmr.compile_strategies(op.gamma, flip_intermediate=op.flip)
        rho = nmr.run_experiment(op.gamma, seq, noise=op.noise, apply_t2=op.apply_t2)
        records = tomography.tomography_records(rho, op.readout_sigma, seed=op.tomo_seed)
        result = tomography.reconstruct(records)
        return tomography.payoff_from_density(result.rho_raw), result, len(records)

    def check(self, op, out) -> bool:
        (pa, pb), result, n_records = out
        raw = result.rho_raw
        if n_records != 9 or not (math.isfinite(pa) and math.isfinite(pb)):
            return False
        if abs(raw.trace() - 1) > 1e-9 or abs(raw - raw.conj().T).max() > 1e-9:
            return False
        if abs(result.rho_hat.trace() - 1) > 1e-9:
            return False
        if not op.control:
            return True
        branches = {label: v for _, label, v in equilibrium.nash_payoff_curve(DEFAULT_TABLE, [op.gamma])}
        if "DD" in branches or "QQ" in branches:
            ref_a = ref_b = branches.get("DD", branches.get("QQ"))
        else:
            ref_a, ref_b = (branches["QD"], branches["DQ"]) if op.flip else (branches["DQ"], branches["QD"])
        return abs(pa - ref_a) <= 1e-6 and abs(pb - ref_b) <= 1e-6

    def corruptions(self):
        control = Trial(0.6, nmr.NOISELESS, False, False, 0.0, 0, True)
        (pa, pb), result, n = self.run(control)
        yield "wrong control payoff", control, ((pa + 1e-5, pb), result, n)
        noisy = self.setup_op()
        (pa, pb), result, n = self.run(noisy)
        yield "non-finite payoff", noisy, ((math.nan, pb), result, n)
        yield "missing setting", noisy, ((pa, pb), result, n - 1)


# --- figure_datasets ---------------------------------------------------------

LADDER_STEPS = (101, 151, 201)
FORMATS = ("csv", "json")


@dataclasses.dataclass(frozen=True)
class CliOp:
    argv: tuple[str, ...]
    kind: str  # landscape | sweep | replay | equilibria | thresholds
    expect: tuple = ()


class FigureDatasets(Workload):
    """One op is one in-process cli.main call writing into a temp dir.

    A round is landscape+replay, sweep+replay, equilibria and thresholds in a
    seeded order.  A ladder of six rounds uses every landscape size in
    LADDER_STEPS once in each format, and each format for three sweeps and
    three equilibria, so every ladder does the same work in a seeded order.
    """

    name = "figure_datasets"
    cycle = 6 * len(LADDER_STEPS) * len(FORMATS)
    warmup_ops = 0  # the memory pass, one whole ladder, warms up
    mem_ops = cycle
    trace_ops = 2 * cycle

    def _path(self, name: str) -> str:
        return os.path.join(self.tmpdir, name)

    def _round(self, rng: random.Random, steps: int, landscape_fmt: str, sweep_fmt: str,
               eq_fmt: str):
        preset = rng.choice(("fig2", "fig3", "fig4"))
        land = self._path(f"landscape.{landscape_fmt}")
        sweep = self._path(f"sweep.{sweep_fmt}")
        eq_gamma = away_from_thresholds(rng, DEFAULT_TABLE)
        table = random_table(rng)
        table_arg = ",".join(repr(v) for v in table.as_tuple())
        units = [
            [CliOp(("landscape", "--preset", preset, "--steps", str(steps), "--format",
                    landscape_fmt, "--out", land), "landscape", (land, steps * steps)),
             CliOp(("landscape", "--replay", land), "replay")],
            [CliOp(("sweep", "--seed", str(rng.getrandbits(31)), "--format", sweep_fmt,
                    "--out", sweep), "sweep", (sweep,)),
             CliOp(("sweep", "--replay", sweep), "replay")],
            [CliOp(("equilibria", "--gamma", repr(eq_gamma), "--grid", "21x11", "--format",
                    eq_fmt, "--out", self._path(f"equilibria.{eq_fmt}")), "equilibria",
                   (self._path(f"equilibria.{eq_fmt}"),
                    len(CORNERS[expected_regime(eq_gamma, DEFAULT_TABLE)])))],
            [CliOp(("thresholds", f"--table={table_arg}", "--format", "csv", "--out",
                    self._path("thresholds.csv")), "thresholds",
                   (self._path("thresholds.csv"), table_thresholds(table)))],
        ]
        rng.shuffle(units)
        return [op for unit in units for op in unit]

    def ops(self):
        rng = random.Random(self.seed)
        while True:
            landscapes = [(n, fmt) for n in LADDER_STEPS for fmt in FORMATS]
            sweep_fmts = [fmt for fmt in FORMATS for _ in LADDER_STEPS]
            eq_fmts = list(sweep_fmts)
            for seq in (landscapes, sweep_fmts, eq_fmts):
                rng.shuffle(seq)
            for (n, land_fmt), sweep_fmt, eq_fmt in zip(landscapes, sweep_fmts, eq_fmts):
                yield from self._round(rng, n, land_fmt, sweep_fmt, eq_fmt)

    def setup_op(self):
        return CliOp(("sweep", "--seed", "0", "--out", self._path("setup_sweep.csv")),
                     "sweep", (self._path("setup_sweep.csv"),))

    def run(self, op):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(list(op.argv))
        return rc, stdout.getvalue()

    def check(self, op, out) -> bool:
        rc, printed = out
        if rc != 0:
            return False
        if op.kind == "replay":
            return "replay ok" in printed
        with open(op.expect[0], encoding="utf-8") as fh:
            text = fh.read()
        if text.startswith("{"):
            columns = json.loads(text)["columns"]
            n_rows = len(next(iter(columns.values())))
            first = {name: values[0] for name, values in columns.items() if values}
        else:
            lines = text.splitlines()
            if len(lines) < 2 or not lines[0].startswith("# meta: "):
                return False
            n_rows = len(lines) - 2
            first = dict(zip(lines[1].split(","), lines[2].split(","))) if n_rows else {}
        if op.kind == "sweep":
            return n_rows >= len(sweep_gammas())
        if op.kind in ("landscape", "equilibria"):
            return n_rows == op.expect[1]
        th1, th2 = op.expect[1]
        return (n_rows == 1 and abs(float(first["gamma_th1"]) - th1) <= 1e-9
                and abs(float(first["gamma_th2"]) - th2) <= 1e-9)

    def corruptions(self):
        rng = random.Random(0)
        ops = self._round(rng, 11, "csv", "csv", "csv")
        by_kind = {}
        for op in ops:
            if op.kind != "replay":
                by_kind[op.kind] = op
            out = self.run(op)
            if not self.check(op, out):
                raise RuntimeError(f"self-check input failed its own check: {op.argv}")
        land = by_kind["landscape"]
        path = land.expect[0]
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        # flip one digit in the last data row
        i = max(k for k, ch in enumerate(text) if ch.isdigit())
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:])
        replay = CliOp(("landscape", "--replay", path), "replay")
        yield "flipped byte", replay, self.run(replay)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text.rsplit("\n", 2)[0] + "\n")
        yield "missing row", land, (0, "")
        th = by_kind["thresholds"]
        yield "wrong threshold", dataclasses.replace(
            th, expect=(th.expect[0], (th.expect[1][0] + 1e-6, th.expect[1][1]))), (0, "")
        yield "nonzero exit", by_kind["equilibria"], (1, "")


WORKLOADS = {w.name: w for w in (NashScan, NoisyTrials, FigureDatasets)}
