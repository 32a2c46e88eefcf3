"""Command-line surface: sweeps, figure data, equilibria, pulse runs, tomography.

Exit codes: 0 success, 1 input error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .datasets import FigureDataset, format_number, read_metadata, render
from .equilibrium import (
    DEFAULT_GRID,
    DEFAULT_TOL,
    StrategyGrid,
    find_nash_grid,
    landscape,
    nash_payoff_curve,
    thresholds,
)
from .game import DEFAULT_TABLE, PayoffTable, sweep_gammas, validate_gamma
from .nmr import (
    NoiseModel,
    compile_disentangler,
    compile_entangler,
    compile_strategies,
    experiment_duration,
    run_experiment,
)
from .tomography import payoff_from_density, reconstruct, records_to_text, tomography_records

PRESETS = ("fig2", "fig3", "fig4")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # input errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_table(raw: str) -> PayoffTable:
    try:
        r, s, t, p = (float(x) for x in raw.split(","))
    except ValueError:
        raise ValueError("--table expects four numbers: reward,sucker,temptation,punishment, "
                         f"got {raw!r}") from None
    return PayoffTable(reward=r, sucker=s, temptation=t, punishment=p)


def _parse_grid(raw: str) -> StrategyGrid:
    try:
        theta_steps, phi_steps = (int(x) for x in raw.lower().split("x"))
    except ValueError:
        raise ValueError(f"--grid expects THETAxPHI, e.g. 61x31, got {raw!r}") from None
    return StrategyGrid(theta_steps, phi_steps)


def _preset_gamma(name: str, table: PayoffTable) -> float:
    """Midpoint of the preset's gamma range: classical, intermediate or quantum."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}, expected one of {', '.join(PRESETS)}")
    th = thresholds(table)
    bounds = (0.0, th.gamma_th1, th.gamma_th2, math.pi / 2)
    k = PRESETS.index(name)
    return (bounds[k] + bounds[k + 1]) / 2


SEED_RULE = "must be a non-negative integer"


def _is_seed(value) -> bool:
    """SeedSequence takes only non-negative integers."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _seed(raw: str) -> int:
    """argparse type of --seed."""
    try:
        seed = int(raw)
    except ValueError:
        seed = None
    if not _is_seed(seed):
        raise argparse.ArgumentTypeError(SEED_RULE)
    return seed


def _noisy_trial(gamma, strategy_seq, noise_angle, noise_readout, seed, index):
    """Run index of a seeded series: a pulse run with angle noise, then a
    noisy readout and its reconstruction; both streams derive from (seed, index)."""
    state = np.random.SeedSequence([seed, index]).generate_state(2)
    noise = NoiseModel(rotation_angle_error=noise_angle, seed=int(state[0]))
    rho = run_experiment(gamma, strategy_seq, noise=noise)
    records = tomography_records(rho, noise_readout, seed=int(state[1]))
    return records, reconstruct(records)


def _config(args, **fields) -> dict:
    """A dataset's embedded config: the command, version, table and format
    every dataset records, then the command's own fields."""
    return {"command": args.command, "version": __version__,
            "table": list(args.table.as_tuple()), "format": args.format, **fields}


def _run_report(gamma, table: PayoffTable, noise_angle, seed, **fields) -> dict:
    """A run report: the version, gamma, table, angle noise and seed every
    report records, then the report's own fields."""
    return {"version": __version__, "gamma": gamma, "table": list(table.as_tuple()),
            "noise_angle": noise_angle, "seed": seed, **fields}


def _columns(names, rows) -> dict:
    """Dataset columns from row tuples; every column is present with no rows."""
    return {name: [row[k] for row in rows] for k, name in enumerate(names)}


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    print(f"wrote {path}")


# --- dataset builders (pure: config dict in, dataset out) ---


def build_landscape_dataset(config: dict) -> FigureDataset:
    table = PayoffTable(*config["table"])
    gamma = validate_gamma(config["gamma"])
    if "preset" in config:
        expected = _preset_gamma(config["preset"], table)
        if gamma != expected:
            raise ValueError(f"preset {config['preset']!r} is gamma {expected!r}, "
                             f"not the embedded gamma {gamma!r}")
    ts, payoff = landscape(gamma, config["steps"], table)
    n = len(ts)
    return FigureDataset(
        kind="landscape",
        columns={
            "t_a": np.repeat(ts, n).tolist(),
            "t_b": np.tile(ts, n).tolist(),
            "payoff_a": payoff.ravel().tolist(),
        },
        metadata=config,
    )


def build_sweep_dataset(config: dict) -> FigureDataset:
    table = PayoffTable(*config["table"])
    gammas = [validate_gamma(g) for g in config["gammas"]]
    rows = []
    for n, gamma in enumerate(gammas):
        for _, label, analytic in nash_payoff_curve(table, [gamma]):
            strategy_seq = compile_strategies(gamma, table, flip_intermediate=label == "QD")
            rho_ideal = run_experiment(gamma, strategy_seq)
            _, result = _noisy_trial(gamma, strategy_seq, config["noise_angle"],
                                     config["noise_readout"], config["seed"], len(rows))
            # payoffs are linear in the state: read the raw minimizer, which is
            # unbiased where the projected estimate is not
            rows.append((n, gamma, label, analytic, payoff_from_density(rho_ideal, table)[0],
                         payoff_from_density(result.rho_raw, table)[0]))
    columns = _columns(("n", "gamma", "label", "payoff_analytic", "payoff_nmr_ideal",
                        "payoff_tomo_noisy"), rows)
    return FigureDataset(kind="sweep_comparison", columns=columns, metadata=config)


def build_equilibria_dataset(config: dict) -> FigureDataset:
    table = PayoffTable(*config["table"])
    grid = StrategyGrid(*config["grid"])
    report = find_nash_grid(config["gamma"], grid, config["tol"], table)
    columns = _columns(("theta_a", "phi_a", "theta_b", "phi_b", "payoff_a", "payoff_b"),
                       [(sa.theta, sa.phi, sb.theta, sb.phi, pa, pb)
                        for sa, sb, pa, pb in report.equilibria])
    meta = dict(config, regime=report.regime, equilibrium_count=len(report.equilibria))
    return FigureDataset(kind="equilibria", columns=columns, metadata=meta)


def build_thresholds_dataset(config: dict) -> FigureDataset:
    table = PayoffTable(*config["table"])
    th = thresholds(table)
    return FigureDataset(
        kind="thresholds",
        columns={"gamma_th1": [th.gamma_th1], "gamma_th2": [th.gamma_th2]},
        metadata=config,
    )


_BUILDERS = {  # the kinds --replay can reach
    "landscape": build_landscape_dataset,
    "sweep_comparison": build_sweep_dataset,
}
_CONFIG_KEYS = {  # every config key a replayable command writes: _config's, then its own
    "landscape": {"command", "version", "table", "format", "gamma", "steps", "preset"},
    "sweep": {"command", "version", "table", "format", "gammas", "noise_angle", "noise_readout",
              "seed"},
}


def build_nmr_report(
    gamma: float,
    noise_angle: float = 0.0,
    seed: int = 0,
    table: PayoffTable = DEFAULT_TABLE,
) -> dict:
    gamma = validate_gamma(gamma)
    run = {  # the compiled run, in run order
        "entangler": compile_entangler(gamma),
        "strategies": compile_strategies(gamma, table),
        "disentangler": compile_disentangler(gamma),
    }
    noise = NoiseModel(rotation_angle_error=noise_angle, seed=seed)
    rho = run_experiment(gamma, run["strategies"], noise=noise)
    pa, pb = payoff_from_density(rho, table)
    sequences = {name: seq.to_text() for name, seq in run.items()}
    return _run_report(gamma, table, noise_angle, seed, pulse_sequences=sequences,
                       density_matrix_re=rho.real.tolist(), density_matrix_im=rho.imag.tolist(),
                       payoff_a=pa, payoff_b=pb, duration_s=experiment_duration(run.values()),
                       warnings=[])


def build_tomo_report(
    gamma: float,
    noise_readout: float = 0.0,
    noise_angle: float = 0.0,
    seed: int = 0,
    table: PayoffTable = DEFAULT_TABLE,
) -> tuple[dict, str]:
    gamma = validate_gamma(gamma)
    records, result = _noisy_trial(gamma, compile_strategies(gamma, table), noise_angle,
                                   noise_readout, seed, 0)
    pa, pb = payoff_from_density(result.rho_raw, table)
    report = _run_report(gamma, table, noise_angle, seed, noise_readout=noise_readout,
                         payoff_a=pa, payoff_b=pb, residual_norm=result.residual_norm,
                         projected=result.projected, rho_hat_re=result.rho_hat.real.tolist(),
                         rho_hat_im=result.rho_hat.imag.tolist())
    return report, records_to_text(records)


# --- replay ---


def _replay(path: str, command: str, expected_kind: str) -> int:
    with open(path, "r", encoding="utf-8") as fh:
        original = fh.read()
    try:
        meta = read_metadata(original)
        kind = meta.pop("kind")
        if kind != expected_kind:
            raise ValueError(f"file {path} holds a {kind!r} dataset, not {expected_kind!r}")
        if meta["command"] != command:
            raise ValueError(f"file {path}: embedded metadata key 'command' is "
                             f"{meta['command']!r}, not {command!r}")
        unknown = sorted(set(meta) - _CONFIG_KEYS[command])
        if unknown:
            raise ValueError(f"file {path}: embedded metadata has keys no {command!r} command "
                             f"writes: {', '.join(unknown)}")
        if "seed" in meta and not _is_seed(meta["seed"]):
            raise ValueError(f"file {path}: embedded metadata key 'seed' {SEED_RULE}")
        if isinstance(meta.get("table"), list) and len(meta["table"]) != 4:
            raise ValueError(f"file {path}: embedded metadata key 'table' must hold four numbers")
        try:
            regenerated = render(_BUILDERS[kind](meta), meta["format"])
        except ValueError as exc:  # the builder's and render's errors do not name the file
            raise ValueError(f"file {path}: {exc}") from None
    except KeyError as exc:
        raise ValueError(f"file {path}: embedded metadata lacks key {exc.args[0]!r}") from None
    except TypeError as exc:
        raise ValueError(f"file {path}: embedded metadata has a value of the wrong type "
                         f"({exc})") from None
    if regenerated == original:
        print(f"replay ok: {path} regenerates byte-identically")
        return 0
    print(f"replay mismatch: {path} does not regenerate from its embedded config",
          file=sys.stderr)
    return 1


def _typed_flags(args, argv) -> list[str]:
    """The flags typed in argv, even at their default value, named in full and
    in declaration order; argparse also takes --flag=value and a unique prefix."""
    names = [t[2:].partition("=")[0] for t in argv if t.startswith("--") and len(t) > 2]
    flags = ["--" + k.replace("_", "-") for k in vars(args)
             if k not in ("command", "func", "replay_kind")]
    return [f for f in flags if any(f.startswith("--" + n) for n in names)]


def _check_replay_alone(args, argv) -> None:
    """--replay regenerates a file from its embedded config alone; refuse every
    other flag typed rather than ignore it."""
    extra = [f for f in _typed_flags(args, argv) if f != "--replay"]
    if extra:
        raise ValueError(f"--replay uses the file's embedded config and takes no other "
                         f"flag, got {', '.join(extra)}")


# --- command handlers ---


def _cmd_landscape(args) -> None:
    gamma = _preset_gamma(args.preset, args.table) if args.preset else args.gamma
    if gamma is None:
        raise ValueError("landscape needs --gamma or --preset")
    config = _config(args, gamma=float(gamma), steps=args.steps)
    if args.preset:
        config["preset"] = args.preset
    _write(args.out, render(build_landscape_dataset(config), args.format))


def _cmd_sweep(args) -> None:
    gammas = [float(g) for g in args.gamma] if args.gamma else sweep_gammas()
    config = _config(args, gammas=gammas, noise_angle=args.noise_angle,
                     noise_readout=args.noise_readout, seed=args.seed)
    _write(args.out, render(build_sweep_dataset(config), args.format))


def _cmd_equilibria(args) -> None:
    grid = _parse_grid(args.grid)
    config = _config(args, gamma=float(args.gamma),
                     grid=[grid.theta_steps, grid.phi_steps], tol=args.tol)
    ds = build_equilibria_dataset(config)
    print(f"regime: {ds.metadata['regime']}, equilibria: {ds.metadata['equilibrium_count']}")
    _write(args.out, render(ds, args.format))


def _cmd_thresholds(args) -> None:
    th = thresholds(args.table)
    print(f"gamma_th1 = {th.gamma_th1:.6f}")
    print(f"gamma_th2 = {th.gamma_th2:.6f}")
    if args.out:
        _write(args.out, render(build_thresholds_dataset(_config(args)), args.format))


def _write_report(path: str, report: dict, suffix: str, text: str) -> None:
    """A run report as sorted, indented JSON, then its companion text at path + suffix."""
    _write(path, json.dumps(report, sort_keys=True, indent=2) + "\n")
    _write(path + suffix, text)


def _cmd_nmr(args) -> None:
    report = build_nmr_report(args.gamma, args.noise_angle, args.seed, args.table)
    print(f"payoffs: ({format_number(report['payoff_a'])}, {format_number(report['payoff_b'])}), "
          f"duration {report['duration_s']:.6f} s")
    listing = "".join(f"# {name}\n{text}" for name, text in report["pulse_sequences"].items())
    _write_report(args.out, report, ".pulses.txt", listing)


def _cmd_tomo(args) -> None:
    report, records_text = build_tomo_report(
        args.gamma, args.noise_readout, args.noise_angle, args.seed, args.table
    )
    print(f"reconstructed payoffs: ({format_number(report['payoff_a'])}, "
          f"{format_number(report['payoff_b'])}), residual {report['residual_norm']:.3e}")
    _write_report(args.out, report, ".records.txt", records_text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qdilemma",
                     description="Entanglement-tunable quantum Prisoner's Dilemma toolkit")
    parser.add_argument("--version", action="version", version=f"qdilemma {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, func, out, fmt=True, replay_kind=None):
        """The flags every subcommand shares, after its own."""
        p.add_argument("--out", default=out)
        if replay_kind:
            p.add_argument("--replay", metavar="FILE",
                           help="regenerate FILE from its embedded config and verify bytes match")
        p.add_argument("--table", default=",".join(map(str, DEFAULT_TABLE.as_tuple())),
                       metavar="R,S,T,P",
                       help="payoff table: reward,sucker,temptation,punishment")
        if fmt:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.set_defaults(func=func, replay_kind=replay_kind)

    p = sub.add_parser("landscape", help="payoff surface over the t-parametrized square")
    at = p.add_mutually_exclusive_group()
    at.add_argument("--gamma", type=float)
    at.add_argument("--preset", choices=PRESETS,
                    help="canonical entanglement values: below, between and above the thresholds")
    p.add_argument("--steps", type=int, default=41)
    common(p, _cmd_landscape, "landscape.csv", replay_kind="landscape")

    p = sub.add_parser("sweep", help="payoff vs entanglement: analytic, ideal pulses, noisy tomography")
    p.add_argument("--gamma", type=float, action="append",
                   help="custom sweep value (repeatable); default n*pi/36 for n=0..18")
    p.add_argument("--noise-angle", type=float, default=0.05)
    p.add_argument("--noise-readout", type=float, default=0.03)
    p.add_argument("--seed", type=_seed, default=0)
    common(p, _cmd_sweep, "sweep.csv", replay_kind="sweep_comparison")

    p = sub.add_parser("equilibria", help="grid Nash equilibria at one entanglement value")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--grid", default=f"{DEFAULT_GRID.theta_steps}x{DEFAULT_GRID.phi_steps}",
                   metavar="THETAxPHI")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    common(p, _cmd_equilibria, "equilibria.csv")

    p = sub.add_parser("thresholds", help="entanglement thresholds of a payoff table")
    common(p, _cmd_thresholds, None)

    p = sub.add_parser("nmr", help="compile and execute the pulse-level experiment")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--noise-angle", type=float, default=0.0)
    p.add_argument("--seed", type=_seed, default=0)
    common(p, _cmd_nmr, "nmr.json", fmt=False)

    p = sub.add_parser("tomo", help="simulated-readout tomography round trip")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--noise-readout", type=float, default=0.0)
    p.add_argument("--noise-angle", type=float, default=0.0)
    p.add_argument("--seed", type=_seed, default=0)
    common(p, _cmd_tomo, "tomo.json", fmt=False)

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _PARSER.parse_args(argv)
        args.table = _parse_table(args.table)
        if getattr(args, "replay", None) is not None:  # --replay "" included
            _check_replay_alone(args, argv)
            return _replay(args.replay, args.command, args.replay_kind)
        if args.out is None and "--format" in _typed_flags(args, argv):
            raise ValueError("--format needs --out: without --out no file is written")
        args.func(args)
        return 0
    except SystemExit as exc:  # argparse --help/--version or our input errors
        return exc.code if isinstance(exc.code, int) else 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
