"""Command-line driver: scriptable sweeps emitting deterministic CSV.

Subcommands: dims, beta, average, ed, chaos-scan, selftest.  Options may come
from a flat key=value config file (`--config`), with command-line flags taking
precedence.  Half-integer spins are serialized as doubled integers in a two_J
column, fractions as rationals ("1/2").  Output files are created exclusively:
a run either writes a new file or fails, before any work if an output path
exists or both outputs share one.  Re-running a command with the same
configuration (any worker count) yields a byte-identical CSV body apart from
the wall_time_ms column.
"""

import argparse
import math
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .asymptotics import (
    hilbert_fraction_asymptotic,
    log_multiplicity_saddle,
    multiplicity_rate,
    saddle_solve,
)
from .combinatorics import (
    SpinSpecies,
    admissible_two_j,
    hilbert_fraction,
    multiplicity,
)
from .ensembles import (
    ENSEMBLE_METHODS,
    default_sample_count,
    ensemble_entropy_samples,
    EntropyEstimate,
    sd2_asymptotic,
    sd2_average_closed,
    singlet_average_asymptotic,
    singlet_average_exact,
)
from .spectra import (
    ChainSpec,
    diagonalize_and_resolve,
    eigenstate_entropy_average,
    gaussianity_average,
)


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    body = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(body)
        return
    with open(path, "x", newline="") as fh:
        fh.write(body)


def _parse_number(text, key, kind=int, minimum=None, maximum=None):
    """One option value of type `kind`, refused outside [minimum, maximum]
    (either bound optional; NaN fails any bound)."""
    try:
        value = kind(text)
    except ValueError:
        value = None
    if value is None or not ((minimum is None or value >= minimum)
                             and (maximum is None or value <= maximum)):
        what = "an integer" if kind is int else "a number"
        bound = (f" in [{minimum}, {maximum}]" if maximum is not None
                 else "" if minimum is None else f" >= {minimum}")
        raise SystemExit(f"error: {key}: expects {what}{bound}, got {text!r}")
    return value


def _parse_list(text, key, kind=int, minimum=None, maximum=None):
    """A non-empty comma-separated list of option values."""
    tokens = [tok for tok in str(text).split(",") if tok != ""]
    if not tokens:
        raise SystemExit(f"error: {key}: expects a non-empty comma-separated list, got {text!r}")
    return [_parse_number(tok, key, kind, minimum, maximum) for tok in tokens]


def _parse_fraction(text, key):
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        raise SystemExit(f"error: {key} expects a rational like 1/2, got {text!r}")


def _load_config(path):
    config = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise SystemExit(f"error: {path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            config[key.strip()] = value.strip()
    return config


def _merged(args):
    """Config-file values fill in options the command line left unset; the
    config keys are the subcommand's option names.  Refuses taken output paths."""
    values = {k: v for k, v in vars(args).items() if k not in ("config", "command", "func")}
    if args.config:
        config = _load_config(args.config)
        unknown = set(config) - set(values)
        if unknown:
            raise SystemExit(f"error: unknown config key(s): {', '.join(sorted(unknown))}")
        for key, raw in config.items():
            if values.get(key) is None:
                values[key] = raw
    outputs = [values.get(key) for key in ("out", "eigenstates_out")]
    for key, path in zip(("out", "eigenstates-out"), outputs):
        if path is not None and os.path.exists(path):
            raise SystemExit(f"error: {key}: refusing to overwrite existing file: {path}")
    if None not in outputs and os.path.realpath(outputs[0]) == os.path.realpath(outputs[1]):
        raise SystemExit(f"error: eigenstates-out: same path as out: {outputs[1]}")
    return values


def _species(value):
    if isinstance(value, SpinSpecies):
        return value
    try:
        return SpinSpecies.from_name(str(value))
    except ValueError as exc:
        raise SystemExit(f"error: species: {exc}")


def _expand_two_j(species, sites, two_j_opt, key="two_J"):
    if two_j_opt in (None, "all"):
        return admissible_two_j(species, sites)
    chosen = _parse_list(two_j_opt, key)
    valid = set(admissible_two_j(species, sites))
    for tj in chosen:
        if tj not in valid:
            raise SystemExit(f"error: {key}={tj} is not an admissible doubled spin at L={sites}")
    return chosen


def _add_common(parser, *, seed=False, method=False, coupling=False, samples=False, f=False):
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--out", help="output CSV path (stdout when omitted)")
    parser.add_argument("--species", help="half or one (default half)")
    parser.add_argument("--L", help="comma-separated site counts")
    parser.add_argument("--two-J", dest="two_J", help="comma-separated doubled spins, or 'all'")
    if f:
        parser.add_argument("--f", help="subsystem fraction as a rational, e.g. 1/2")
    if method:
        parser.add_argument("--method", help="full | sd1 | sd2 | closed | asymptotic")
    if samples:
        parser.add_argument("--samples", help="Monte Carlo sample count")
        parser.add_argument(
            "--complex", action="store_const", const="1", default=None,
            help="draw complex Gaussian coefficients (default real)",
        )
    if seed:
        parser.add_argument("--seed", help="64-bit RNG seed (required for stochastic methods)")
    if coupling:
        parser.add_argument("--coupling", help="comma-separated coupling values (default 0)")


def _cmd_dims(args):
    opt = _merged(args)
    species = _species(opt["species"] or "half")
    if opt["L"] is None:
        raise SystemExit("error: L: at least one system size is required")
    sites_list = _parse_list(opt["L"], "L", minimum=1)
    header = ("species", "L", "two_J", "n_exact", "n_asymptotic_log", "fraction", "fraction_asymptotic")
    rows = []
    for sites in sites_list:
        for two_j in _expand_two_j(species, sites, opt["two_J"]):
            n_exact = multiplicity(species, sites, two_j)
            try:
                log_n = log_multiplicity_saddle(species, sites, two_j)
            except ValueError:
                log_n = math.nan
            if species.two_s == 1:
                frac = float(hilbert_fraction(sites, two_j))
                frac_asy = hilbert_fraction_asymptotic(sites, two_j)
            else:
                frac = math.nan
                frac_asy = math.nan
            rows.append((species.name, sites, two_j, n_exact, log_n, frac, frac_asy))
    _write_csv(opt["out"], header, rows)
    return 0


def _cmd_beta(args):
    opt = _merged(args)
    species = _species(opt["species"] or "half")
    if opt["j_list"] is None:
        j_values = [k / 20 for k in range(21)]
    else:
        j_values = _parse_list(opt["j_list"], "j-list", float, 0, 1)
    header = ("species", "j", "beta", "saddle_point", "prefactor")
    rows = []
    for j in j_values:
        rate = multiplicity_rate(species, j)
        if 0.0 < j <= 1.0:
            sd = saddle_solve(species, j)
            z0, pref = sd.saddle_point, sd.prefactor
        else:
            z0, pref = 1.0, math.nan
        rows.append((species.name, float(j), rate, z0, pref))
    _write_csv(opt["out"], header, rows)
    return 0


_RESULT_HEADER = (
    "command", "method", "species", "L", "two_J", "f", "coupling", "samples",
    "seed", "mean", "std_dev", "sem", "count", "wall_time_ms", "code_version",
)


def _result_row(command, method, species, sites, two_j, f, coupling, samples, seed, est, t0):
    wall = round(1000.0 * (time.perf_counter() - t0), 3)
    if isinstance(est, EntropyEstimate):
        mean, std, sem, count = est.mean, est.std_dev, est.sem, est.samples
    else:
        mean, std, sem, count = est, math.nan, math.nan, 1
    return (
        command, method, species.name, sites, two_j,
        f, coupling, samples, seed, mean, std, sem, count, wall, __version__,
    )


def _closed_form(sites, two_j, f):
    cut = round(f * sites)
    if two_j == 0:
        return singlet_average_exact(sites, cut)
    return sd2_average_closed(sites, two_j, cut)


def _asymptotic_form(sites, two_j, f):
    if two_j == 0:
        return singlet_average_asymptotic(sites, f)
    return sd2_asymptotic(sites, f, two_j / sites)


def _cmd_average(args):
    opt = _merged(args)
    species = _species(opt["species"] or "half")
    if species.two_s != 1:
        raise SystemExit("error: species: random-state averages are implemented for spin-1/2 only")
    method = opt["method"] or "full"
    if method not in ENSEMBLE_METHODS + ("closed", "asymptotic"):
        raise SystemExit(f"error: method: unknown method {method!r}")
    if opt["L"] is None:
        raise SystemExit("error: L: at least one system size is required")
    sites_list = _parse_list(opt["L"], "L", minimum=1)
    f = _parse_fraction(opt["f"] or "1/2", "f")
    if not 0 < f < 1:
        raise SystemExit(f"error: f: fraction must lie in (0, 1), got {f}")
    stochastic = method in ENSEMBLE_METHODS
    seed = samples_opt = None
    if stochastic:
        if opt["seed"] is None:
            raise SystemExit("error: seed: a seed is mandatory for stochastic methods")
        seed = _parse_number(opt["seed"], "seed", minimum=0)
        if opt["samples"]:
            samples_opt = _parse_number(opt["samples"], "samples", minimum=1)
    if opt["complex"] not in (None, "0", "1"):
        raise SystemExit(f"error: complex: expects 0 or 1, got {opt['complex']!r}")
    complex_field = opt["complex"] == "1"
    if opt["j_density"] is not None and opt["two_J"] is not None:
        raise SystemExit("error: j-density: cannot be combined with two-J")
    rows = []
    for sites in sites_list:
        if opt["j_density"] is not None:
            j_target = _parse_number(opt["j_density"], "j-density", float, 0, 1)
            two_j = round(j_target * sites)
            two_j += (two_j - sites) % 2
            two_j_list = [min(two_j, sites)]
        else:
            two_j_list = _expand_two_j(species, sites, opt["two_J"])
        cut = round(f * sites)
        if not 0 < cut < sites:
            raise SystemExit(f"error: f: fraction {f} gives an empty bipartition at L={sites}")
        for two_j in two_j_list:
            t0 = time.perf_counter()
            samples = None
            if stochastic:
                samples = samples_opt or default_sample_count(method, sites)
                values = ensemble_entropy_samples(
                    sites, two_j, cut, samples, seed, (method,), complex_field
                )[method]
                est = EntropyEstimate.from_samples(values, method, seed)
            elif method == "closed":
                est = _closed_form(sites, two_j, f)
            else:
                est = _asymptotic_form(sites, two_j, f)
            rows.append(
                _result_row("average", method, species, sites, two_j, f, None, samples, seed, est, t0)
            )
    _write_csv(opt["out"], _RESULT_HEADER, rows)
    return 0


_ED_HEADER = _RESULT_HEADER + ("gamma", "gamma_minus_rmt")
_EIGEN_HEADER = (
    "species", "L", "coupling", "momentum_index", "energy", "two_J",
    "j2_residual", "central", "entropy", "gaussianity",
)


def _cmd_ed(args, with_gamma):
    opt = _merged(args)
    species = _species(opt["species"] or "half")
    if opt["L"] is None:
        raise SystemExit("error: L: at least one system size is required")
    sites_list = _parse_list(opt["L"], "L", minimum=1)
    couplings = _parse_list(opt["coupling"] or "0", "coupling", float)
    f = _parse_fraction(opt["f"] or "1/2", "f")
    rows = []
    eigen_rows = []
    skipped = []  # --two-J all expands to spins that may have no central eigenstates
    command = "chaos-scan" if with_gamma else "ed"
    for sites in sites_list:
        two_j_list = _expand_two_j(species, sites, opt["two_J"] or "0")
        for coupling in couplings:
            t0 = time.perf_counter()
            spec = ChainSpec(species, sites, coupling)
            records = diagonalize_and_resolve(spec, f)
            for two_j in two_j_list:
                try:
                    est = eigenstate_entropy_average(records, two_j)
                except ValueError as exc:
                    if opt["two_J"] != "all":
                        raise SystemExit(f"error: two_J: {exc}")
                    skipped.append(f"L={sites} coupling={coupling!r} two_J={two_j}")
                    continue
                row = _result_row(command, "ed", species, sites, two_j, f, coupling, None, None, est, t0)
                if with_gamma:
                    gamma = gaussianity_average(records, two_j)
                    row = row + (gamma, gamma - math.pi / 2.0)
                rows.append(row)
            if opt["eigenstates_out"]:
                for rec in records:
                    eigen_rows.append(
                        (
                            species.name, sites, coupling, rec.momentum_index, rec.energy,
                            rec.two_j, rec.j2_residual, int(rec.central),
                            rec.entropy, rec.gaussianity,
                        )
                    )
    if skipped:
        print(f"skipped, no central complex-sector eigenstates: {'; '.join(skipped)}", file=sys.stderr)
    header = _ED_HEADER if with_gamma else _RESULT_HEADER
    _write_csv(opt["out"], header, rows)
    if opt["eigenstates_out"]:
        _write_csv(opt["eigenstates_out"], _EIGEN_HEADER, eigen_rows)
    return 0


def _cmd_selftest(args):
    from .selftest import run_selftest

    return run_selftest()


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spinsectors",
        description="Entanglement entropy statistics in SU(2) symmetry sectors of spin chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="sector multiplicities, dimensions, and Hilbert fractions")
    _add_common(p)
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("beta", help="volume-law rate, saddle point, and prefactor vs spin density")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--out", help="output CSV path (stdout when omitted)")
    p.add_argument("--species", help="half or one (default half)")
    p.add_argument("--j-list", dest="j_list", help="comma-separated spin densities")
    p.set_defaults(func=_cmd_beta)

    p = sub.add_parser("average", help="sector-ensemble entropy averages")
    _add_common(p, seed=True, method=True, samples=True, f=True)
    p.add_argument("--j-density", dest="j_density",
                   help="select J as round(j * L/2) per L, j in [0, 1]")
    p.set_defaults(func=_cmd_average)

    p = sub.add_parser("ed", help="eigenstate entropy averages from exact diagonalization")
    _add_common(p, coupling=True, f=True)
    p.add_argument("--eigenstates-out", dest="eigenstates_out", help="per-eigenstate CSV dump path")
    p.set_defaults(func=lambda a: _cmd_ed(a, with_gamma=False))

    p = sub.add_parser("chaos-scan", help="Gaussianity and mean entropy over a coupling grid")
    _add_common(p, coupling=True, f=True)
    p.add_argument("--eigenstates-out", dest="eigenstates_out", help="per-eigenstate CSV dump path")
    p.set_defaults(func=lambda a: _cmd_ed(a, with_gamma=True))

    p = sub.add_parser("selftest", help="run the invariant suite; nonzero exit on any failure")
    p.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileExistsError as exc:
        raise SystemExit(f"error: out: refusing to overwrite existing file: {exc.filename}")
    except (ValueError, RuntimeError) as exc:
        raise SystemExit(f"error: {exc}")
    except ArithmeticError as exc:
        raise SystemExit(f"error: {type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
