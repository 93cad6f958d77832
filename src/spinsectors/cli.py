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
from functools import partial

from . import __version__
from .asymptotics import (
    hilbert_fraction_asymptotic,
    log_multiplicity_saddle,
    multiplicity_rate,
    saddle_solve,
)
from .combinatorics import (
    SpinSpecies,
    _check_zero_jz,
    admissible_two_j,
    hilbert_fraction,
    multiplicity,
)
from .ensembles import (
    ENSEMBLE_METHODS,
    default_sample_count,
    ensemble_entropy_samples,
    EntropyEstimate,
    _fraction_cut,
    coupled_geometry,
    sd2_asymptotic,
    sd2_average_closed,
    singlet_average_asymptotic,
    singlet_average_exact,
)
from .selftest import run_selftest
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
    (either bound optional; NaN and infinities are always refused)."""
    try:
        value = kind(text)
    except ValueError:
        value = None
    if value is None or kind is float and not math.isfinite(value) or not (
            (minimum is None or value >= minimum) and (maximum is None or value <= maximum)):
        what = "an integer" if kind is int else "a number"
        bound = (f" in [{minimum}, {maximum}]" if maximum is not None
                 else "" if minimum is None else f" >= {minimum}")
        raise SystemExit(f"error: {key}: expects {what}{bound}, got {text!r}")
    return value


def _parse_list(text, key, kind=int, minimum=None, maximum=None):
    """A non-empty comma-separated list of option values."""
    tokens = [tok for tok in text.split(",") if tok != ""]
    if not tokens:
        raise SystemExit(f"error: {key}: expects a non-empty comma-separated list, got {text!r}")
    return [_parse_number(tok, key, kind, minimum, maximum) for tok in tokens]


def _parse_fraction(text, key):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise SystemExit(f"error: {key}: expects a rational like 1/2, got {text!r}")


def _parse_species(text, key):
    try:
        return SpinSpecies.from_name(text)
    except ValueError as exc:
        raise SystemExit(f"error: {key}: {exc}")


def _parse_method(text, key):
    if text not in ENSEMBLE_METHODS + ("closed", "asymptotic"):
        raise SystemExit(f"error: {key}: unknown method {text!r}")
    return text


def _parse_switch(text, key):
    if text not in ("0", "1"):
        raise SystemExit(f"error: {key}: expects 0 or 1, got {text!r}")
    return text == "1"


def _parse_two_j(text, key):
    """'all' or a list of doubled spins (checked per L by `_spins`), errors keyed two_J as there."""
    return text if text == "all" else _parse_list(text, "two_J")


def _parse_path(text, key):
    if not text:
        raise SystemExit(f"error: {key}: expects a file path, got {text!r}")
    if os.path.exists(text):
        raise SystemExit(f"error: {key}: refusing to overwrite existing file: {text}")
    folder = os.path.dirname(text)
    if folder and not os.path.isdir(folder):
        raise SystemExit(f"error: {key}: no such directory: {folder}")
    return text


# dest -> (flag, parser, default, help); a parser takes the value and the flag
# without dashes as its error key.
_OPTIONS = {
    "out": ("--out", _parse_path, None, "output CSV path (stdout when omitted)"),
    "species": ("--species", _parse_species, "half", "half or one"),
    "L": ("--L", partial(_parse_list, minimum=1), None, "comma-separated site counts"),
    "two_J": ("--two-J", _parse_two_j, None,
              "comma-separated doubled spins, or 'all' (default all; 0 for ed and chaos-scan)"),
    "f": ("--f", _parse_fraction, "1/2", "subsystem fraction as a rational, e.g. 1/2"),
    "method": ("--method", _parse_method, "full", "full | sd1 | sd2 | closed | asymptotic"),
    "samples": ("--samples", partial(_parse_number, minimum=1), None, "Monte Carlo sample count"),
    "complex": ("--complex", _parse_switch, "0", "draw complex Gaussian coefficients (default real)"),
    "seed": ("--seed", partial(_parse_number, minimum=0), None,
             "64-bit RNG seed (required for stochastic methods)"),
    "coupling": ("--coupling", partial(_parse_list, kind=float), "0", "comma-separated coupling values"),
    "j_list": ("--j-list", partial(_parse_list, kind=float, minimum=0, maximum=1),
               ",".join(str(k / 20) for k in range(21)), "comma-separated spin densities"),
    "j_density": ("--j-density", partial(_parse_number, kind=float, minimum=0, maximum=1), None,
                  "select per L the 2J of L's parity nearest j * L (ties up), j in [0, 1]"),
    "eigenstates_out": ("--eigenstates-out", _parse_path, None, "per-eigenstate CSV dump path"),
}


def _load_config(path):
    try:
        fh = open(path)
    except OSError as exc:
        raise SystemExit(f"error: config: cannot read {path}: {exc.strerror}")
    config = {}
    with fh:
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
    """The subcommand's options, each from the command line, else the config file,
    else its default, parsed once; refuses a missing L and one path for both outputs."""
    names = _COMMANDS[args.command][2]
    config = _load_config(args.config) if names and args.config else {}
    unknown = set(config) - set(names)
    if unknown:
        raise SystemExit(f"error: unknown config key(s): {', '.join(sorted(unknown))}")
    values = {}
    for name in names:
        flag, parse, default, _ = _OPTIONS[name]
        text = getattr(args, name)
        if text is None:
            text = config.get(name, default)
        values[name] = None if text is None else parse(text, flag[2:])
    if "L" in values and values["L"] is None:
        raise SystemExit("error: L: at least one system size is required")
    out, dump = values.get("out"), values.get("eigenstates_out")
    if None not in (out, dump) and os.path.realpath(out) == os.path.realpath(dump):
        raise SystemExit(f"error: eigenstates-out: same path as out: {dump}")
    return values


def _spins(species, sites, chosen):
    """The spins of one L: every admissible one, or those `chosen` lists, each checked."""
    if chosen in (None, "all"):
        return admissible_two_j(species, sites)
    valid = set(admissible_two_j(species, sites))
    for tj in chosen:
        if tj not in valid:
            raise SystemExit(f"error: two_J={tj} is not an admissible doubled spin at L={sites}")
    return chosen


def _cmd_dims(opt):
    species = opt["species"]
    header = ("species", "L", "two_J", "n_exact", "n_asymptotic_log", "fraction", "fraction_asymptotic")
    plan = [(sites, two_j) for sites in opt["L"] for two_j in _spins(species, sites, opt["two_J"])]
    rows = []
    for sites, two_j in plan:
        n_exact = multiplicity(species, sites, two_j)
        try:
            log_n = log_multiplicity_saddle(species, sites, two_j)
        except ValueError:
            log_n = math.nan
        frac = frac_asy = math.nan
        if species.two_s == 1:
            frac = float(hilbert_fraction(sites, two_j))
            try:
                frac_asy = hilbert_fraction_asymptotic(sites, two_j)
            except ValueError:  # x = 2J/L = 1
                pass
        rows.append((species.name, sites, two_j, n_exact, log_n, frac, frac_asy))
    _write_csv(opt["out"], header, rows)
    return 0


def _cmd_beta(opt):
    header = ("species", "j", "beta", "saddle_point", "prefactor")
    rows = []
    for j in opt["j_list"]:
        rate = multiplicity_rate(opt["species"], j)
        if j == 0.0:  # no saddle: the parser keeps j in [0, 1]
            z0, pref = 1.0, math.nan
        else:
            sd = saddle_solve(opt["species"], j)
            z0, pref = sd.saddle_point, sd.prefactor
        rows.append((opt["species"].name, j, rate, z0, pref))
    _write_csv(opt["out"], header, rows)
    return 0


_RESULT_HEADER = (
    "command", "method", "ensemble", "species", "L", "two_J", "f", "coupling", "samples",
    "seed", "mean", "std_dev", "sem", "count", "wall_time_ms", "code_version",
)


def _result_row(command, method, ensemble, species, sites, two_j, f, coupling, samples, seed, est, t0):
    wall = round(1000.0 * (time.perf_counter() - t0), 3)
    if isinstance(est, EntropyEstimate):
        mean, std, sem, count = est.mean, est.std_dev, est.sem, est.samples
    else:
        mean, std, sem, count = est, math.nan, math.nan, 1
    return (
        command, method, ensemble, species.name, sites, two_j,
        f, coupling, samples, seed, mean, std, sem, count, wall, __version__,
    )


def _cuts(f, sizes):
    """{L: cut} of the fraction f at each L, refused before any work where a cut empties a side."""
    try:
        return {sites: _fraction_cut(f, sites) for sites in sizes}
    except ValueError as exc:
        raise SystemExit(f"error: f: {exc}")


def _cmd_average(opt):
    species, method, f = opt["species"], opt["method"], opt["f"]
    if species.two_s != 1:
        raise SystemExit("error: species: random-state averages are implemented for spin-1/2 only")
    cuts = _cuts(f, opt["L"])
    stochastic = method in ENSEMBLE_METHODS
    if stochastic and opt["seed"] is None:
        raise SystemExit("error: seed: a seed is mandatory for stochastic methods")
    seed = opt["seed"] if stochastic else None
    if opt["j_density"] is not None and opt["two_J"] is not None:
        raise SystemExit("error: j-density: cannot be combined with two-J")
    # choose the spins of every L, refusing odd L where a J_z = 0 geometry is
    # built and a chosen spin (`key` names its option) sd2 cannot pair, before the first row
    plan, skipped = [], []
    key = ("j-density" if opt["j_density"] is not None
           else None if opt["two_J"] in (None, "all") else "two_J")
    for sites in opt["L"]:
        if opt["j_density"] is not None:
            # the 2J of L's parity nearest j L, ties up: in [L mod 2, L] for j in [0, 1]
            parity = sites % 2
            two_j_list = [parity + 2 * math.floor((opt["j_density"] * sites - parity) / 2 + 0.5)]
        else:
            two_j_list = _spins(species, sites, opt["two_J"])
        if method != "asymptotic":
            _check_zero_jz(species, sites)
        cut = cuts[sites]
        for two_j in two_j_list:
            if method == "sd2":
                try:
                    coupled_geometry(sites, two_j, cut).sd2_pairs
                except ValueError as exc:
                    if key:
                        raise SystemExit(f"error: {key}: {exc}")
                    skipped.append(f"L={sites} two_J={two_j}")
                    continue
            plan.append((sites, two_j, cut))
    if skipped:
        print(f"skipped, no sd2 pairing J_B = J - J_A: {'; '.join(skipped)}", file=sys.stderr)
    rows = []
    for sites, two_j, cut in plan:
        t0 = time.perf_counter()
        samples = None
        if stochastic:
            samples = (default_sample_count(method, sites) if opt["samples"] is None
                       else opt["samples"])
            values = ensemble_entropy_samples(
                sites, two_j, cut, samples, seed, (method,), opt["complex"]
            )[method]
            est = EntropyEstimate.from_samples(values, method, seed)
        elif two_j == 0:  # the closed and asymptotic forms hold the full ensemble at J = 0, sd2 above it
            est = (singlet_average_exact(sites, cut) if method == "closed"
                   else singlet_average_asymptotic(sites, f))
        else:
            est = (sd2_average_closed(sites, two_j, cut) if method == "closed"
                   else sd2_asymptotic(sites, f, two_j / sites))
        ensemble = method if stochastic else "full" if two_j == 0 else "sd2"
        rows.append(_result_row("average", method, ensemble, species, sites, two_j, f, None,
                                samples, seed, est, t0))
    _write_csv(opt["out"], _RESULT_HEADER, rows)
    return 0


_ED_HEADER = _RESULT_HEADER + ("gamma", "gamma_minus_rmt")
_EIGEN_HEADER = (
    "species", "L", "coupling", "momentum_index", "energy", "two_J",
    "j2_residual", "central", "entropy", "gaussianity",
)


def _cmd_ed(opt, with_gamma):
    species, f = opt["species"], opt["f"]
    _cuts(f, opt["L"])
    chosen = [0] if opt["two_J"] is None else opt["two_J"]
    # every chain and its spins before the first diagonalization; ChainSpec refuses odd L and the cap
    plan = []
    for sites in opt["L"]:
        two_j_list = _spins(species, sites, chosen)
        plan += [(ChainSpec(species, sites, coupling), two_j_list) for coupling in opt["coupling"]]
    rows = []
    eigen_rows = []
    skipped = []  # --two-J all expands to spins that may have no central eigenstates
    command = "chaos-scan" if with_gamma else "ed"
    for spec, two_j_list in plan:
        t0 = time.perf_counter()
        sites, coupling = spec.sites, spec.coupling
        records = diagonalize_and_resolve(spec, f)
        for two_j in two_j_list:
            try:
                est = eigenstate_entropy_average(records, two_j)
            except ValueError as exc:
                if chosen != "all":  # found only once the chain is solved
                    raise SystemExit(f"error: two_J: {exc}")
                skipped.append(f"L={sites} coupling={coupling!r} two_J={two_j}")
                continue
            row = _result_row(command, "ed", None, species, sites, two_j, f, coupling, None, None,
                              est, t0)
            if with_gamma:
                gamma = gaussianity_average(records, two_j)
                row = row + (gamma, gamma - math.pi / 2.0)
            rows.append(row)
        if opt["eigenstates_out"]:
            eigen_rows.extend(
                (species.name, sites, coupling, rec.momentum_index, rec.energy, rec.two_j,
                 rec.j2_residual, int(rec.central), rec.entropy, rec.gaussianity)
                for rec in records)
    if skipped:
        print(f"skipped, no central complex-sector eigenstates: {'; '.join(skipped)}", file=sys.stderr)
    header = _ED_HEADER if with_gamma else _RESULT_HEADER
    _write_csv(opt["out"], header, rows)
    if opt["eigenstates_out"]:
        _write_csv(opt["eigenstates_out"], _EIGEN_HEADER, eigen_rows)
    return 0


# name -> (help, handler, option names); each handler takes the typed options
_ED_OPTIONS = ("out", "species", "L", "two_J", "f", "coupling", "eigenstates_out")
_COMMANDS = {
    "dims": ("sector multiplicities, dimensions, and Hilbert fractions", _cmd_dims,
             ("out", "species", "L", "two_J")),
    "beta": ("volume-law rate, saddle point, and prefactor vs spin density", _cmd_beta,
             ("out", "species", "j_list")),
    "average": ("sector-ensemble entropy averages", _cmd_average,
                ("out", "species", "L", "two_J", "f", "method", "samples", "complex", "seed",
                 "j_density")),
    "ed": ("eigenstate entropy averages from exact diagonalization",
           partial(_cmd_ed, with_gamma=False), _ED_OPTIONS),
    "chaos-scan": ("Gaussianity and mean entropy over a coupling grid",
                   partial(_cmd_ed, with_gamma=True), _ED_OPTIONS),
    "selftest": ("run the invariant suite; nonzero exit on any failure", lambda _: run_selftest(), ()),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spinsectors",
        description="Entanglement entropy statistics in SU(2) symmetry sectors of spin chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, handler, names) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        if names:
            p.add_argument("--config", help="flat key=value config file")
        for name in names:
            flag, parse, default, text = _OPTIONS[name]
            switch = {"action": "store_const", "const": "1"} if parse is _parse_switch else {}
            if default is not None and not switch:
                text = f"{text} (default {default})"
            p.add_argument(flag, dest=name, help=text, **switch)
        p.set_defaults(func=handler)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(_merged(args))
    except FileExistsError as exc:
        raise SystemExit(f"error: out: refusing to overwrite existing file: {exc.filename}")
    except (ValueError, RuntimeError) as exc:
        raise SystemExit(f"error: {exc}")
    except ArithmeticError as exc:
        raise SystemExit(f"error: {type(exc).__name__}: {exc}")
    except MemoryError as exc:  # numpy raises a private subclass
        raise SystemExit(f"error: MemoryError: {exc}")


if __name__ == "__main__":
    sys.exit(main())
