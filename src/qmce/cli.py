"""Command-line surface: every computation as a deterministic CSV.

Exit codes: 0 success; 1 invalid input or usage (including requests
outside an attainable range); 2 numerical failure (non-convergence);
3 verification failure (mc-verify below threshold).

Output contract: header row, reals with 17 significant digits,
newline-terminated, byte-identical for identical flags.  Monte-Carlo
output is additionally independent of QMCE_THREADS (the per-stream
accumulation order is fixed).  Lines starting with '#' are notes for
humans and plotting tools, never data.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .canonical import _canonical_table
from .dos import build_dos, eval_dos, integrate_dos
from .errors import ConvergenceError, QmceError
from .grand import grand_dos, marginalize_to_energy
from .montecarlo import McConfig, estimate_dos
from .spectrum import IsingChainSpec, format_spectrum, ising_spectrum, load_spectrum, make_spectrum
from .thermo import critical_points, energy_of_temperature, equilibrate, thermo_curve


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _count(text: str) -> int:
    # integer flag that tolerates scientific notation (1e7)
    value = float(text)
    if value != int(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    return int(value)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _attach_lists(argv: list[str]) -> list[str]:
    # argparse takes a list such as -1,0,1 for an option; give it as --levels=-1,0,1
    out: list[str] = []
    for tok in argv:
        negative = tok.startswith("-") and not tok.startswith("--")
        if negative and out and out[-1] in ("--levels", "--levels2", "--degeneracy", "--degeneracy2"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _parse_numbers(text: str, flag: str, cast):
    try:
        return [cast(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise SystemExit(_usage_fail(f"could not parse {flag}={text!r}"))


def _usage_fail(message: str) -> int:
    sys.stderr.write(f"qmce: error: {message}\n")
    return 1


def _spectrum_from(args, suffix: str = ""):
    levels = getattr(args, "levels" + suffix, None)
    degeneracy = getattr(args, "degeneracy" + suffix, None)
    spectrum = getattr(args, "spectrum" + suffix, None)
    ising = bool(getattr(args, "ising", False)) and not suffix
    given = [levels is not None, spectrum is not None, ising]
    label = f"system {suffix}" if suffix else "spectrum"
    if sum(given) == 0:
        args.parser.error(
            f"a {label} source is required (--levels{suffix}, --spectrum{suffix}"
            + ("" if suffix else ", or --ising")
            + ")"
        )
    if sum(given) > 1:
        args.parser.error(f"conflicting {label} sources; give exactly one")
    if degeneracy is not None and levels is None:
        args.parser.error(f"--degeneracy{suffix} requires --levels{suffix}")
    if levels is not None:
        es = _parse_numbers(levels, f"--levels{suffix}", float)
        if degeneracy is not None:
            ms = _parse_numbers(degeneracy, f"--degeneracy{suffix}", int)
            if len(ms) != len(es):
                args.parser.error(f"--degeneracy{suffix} length must match --levels{suffix}")
            return make_spectrum(list(zip(es, ms)))
        return make_spectrum(es)
    if spectrum is not None:
        return load_spectrum(spectrum)
    if args.spins is None or args.J is None or args.B is None:
        args.parser.error("--ising requires --spins, --J, and --B")
    return ising_spectrum(IsingChainSpec(spins=args.spins, coupling=args.J, field=args.B))


def _write(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _write_extra(args, tag: str, text: str) -> None:
    # secondary CSV: sibling file next to --out, or a '# tag' block on stdout
    if args.out:
        p = Path(args.out)
        sibling = p.with_name(p.stem + f".{tag}" + (p.suffix or ".csv"))
        sibling.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(f"# {tag}\n" + text)


def _gnuplot(args, plot_command: str) -> None:
    if not getattr(args, "gnuplot", False):
        return
    if not args.out:
        args.parser.error("--gnuplot requires --out")
    script = "set datafile separator ','\n" + plot_command + "\n"
    Path(args.out + ".gp").write_text(script, encoding="utf-8")


def _threads(streams: int) -> int:
    raw = os.environ.get("QMCE_THREADS", "1")
    try:
        value = int(raw)
    except ValueError:
        raise SystemExit(_usage_fail(f"QMCE_THREADS={raw!r} is not an integer"))
    return min(max(1, value), streams)


# -- subcommands ----------------------------------------------------------


def cmd_dos(args) -> int:
    s = _spectrum_from(args)
    if args.grid < 2:
        args.parser.error("--grid must be at least 2")
    d = build_dos(s)
    es = np.unique(np.concatenate([np.linspace(d.e_min, d.e_max, args.grid), s.knots]))
    vals = eval_dos(d, es)
    lines = ["E,Omega"] + [f"{_fmt(e)},{_fmt(v)}" for e, v in zip(es, vals)]
    _write(args, "\n".join(lines) + "\n")
    _gnuplot(args, f"plot '{args.out}' using 1:2 with lines title 'Omega(E)'")
    return 0


def cmd_thermo(args) -> int:
    s = _spectrum_from(args)
    d = build_dos(s)
    kb = args.kb
    e_given = args.e_min is not None or args.e_max is not None
    t_given = args.t_min is not None or args.t_max is not None
    if e_given and t_given:
        args.parser.error("give an E range or a T range, not both")
    if kb <= 0.0:
        args.parser.error("--kb must be positive")
    if t_given:
        if args.t_min is None or args.t_max is None:
            args.parser.error("--t-min and --t-max go together")
        if not 0.0 < args.t_min < args.t_max:
            args.parser.error("need 0 < --t-min < --t-max")
        # T flags are in display units; the solver works in k_B*T energy units
        lo = energy_of_temperature(d, kb * args.t_min, branch="first-monotone")
        hi = energy_of_temperature(d, kb * args.t_max, branch="first-monotone")
    else:
        lo = d.e_min if args.e_min is None else args.e_min
        hi = d.e_max if args.e_max is None else args.e_max
    curve = thermo_curve(d, n=args.grid, e_range=(lo, hi), kb=kb)
    lines = []
    if s.dim == 2:
        lines.append("# two-level system: specific heat is 0 by convention (Omega is constant)")
    lines.append("E,S,T,C")
    for e, sv, tv, cv in zip(curve.grid, curve.S, curve.T, curve.C):
        lines.append(f"{_fmt(e)},{_fmt(kb * sv)},{_fmt(tv / kb)},{_fmt(kb * cv)}")
    crit = ["E_c,T_c,order"]
    for c in critical_points(d):
        crit.append(f"{_fmt(c.energy)},{_fmt(c.temperature / kb)},{c.discontinuity_order}")
    _write(args, "\n".join(lines) + "\n")
    _write_extra(args, "criticals", "\n".join(crit) + "\n")
    _gnuplot(args, f"plot '{args.out}' using 3:4 with lines title 'C(T)'")
    return 0


def cmd_canonical(args) -> int:
    s = _spectrum_from(args)
    d = build_dos(s)
    ranged = args.beta_min is not None or args.beta_max is not None
    if args.beta is not None and ranged:
        args.parser.error("give --beta or a --beta-min/--beta-max range, not both")
    if args.beta is not None:
        betas = np.array([args.beta])
    else:
        if args.beta_min is None or args.beta_max is None:
            args.parser.error("--beta-min and --beta-max go together")
        if not args.beta_min < args.beta_max:
            args.parser.error("need --beta-min < --beta-max")
        betas = np.linspace(args.beta_min, args.beta_max, args.grid)
    if betas[0] <= 0.0:
        args.parser.error("beta must be positive")
    t = _canonical_table(d, betas)
    z = t.Z
    lines = ["beta,Z,U"]
    lines += [f"{_fmt(b)},{_fmt(zv)},{_fmt(u)}" for b, zv, u in zip(betas, z, t.U)]
    _write(args, "\n".join(lines) + "\n")
    saturated = (z == 0.0) | np.isinf(z)
    if saturated.any():
        # stderr only: stdout stays pure CSV
        bs = betas[saturated]
        sys.stderr.write(
            f"qmce: note: Z outside the double range on {int(saturated.sum())} of {betas.size} rows "
            f"(beta {_fmt(bs.min())} to {_fmt(bs.max())}), printed as 0 or inf; U is unaffected\n"
        )
    _gnuplot(args, f"plot '{args.out}' using 1:2 with lines title 'Z(beta)'")
    return 0


def cmd_mc_verify(args) -> int:
    s = _spectrum_from(args)
    d = build_dos(s)
    cfg = McConfig(samples=args.samples, seed=args.seed, bins=args.bins)
    est = estimate_dos(s, cfg, threads=_threads(cfg.streams))
    edges = est.bin_edges
    exact = np.array(
        [integrate_dos(d, a, b) / (b - a) for a, b in zip(edges[:-1], edges[1:])]
    )
    z = (est.density - exact) / est.stderr
    frac = float(np.mean(np.abs(z) <= 4.0))
    lines = ["E_lo,E_hi,Omega_hat,stderr,Omega_exact,z"]
    for i in range(exact.size):
        lines.append(
            f"{_fmt(edges[i])},{_fmt(edges[i + 1])},{_fmt(est.density[i])},"
            f"{_fmt(est.stderr[i])},{_fmt(exact[i])},{_fmt(z[i])}"
        )
    lines.append(f"# fraction_within_4sigma,{_fmt(frac)}")
    _write(args, "\n".join(lines) + "\n")
    _gnuplot(
        args,
        f"plot '{args.out}' using (($1+$2)/2):3:4 with yerrorbars title 'MC', "
        f"'{args.out}' using (($1+$2)/2):5 with lines title 'exact'",
    )
    return 0 if frac >= 0.99 else 3


def cmd_grand(args) -> int:
    if args.grid < 2:
        args.parser.error("--grid must be at least 2")
    ps = np.linspace(0.0, 1.0, args.grid)
    lines = ["p,q,Omega"]
    for p in ps:
        for q in ps:
            lines.append(f"{_fmt(p)},{_fmt(q)},{_fmt(grand_dos(float(p), float(q)))}")
    _write(args, "\n".join(lines) + "\n")
    if args.marginal:
        s = _spectrum_from(args)
        es = np.unique(
            np.concatenate([np.linspace(s.e_min, s.e_max, args.grid), s.knots])
        )
        vals = marginalize_to_energy(s, es)
        marg = ["E,Omega"] + [f"{_fmt(e)},{_fmt(v)}" for e, v in zip(es, vals)]
        _write_extra(args, "marginal", "\n".join(marg) + "\n")
    _gnuplot(
        args,
        f"set view map\nsplot '{args.out}' using 1:2:3 with points pt 5 palette title 'Omega(p,q)'",
    )
    return 0


def cmd_equilibrate(args) -> int:
    d1 = build_dos(_spectrum_from(args))
    d2 = build_dos(_spectrum_from(args, suffix="2"))
    kb = args.kb
    if kb <= 0.0:
        args.parser.error("--kb must be positive")
    res = equilibrate(d1, args.E1, args.N1, d2, args.E2, args.N2)
    lines = [
        "epsilon,T1,T2,S_total",
        f"{_fmt(res.epsilon)},{_fmt(res.t1 / kb)},{_fmt(res.t2 / kb)},{_fmt(kb * res.total_entropy)}",
    ]
    if res.boundary:
        lines.append("# boundary maximum: optimum pinned at the feasibility edge")
    _write(args, "\n".join(lines) + "\n")
    return 0


def cmd_ising(args) -> int:
    s = ising_spectrum(IsingChainSpec(spins=args.spins, coupling=args.J, field=args.B))
    _write(args, format_spectrum(s))
    return 0


# -- parser ----------------------------------------------------------------


def _add_source(p) -> None:
    p.add_argument("--levels", help="comma-separated energies")
    p.add_argument("--degeneracy", help="comma-separated multiplicities (pairs with --levels)")
    p.add_argument("--spectrum", help="spectrum file: one 'energy [multiplicity]' per line")
    p.add_argument("--ising", action="store_true", help="periodic Ising chain spectrum")
    p.add_argument("--spins", type=int, help="Ising chain length")
    p.add_argument("--J", type=float, help="Ising coupling")
    p.add_argument("--B", type=float, help="Ising field")


def _add_out(p, gnuplot: bool = True) -> None:
    p.add_argument("--out", help="output CSV path (default: stdout)")
    if gnuplot:
        p.add_argument(
            "--gnuplot", action="store_true", help="also write <out>.gp plot script (requires --out)"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qmce", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dos", help="exact density of states over the support")
    _add_source(p)
    _add_out(p)
    p.add_argument("--grid", type=int, default=1000, help="grid points (default 1000)")
    p.set_defaults(func=cmd_dos, parser=p)

    p = sub.add_parser("thermo", help="entropy, temperature, specific heat, critical points")
    _add_source(p)
    _add_out(p)
    p.add_argument("--grid", type=int, default=1000)
    p.add_argument("--kb", type=float, default=1.0, help="Boltzmann constant for display units")
    p.add_argument("--e-min", type=float, help="lower energy bound")
    p.add_argument("--e-max", type=float, help="upper energy bound")
    p.add_argument("--t-min", type=float, help="lower temperature bound (positive branch)")
    p.add_argument("--t-max", type=float, help="upper temperature bound (positive branch)")
    p.set_defaults(func=cmd_thermo, parser=p)

    p = sub.add_parser("canonical", help="partition function and thermal energy")
    _add_source(p)
    _add_out(p)
    p.add_argument("--beta", type=float, help="single inverse temperature")
    p.add_argument("--beta-min", type=float)
    p.add_argument("--beta-max", type=float)
    p.add_argument("--grid", type=int, default=1000)
    p.set_defaults(func=cmd_canonical, parser=p)

    p = sub.add_parser("mc-verify", help="Monte-Carlo estimate against the exact density")
    _add_source(p)
    _add_out(p)
    p.add_argument("--samples", type=_count, default=10**6)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--bins", type=int, default=512)
    p.set_defaults(func=cmd_mc_verify, parser=p)

    p = sub.add_parser("grand", help="three-level grand density on the (p,q) square")
    _add_source(p)
    _add_out(p)
    p.add_argument("--grid", type=int, default=1000)
    p.add_argument(
        "--marginal", action="store_true", help="also emit the energy marginal (needs a spectrum source)"
    )
    p.set_defaults(func=cmd_grand, parser=p)

    p = sub.add_parser("equilibrate", help="entropy-maximizing energy exchange between two systems")
    _add_source(p)
    p.add_argument("--levels2", help="comma-separated energies of system 2")
    p.add_argument("--degeneracy2", help="multiplicities of system 2 (pairs with --levels2)")
    p.add_argument("--spectrum2", help="spectrum file for system 2")
    p.add_argument("--E1", type=float, required=True, help="per-constituent energy of system 1")
    p.add_argument("--E2", type=float, required=True, help="per-constituent energy of system 2")
    p.add_argument("--N1", type=int, default=1, help="constituent count of system 1")
    p.add_argument("--N2", type=int, default=1, help="constituent count of system 2")
    p.add_argument("--kb", type=float, default=1.0)
    _add_out(p, gnuplot=False)
    p.set_defaults(func=cmd_equilibrate, parser=p)

    p = sub.add_parser("ising", help="emit the periodic Ising chain spectrum as text")
    p.add_argument("--spins", type=int, required=True)
    p.add_argument("--J", type=float, required=True)
    p.add_argument("--B", type=float, required=True)
    _add_out(p, gnuplot=False)
    p.set_defaults(func=cmd_ising, parser=p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_lists(sys.argv[1:] if argv is None else list(argv)))
        return int(args.func(args))
    except SystemExit as exc:  # argparse usage errors and --help
        return int(exc.code) if exc.code is not None else 0
    except ConvergenceError as exc:
        sys.stderr.write(f"qmce: numerical failure: {exc}\n")
        return 2
    except QmceError as exc:
        sys.stderr.write(f"qmce: error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
