"""Self-tests of the benchmark: job generation, tracing, oracle and checkers.

Run from the repository root:  python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest
from mpmath import mp, mpf

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import oracle  # noqa: E402
import qmce  # noqa: E402
import qmce.cli  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _take(workload, seed, n_rounds):
    gen = workloads.rounds(workload, seed, threads=2)
    return [job for _ in range(n_rounds) for job in next(gen)]


def _key(job):
    return (job.check, job.argv, job.levels, sorted((k, repr(v)) for k, v in job.params.items()))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_jobs_are_a_pure_function_of_the_seed(workload):
    first = [_key(j) for j in _take(workload, 7, 3)]
    again = [_key(j) for j in _take(workload, 7, 3)]
    other = [_key(j) for j in _take(workload, 8, 3)]
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_spectrum_repeats_within_a_run(workload):
    seen = []
    for job in _take(workload, 3, 12):
        seen.append(job.levels)
        if "levels2" in job.params:
            seen.append(job.params["levels2"])
    assert len(seen) == len(set(seen))


def test_ising_levels_match_the_program():
    for spins, j, b in ((3, 0.7, 0.4), (5, -1.1, 0.3)):
        s = qmce.ising_spectrum(qmce.IsingChainSpec(spins, j, b))
        assert workloads.ising_levels(spins, j, b) == s.levels


def _lv(*es):
    return tuple((float(e), 1) for e in es)


SMALL = [
    workloads.Job(0, "dos", ("dos", "--levels=0,0.7,1.1,2,3.2", "--grid", "50"), _lv(0, 0.7, 1.1, 2, 3.2)),
    workloads.Job(1, "thermo", ("thermo", "--ising", "--spins", "3", "--J", "0.25", "--B", "1", "--grid", "40"),
                  workloads.ising_levels(3, 0.25, 1.0)),
    workloads.Job(2, "canonical", ("canonical", "--levels=-1,0.5,2,3", "--beta-min", "0.1", "--beta-max", "9",
                                   "--grid", "30"), _lv(-1, 0.5, 2, 3)),
    workloads.Job(3, "mc_verify", ("mc-verify", "--levels=0,1,2,3", "--samples", "20000", "--bins", "64"),
                  _lv(0, 1, 2, 3), env={"QMCE_THREADS": "2"}),
    workloads.Job(4, "grand", ("grand", "--grid", "12", "--marginal", "--levels=0,0.4,1.3"), _lv(0, 0.4, 1.3)),
    workloads.Job(5, "equilibrate", ("equilibrate", "--levels=0,1,2,3", "--E1", "0.5", "--levels2=0,1,2,4.5",
                                     "--E2", "2.5", "--N1", "3", "--N2", "5"), _lv(0, 1, 2, 3),
                  {"levels2": _lv(0, 1, 2, 4.5), "E1": 0.5, "E2": 2.5, "N1": 3, "N2": 5}),
    workloads.Job(6, "nfold", (), _lv(0, 1, 3, 4), {"copies": 4, "energy": 1.7}),
]


def test_traced_output_is_byte_identical():
    plain = [run._execute(qmce, job) for job in SMALL]
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = [run._execute(qmce, job) for job in SMALL]
    finally:
        tracer.uninstall()
    for job, a, b in zip(SMALL, plain, traced):
        assert a[1] == b[1] == 0, job.argv
        assert a[2] == b[2] and a[2], job.argv
    names = {tracer.names[r[0]] for r in tracer.records}
    for name in ("cli.main", "dos.build_dos", "piecewise.laplace", "piecewise.convolve",
                 "montecarlo.estimate_dos", "grand.grand_dos", "thermo.equilibrate"):
        assert name in names
    # uninstall restores the originals everywhere they were bound
    assert qmce.cli.build_dos is qmce.dos.build_dos
    assert "traced" not in qmce.piecewise.PiecewisePolynomial.value.__qualname__


def test_folded_spans_keep_counts_and_time():
    tracer = spans.Tracer()
    tracer.install()
    try:
        run._execute(qmce, SMALL[4])
    finally:
        tracer.uninstall()
    calls, incl, own, _ = tracer.totals()["grand.grand_dos"]
    assert calls == 12 * 12
    assert 0 < own <= incl
    assert len(tracer.records) < 20


def test_oracle_integral_of_four_levels():
    with mp.workdps(40):
        total = oracle.Dos([(0.0, 1), (1.0, 1), (2.0, 1), (3.0, 1)]).integral(0.0, 3.0)
        assert abs(total - mp.pi**3 / 6) < mpf(10) ** -30
    d = qmce.build_dos(qmce.make_spectrum([0, 1, 2, 3]))
    assert math.isclose(qmce.integrate_dos(d, 0, 3), math.pi**3 / 6, rel_tol=1e-14)


def _omega_divided_difference(levels, x):
    """Omega = pi^n/n! * n [t_0..t_n](t - x)_+^(n-1), confluent at repeated knots."""
    t = [mpf(e) for e, m in levels for _ in range(m)]
    n = len(t) - 1
    p = n - 1

    def f(knot, k):
        return mp.binomial(p, k) * (knot - x) ** (p - k) if knot > x and k <= p else mpf(0)

    tab = [f(v, 0) for v in t]
    for k in range(1, n + 1):
        for i in range(n - k + 1):
            tab[i] = f(t[i], k) if t[i + k] == t[i] else (tab[i + 1] - tab[i]) / (t[i + k] - t[i])
    return mp.pi**n / mp.factorial(n) * n * tab[0]


def test_oracle_matches_divided_differences_on_degenerate_spectra():
    levels = workloads.ising_levels(4, 0.7, 0.4)
    dos = oracle.Dos(levels)
    with mp.workdps(120):
        for x in (-4.3, 0.0, 1.3, 2.5, 2.75):
            ref = _omega_divided_difference(levels, mpf(x))
            assert abs(dos.omega(x) - ref) <= mpf(10) ** -30 * ref


def test_oracle_partition_function_is_the_integral_of_omega():
    levels = [(-1.0, 1), (0.5, 2), (2.0, 1), (3.0, 1)]
    dos = oracle.Dos(levels)
    with mp.workdps(30):
        for beta in (0.3, 4.0):
            z, u = dos.canonical(beta)
            zq = mp.quad(lambda x: dos.omega(x) * mp.exp(-beta * x), [-1, 0.5, 2, 3])
            uq = mp.quad(lambda x: x * dos.omega(x) * mp.exp(-beta * x), [-1, 0.5, 2, 3]) / zq
            assert abs(z - zq) < mpf(10) ** -20 * zq
            assert abs(u - uq) < mpf(10) ** -20


def test_oracle_partition_function_matches_the_closed_form():
    es = [0.0, 0.7, 1.1, 2.0, 3.2]
    dos = oracle.Dos([(e, 1) for e in es])
    with mp.workdps(60):
        beta = mpf(2.5)
        closed = mpf(0)
        for k, ek in enumerate(es):
            term = mp.exp(-beta * ek)
            for l, el in enumerate(es):
                if l != k:
                    term *= mp.pi / (beta * (mpf(el) - ek))
            closed += term
        assert abs(dos.canonical(2.5)[0] - closed) < mpf(10) ** -25 * closed


def _judge(job):
    dt, rc, out, exc = run._execute(qmce, job)
    assert not exc and rc in checks.expected_exit(job, out)
    return out


@pytest.mark.parametrize("job", SMALL, ids=lambda j: j.check)
def test_checker_passes_known_good_output(job):
    out = _judge(job)
    verdict = checks.check(job, 0, out, seed=1)
    assert not verdict.malformed
    assert verdict.checked > 0 and verdict.wrong == 0, verdict.notes


def test_checker_flags_a_planted_nan_in_a_table():
    levels = ((0.0, 1), (1.0, 1), (2.0, 1), (3.0, 1))
    job = workloads.Job(9, "thermo", ("thermo", "--levels=0,1,2,3"), levels)
    out = _judge(job)
    good = checks.check(job, 0, out, seed=1)
    assert good.checked > 0 and good.wrong == 0 and not good.malformed, good.notes
    lines = out.split("\n")
    cut = lines.index("# criticals")
    nan_rows = [",".join(r.split(",")[:2] + ["nan", r.split(",")[3]]) for r in lines[1:cut]]
    planted = "\n".join(lines[:1] + nan_rows + lines[cut:])
    bad = checks.check(job, 0, planted, seed=1)
    assert bad.wrong == checks.ROWS["thermo"], bad.notes
    assert all("T(" in n for n in bad.notes)


def test_checker_flags_an_off_by_1e6_value():
    job = SMALL[5]
    out = _judge(job)
    header, row = out.splitlines()[:2]
    eps, t1, t2, s = row.split(",")
    shifted = f"{float(t1) * (1 + 1e-6):.17g}"
    bad = checks.check(job, 0, f"{header}\n{eps},{shifted},{t2},{s}\n", seed=1)
    assert bad.wrong == 1 and "T1=" in bad.notes[0]
    good = checks.check(job, 0, out, seed=1)
    assert good.wrong == 0


def test_checker_flags_a_planted_nan_in_mc_verify():
    job = SMALL[3]
    out = _judge(job)
    lines = out.split("\n")
    rows = [r.split(",") for r in lines[1:-2]]
    for r in rows:
        r[4] = "nan"
    planted = "\n".join([lines[0]] + [",".join(r) for r in rows] + lines[-2:])
    bad = checks.check(job, 0, planted, seed=1)
    assert bad.wrong == checks.ROWS["mc_verify"], bad.notes
