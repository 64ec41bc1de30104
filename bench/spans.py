"""Span tracing of qmce from the outside, for the per-layer metrics.

``Tracer.install`` wraps every public function of each ``qmce`` module
(the layer is the module name) and rebinds the wrapper in every qmce
module that imported the name, and wraps the PiecewisePolynomial methods
on the class.  ``uninstall`` restores the originals.  Nothing in ``src/``
changes, and with the tracer uninstalled the program runs untouched.

Each call records a span (name, start, end, parent span, job id) in
memory.  Consecutive leaf calls of one name under one parent (such as the
10^6 ``grand_dos`` calls of a grand job) are folded into a single record
with a call count and their summed busy time, which keeps every total
exact while bounding memory.  A span's self time is its duration minus
the time its child spans cover; a layer's self time is the sum over its
spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from collections import defaultdict

LAYERS = ("spectrum", "piecewise", "dos", "montecarlo", "thermo", "canonical", "grand", "cli")
METHODS = ("value", "one_sided", "derivative_value", "integrate", "integral", "scaled", "argmax", "laplace", "convolve")


def _size(name: str, args, result):
    """Work count recorded with a call: points, samples, pieces or dim."""
    try:
        if name in ("piecewise.value", "dos.eval_dos"):
            import numpy as np

            return int(np.size(args[1]))
        if name == "piecewise.convolve":
            return int(result.npieces)
        if name == "montecarlo.estimate_dos":
            return int(args[1].samples)
        if name == "dos.build_dos":
            return int(args[0].dim)
        if name in ("thermo.thermo_curve", "thermo.critical_points"):
            return int(args[0].dim)
    except (AttributeError, IndexError, TypeError):
        return 0
    return 0


class Tracer:
    """In-memory span recorder plus the patching that feeds it."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        # record: [name_id, parent, job, start, end, calls, busy, child, size]
        self.records: list[list] = []
        self.stack: list[int] = []
        self.job = -1
        self.errors: dict[str, int] = defaultdict(int)
        self.laplace_in_solve = 0
        self._solving = 0
        self._patched: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self.ids.setdefault(name, len(self.ids))
        if nid == len(self.names):
            self.names.append(name)
        solve = name == "canonical.solve_thermal_energy"
        laplace = name == "piecewise.laplace"
        records, stack = self.records, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(records)
            rec = [nid, parent, self.job, 0.0, 0.0, 1, 0.0, 0.0, 0]
            records.append(rec)
            stack.append(idx)
            if solve:
                self._solving += 1
            elif laplace and self._solving:
                self.laplace_in_solve += 1
            result = None
            rec[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                if not getattr(exc, "_bench_seen", False):
                    exc._bench_seen = True
                    self.errors[type(exc).__name__] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if solve:
                    self._solving -= 1
                dur = end - rec[3]
                rec[4], rec[6] = end, dur
                rec[8] = _size(name, args, result)
                if parent >= 0:
                    records[parent][7] += dur
                self._fold(idx)

        return traced

    def _fold(self, idx: int) -> None:
        """Merge a finished leaf into the previous record when it repeats it."""
        rec = self.records[idx]
        if idx != len(self.records) - 1 or rec[7] or idx == 0:
            return
        prev = self.records[idx - 1]
        if prev[0] == rec[0] and prev[1] == rec[1] and prev[2] == rec[2] and not prev[7] and prev[4]:
            prev[4] = rec[4]
            prev[5] += 1
            prev[6] += rec[6]
            prev[8] += rec[8]
            self.records.pop()

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        import qmce

        mods = {layer: importlib.import_module(f"qmce.{layer}") for layer in LAYERS}
        homes = [qmce, *mods.values()]
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{name}", obj)
                for home in homes:
                    if vars(home).get(name) is obj:
                        setattr(home, name, wrapped)
                        self._patched.append((home, name, obj))
        cls = mods["piecewise"].PiecewisePolynomial
        for name in METHODS:
            orig = cls.__dict__[name]
            setattr(cls, name, self._wrap(f"piecewise.{name}", orig))
            self._patched.append((cls, name, orig))

    def uninstall(self) -> None:
        for home, name, obj in reversed(self._patched):
            setattr(home, name, obj)
        self._patched.clear()

    # -- summaries ---------------------------------------------------------

    def totals(self):
        """{name: [calls, inclusive s, self s, size]} over all records."""
        out: dict[str, list] = {}
        for nid, _parent, _job, _s, _e, calls, busy, child, size in self.records:
            t = out.setdefault(self.names[nid], [0, 0.0, 0.0, 0])
            t[0] += calls
            t[1] += busy
            t[2] += busy - child
            t[3] += size
        return out

    def by_size(self, names=("dos.build_dos", "thermo.thermo_curve", "thermo.critical_points")):
        """Mean inclusive seconds per call of chosen functions, by size."""
        acc: dict[tuple, list] = defaultdict(list)
        for nid, _parent, _job, _s, _e, calls, busy, _child, size in self.records:
            name = self.names[nid]
            if name in names and calls == 1:
                acc[(name, size)].append(busy)
        return {f"{n}[{s}]": [len(v), statistics.fmean(v)] for (n, s), v in sorted(acc.items())}

    def dump(self, path) -> None:
        import gzip

        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "parent", "job", "start", "end", "calls", "busy", "child", "size"],
                       "spans": self.records}, fh, separators=(",", ":"))


def layer_metrics(tr: Tracer, jobs: int, bytes_out: int, overhead_s: float, mismatches: int) -> dict:
    """Per-layer metric values, per traced job (counts and seconds)."""
    tot = tr.totals()

    def calls(name):
        return tot.get(name, [0, 0.0, 0.0, 0])[0]

    def incl(*names):
        return sum(tot.get(n, [0, 0.0, 0.0, 0])[1] for n in names)

    def size(name):
        return tot.get(name, [0, 0.0, 0.0, 0])[3]

    def layer_self(layer):
        return sum(v[2] for k, v in tot.items() if k.startswith(layer + "."))

    def layer_calls(layer):
        return sum(v[0] for k, v in tot.items() if k.startswith(layer + "."))

    per = 1.0 / max(jobs, 1)
    solves = calls("canonical.solve_thermal_energy")
    mc_time = incl("montecarlo.estimate_dos")
    qmce_errors = ("InvalidInputError", "SpectrumParseError", "ResourceLimitError", "NoSolutionError",
                   "ConvergenceError", "QmceError")
    raised = sum(tr.errors.values())
    typed = sum(tr.errors.get(k, 0) for k in qmce_errors)
    overflow = tr.errors.get("OverflowError", 0)
    vals = {
        "dos.build_s": (incl("dos.build_dos") * per, "s/job"),
        "dos.build_calls": (calls("dos.build_dos") * per, "1/job"),
        "dos.eval_s": (incl("dos.eval_dos") * per, "s/job"),
        "dos.eval_points": (size("dos.eval_dos") * per, "1/job"),
        "dos.integrate_s": (incl("dos.integrate_dos") * per, "s/job"),
        "dos.integrate_calls": (calls("dos.integrate_dos") * per, "1/job"),
        "piecewise.value_s": (incl("piecewise.value") * per, "s/job"),
        "piecewise.value_calls": (calls("piecewise.value") * per, "1/job"),
        "piecewise.value_points": (size("piecewise.value") * per, "1/job"),
        "piecewise.one_sided_s": (incl("piecewise.one_sided") * per, "s/job"),
        "piecewise.one_sided_calls": (calls("piecewise.one_sided") * per, "1/job"),
        "piecewise.laplace_s": (incl("piecewise.laplace") * per, "s/job"),
        "piecewise.laplace_calls": (calls("piecewise.laplace") * per, "1/job"),
        "canonical.laplace_per_solve": (tr.laplace_in_solve / solves if solves else 0.0, "1/solve"),
        "piecewise.convolve_s": (incl("piecewise.convolve") * per, "s/job"),
        "piecewise.convolve_calls": (calls("piecewise.convolve") * per, "1/job"),
        "piecewise.convolve_pieces_out": (size("piecewise.convolve") * per, "1/job"),
        "canonical.s": (layer_self("canonical") * per, "s/job"),
        "canonical.solve_calls": (solves * per, "1/job"),
        "thermo.curve_s": (incl("thermo.thermo_curve") * per, "s/job"),
        "thermo.critical_s": (incl("thermo.critical_points") * per, "s/job"),
        "thermo.critical_calls": (calls("thermo.critical_points") * per, "1/job"),
        "thermo.solver_s": (incl("thermo.energy_of_temperature", "thermo.equilibrate") * per, "s/job"),
        "thermo.solver_calls": ((calls("thermo.energy_of_temperature") + calls("thermo.equilibrate")) * per, "1/job"),
        "montecarlo.s": (layer_self("montecarlo") * per, "s/job"),
        "montecarlo.samples": (size("montecarlo.estimate_dos") * per, "1/job"),
        "montecarlo.samples_per_s": (size("montecarlo.estimate_dos") / mc_time if mc_time else 0.0, "1/s"),
        "spectrum.s": (layer_self("spectrum") * per, "s/job"),
        "spectrum.calls": (layer_calls("spectrum") * per, "1/job"),
        "grand.s": (layer_self("grand") * per, "s/job"),
        "grand.calls": (layer_calls("grand") * per, "1/job"),
        "cli.s": (layer_self("cli") * per, "s/job"),
        "cli.bytes_out": (bytes_out * per, "B/job"),
        "errors.raised": (raised * per, "1/job"),
        "errors.qmce": (typed * per, "1/job"),
        "errors.overflow": (overflow * per, "1/job"),
        "errors.other": ((raised - typed - overflow) * per, "1/job"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.csv_mismatch": (mismatches, "count"),
    }
    return vals
