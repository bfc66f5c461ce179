"""Span tracing for the benchmark's traced pass, built from outside the program.

`install()` wraps each target in every `hkverify.*` namespace that binds it
(`report.py` and `blowup.py` import names such as `fujiki_integral`
directly, so patching the defining module alone would miss their calls)
and methods on their classes. A wrapped call records one span: name,
parent span, start and end in `perf_counter_ns`. Spans stay in flat arrays
in memory and are written out once, by `dump()`. Hot kernel operations
(`Fraction` arithmetic, `GramLattice` construction) are only counted.

A target missing from the program, for example a function a later change
deleted, is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from array import array

# (layer name, module, attribute path, metrics reported); each call becomes
# a span. `self_ms` is the span minus its child spans, `total_ms` the span.
SPAN_TARGETS = (
    ("cli.main", "hkverify.cli", "main", ("calls", "self_ms")),
    ("report.run_report", "hkverify.report", "run_report", ("total_ms",)),
    ("report.family.lattice", "hkverify.report", "_lattice_records", ("total_ms",)),
    ("report.family.kummer", "hkverify.report", "_kummer_records", ("total_ms",)),
    ("report.family.blowup", "hkverify.report", "_blowup_records", ("total_ms",)),
    ("report.family.delta", "hkverify.report", "_delta_records", ("total_ms",)),
    ("report.family.chern", "hkverify.report", "_chern_records", ("total_ms",)),
    ("report.family.walls", "hkverify.report", "_wall_records", ("total_ms",)),
    ("report.family.fiber", "hkverify.report", "_fiber_records", ("total_ms",)),
    ("report.family.abelian", "hkverify.report", "_abelian_records", ("total_ms",)),
    ("report.to_json", "hkverify.report", "to_json", ("self_ms",)),
    ("report.to_markdown", "hkverify.report", "to_markdown", ("self_ms",)),
    ("lattice.AbelianSurfaceModel.pair", "hkverify.lattice", "AbelianSurfaceModel.pair", ("calls", "self_ms")),
    ("lattice.GramLattice.discriminant", "hkverify.lattice", "GramLattice.discriminant", ("calls", "self_ms")),
    ("kummer.bbf", "hkverify.kummer", "bbf", ("calls", "self_ms")),
    ("kummer.fujiki_integral", "hkverify.kummer", "fujiki_integral", ("calls", "self_ms")),
    ("kummer.fujiki_symmetrized", "hkverify.kummer", "fujiki_symmetrized", ("calls", "self_ms")),
    ("blowup.x_quartic", "hkverify.blowup", "x_quartic", ("calls", "self_ms")),
    ("blowup.ch2_pairing", "hkverify.blowup", "ch2_pairing", ("calls", "self_ms")),
    ("blowup.delta_pairing_via_chern", "hkverify.blowup", "delta_pairing_via_chern", ("calls", "total_ms")),
    ("chern.polynomial_identities", "hkverify.chern", "polynomial_identities", ("calls", "self_ms")),
    ("walls.is_ample_h", "hkverify.walls", "is_ample_h", ("calls", "self_ms")),
    ("fiber.monodromy_group", "hkverify.fiber", "monodromy_group", ("calls", "self_ms")),
    ("fiber.subsheaf_rank", "hkverify.fiber", "subsheaf_rank", ("calls", "self_ms")),
    ("abelian.zeppola_oracle", "hkverify.abelian", "zeppola_oracle", ("calls", "self_ms")),
    ("abelian.is_simple_semihom", "hkverify.abelian", "is_simple_semihom", ("calls", "self_ms")),
)

# Calls from any hkverify module into `sympy.expand`, traced as a span.
SYMPY_EXPAND = "chern.sympy_expand"

# (counter name, module, attribute paths); each call adds one to the counter.
COUNT_TARGETS = (
    ("lattice.GramLattice.init", "hkverify.lattice", ("GramLattice.__init__",)),
    ("fractions.Fraction.mul", "fractions", ("Fraction.__mul__", "Fraction.__rmul__")),
    ("fractions.Fraction.add", "fractions", ("Fraction.__add__", "Fraction.__radd__")),
    ("fractions.Fraction.new", "fractions", ("Fraction.__new__",)),
)

SPAN_NAMES = tuple(target[0] for target in SPAN_TARGETS) + (SYMPY_EXPAND,)
SPAN_METRICS = {target[0]: target[3] for target in SPAN_TARGETS} | {SYMPY_EXPAND: ("calls", "self_ms")}
COUNT_NAMES = tuple(name for name, _, _ in COUNT_TARGETS)


def _resolve(module_name: str, path: str):
    """Return (owner, attribute, value), or None when the target is absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr, vars(owner)[attr]


def _program_modules():
    return [m for n, m in list(sys.modules.items()) if n == "hkverify" or n.startswith("hkverify.")]


def _rebind(original, replacement) -> None:
    """Point every hkverify namespace that binds `original` at `replacement`."""
    for module in _program_modules():
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)


class Tracer:
    def __init__(self) -> None:
        self.absent: list[str] = []
        self._name = array("i")
        self._parent = array("q")
        self._start = array("q")
        self._end = array("q")
        self._stack = [-1]
        self._counts = [0] * len(COUNT_NAMES)

    def reset(self) -> None:
        """Drop everything recorded so far (call only between top-level calls)."""
        for arr in (self._name, self._parent, self._start, self._end):
            del arr[:]
        for i in range(len(self._counts)):
            self._counts[i] = 0

    def _span(self, name_id: int, fn):
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def _counter(self, count_id: int, fn):
        counts = self._counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[count_id] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        importlib.import_module("hkverify.cli")  # binds every module the CLI uses
        for name_id, (name, module, path, _) in enumerate(SPAN_TARGETS):
            found = _resolve(module, path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, fn = found
            wrapped = self._span(name_id, fn)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
            else:
                _rebind(fn, wrapped)
        self._install_sympy_expand(SPAN_NAMES.index(SYMPY_EXPAND))
        for count_id, (name, module, paths) in enumerate(COUNT_TARGETS):
            for path in paths:
                found = _resolve(module, path)
                if found is None:
                    self.absent.append(f"{name} ({path})")
                    continue
                owner, attr, fn = found
                if isinstance(fn, staticmethod):
                    setattr(owner, attr, staticmethod(self._counter(count_id, fn.__func__)))
                else:
                    setattr(owner, attr, self._counter(count_id, fn))

    def _install_sympy_expand(self, name_id: int) -> None:
        sympy = sys.modules.get("sympy")
        users = [m for m in _program_modules() if sympy is not None and vars(m).get("sympy") is sympy]
        if not users:
            self.absent.append(SYMPY_EXPAND)
            return
        proxy = types.ModuleType("sympy")
        proxy.__getattr__ = lambda attr: getattr(sympy, attr)
        proxy.expand = self._span(name_id, sympy.expand)
        for module in users:
            module.sympy = proxy

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": SPAN_NAMES,
                    "absent": self.absent,
                    "name": self._name.tolist(),
                    "parent": self._parent.tolist(),
                    "start": self._start.tolist(),
                    "end": self._end.tolist(),
                    "counts": dict(zip(COUNT_NAMES, self._counts)),
                },
                fh,
            )


def install() -> Tracer:
    tracer = Tracer()
    tracer.install()
    return tracer


def summarize(paths) -> dict:
    """Add up span files: per span name calls, total_ns and self_ns (span
    minus its direct child spans), per counter its count, and the absent
    targets seen in any file. A missing file (its traced process failed,
    which the run already counts) is skipped."""
    calls = dict.fromkeys(SPAN_NAMES, 0)
    total = dict.fromkeys(SPAN_NAMES, 0)
    own = dict.fromkeys(SPAN_NAMES, 0)
    counts = dict.fromkeys(COUNT_NAMES, 0)
    absent: set[str] = set()
    for path in paths:
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except FileNotFoundError:
            continue
        names = data["names"]
        absent.update(data["absent"])
        durations = [e - s for s, e in zip(data["start"], data["end"])]
        children = [0] * len(durations)
        for parent, dur in zip(data["parent"], durations):
            if parent >= 0:
                children[parent] += dur
        for name_id, dur, child in zip(data["name"], durations, children):
            name = names[name_id]
            calls[name] += 1
            total[name] += dur
            own[name] += dur - child
        for name, n in data["counts"].items():
            counts[name] += n
    return {"calls": calls, "total_ns": total, "self_ns": own, "counts": counts, "absent": sorted(absent)}
