"""Outside-in tracer for the hcl layers.

The tracer patches the program from outside: it wraps the public functions of
each ``hcl`` module, re-binds every name another ``hcl`` module imported with
``from .x import f``, and hands ``hcl.solve`` proxies of ``numpy`` and
``scipy.sparse.linalg`` whose ``eigh``/``eigvalsh`` and ``cg``/``bicgstab``/
``spsolve`` are wrapped.  Nothing in ``src/`` changes.

A span is recorded at each layer boundary (the caller is in another layer).
Within a layer only the functions in ``INNER_SPANS`` get spans of their own,
because the per-layer metrics name them; the tiny intra-layer calls of
``symfunc`` would otherwise cost more than the work they trace.

Span stacks are per thread (``lemma-check`` runs a thread pool).  Spans are
kept in memory as tuples and written out once, by ``dump``.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import types
from time import perf_counter, thread_time

import numpy as np

# (layer, function) pairs that get a span even when called from their own layer
INNER_SPANS = {
    ("spectra", "eig_hermitian"),
    ("spectra", "eig_hermitian_with_vectors"),
    ("spectra", "localize"),
    ("subsol", "level_set_point"),
    ("subsol", "sample_level_set"),
    ("grid", "complex_hessian"),
    ("solve", "residual_field"),
    ("solve", "assemble_linearized"),
    ("solve", "poisson_dirichlet"),
    ("solve", "build_subsolution"),
    ("solve", "build_supersolution"),
    ("solve", "verify_estimates"),
    ("solve", "solve_dirichlet"),
    ("solve", "solve_closed"),
    ("io", "write_array"),
    ("io", "CsvWriter.flush"),
}

# library entry points reached through hcl.solve's module globals
_NUMPY_LINALG = ("eigh", "eigvalsh")

# span tuple fields
NAME, SID, PARENT, TID, T0, T1, SELF_WALL, SELF_CPU, OK, EXTRA = range(10)


class ModuleProxy(types.ModuleType):
    """A module stand-in: overrides first, everything else from the base."""

    def __init__(self, base, overrides):
        super().__init__(base.__name__)
        self._base = base
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._base, name)


def _rows(args, kwargs, frame) -> int:
    """Leading batch size of the first array argument (1 for a single tuple)."""
    for a in args:
        if isinstance(a, np.ndarray):
            return int(a.size // a.shape[-1]) if a.ndim >= 2 else 1
    return 1


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _span(self, layer: str, name: str, inner: bool, fn, args, kwargs,
              extra_fn=None):
        st = self._stack()
        if st and st[-1][1] == layer and not inner:
            return fn(*args, **kwargs)
        sid = next(self._ids)
        frame = [sid, layer, 0.0, 0.0, None]  # id, layer, child wall, child cpu, extra
        parent = st[-1][0] if st else 0
        st.append(frame)
        ok = False
        c0 = thread_time()
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
            ok = True
            return out
        finally:
            t1 = perf_counter()
            c1 = thread_time()
            st.pop()
            dur, cpu = t1 - t0, c1 - c0
            if st:
                st[-1][2] += dur
                st[-1][3] += cpu
            extra = frame[4]
            if extra_fn is not None:
                extra = extra_fn(args, kwargs, frame)
            self.spans.append((name, sid, parent, threading.get_ident(), t0, t1,
                               dur - frame[2], cpu - frame[3], ok, extra))

    def _wrap(self, layer: str, qual: str, fn, extra_fn=None, inner=False):
        name = f"{layer}.{qual}"
        inner = inner or (layer, qual) in INNER_SPANS
        span = self._span
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    try:
                        item = span(layer, name, inner, next, (it,), {})
                    except StopIteration:
                        return
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return span(layer, name, inner, fn, args, kwargs, extra_fn)
        return wrapper

    # ------------------------------------------------------- library wrappers

    def _krylov(self, name, fn):
        """Wrap cg/bicgstab, counting iterations through an injected callback."""
        span = self._span

        def call(*args, **kwargs):
            frame = self._stack()[-1]
            frame[4] = {"iters": 0}
            user_cb = kwargs.get("callback")

            def counter(xk):
                frame[4]["iters"] += 1
                if user_cb is not None:
                    user_cb(xk)
            kwargs["callback"] = counter
            return fn(*args, **kwargs)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return span("solve", f"solve.{name}", True, call, args, kwargs)
        return wrapper

    def _spsolve(self, fn):
        """Wrap spsolve; flag it as a fallback when its right-hand side is the
        very array the preceding BiCGStab call on this thread failed on."""
        span = self._span
        local = self._local

        def extra(args, kwargs, frame):
            rhs = args[1] if len(args) > 1 else kwargs.get("b")
            return {"fallback": getattr(local, "last_krylov_rhs", None) is rhs}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return span("solve", "solve.scipy.spsolve", True, fn, args, kwargs, extra)
            finally:
                local.last_krylov_rhs = None
        return wrapper

    def _bicgstab(self, fn):
        inner = self._krylov("scipy.bicgstab", fn)
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local.last_krylov_rhs = None
            out = inner(*args, **kwargs)
            local.last_krylov_rhs = args[1] if len(args) > 1 else kwargs.get("b")
            return out
        return wrapper

    # ------------------------------------------------------------ patching

    def _set(self, obj, attr, value):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self):
        import scipy.sparse.linalg as spla

        import hcl
        from hcl import cli, grid, io, solve, spectra, subsol, symfunc

        modules = {"symfunc": symfunc, "spectra": spectra, "subsol": subsol,
                   "grid": grid, "solve": solve, "io": io, "cli": cli}
        originals: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped = self._wrap(layer, attr, fn,
                                     _rows if layer == "symfunc" else None)
                originals[id(fn)] = wrapped
                self._set(mod, attr, wrapped)
        flush = io.CsvWriter.flush
        self._set(io.CsvWriter, "flush", self._wrap("io", "CsvWriter.flush", flush))

        # re-bind names pulled in with `from .x import f`
        for mod in [hcl, *modules.values()]:
            for attr, val in list(vars(mod).items()):
                wrapped = originals.get(id(val))
                if wrapped is not None and val is not wrapped:
                    self._set(mod, attr, wrapped)

        linalg = ModuleProxy(np.linalg, {
            name: self._wrap("solve", f"numpy.{name}", getattr(np.linalg, name),
                             inner=True)
            for name in _NUMPY_LINALG})
        self._set(solve, "np", ModuleProxy(np, {"linalg": linalg}))
        self._set(solve, "spla", ModuleProxy(spla, {
            "cg": self._krylov("scipy.cg", spla.cg),
            "bicgstab": self._bicgstab(spla.bicgstab),
            "spsolve": self._spsolve(spla.spsolve),
        }))

    def uninstall(self):
        while self._patches:
            obj, attr, old = self._patches.pop()
            setattr(obj, attr, old)

    def take(self) -> list[tuple]:
        spans, self.spans = self.spans, []
        return spans


def dump(path, rep: int, spans: list[tuple]) -> None:
    """Write one repetition's spans as JSON lines, one span per line."""
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps({
                "rep": rep, "name": s[NAME], "id": s[SID], "parent": s[PARENT],
                "thread": s[TID], "start": s[T0], "end": s[T1],
                "self_s": s[SELF_WALL], "self_cpu_s": s[SELF_CPU],
                "ok": s[OK], "extra": s[EXTRA],
            }) + "\n")


# ------------------------------------------------------------ aggregation


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[tuple], wall: float, main_thread: int) -> dict:
    """Per-layer metrics of one traced repetition of wall time ``wall``."""
    count: dict[str, int] = {}
    busy: dict[str, float] = {}  # self time by span name
    layer_busy: dict[str, float] = {}  # self time by layer, hcl functions only
    parents = {}
    for s in spans:
        parents[s[SID]] = (s[NAME], s[PARENT])
    spectra_wait = symfunc_rows = symfunc_in_sampling = 0.0
    krylov_iters = cg_iters = fallbacks = level_points = covered = 0.0
    for s in spans:
        name = s[NAME]
        layer, _, func = name.partition(".")
        count[name] = count.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + s[SELF_WALL]
        if not func.startswith(("numpy.", "scipy.")):
            layer_busy[layer] = layer_busy.get(layer, 0.0) + s[SELF_WALL]
        if s[PARENT] == 0 and s[TID] == main_thread:
            covered += s[T1] - s[T0]
        if layer == "spectra":
            spectra_wait += s[SELF_WALL] - s[SELF_CPU]
        elif layer == "symfunc":
            symfunc_rows += s[EXTRA]
            p = s[PARENT]
            while p:
                pname, p = parents.get(p, ("", 0))
                if pname == "subsol.sample_level_set":
                    symfunc_in_sampling += 1
                    break
        elif name == "subsol.level_set_point":
            level_points += s[OK]
        elif name == "solve.scipy.bicgstab":
            krylov_iters += s[EXTRA]["iters"]
        elif name == "solve.scipy.cg":
            cg_iters += s[EXTRA]["iters"]
        elif name == "solve.scipy.spsolve":
            fallbacks += s[EXTRA]["fallback"]

    def n(name):
        return count.get(name, 0)

    def b(*names):
        return sum(busy.get(x, 0.0) for x in names)

    eig = ("spectra.eig_hermitian", "spectra.eig_hermitian_with_vectors")
    eig_calls = n(eig[0]) + n(eig[1])
    symfunc_calls = sum(v for k, v in count.items() if k.startswith("symfunc."))
    attempts = n("subsol.level_set_point")
    newton_steps = n("solve.numpy.eigh")
    residual_evals = n("solve.residual_field")
    return {
        "spectra.eig_calls": (eig_calls, "count"),
        "spectra.eig_busy_s": (b(*eig), "s"),
        "spectra.eig_us_per_call": (1e6 * _ratio(b(*eig), eig_calls), "us"),
        "spectra.localize_busy_s": (b("spectra.localize"), "s"),
        "spectra.wait_s": (max(spectra_wait, 0.0), "s"),
        "cli.self_s": (layer_busy.get("cli", 0.0), "s"),
        "symfunc.calls": (symfunc_calls, "count"),
        "symfunc.busy_s": (layer_busy.get("symfunc", 0.0), "s"),
        "symfunc.rows_per_call": (_ratio(symfunc_rows, symfunc_calls), "rows"),
        "symfunc.us_per_call": (
            1e6 * _ratio(layer_busy.get("symfunc", 0.0), symfunc_calls), "us"),
        "subsol.busy_s": (layer_busy.get("subsol", 0.0), "s"),
        "subsol.level_attempts": (attempts, "count"),
        "subsol.level_points": (level_points, "count"),
        "subsol.accept_ratio": (_ratio(level_points, attempts), "ratio"),
        "subsol.symfunc_calls_per_point": (
            _ratio(symfunc_in_sampling, level_points), "calls"),
        "grid.hessian_calls": (n("grid.complex_hessian"), "count"),
        "grid.busy_s": (layer_busy.get("grid", 0.0), "s"),
        "solve.newton_steps": (newton_steps, "count"),
        "solve.residual_evals": (residual_evals, "count"),
        "solve.step_accept_ratio": (_ratio(newton_steps, residual_evals), "ratio"),
        "solve.assemble_calls": (n("solve.assemble_linearized"), "count"),
        "solve.assemble_s": (b("solve.assemble_linearized"), "s"),
        "solve.krylov_calls": (n("solve.scipy.bicgstab"), "count"),
        "solve.krylov_iters": (krylov_iters, "count"),
        "solve.krylov_s": (b("solve.scipy.bicgstab"), "s"),
        "solve.cg_iters": (cg_iters, "count"),
        "solve.cg_s": (b("solve.scipy.cg"), "s"),
        "solve.poisson_calls": (n("solve.poisson_dirichlet"), "count"),
        "solve.direct_calls": (n("solve.scipy.spsolve"), "count"),
        "solve.direct_s": (b("solve.scipy.spsolve"), "s"),
        "solve.fallbacks": (fallbacks, "count"),
        "solve.eig_s": (b("solve.numpy.eigh", "solve.numpy.eigvalsh"), "s"),
        "solve.subsolution_builds": (n("solve.build_subsolution"), "count"),
        "solve.self_s": (layer_busy.get("solve", 0.0), "s"),
        "io.write_s": (layer_busy.get("io", 0.0), "s"),
        "trace.coverage": (_ratio(covered, wall), "ratio"),
    }
