"""Spans around the public functions of each critsys module, from outside.

The tracer replaces every public function and public method of the layer
modules with a wrapper that records a span (name, layer, start, end, parent
span, op id) and, for a few functions, the work it was handed.  Wrappers are
installed wherever the function object is bound: in its own module, in every
module that imported it by name (``bubble.radial_laplacian``,
``potential.lp_norm_radial``, the package re-exports), in
``acceptance.ALL_CRITERIA``, and for ``shooting.solve_ivp``, which is scipy's
function as shooting binds it.  ``moving_plane`` imports ``eval_bubble`` inside
a function body, so it picks up the wrapper from ``critsys.bubble`` at call
time.

Spans are recorded only while an op id is set, are kept in memory, and are
written out by the caller when the worker ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("core", "bubble", "shooting", "potential", "moving_plane",
          "acceptance", "cli")

# span fields
NAME, LAYER, START, END, PARENT, OP, ERROR, WORK = range(8)


def _bound(fn):
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments


def _points(x) -> int:
    """Number of points in an array of shape (..., n) or of radii."""
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    size = 1
    for d in shape[:-1]:
        size *= d
    return size


def _meters(modules):
    """Work counted at the boundary of a few functions: (layer, name) -> fn."""
    core, bb, sh, pot, mp = (modules[k] for k in
                             ("core", "bubble", "shooting", "potential", "moving_plane"))
    fd_args = _bound(core.radial_derivatives)
    eval_args = _bound(bb.eval_bubble)
    hls_args = _bound(pot.hls_functional)

    def fd(args, kwargs, out):
        return {"fd_nodes": len(fd_args(args, kwargs)["grid"].nodes)}

    def eval_points(args, kwargs, out):
        x = eval_args(args, kwargs)["x"]
        return {"eval_points": 1 if getattr(x, "ndim", 2) == 1 else _points(x)}

    def radial_points(args, kwargs, out):
        return {"eval_points": int(getattr(out, "size", 1))}

    def shot(args, kwargs, out):
        return {"shots": 1, "nfev": int(out.nfev),
                "terminated_shots": int(out.status == 1)}

    def kernel_evals(args, kwargs, out):
        # computed, not counted: N^2 kernel values, times the angular rule off
        # the harmonic exponent lambda = n - 2
        a = hls_args(args, kwargs)
        kernel, n2 = a["kernel"], len(a["grid"].nodes) ** 2
        harmonic = abs(kernel.lam - (kernel.n - 2.0)) < 1e-14
        return {"kernel_evals": n2 if harmonic else n2 * getattr(kernel, "angular_rule", 1)}

    return {
        ("core", "radial_derivatives"): fd,
        ("bubble", "eval_bubble"): eval_points,
        ("bubble", "eval_bubble_radial"): radial_points,
        ("shooting", "solve_ivp"): shot,
        ("potential", "hls_functional"): kernel_evals,
        ("potential", "newton_potential_radial"): lambda a, k, o: {"newton_calls": 1},
        ("moving_plane", "exceedance_sets"): lambda a, k, o: {"planes": 1},
    }


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: int | None = None  # spans are recorded only while set

    def _wrap(self, layer: str, name: str, fn, meter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            span = [name, layer, 0.0, 0.0,
                    tracer._stack[-1] if tracer._stack else -1,
                    tracer.op, None, None]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span[ERROR] = id(exc)
                raise
            finally:
                span[END] = time.perf_counter()
                tracer._stack.pop()
            if meter is not None:
                span[WORK] = meter(args, kwargs, out)
            return out

        traced.perfbench_traced = True
        return traced

    def install(self) -> None:
        """Wrap every public function and method of the layer modules."""
        pkg = importlib.import_module("critsys")
        modules = {layer: importlib.import_module(f"critsys.{layer}") for layer in LAYERS}
        meters = _meters(modules)
        wrapped = {}  # id(original) -> wrapper

        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(layer, name, obj, meters.get((layer, name)))
                elif inspect.isclass(obj):
                    for mname, attr in list(vars(obj).items()):
                        if mname.startswith("_"):
                            continue
                        qual = f"{name}.{mname}"
                        if isinstance(attr, (classmethod, staticmethod)):
                            setattr(obj, mname, type(attr)(self._wrap(layer, qual, attr.__func__)))
                        elif inspect.isfunction(attr):
                            setattr(obj, mname, self._wrap(layer, qual, attr))
        solve_ivp = modules["shooting"].solve_ivp
        wrapped[id(solve_ivp)] = self._wrap("shooting", "solve_ivp", solve_ivp,
                                            meters[("shooting", "solve_ivp")])

        for mod in (pkg, *modules.values()):
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, name, wrapped[id(obj)])
        acc = modules["acceptance"]
        acc.ALL_CRITERIA[:] = [(n, wrapped.get(id(f), f)) for n, f in acc.ALL_CRITERIA]

        must = [modules["bubble"].radial_laplacian, modules["potential"].lp_norm_radial,
                modules["shooting"].solve_ivp, modules["bubble"].eval_bubble,
                *(f for _, f in acc.ALL_CRITERIA)]
        missing = [getattr(f, "__name__", f) for f in must
                   if not getattr(f, "perfbench_traced", False)]
        if missing:
            raise RuntimeError(f"tracer could not wrap {missing}")

    def serializable(self) -> list[list]:
        return [s[:ERROR] + [s[ERROR] is not None, s[WORK]] for s in self.spans]


def layer_metrics(spans: list[list], criteria: list[tuple[str, str]]) -> dict:
    """Per-layer counts and self times over the given spans.

    ``criteria`` maps criterion names to the acceptance function names, so
    each criterion's inclusive span time can be reported.  A layer's self time
    is its spans' durations minus the durations of their direct children.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]

    out: dict[str, float] = {}
    errors: dict[str, set] = {layer: set() for layer in LAYERS}
    work: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_s"] = 0.0
    for i, s in enumerate(spans):
        layer = s[LAYER]
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_s"] += (s[END] - s[START]) - child_time[i]
        if s[ERROR] is not None:
            errors[layer].add(s[ERROR])
        for key, val in (s[WORK] or {}).items():
            work[key] = work.get(key, 0) + val
    for layer in LAYERS:
        out[f"{layer}.errors"] = len(errors[layer])

    out["core.fd_nodes"] = work.get("fd_nodes", 0)
    out["bubble.eval_points"] = work.get("eval_points", 0)
    shots = work.get("shots", 0)
    out["shooting.shots"] = shots
    out["shooting.nfev"] = work.get("nfev", 0)
    out["shooting.nfev_per_shot"] = work.get("nfev", 0) / shots if shots else 0.0
    out["shooting.terminated_shots"] = work.get("terminated_shots", 0)
    out["potential.hls_s"] = sum(s[END] - s[START] for s in spans
                                 if s[NAME] == "hls_functional")
    out["potential.kernel_evals"] = work.get("kernel_evals", 0)
    out["potential.newton_calls"] = work.get("newton_calls", 0)
    planes = work.get("planes", 0)
    out["moving_plane.planes"] = planes
    out["moving_plane.field_points_per_plane"] = (
        _points_under(spans, "exceedance_sets") / planes if planes else 0.0)
    for label, fname in criteria:
        out[f"acceptance.{slug(label)}.s"] = sum(
            s[END] - s[START] for s in spans
            if s[LAYER] == "acceptance" and s[NAME] == fname)
    return out


def _points_under(spans: list[list], ancestor: str) -> int:
    """Bubble evaluation points spent inside spans named ``ancestor``."""
    total = 0
    for s in spans:
        if s[LAYER] != "bubble" or not s[WORK] or "eval_points" not in s[WORK]:
            continue
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != ancestor:
            p = spans[p][PARENT]
        if p >= 0:
            total += s[WORK]["eval_points"]
    return total


def slug(label: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in label.lower())
