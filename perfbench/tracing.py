"""Per-layer spans for eqm, recorded from outside the program.

Tracer.install() replaces each traced function M.F, in every loaded
eqm module namespace that binds it (so eqm.verify.phi_eval and
eqm.twocut.phi_eval both go through the wrapper), and two methods on
their classes (LocalField construction, DensityTable.log_potential).
Each call records a span: id, parent span, operation
id, name, start, end and a few counts read from its arguments and
result.  Spans stay in memory until write() saves them as JSON lines.
"""

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# Traced callables, named "<module>.<function>", "<module>.<Class>"
# (its construction) or "<module>.<Class>.<method>".
SPAN_NAMES = [
    "cli.main",
    "onecut.solve_endpoints",
    "onecut.density",
    "twocut.solve_endpoints_symmetric",
    "twocut.density_symmetric",
    "newton.damped_newton",
    "epd.phi_eval",
    "epd.phi_eval_anchored",
    "quadrature.field_band_integral_delta",
    "quadrature.field_pv_band_integral_delta",
    "quadrature.pv_band_integral_delta",
    "field.LocalField",
    "field.potential_difference",
    "wells.global_minimizer",
    "density.DensityTable.log_potential",
    "verify.check_variational",
    "verify.check_sign_and_gaps",
    "asymptotics.predict",
    "oracle.discretize",
    "oracle.direct_minimize",
    "oracle.compare",
]

# Per-layer metrics, in the order they are reported, with units.
DERIVED = [
    ("newton.iterations", "count"),
    ("newton.residual_evals", "count"),
    ("epd.phi_eval.g0.calls", "count"),
    ("epd.phi_eval.g1.calls", "count"),
    ("epd.phi_eval.g1.s_per_call", "s"),
    ("verify.accept_ratio", "ratio"),
    ("oracle.iterations", "count"),
    ("oracle.s_per_iter", "s"),
    ("trace.overhead_s", "s"),
]
LAYER_METRICS = [
    (f"{name}.{stat}", unit)
    for name in SPAN_NAMES
    for stat, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"))
] + DERIVED


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.spans = []  # [id, parent, op, name, start, end, attrs]
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None  # the running cli.main span, parent of pool-thread spans
        self._patches = []

    def install(self):
        mods = {k: v for k, v in sys.modules.items() if k == "eqm" or k.startswith("eqm.")}
        for name in SPAN_NAMES:
            mod, attr, *method = name.split(".")
            orig = getattr(mods[f"eqm.{mod}"], attr)
            if isinstance(orig, type):
                cls, meth = orig, method[0] if method else "__init__"
                self._patches.append((cls, meth, cls.__dict__[meth]))
                setattr(cls, meth, self._wrap(name, cls.__dict__[meth]))
                continue
            wrapper = self._wrap(name, orig)
            for module in mods.values():
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._patches.append((module, key, orig))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else tracer._root
            attrs = {}
            if name == "newton.damped_newton":
                args, kwargs, counter = _count_residuals(args, kwargs)
            if name == "epd.phi_eval":
                attrs["g"] = _arg(args, kwargs, 0, "spec").g
            is_root = name == "cli.main" and not stack
            if is_root:
                tracer._root = sid
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_root:
                    tracer._root = None
                tracer.spans.append([sid, parent, tracer.op, name, start, end, attrs])
            if name == "newton.damped_newton":
                attrs["iterations"] = result.iterations
                attrs["residual_evals"] = counter[0]
            elif name == "verify.check_variational":
                attrs["passed"] = bool(result.passed())
            elif name == "oracle.direct_minimize":
                attrs["iterations"] = result.iterations
            return result

        return wrapper

    def write(self, path):
        with open(path, "w") as fh:
            for sid, parent, op, name, start, end, attrs in self.spans:
                rec = {"id": sid, "parent": parent, "op": op, "name": name,
                       "start": start, "end": end}
                rec.update(attrs)
                fh.write(json.dumps(rec) + "\n")

    def layer_metrics(self, n_ops):
        """Per-operation calls, seconds and self seconds per span name,
        plus the derived counts (trace.overhead_s is left to the caller)."""
        child = defaultdict(float)
        for sid, parent, _, _, start, end, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        sums = defaultdict(float)
        for sid, _, _, name, start, end, attrs in self.spans:
            dur = end - start
            calls[name] += 1
            total[name] += dur
            self_s[name] += dur - child[sid]
            if name == "epd.phi_eval":
                g = attrs["g"]
                sums[f"g{g}.calls"] += 1
                sums[f"g{g}.s"] += dur
            for key in ("iterations", "residual_evals", "passed"):
                if key in attrs:
                    sums[f"{name}.{key}"] += attrs[key]
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name] / n_ops
            out[f"{name}.s"] = total[name] / n_ops
            out[f"{name}.self_s"] = self_s[name] / n_ops
        g1 = sums["g1.calls"]
        iters = sums["oracle.direct_minimize.iterations"]
        out.update({
            "newton.iterations": sums["newton.damped_newton.iterations"] / n_ops,
            "newton.residual_evals": sums["newton.damped_newton.residual_evals"] / n_ops,
            "epd.phi_eval.g0.calls": sums["g0.calls"] / n_ops,
            "epd.phi_eval.g1.calls": g1 / n_ops,
            "epd.phi_eval.g1.s_per_call": sums["g1.s"] / g1 if g1 else 0.0,
            "verify.accept_ratio": (
                sums["verify.check_variational.passed"] / calls["verify.check_variational"]
                if calls["verify.check_variational"] else 0.0
            ),
            "oracle.iterations": iters / n_ops,
            "oracle.s_per_iter": total["oracle.direct_minimize"] / iters if iters else 0.0,
        })
        return out


def _count_residuals(args, kwargs):
    """Replace damped_newton's residual function by a counting one."""
    counter = [0]
    fun = _arg(args, kwargs, 0, "fun")

    def counted(*a, **k):
        counter[0] += 1
        return fun(*a, **k)

    if args:
        args = (counted,) + tuple(args[1:])
    else:
        kwargs = dict(kwargs, fun=counted)
    return args, kwargs, counter
