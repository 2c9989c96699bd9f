"""Per-layer tracing of dustmie from outside the program.

BOUNDARIES is the one table of names the traced run wraps. Each name is
wrapped in the module that calls it (``dustmie.mie.riccati_psi_arrays`` is
the specfun function as mie sees it), so the spans sit exactly at the layer
boundaries. A name the program no longer has is reported as absent and
skipped.

Spans are aggregated as they close: per layer, the number of calls and the
self time, which is a span's duration minus the part covered by its child
spans. Integrand evaluations that a quadrature call makes are spans of the
layer that owns the integrand (the caller of the quadrature), so
quadrature.self_s is the bisection's own time only.
"""
from __future__ import annotations

import importlib
import inspect
import warnings
from collections import Counter
from time import perf_counter

# (module, attribute in that module, layer)
BOUNDARIES = (
    ("dustmie.cli", "run", "cli"),
    ("dustmie.sweeps", "SweepTable.to_csv", "sweeps"),
    ("dustmie.cli", "extinction_efficiency_x", "mie"),
    ("dustmie.channel", "extinction_efficiency_x", "mie"),
    ("dustmie.mie", "riccati_psi_arrays", "specfun"),
    ("dustmie.mie", "riccati_xi_arrays", "specfun"),
    ("dustmie.channel", "adaptive_simpson", "quadrature"),
    ("dustmie.dustfield", "DustLayerModel.number_density", "dustfield"),
    ("dustmie.dustfield", "DustLayerModel.params", "dustfield"),
    ("dustmie.dustfield", "DustLayerModel.support", "dustfield"),
    ("dustmie.channel", "dust_attenuation_coefficient", "channel.kdust"),
    ("dustmie.channel", "slant_dust_loss", "channel.slant"),
)


class Tracer:
    """Wraps the boundaries on install() and restores them on uninstall()."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.total_s = Counter()
        self.errors = Counter()          # (layer, exception type) -> count
        self._last_error: dict = {}      # layer -> exception last counted
        self.count = Counter()           # work counts named like the metrics
        self.kernel_keys = Counter()
        self.absent: list[str] = []
        self._stack: list[list] = []     # [layer, child seconds]
        self._saved: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def span(self, layer, fn, *args, counted=True, **kwargs):
        frame = [layer, 0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            # count an exception once per layer, not at every nested span
            if self._last_error.get(layer) is not exc:
                self._last_error[layer] = exc
                self.errors[(layer, type(exc).__name__)] += 1
            raise
        finally:
            dt = perf_counter() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += dt
            self.self_s[layer] += dt - frame[1]
            if counted:
                self.calls[layer] += 1
                self.total_s[layer] += dt

    def run_op(self, call):
        """Run one op as the root span, counting the warnings it emits."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                return self.span("op", call)
            finally:
                self._stack.clear()    # a stopped op can leave spans open
                for w in caught:
                    if w.filename.endswith("dustfield.py"):
                        self.count["dustfield.warnings"] += 1

    # -- wrappers per layer --------------------------------------------------

    def _wrapper(self, layer, fn, name):
        span = self.span
        count = self.count

        if layer == "specfun":
            def wrapped(*a, **k):
                count["specfun.orders_sum"] += a[0] if a else k.get("nmax", 0)
                return span(layer, fn, *a, **k)
        elif layer == "mie":
            def wrapped(*a, **k):
                res = span(layer, fn, *a, **k)
                n_max = getattr(res, "n_max", 0)
                count["mie.orders_sum"] += n_max
                count["mie.nmax_max"] = max(count["mie.nmax_max"], n_max)
                count["mie.unconverged"] += not getattr(res, "converged", True)
                if name == "dustmie.channel.extinction_efficiency_x":
                    count["channel.qext_calls"] += 1
                return res
        elif layer == "quadrature":
            def wrapped(f, *a, **k):
                owner = self._stack[-1][0] if self._stack else "op"

                def integrand(*fa):
                    count["quadrature.evals"] += 1
                    return span(owner, f, *fa, counted=False)
                return span(layer, fn, integrand, *a, **k)
        elif layer == "sweeps":
            def wrapped(table, *a, **k):
                count["sweeps.rows"] += len(table.rows)
                return span(layer, fn, table, *a, **k)
        elif layer == "channel.kdust":
            sig = inspect.signature(fn)

            def wrapped(*a, **k):
                self.kernel_keys[_kernel_key(sig, a, k)] += 1
                return span(layer, fn, *a, **k)
        else:
            def wrapped(*a, **k):
                return span(layer, fn, *a, **k)
        return wrapped

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        for module_name, attr, layer in BOUNDARIES:
            name = f"{module_name}.{attr}"
            try:
                owner = importlib.import_module(module_name)
                *path, last = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, last)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            self._saved.append((owner, last, original))
            setattr(owner, last, self._wrapper(layer, original, name))

    def uninstall(self) -> None:
        for owner, last, original in reversed(self._saved):
            setattr(owner, last, original)
        self._saved.clear()

    # -- metrics ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        c, s = self.calls, self.self_s
        op_s = self.total_s["op"]
        kdust = c["channel.kdust"]
        qext = c["mie"]
        mie_total = self.total_s["mie"]
        keys = {k: n for k, n in self.kernel_keys.items() if k is not None}
        keyed = sum(keys.values())
        repeats = keyed - len(keys)
        quad = c["quadrature"]
        return {
            "specfun.calls": c["specfun"],
            "specfun.orders_sum": self.count["specfun.orders_sum"],
            "specfun.self_s": s["specfun"],
            "specfun.share": s["specfun"] / op_s if op_s else 0.0,
            "mie.qext_calls": qext,
            "mie.self_s": s["mie"],
            "mie.qext_per_s": qext / mie_total if mie_total else 0.0,
            "mie.orders_sum": self.count["mie.orders_sum"],
            "mie.nmax_max": self.count["mie.nmax_max"],
            "mie.unconverged": self.count["mie.unconverged"],
            "mie.errors": sum(n for (layer, _), n in self.errors.items()
                              if layer == "mie"),
            "quadrature.calls": quad,
            "quadrature.evals": self.count["quadrature.evals"],
            "quadrature.evals_per_call": self.count["quadrature.evals"] / quad if quad else 0.0,
            "quadrature.self_s": s["quadrature"],
            "quadrature.failures": self.errors[("quadrature", "QuadratureError")],
            "dustfield.calls": c["dustfield"],
            "dustfield.self_s": s["dustfield"],
            "dustfield.warnings": self.count["dustfield.warnings"],
            "channel.kdust_calls": kdust,
            "channel.kdust_self_s": s["channel.kdust"],
            "channel.slant_calls": c["channel.slant"],
            "channel.slant_self_s": s["channel.slant"],
            "channel.kdust_per_slant": kdust / c["channel.slant"] if c["channel.slant"] else 0.0,
            "channel.qext_per_kdust": self.count["channel.qext_calls"] / kdust if kdust else 0.0,
            "channel.kernel_reuse_share": repeats / keyed if keyed else 0.0,
            "sweeps.format_s": self.total_s["sweeps"],
            "sweeps.rows": self.count["sweeps.rows"],
            "cli.calls": c["cli"],
            "cli.self_s": s["cli"],
            "op.traced_s": op_s,
            "op.self_s": s["op"],
            "trace.absent": len(self.absent),
        }


def _kernel_key(sig, args, kwargs):
    """(f, Ne, T, m, ge_mode, units) of one k_dust call; None if unreadable."""
    try:
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        a = b.arguments
        p = a["particle_template"]
        return (a["w"].frequency, p.electrons, p.temperature, p.refractive_index,
                a["ge_mode"], a["units_mode"])
    except (TypeError, KeyError, AttributeError):
        return None
