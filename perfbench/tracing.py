"""Spans around the package's public functions, installed from outside.

The traced pass replaces each target function on every ``minecon`` module
attribute that holds it (``minecon.growth.adaptive_simpson`` as well as
``minecon.quadrature.adaptive_simpson``), so callers that look the name up
at call time reach the wrapper; ``uninstall`` restores the originals.
Spans live in memory as ``[layer, start, end, parent, job, excluded]``;
``excluded`` is the wrapper bookkeeping charged to a span's interval, which
self time leaves out.
"""

import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

WRAPPED = "__perfbench_wrapped__"


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = -1
        self.counts = Counter()
        self.maxima = defaultdict(float)
        self._installed = []

    # -- wrapping -------------------------------------------------------

    def _wrap(self, layer, fn, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(tracer, args, kwargs)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [layer, 0.0, 0.0, parent, tracer.job, 0.0]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            failure = None
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                failure, result = exc, None
                raise
            finally:
                span[2] = perf_counter()
                tracer.stack.pop()
                if after is not None:
                    after(tracer, args, kwargs, result, failure)
                    if parent >= 0:
                        tracer.spans[parent][5] += perf_counter() - span[2]
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        setattr(wrapper, WRAPPED, layer)
        return wrapper

    def install(self, targets):
        """Wrap each (module, name, layer, before, after) target."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "minecon" or n.startswith("minecon."))
                   and m is not None]
        missing = []
        for module_name, name, layer, before, after in targets:
            original = getattr(sys.modules.get(module_name), name, None)
            if original is None:
                missing.append(f"{module_name}.{name}")
                continue
            wrapper = self._wrap(layer, original, before, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._installed.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return missing

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()


def installed_wrappers() -> list:
    """Names of minecon attributes that currently hold a tracing wrapper."""
    found = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "minecon"
                                  or name.startswith("minecon.")):
            continue
        for attr, value in vars(module).items():
            if getattr(value, WRAPPED, None) is not None:
                found.append(f"{name}.{attr}")
    return found


# -- per-target hooks ------------------------------------------------------


def _count_integrand(tracer, args, kwargs):
    # adaptive_simpson(f, a, b, ...): count every node the integrand sees
    f = args[0] if args else kwargs["f"]

    def counted(x):
        tracer.counts["quadrature.nodes"] += int(np.size(x))
        return f(x)

    if args:
        args = (counted,) + tuple(args[1:])
    else:
        kwargs = dict(kwargs, f=counted)
    return args, kwargs


def _quadrature_error(tracer, args, kwargs, result, failure):
    rel_tol = kwargs.get("rel_tol", args[3] if len(args) > 3 else 1e-10)
    abs_tol = kwargs.get("abs_tol", args[4] if len(args) > 4 else 0.0)
    if failure is not None:
        value = getattr(failure, "best_estimate", None)
        error = getattr(failure, "achieved_error", None)
    elif result is not None:
        value, error = result
    else:
        return
    if value is None or error is None:
        return
    requested = max(abs_tol, rel_tol * abs(value))
    if requested > 0:
        ratio = error / requested
        tracer.maxima["quadrature.err_ratio_max"] = max(
            tracer.maxima["quadrature.err_ratio_max"], ratio)


def _count_result(key):
    def after(tracer, args, kwargs, result, failure):
        if result is not None:
            tracer.counts[key] += int(np.size(result))
    return after


def _count_masses(tracer, args, kwargs, result, failure):
    if result is not None:
        tracer.counts["rewarddist.pmf_masses"] += len(result.masses)


def _binomial_stats(tracer, args, kwargs, result, failure):
    trials = args[1] if len(args) > 1 else kwargs["trials"]
    trials = np.asarray(trials)
    tracer.counts["mcsim.binomial.draws"] += int(trials.size)
    if trials.size:
        distinct = int(np.count_nonzero(np.bincount(trials)))
        tracer.maxima["mcsim.binomial.distinct_counts"] = max(
            tracer.maxima["mcsim.binomial.distinct_counts"], distinct)


_WAITING = ("waiting_cdf", "waiting_pdf", "expected_wait", "wait_variance",
            "bankruptcy_horizon", "bankruptcy_probability")

TARGETS = (
    [("minecon.quadrature", "adaptive_simpson", "quadrature",
      _count_integrand, _quadrature_error),
     ("minecon.specfun", "exp_integral_ei", "specfun.ei", None, None),
     ("minecon.growth", "stochastic_growth_rate", "growth.rate", None, None),
     ("minecon.growth", "conditional_reward", "growth.cond_reward",
      None, None),
     ("minecon.growth", "smooth_growth_rate", "growth.smooth", None, None),
     ("minecon.growth", "optimize_gamma", "growth.optimize", None, None),
     ("minecon.growth", "min_viable_wealth", "growth.wmin", None, None),
     ("minecon.growth", "max_pool_fee", "growth.fee", None, None),
     ("minecon.rewarddist", "total_reward_pmf", "rewarddist.total_pmf",
      None, _count_masses),
     ("minecon.rewarddist", "epoch_reward_pmf", "rewarddist.epoch_pmf",
      None, None),
     ("minecon.rewarddist", "variance_paper", "rewarddist.variance",
      None, None),
     ("minecon.rewarddist", "variance_thinned", "rewarddist.variance",
      None, None)]
    + [("minecon.waiting", name, "waiting", None, None) for name in _WAITING]
    + [("minecon.mcsim", "poisson_sample", "mcsim.poisson", None,
        _count_result("mcsim.poisson.draws")),
       ("minecon.mcsim", "binomial_sample", "mcsim.binomial", None,
        _binomial_stats),
       ("minecon.mcsim", "exponential_sample", "mcsim.exponential", None,
        _count_result("mcsim.exponential.draws")),
       ("minecon.mcsim", "simulate_epochs", "mcsim.simulate_epochs",
        None, None),
       ("minecon.mcsim", "estimate_first_win_time", "mcsim.first_win",
        None, None),
       ("minecon.mcsim", "round_oracle", "mcsim.round_oracle", None, None),
       ("minecon.mcsim", "round_payoffs", "mcsim.round_oracle", None, None),
       ("minecon.mcsim", "simulate_wealth_path", "mcsim.wealth_path",
        None, None),
       ("minecon.cli", "main", "cli", None, None)]
)

# every layer a traced pass must reach; the tour gives each workload one
# job of every command, so the set is the same for all three
LAYERS = sorted({target[2] for target in TARGETS})


def layer_metrics(tracer: Tracer, job_metrics: list) -> tuple:
    """(per-layer metrics, calls per wrapped layer) from one traced pass.

    job_metrics[i] is the per-command metric name of job i, used to find
    the `optimize --wmin` jobs.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for layer, start, end, parent, job, excluded in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = Counter()
    self_s = defaultdict(float)
    inclusive = defaultdict(float)
    for i, (layer, start, end, parent, job, excluded) in enumerate(spans):
        calls[layer] += 1
        inclusive[layer] += end - start
        self_s[layer] += end - start - child_time[i] - excluded

    def nearest(i, layer):
        i = spans[i][3]
        while i >= 0 and spans[i][0] != layer:
            i = spans[i][3]
        return i

    rate_in_optimize = sum(
        1 for i, span in enumerate(spans)
        if span[0] == "growth.rate" and nearest(i, "growth.optimize") >= 0)
    sweeps = sum(1 for span in spans if span[0] == "mcsim.poisson"
                 and span[3] >= 0 and spans[span[3]][0] == "mcsim.first_win")
    wmin_jobs = {i for i, m in enumerate(job_metrics) if m == "wmin_s"}
    wmin_optimize = sum(1 for span in spans
                        if span[0] == "growth.optimize" and span[4] in wmin_jobs)

    def per(numerator, denominator, scale=1.0):
        return scale * numerator / denominator if denominator else 0.0

    counts, maxima = tracer.counts, tracer.maxima
    return {
        "quadrature.calls": calls["quadrature"],
        "quadrature.self_s": self_s["quadrature"],
        "quadrature.nodes": counts["quadrature.nodes"],
        "quadrature.err_ratio_max": maxima["quadrature.err_ratio_max"],
        "specfun.ei.calls": calls["specfun.ei"],
        "specfun.ei.self_s": self_s["specfun.ei"],
        "growth.rate.calls": calls["growth.rate"],
        "growth.rate.self_s": self_s["growth.rate"],
        "growth.cond_reward.calls": calls["growth.cond_reward"],
        "growth.cond_reward.self_s": self_s["growth.cond_reward"],
        "growth.smooth.calls": calls["growth.smooth"],
        "growth.smooth.self_s": self_s["growth.smooth"],
        "growth.optimize.calls": calls["growth.optimize"],
        "growth.optimize.self_s": self_s["growth.optimize"],
        "growth.optimize.evals_per_call": per(rate_in_optimize,
                                              calls["growth.optimize"]),
        "growth.wmin.optimize_calls": per(wmin_optimize, len(wmin_jobs)),
        "rewarddist.total_pmf.calls": calls["rewarddist.total_pmf"],
        "rewarddist.total_pmf.self_s": self_s["rewarddist.total_pmf"],
        "rewarddist.epoch_pmf.calls": calls["rewarddist.epoch_pmf"],
        "rewarddist.pmf_masses": counts["rewarddist.pmf_masses"],
        "rewarddist.variance.self_s": self_s["rewarddist.variance"],
        "waiting.self_s": self_s["waiting"],
        "mcsim.poisson.draws": counts["mcsim.poisson.draws"],
        "mcsim.poisson.ns_per_draw": per(inclusive["mcsim.poisson"],
                                         counts["mcsim.poisson.draws"], 1e9),
        "mcsim.binomial.draws": counts["mcsim.binomial.draws"],
        "mcsim.binomial.ns_per_draw": per(inclusive["mcsim.binomial"],
                                          counts["mcsim.binomial.draws"],
                                          1e9),
        "mcsim.binomial.distinct_counts":
            maxima["mcsim.binomial.distinct_counts"],
        "mcsim.exponential.draws": counts["mcsim.exponential.draws"],
        "mcsim.exponential.ns_per_draw": per(
            inclusive["mcsim.exponential"],
            counts["mcsim.exponential.draws"], 1e9),
        "mcsim.simulate_epochs.self_s": self_s["mcsim.simulate_epochs"],
        "mcsim.first_win.self_s": self_s["mcsim.first_win"],
        "mcsim.first_win.sweeps": sweeps,
        "mcsim.round_oracle.self_s": self_s["mcsim.round_oracle"],
        "mcsim.wealth_path.calls": calls["mcsim.wealth_path"],
        "mcsim.wealth_path.self_s": self_s["mcsim.wealth_path"],
        "cli.self_s": self_s["cli"],
    }, {layer: calls[layer] for layer in LAYERS}
