"""In-memory span recorder for the traced run, and the per-layer metrics.

`Tracer.install` replaces every public module-level function of the package
at every place it is bound -- module globals such as `lpm.solve_2d` (solvers'
function imported into lpm) or `lpm.solve_lpm` (reached from cvar as
`cvar.lpm.solve_lpm`), and dict tables such as the CLI command table -- with
a wrapper that records one span: binding site, parent span, start, end, a
work count, an evaluation count and flags.  `uninstall` puts the original
objects back.  No file of the program is modified.

Spans live in flat typed arrays so a pass with a million kernel calls stays
at a few tens of megabytes; `save` writes them out once the run ends.
Layers are the package's modules; a span belongs to the module that defines
the called function, whichever module it was called through.
"""
from __future__ import annotations

import sys
import time
import types
from array import array
from contextlib import contextmanager

import numpy as np

FAILED = 1
ARRAY = 2

class _Counter:
    """Counts calls of a callback handed to a solver."""

    __slots__ = ("fn", "calls")

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


def _shape(args) -> tuple[int, int]:
    """(work, flags) of a kernel call: largest argument size, ARRAY if any is one."""
    size, flags = 1, 0
    for a in args:
        if isinstance(a, np.ndarray) and a.ndim > 0:
            size, flags = max(size, a.size), ARRAY
    return size, flags


def _iterations(report) -> int:
    return int(getattr(report, "iterations", 0) or 0)


def _hook_for(layer: str, name: str):
    """Optional (before, after) pair for functions with counts to record.

    before(args) returns (args, state); after(args, result, exc, state)
    returns (work, evals, flags).
    """
    if layer == "kernels":

        def after(args, result, exc, state):
            work, flags = _shape(args)
            return work, 0, flags

        return None, after
    if layer == "solvers" and name in ("find_root_1d", "solve_2d", "minimize_scalar_convex"):

        def before(args):
            counter = _Counter(args[0])
            return (counter, *args[1:]), counter

        def after(args, result, exc, counter):
            report = result if exc is None else getattr(exc, "report", None)
            return _iterations(report), counter.calls, 0

        return before, after
    if layer == "simplex" and name == "solve_dense":
        return None, lambda args, result, exc, state: (
            (0 if exc is not None else int(result.iterations)),
            0,
            0,
        )
    if layer == "montecarlo" and name in ("simulate_deflator", "run_policy"):

        def after(args, result, exc, state):
            if exc is not None:
                return 0, 0, 0
            paths, steps, assets = result.n_paths, result.n_steps, args[0].n_assets
            if name == "simulate_deflator":
                # log_z and z_paths, plus one increment block per step
                floats = paths * (2 * (steps + 1) + steps * assets)
            else:
                # x_paths, plus policy, increment and wealth blocks per step
                floats = paths * ((steps + 1) + steps * (2 * assets + 1))
            return paths * steps, 8 * floats, 0

        return None, after
    if layer == "baseline" and name == "generate_scenarios":
        return None, lambda args, result, exc, state: (
            (0 if exc is not None else result.n_scenarios),
            0,
            0,
        )
    if layer == "lpm" and name in ("policy", "wealth"):
        return None, lambda args, result, exc, state: (int(np.size(args[2])), 0, 0)
    return None


class Tracer:
    """Flat span store plus the wrappers that feed it."""

    def __init__(self):
        self.sites: list[str] = []  # binding site, e.g. "lpm.solve_2d"
        self.functions: list[str] = []  # called function, e.g. "solvers.solve_2d"
        self.parent = array("i")
        self.site = array("I")
        self.t0 = array("d")
        self.t1 = array("d")
        self.work = array("q")
        self.evals = array("q")
        self.flags = array("B")
        self._stack = [-1]
        self._undo: list[tuple] = []  # (container, key, original, is_module)

    # ---------------------------------------------------------------- spans

    def new_site(self, site: str, function: str) -> int:
        self.sites.append(site)
        self.functions.append(function)
        return len(self.sites) - 1

    def open(self, site: int) -> int:
        sid = len(self.t0)
        self.parent.append(self._stack[-1])
        self.site.append(site)
        self.t1.append(0.0)
        self.work.append(0)
        self.evals.append(0)
        self.flags.append(0)
        self._stack.append(sid)
        self.t0.append(time.perf_counter())
        return sid

    def close(self, sid: int, work: int = 0, evals: int = 0, flags: int = 0) -> None:
        self.t1[sid] = time.perf_counter()
        self._stack.pop()
        if work:
            self.work[sid] = work
        if evals:
            self.evals[sid] = evals
        if flags:
            self.flags[sid] = flags

    @contextmanager
    def span(self, site: int):
        sid = self.open(site)
        try:
            yield sid
        except BaseException:
            self.close(sid, flags=FAILED)
            raise
        self.close(sid)

    def __len__(self) -> int:
        return len(self.t0)

    # ------------------------------------------------------------- wrapping

    def _wrap(self, fn, site: int, hook):
        open_, close = self.open, self.close
        if hook is None:

            def traced(*args, **kwargs):
                sid = open_(site)
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    close(sid, flags=FAILED)
                    raise
                close(sid)
                return result

        else:
            before, after = hook

            def traced(*args, **kwargs):
                state = None
                if before is not None:
                    args, state = before(args)
                sid = open_(site)
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    work, evals, flags = after(args, None, exc, state)
                    close(sid, work, evals, flags | FAILED)
                    raise
                work, evals, flags = after(args, result, None, state)
                close(sid, work, evals, flags)
                return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str) -> int:
        """Wrap every binding site of the package's public functions.

        Returns the number of sites wrapped.  All sites are collected before
        any is replaced, so each wrapper calls the original function.
        """
        if self._undo:
            raise RuntimeError("tracer already installed")
        found = []
        for modname, module in sorted(sys.modules.items()):
            if module is None or not (modname == package or modname.startswith(package + ".")):
                continue
            where = modname.rpartition(".")[2] if modname != package else package
            for attr, value in list(vars(module).items()):
                if _is_target(value, package):
                    found.append((module, attr, value, f"{where}.{attr}", True))
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in value.items():
                        if _is_target(item, package):
                            found.append((value, key, item, f"{where}.{attr}[{key}]", False))
        for container, key, fn, site_name, is_module in found:
            layer = fn.__module__.rpartition(".")[2]
            site = self.new_site(site_name, f"{layer}.{fn.__name__}")
            hook = _hook_for(layer, fn.__name__)
            wrapped = self._wrap(fn, site, hook)
            if is_module:
                setattr(container, key, wrapped)
            else:
                container[key] = wrapped
            self._undo.append((container, key, fn, is_module))
        return len(found)

    def uninstall(self) -> None:
        while self._undo:
            container, key, fn, is_module = self._undo.pop()
            if is_module:
                setattr(container, key, fn)
            else:
                container[key] = fn

    # --------------------------------------------------------------- output

    def arrays(self) -> dict:
        n = len(self.t0)
        return {
            "parent": np.frombuffer(self.parent, dtype=np.int32, count=n),
            "site": np.frombuffer(self.site, dtype=np.uint32, count=n),
            "t0": np.frombuffer(self.t0, dtype=np.float64, count=n),
            "t1": np.frombuffer(self.t1, dtype=np.float64, count=n),
            "work": np.frombuffer(self.work, dtype=np.int64, count=n),
            "evals": np.frombuffer(self.evals, dtype=np.int64, count=n),
            "flags": np.frombuffer(self.flags, dtype=np.uint8, count=n),
        }

    def save(self, path) -> None:
        """Write spans and the site table to an .npz file."""
        np.savez(
            path,
            sites=np.array(self.sites),
            functions=np.array(self.functions),
            **self.arrays(),
        )


def _is_target(value, package: str) -> bool:
    return (
        isinstance(value, types.FunctionType)
        and (value.__module__ or "").startswith(package + ".")
        and not value.__name__.startswith("_")
        and "." not in value.__qualname__
    )


# ------------------------------------------------------------------ metrics


def self_times(parent: np.ndarray, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
    """Span duration minus the durations of its direct children.

    Spans of one thread nest, so the children of a span are disjoint
    sub-intervals of it and their summed durations are the part they cover.
    """
    duration = t1 - t0
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child], minlength=duration.size)
    return duration - covered


def has_ancestor(parent: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """True where some proper ancestor of the span is in `mask`."""
    found = np.zeros(parent.size, dtype=bool)
    up = parent.copy()
    live = up >= 0
    while live.any():
        idx = np.nonzero(live)[0]
        found[idx] |= mask[up[idx]]
        up[idx] = parent[up[idx]]
        live = up >= 0
    return found


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(spans: dict, functions: list[str]) -> dict[str, float]:
    """Per-layer metrics from a span table (see perfbench/metrics.json)."""
    parent, t0, t1 = spans["parent"], spans["t0"], spans["t1"]
    work, evals, flags = spans["work"], spans["evals"], spans["flags"]
    sites = spans["site"]
    # one extra entry stands for the missing parent of root spans
    fn_names = functions + ["bench.none"]
    layers = [f.partition(".")[0] for f in fn_names]
    up = np.where(parent >= 0, sites[np.maximum(parent, 0)], len(functions))
    dur = t1 - t0
    own = self_times(parent, t0, t1)

    # lookups go through per-site tables so no per-span string array is built
    def is_fn(*names, of=sites):
        return np.array([f in names for f in fn_names])[of]

    def in_layer(name, of=sites):
        return np.array([layer == name for layer in layers])[of]

    def self_s(name):
        return float(own[in_layer(name)].sum())

    out: dict[str, float] = {}
    kernel_entry = in_layer("kernels") & ~in_layer("kernels", of=up)
    is_array = (flags & ARRAY) != 0
    inverts = is_fn("kernels.invert_K", "kernels.invert_H1")
    invert_evals = is_fn("kernels.invert_K", "kernels.invert_H1", of=up) & in_layer("kernels")
    out["kernels.scalar_calls"] = int((kernel_entry & ~is_array).sum())
    out["kernels.array_calls"] = int((kernel_entry & is_array).sum())
    out["kernels.self_s"] = self_s("kernels")
    out["kernels.invert_calls"] = int(inverts.sum())
    out["kernels.evals_per_invert"] = _ratio(invert_evals.sum(), inverts.sum())
    out["kernels.invert_s"] = float(dur[inverts].sum())

    root = is_fn("solvers.find_root_1d")
    newton = is_fn("solvers.solve_2d")
    golden = is_fn("solvers.minimize_scalar_convex")
    out["solvers.root_1d_calls"] = int(root.sum())
    out["solvers.root_1d_iterations"] = int(work[root].sum())
    out["solvers.newton_2d_calls"] = int(newton.sum())
    out["solvers.newton_2d_iterations"] = int(work[newton].sum())
    out["solvers.newton_2d_raised"] = int((newton & ((flags & FAILED) != 0)).sum())
    out["solvers.golden_evals"] = int(evals[golden].sum())
    out["solvers.self_s"] = self_s("solvers")

    solve = is_fn("lpm.solve_lpm")
    regular = np.zeros(parent.size, dtype=bool)
    fallback = np.zeros(parent.size, dtype=bool)
    under_solve = is_fn("lpm.solve_lpm", of=up)
    regular[parent[under_solve & newton]] = True
    fallback[parent[under_solve & root]] = True
    policy, wealth = is_fn("lpm.policy"), is_fn("lpm.wealth")
    out["lpm.solve_calls"] = int(solve.sum())
    out["lpm.solve_failed"] = int((solve & ((flags & FAILED) != 0)).sum())
    out["lpm.newton_accept_ratio"] = _ratio((regular & ~fallback).sum(), regular.sum())
    out["lpm.self_s"] = self_s("lpm")
    out["lpm.policy_s"] = float(dur[policy].sum())
    out["lpm.wealth_s"] = float(dur[wealth].sum())
    out["lpm.policy_points"] = int(work[policy].sum())

    out["market.deflator_moments_calls"] = int(is_fn("market.deflator_moments").sum())
    out["market.self_s"] = self_s("market")

    cvar_solve = is_fn("cvar.solve_cvar")
    embedded = solve & has_ancestor(parent, cvar_solve)
    out["cvar.solve_calls"] = int(cvar_solve.sum())
    out["cvar.embedded_solves"] = int(embedded.sum())
    out["cvar.embedded_per_solve"] = _ratio(embedded.sum(), cvar_solve.sum())
    out["cvar.self_s"] = self_s("cvar")

    out["meanvar.solve_calls"] = int(is_fn("meanvar.solve_mv").sum())
    out["meanvar.self_s"] = self_s("meanvar")

    simulate = is_fn("montecarlo.simulate_deflator")
    run_policy = is_fn("montecarlo.run_policy")
    estimates = is_fn("montecarlo.estimate_mean", "montecarlo.estimate_lpm", "montecarlo.estimate_cvar")
    out["montecarlo.path_steps"] = int(work[simulate].sum())
    out["montecarlo.simulate_s"] = float(dur[simulate].sum())
    out["montecarlo.run_policy_self_s"] = float(own[run_policy].sum())
    out["montecarlo.estimate_s"] = float(dur[estimates].sum())
    out["montecarlo.bytes_computed"] = int(evals[simulate | run_policy].sum())

    scenarios = is_fn("baseline.generate_scenarios")
    dense = is_fn("simplex.solve_dense")
    out["baseline.scenarios"] = int(work[scenarios].sum())
    out["baseline.scenarios_s"] = float(dur[scenarios].sum())
    out["baseline.self_s"] = self_s("baseline")
    out["simplex.solve_calls"] = int(dense.sum())
    out["simplex.pivots"] = int(work[dense].sum())
    out["simplex.pivots_per_scenario"] = _ratio(work[dense].sum(), work[scenarios].sum())
    out["simplex.self_s"] = self_s("simplex")

    out["cli.load_config_s"] = float(dur[is_fn("cli.load_config")].sum())
    out["cli.self_s"] = self_s("cli")
    return out
