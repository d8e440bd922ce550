"""Span tracing of geodisc from outside the package.

:class:`Tracer` replaces public functions and methods of the geodisc modules
with wrappers that record one span per call (name, start, end, parent span)
and restores the originals on :meth:`Tracer.uninstall`.  Nothing under
``src/`` knows about it.  Counts are taken at the same boundaries, so ratios
such as residual evaluations per step are measured where the work happens.

Spans are kept in flat arrays in memory (a free 1e4-step command makes about
300 000 of them) and written out by :meth:`Tracer.save` after the run.
Wrapping ``as_vector`` alone inflates a free step about 1.5x, which is why
tracing stays out of the timed runs.

Step accounting: one call of ``step_residual`` starts one step of the
one-step method.  Work is charged to the step when it runs inside an
``integrate`` or ``symplectic_step`` call after that call's first
``step_residual``, and not inside a ``jacobian_fd``.  Finite-difference
Jacobians of the step residual are counted as Jacobian refreshes instead.
"""
from __future__ import annotations

import functools
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# How the innermost open span relates to the one-step method.
_OUTSIDE, _PRE_STEP, _STEP, _FD = range(4)


class Tracer:
    """Spans and counts for one traced stretch of commands."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.nested = array("b")  # 1 when a span of the same name encloses it
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._modes: list[int] = [_OUTSIDE]
        self._open: Counter[int] = Counter()
        self._patches: list[tuple[object, str, object, bool]] = []

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, on_enter=None, after=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``on_enter(args)`` runs before the span opens and returns the stack
        mode inside it, or None to inherit the enclosing mode.  ``after(args)``
        runs once ``fn`` has returned.
        """
        nid = self._nid(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            mode = on_enter(args) if on_enter is not None else None
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.nested.append(1 if self._open[nid] else 0)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            self._modes.append(self._modes[-1] if mode is None else mode)
            self._open[nid] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self.start[idx] = t0
                self._open[nid] -= 1
                self._modes.pop()
                self._stack.pop()
            if after is not None:
                after(args)
            return result

        return traced

    # -- counting hooks ----------------------------------------------------
    def _count_in_step(self, key):
        def hook(_args):
            if self._modes[-1] == _STEP:
                self.counts[key] += 1

        return hook

    def _enter_integrate(self, _args):
        if self._open[self._nid("control.shoot")]:
            self.counts["integrations_in_shoot"] += 1
        return _PRE_STEP

    def _enter_symplectic_step(self, _args):
        return _PRE_STEP

    def _enter_step_residual(self, _args):
        # The enclosing integrate/symplectic_step frame is now inside a step.
        if self._modes[-1] == _PRE_STEP:
            self._modes[-1] = _STEP
        self.counts["steps"] += 1

    def _enter_jacobian_fd(self, _args):
        if self._modes[-1] == _STEP:
            self.counts["jacobian_refreshes"] += 1
        return _FD

    def _after_csv(self, args):
        self.counts["csv_bytes"] += os.path.getsize(args[0])

    # -- installation ------------------------------------------------------
    def _patch(self, owner, attr: str, replacement, is_item: bool = False):
        original = owner[attr] if is_item else getattr(owner, attr)
        self._patches.append((owner, attr, original, is_item))
        if is_item:
            owner[attr] = replacement
        else:
            setattr(owner, attr, replacement)

    def _replace(self, original, replacement):
        """Point every geodisc module that bound ``original`` by name at ``replacement``."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "geodisc" or modname.startswith("geodisc.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, replacement)

    def install(self) -> None:
        from geodisc import artifacts, checks, cli, control, hamiltonian, jets, lifts, maps, numeric

        def trace(name, original, **hooks):
            self._replace(original, self.wrap(name, original, **hooks))

        in_step = self._count_in_step
        trace("numeric.as_vector", numeric.as_vector, on_enter=in_step("as_vector_step_calls"))
        trace("numeric.jacobian_fd", numeric.jacobian_fd, on_enter=self._enter_jacobian_fd)
        trace("numeric.newton_solve", numeric.newton_solve)
        trace("hamiltonian.integrate", hamiltonian.integrate, on_enter=self._enter_integrate)
        trace("hamiltonian.symplectic_step", hamiltonian.symplectic_step, on_enter=self._enter_symplectic_step)

        step_residual = hamiltonian.step_residual
        residual_hook = in_step("residual_step_evals")

        def traced_residual_factory(*args, **kwargs):
            return self.wrap("hamiltonian.residual", step_residual(*args, **kwargs), on_enter=residual_hook)

        self._replace(
            step_residual,
            self.wrap("hamiltonian.step_residual", traced_residual_factory, on_enter=self._enter_step_residual),
        )
        trace("jets.jet_pushforward", jets.jet_pushforward)
        trace("control.shoot", control.shoot)
        trace("artifacts.write_trajectory_csv", artifacts.write_trajectory_csv, after=self._after_csv)
        trace("artifacts.write_xy_svg", artifacts.write_xy_svg)
        trace("cli.main", cli.main)
        for cls, layer in ((lifts.CotangentLiftedMap, "lifts"), (maps.DiscretizationMap, "maps")):
            for meth in ("forward", "inverse"):
                self._patch(cls, meth, self.wrap(f"{layer}.{meth}", getattr(cls, meth)))
        for suite, f in list(checks.SUITES.items()):
            self._patch(checks.SUITES, suite, self.wrap(f"checks.{suite}", f), is_item=True)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, is_item = self._patches.pop()
            if is_item:
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- results -------------------------------------------------------------
    def _arrays(self):
        nid = np.frombuffer(self.name_id, dtype=np.int32) if len(self.name_id) else np.zeros(0, np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64) if len(self.parent) else np.zeros(0, np.int64)
        start = np.frombuffer(self.start, dtype=np.float64) if len(self.start) else np.zeros(0)
        end = np.frombuffer(self.end, dtype=np.float64) if len(self.end) else np.zeros(0)
        nested = np.frombuffer(self.nested, dtype=np.int8) if len(self.nested) else np.zeros(0, np.int8)
        return nid, parent, start, end, nested

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` (time inside the outermost
        spans of that name) and ``self_s`` (duration minus child spans)."""
        nid, parent, start, end, nested = self._arrays()
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        selft = dur - child
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=np.where(nested == 0, dur, 0.0), minlength=k)
        self_total = np.bincount(nid, weights=selft, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_total[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path: str) -> None:
        """Write every span (name table, name index, parent, start, end) to ``path`` (.npz)."""
        nid, parent, start, end, _ = self._arrays()
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), name_id=nid, parent=parent, start=start, end=end
        )
