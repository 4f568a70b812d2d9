"""In-memory span tracer for the geovar benchmark.

A traced pass replaces each public function of a geovar module at the
attribute its caller looks up (``cli.solve``, ``solver.fd_jacobian``,
``ocp.full_residual``, ``discrete.dep_step``, ``CayleyRetraction.tau_inv``,
...) with a wrapper that records one span per call.  A span carries its
name, start, end, parent span and run id; the spans stay in compact arrays
until :meth:`Tracer.write` saves them.  Nothing is installed outside
:meth:`Tracer.installed`, so untraced passes run the unmodified program.

Layer figures are computed from the spans afterwards: a span's self time is
its duration minus the durations of its direct children, and a layer's self
time is the sum over the spans whose name starts with ``<layer>.``.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("cli", "solver", "ocp", "discrete", "models", "retraction", "groups")

# (module attribute, span name); the span name's prefix is the layer.
_MODULE_FUNCTIONS = {
    "solver": ["fd_jacobian"],
    "ocp": [
        "full_residual", "closure_residual", "refine_guess", "initial_guess",
        "solution_path", "scatter", "assemble_unknowns", "make_residual_fn",
    ],
    "discrete": [
        "dlp_k_residual", "group_chain_residual", "reconstruct", "dep_step",
        "dep_solve_path", "dep_residual", "discrete_momentum",
    ],
    "groups": [
        "hat", "vee", "identity", "check_matrix", "inverse_matrix",
        "ad_matrix", "Ad_matrix", "so3_polar_project", "orthogonality_defect",
        "renormalize",
    ],
    "cli": ["load_config", "write_trajectory", "write_diagnostics"],
}
# Factories whose returned closures are the model callbacks.
_MODEL_FACTORIES = [
    "se2_ltilde", "se2_phi", "se2_d_ltilde", "se2_d_phi",
    "ball_ltilde", "ball_phi", "ball_d_ltilde", "ball_d_phi",
]
_RETRACTION_METHODS = {
    "CayleyRetraction": ["tau", "tau_inv", "_guard", "dtau_matrix", "dtau_inv_matrix"],
    "Retraction": ["dtau", "dtau_inv", "dtau_inv_star"],
}


class Tracer:
    """Collects spans for the operations of one benchmark run."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._run = 0
        self.solve_results = []

    # -- recording -------------------------------------------------------
    def _nid(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn):
        """Return ``fn`` recording one span named ``name`` per call."""
        nid = self._nid(name)
        stack = self._stack
        name_id, parent, run_id = self.name_id, self.parent, self.run_id
        start, end = self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            run_id.append(self._run)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def root(self, run, fn, *args):
        """Call ``fn(*args)`` as the root span ``cli.main`` of run ``run``."""
        self._run = run
        return self.wrap("cli.main", fn)(*args)

    # -- installation ----------------------------------------------------
    @contextmanager
    def installed(self, geovar):
        """Wrap the geovar modules' public functions for the duration."""
        saved = []

        def patch(owner, attr, new):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        def patch_factory(owner, attr, name):
            factory = owner.__dict__[attr]

            @functools.wraps(factory)
            def make(*args, **kwargs):
                return self.wrap(name, factory(*args, **kwargs))

            patch(owner, attr, make)

        cli, ocp, models = geovar.cli, geovar.ocp, geovar.models
        for module_name, attrs in _MODULE_FUNCTIONS.items():
            module = getattr(geovar, module_name)
            for attr in attrs:
                patch(module, attr, self.wrap(f"{module_name}.{attr}", getattr(module, attr)))
        patch(cli, "solve", capture_solves(self.wrap("solver.solve", cli.solve), self.solve_results))
        patch(ocp, "discretize", self._wrap_discretize(ocp.discretize))
        for attr in _MODEL_FACTORIES:
            patch_factory(models, attr, f"models.{attr.split('_', 1)[1]}")
        body = models.FreeRigidBody
        patch_factory(body, "lhat_grad", "models.lhat_grad")
        patch_factory(body, "pair_eval", "models.pair_eval")
        patch(body, "energy", self.wrap("models.energy", body.energy))
        for cls_name, methods in _RETRACTION_METHODS.items():
            cls = getattr(geovar.retraction, cls_name)
            for attr in methods:
                patch(cls, attr, self.wrap(f"retraction.{attr}", cls.__dict__[attr]))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrap_discretize(self, discretize):
        traced = self.wrap("ocp.discretize", discretize)

        def stencil(fn):
            return None if fn is None else self.wrap("ocp.stencil", fn)

        @functools.wraps(discretize)
        def with_stencils(prob):
            Ld, Phi = traced(prob)
            Ld = dataclasses.replace(Ld, eval=stencil(Ld.eval), d_eval=stencil(Ld.d_eval))
            Phi = dataclasses.replace(Phi, eval=stencil(Phi.eval), d_eval=stencil(Phi.d_eval))
            return Ld, Phi

        return with_stencils

    # -- analysis --------------------------------------------------------
    def arrays(self):
        """Spans as numpy arrays: names, name ids, parents, run ids, durations, self times."""
        nid = _copy(self.name_id, np.int32)
        parent = _copy(self.parent, np.int32)
        dur = _copy(self.end, np.float64) - _copy(self.start, np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return nid, parent, dur, dur - child

    def write(self, path):
        """Save every span (name, start, end, parent, run id) to ``path`` (.npz)."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=_copy(self.name_id, np.int32),
            parent=_copy(self.parent, np.int32),
            run_id=_copy(self.run_id, np.int32),
            start=_copy(self.start, np.float64),
            end=_copy(self.end, np.float64),
        )


def capture_solves(solve, results):
    """Return ``solve`` appending ``(SolveResult, tol)`` of each call to ``results``."""

    @functools.wraps(solve)
    def capture(fn, x0, cfg):
        result = solve(fn, x0, cfg)
        results.append((result, cfg.tol_residual))
        return result

    return capture


def _copy(values, dtype):
    # A copy, so the array stays appendable (a live view would pin its buffer).
    return np.frombuffer(values, dtype=dtype).copy()


class SpanTable:
    """Sums over recorded spans, by span name and by layer."""

    def __init__(self, tracer):
        self.names = tracer.names
        self.nid, self.parent, self.dur, self.self_time = tracer.arrays()
        self._ids = {name: i for i, name in enumerate(self.names)}

    def _mask(self, names):
        ids = [self._ids[n] for n in names if n in self._ids]
        return np.isin(self.nid, ids)

    def count(self, *names):
        return int(self._mask(names).sum())

    def total(self, *names):
        """Summed duration of the named spans, skipping those whose parent is also named."""
        mask = self._mask(names)
        outer = mask.copy()
        has_parent = self.parent >= 0
        outer[has_parent] &= ~mask[self.parent[has_parent]]
        return float(self.dur[outer].sum())

    def count_with_parent(self, name, parent_name):
        mask = self._mask([name])
        parent_mask = self._mask([parent_name])
        has_parent = self.parent >= 0
        inside = np.zeros_like(mask)
        inside[has_parent] = parent_mask[self.parent[has_parent]]
        return int((mask & inside).sum())

    def layer_self(self, layer):
        ids = [i for i, n in enumerate(self.names) if n.split(".", 1)[0] == layer]
        return float(self.self_time[np.isin(self.nid, ids)].sum())
