"""Spans around the package's layer boundaries, installed from outside it.

The tracer replaces functions and methods of ``deltaresolvent`` (and the
numpy/scipy FFT and dense-solve kernels the package calls) with wrappers
that record one span per call: name, start, end, parent span and the
benchmark call it belongs to.  Spans stay in memory; ``write`` dumps them
when the run ends.  ``uninstall`` puts every original object back.

Functions are patched at every binding that holds them: a module that
imported a function by name (``from .blocks import invert_lambda``) keeps
its own reference, which patching only the defining module would miss.
"""

import inspect
import json
import sys
import time

import numpy as np


def merged_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Self time of every span: its duration minus what its children cover.

    ``spans`` is a sequence of records with ``sid``, ``start``, ``end`` and
    ``parent`` (the parent's sid or None).  Returns {sid: seconds}.
    """
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.sid: (s.end - s.start) - merged_length(children.get(s.sid, ()))
            for s in spans}


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "call_id", "nbytes")

    def __init__(self, sid, name, start, parent, call_id):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.call_id = call_id
        self.nbytes = 0

    def as_dict(self):
        return {"sid": self.sid, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "call_id": self.call_id, "nbytes": self.nbytes}


_FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
              "rfft", "irfft", "rfftn", "irfftn")
# Dense kernels whose call is one factorization of a matrix.
FACTORIZING = ("linalg.np_solve", "linalg.solve", "linalg.lu_factor")


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "deltaresolvent"
                                  or name.startswith("deltaresolvent."))]


class Tracer:
    """Records spans in memory while installed; restores everything after."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.call_id = None
        self.missing = []
        self._stack = []
        self._patches = []

    # -- recording ------------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, self.clock(), parent, self.call_id)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError("span stack out of order at %s" % span.name)

    def wrap(self, name, fn):
        """Wrapper recording a span per call; ``name`` may be a callable of args."""
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name(args) if callable(name) else name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        traced.__wrapped__ = fn
        return traced

    def _wrap_fft(self, fn):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open("fft")
            try:
                out = fn(*args, **kwargs)
                span.nbytes = np.asarray(args[0]).nbytes + out.nbytes
                return out
            finally:
                tracer.close(span)

        traced.__wrapped__ = fn
        return traced

    def _wrap_factory(self, name, factory):
        """Wrap a function returning an operator so each application is a span."""
        tracer = self

        def traced(*args, **kwargs):
            return tracer.wrap(name, factory(*args, **kwargs))

        traced.__wrapped__ = factory
        return traced

    def _wrap_lanczos(self, fn):
        """Count Lanczos steps as applications of the ``solve`` argument."""
        tracer = self
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            if "solve" in bound.arguments:
                bound.arguments["solve"] = tracer.wrap(
                    "grid.lowest_eigenvalues.step", bound.arguments["solve"])
            span = tracer.open("grid.lowest_eigenvalues")
            try:
                return fn(*bound.args, **bound.kwargs)
            finally:
                tracer.close(span)

        traced.__wrapped__ = fn
        return traced

    # -- patching -------------------------------------------------------------

    def _set(self, owner, attr, value):
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, value)

    def patch_function(self, module, attr, make_wrapper):
        """Patch a function in its module and at every package binding of it."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append("%s.%s" % (module.__name__, attr))
            return
        wrapper = make_wrapper(original)
        owners = {id(m): m for m in [module, *_package_modules()]}
        for owner in owners.values():
            for key, value in list(vars(owner).items()):
                if value is original:
                    self._set(owner, key, wrapper)

    def patch_method(self, cls, attr, name):
        """Patch a method on one class, with any alias in its own namespace."""
        original = getattr(cls, attr, None)
        if original is None:
            self.missing.append("%s.%s" % (cls.__name__, attr))
            return
        wrapper = self.wrap(name, original)
        self._set(cls, attr, wrapper)
        for key, value in list(vars(cls).items()):
            if key != attr and value is original:
                self._set(cls, key, wrapper)

    def install(self):
        """Wrap every traced boundary of the package and its kernels."""
        import scipy.fft
        import scipy.linalg

        from deltaresolvent import blocks, bump, forms, grid, resolvent

        for module in (np.fft, scipy.fft):
            for attr in _FFT_NAMES:
                self.patch_function(module, attr, self._wrap_fft)
        self.patch_function(np.linalg, "solve",
                            lambda f: self.wrap("linalg.np_solve", f))
        for attr in ("solve", "lu_factor", "lu_solve"):
            self.patch_function(scipy.linalg, attr,
                                lambda f, a=attr: self.wrap("linalg." + a, f))

        functions = [
            (grid, "pair_frame_forward", "grid.pair_frame_forward"),
            (grid, "pair_frame_adjoint", "grid.pair_frame_adjoint"),
            (grid, "solve_shifted", "grid.solve_shifted"),
            (bump, "build_hamiltonian", "bump.build_hamiltonian"),
            (blocks, "invert_lambda", "blocks.invert_lambda"),
            (blocks, "materialize_diagonal_slices", "blocks.materialize_slices"),
            (forms, "apply_trace", "forms.apply_trace"),
            (forms, "trace_adjoint", "forms.trace_adjoint"),
            (resolvent, "ground_energy", "resolvent.ground_energy"),
        ]
        for module, attr, name in functions:
            self.patch_function(module, attr,
                                lambda f, n=name: self.wrap(n, f))
        self.patch_function(grid, "free_resolvent",
                            lambda f: self._wrap_factory("grid.free_resolvent", f))
        self.patch_function(grid, "lowest_eigenvalues", self._wrap_lanczos)

        methods = [
            (grid, "HamiltonianEps", "apply", "grid.ham_apply"),
            (grid, "HamiltonianEps", "matrix", "grid.ham_matrix"),
            (bump, "LimitCouplingMap", "forward", "bump.limit.forward"),
            (bump, "LimitCouplingMap", "adjoint", "bump.limit.adjoint"),
            (bump, "ChainCouplingMap", "forward", "bump.chain.forward"),
            (bump, "ChainCouplingMap", "adjoint", "bump.chain.adjoint"),
            (blocks, "LambdaMatrix", "apply_offdiag", "blocks.apply_offdiag"),
            (blocks, "LambdaMatrix", "apply_diag_inverse",
             "blocks.apply_diag_inverse"),
            (resolvent, "FactoredAssembly", "apply",
             lambda args: "resolvent.%s.apply" % args[0].mode),
            (resolvent, "TraceAssembly", "apply", "resolvent.theta.apply"),
            (resolvent, "TraceAssembly", "channel_apply",
             "resolvent.theta.channel_apply"),
            (resolvent, "TraceAssembly", "apply_offdiag",
             "resolvent.theta.apply_offdiag"),
            (resolvent, "TraceAssembly", "apply_diag_inverse",
             "resolvent.theta.apply_diag_inverse"),
        ]
        for module, cls_name, attr, name in methods:
            cls = getattr(module, cls_name, None)
            if cls is None:
                self.missing.append("%s.%s" % (module.__name__, cls_name))
            else:
                self.patch_method(cls, attr, name)

    def uninstall(self):
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def patched(self):
        """(owner, attribute, original object) of every live patch."""
        return [(owner, attr, original)
                for owner, attr, original, _ in self._patches]

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, ncalls):
    """Per-layer metrics from the spans of one traced set-up and ``ncalls`` calls.

    Counts and self times are per call, over the spans of the timed calls.
    ``bump.build_hamiltonian.self_s`` and ``blocks.materialize_slices.self_s``
    are seconds per set-up, over the spans whose call id is ``"setup"``.
    Dense-solve spans are charged to ``blocks`` when a ``blocks`` span
    encloses them and to ``grid`` otherwise.
    """
    selfs = self_times(spans)
    by_id = {s.sid: s for s in spans}

    def under(span, prefix):
        parent = span.parent
        while parent is not None:
            up = by_id[parent]
            if up.name.startswith(prefix):
                return True
            parent = up.parent
        return False

    loop = [s for s in spans if s.call_id != "setup"]
    setup = [s for s in spans if s.call_id == "setup"]

    def named(name, pool=loop):
        return [s for s in pool if s.name == name]

    def calls(name):
        return len(named(name)) / ncalls

    def self_s(name, pool=loop, per=ncalls):
        return sum(selfs[s.sid] for s in named(name, pool)) / per

    dense = [s for s in loop if s.name.startswith("linalg.")]
    slice_solves = [s for s in dense if under(s, "blocks.")]
    grid_solves = [s for s in dense if not under(s, "blocks.")]
    ffts = named("fft")
    solves = named("grid.solve_shifted")
    offdiag = named("blocks.apply_offdiag")
    neumann = [s for s in loop if s.name.endswith("apply_offdiag")
               and under(s, "blocks.invert_lambda")]
    metrics = {
        "fft.calls": len(ffts) / ncalls,
        "fft.self_s": self_s("fft"),
        "fft.bytes": sum(s.nbytes for s in ffts) / ncalls,
        "grid.free_resolvent.applies": calls("grid.free_resolvent"),
        "grid.free_resolvent.self_s": self_s("grid.free_resolvent"),
        "grid.pair_frame_forward.calls": calls("grid.pair_frame_forward"),
        "grid.pair_frame_forward.self_s": self_s("grid.pair_frame_forward"),
        "grid.pair_frame_adjoint.calls": calls("grid.pair_frame_adjoint"),
        "grid.pair_frame_adjoint.self_s": self_s("grid.pair_frame_adjoint"),
        "grid.solve_shifted.calls": len(solves) / ncalls,
        "grid.solve_shifted.self_s": self_s("grid.solve_shifted"),
        "grid.lowest_eigenvalues.steps": calls("grid.lowest_eigenvalues.step"),
        "grid.ham_apply.calls": calls("grid.ham_apply"),
        "grid.matvecs_per_solve": _ratio(
            sum(1 for s in named("grid.ham_apply")
                if under(s, "grid.solve_shifted")), len(solves)),
        "grid.ham_matrix.calls": calls("grid.ham_matrix"),
        "grid.ham_matrix.self_s": self_s("grid.ham_matrix"),
        "grid.dense_factorizations": sum(
            1 for s in grid_solves if s.name in FACTORIZING) / ncalls,
        "grid.dense_solve.self_s": sum(selfs[s.sid] for s in grid_solves) / ncalls,
        "bump.build_hamiltonian.self_s": self_s("bump.build_hamiltonian",
                                                setup, 1),
    }
    for kind in ("limit", "chain"):
        for side in ("forward", "adjoint"):
            name = "bump.%s.%s" % (kind, side)
            metrics[name + ".calls"] = calls(name)
            metrics[name + ".self_s"] = self_s(name)
    metrics.update({
        "blocks.invert_lambda.calls": calls("blocks.invert_lambda"),
        "blocks.invert_lambda.self_s": self_s("blocks.invert_lambda"),
        "blocks.neumann_terms": _ratio(len(neumann),
                                       len(named("blocks.invert_lambda"))),
        "blocks.apply_offdiag.calls": len(offdiag) / ncalls,
        "blocks.apply_offdiag.self_s": self_s("blocks.apply_offdiag"),
        "blocks.apply_diag_inverse.calls": calls("blocks.apply_diag_inverse"),
        "blocks.apply_diag_inverse.self_s": self_s("blocks.apply_diag_inverse"),
        "blocks.slice_solve.self_s": sum(selfs[s.sid] for s in slice_solves) / ncalls,
        "blocks.rfree_per_offdiag": _ratio(
            sum(1 for s in named("grid.free_resolvent")
                if under(s, "blocks.apply_offdiag")), len(offdiag)),
        "blocks.materialize_slices.self_s": self_s("blocks.materialize_slices",
                                                   setup, 1),
        "forms.apply_trace.calls": calls("forms.apply_trace"),
        "forms.apply_trace.self_s": self_s("forms.apply_trace"),
        "forms.trace_adjoint.calls": calls("forms.trace_adjoint"),
        "forms.trace_adjoint.self_s": self_s("forms.trace_adjoint"),
        "resolvent.kk.apply.self_s": self_s("resolvent.kk.apply"),
        "resolvent.limit.apply.self_s": self_s("resolvent.limit.apply"),
        "resolvent.theta.apply.self_s": self_s("resolvent.theta.apply"),
        "resolvent.theta.channel_apply.calls": calls("resolvent.theta.channel_apply"),
        "resolvent.ground_energy.self_s": self_s("resolvent.ground_energy"),
    })
    return metrics
