"""Layer tracing for the benchmark, installed from outside the library.

Every wrapped function records one span per call: its name, start, end,
parent span and solve id. A span name is ``<layer>.<function>``, and the
layer is the ``trsqp`` module the function belongs to. Nesting is read off
the call stack, which is exact because a solve runs in one thread. Spans
stay in memory until the repetition ends and are then summarised.

Wrappers replace the module attributes that callers look up at call time
(``solver`` calls ``benchmarks.true_kkt``, ``estimator`` calls
``linalg._checked_svd``, ...). A name bound by ``from x import y`` is
patched where it was imported, which is why ``benchmarks.estimate_multiplier``
and ``cli.run`` appear below next to their home modules.

The objective sampler is reached through ``Problem.sampler``, so it is
wrapped by installing a proxy with ``dataclasses.replace``. That proxy also
counts the samples drawn by kind; the count is taken on untraced runs too,
where the proxy adds one Python call per sampler call and reads no clock.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import time
from collections import Counter

import numpy as np

SAMPLE_KINDS = ("values", "gradients", "hessians")

# (module, attribute path, span name). "solver.run" opens a new solve id.
TRACED = (
    ("trsqp.rng", "RngStream.child", "rng.child"),
    ("trsqp.rng", "RngStream.generator", "rng.generator"),
    ("trsqp.rng", "RngStream.point_generator", "rng.point_generator"),
    ("trsqp.estimator", "estimate_models", "estimator.estimate_models"),
    ("trsqp.estimator", "estimate_gradient", "estimator.estimate_gradient"),
    ("trsqp.estimator", "estimate_values", "estimator.estimate_values"),
    ("trsqp.estimator", "estimate_value", "estimator.estimate_value"),
    ("trsqp.estimator", "estimate_multiplier", "estimator.estimate_multiplier"),
    ("trsqp.estimator", "build_hessian", "estimator.build_hessian"),
    ("trsqp.benchmarks", "estimate_multiplier", "estimator.estimate_multiplier"),
    ("trsqp.linalg", "_checked_svd", "linalg._checked_svd"),
    ("trsqp.linalg", "nullspace_basis", "linalg.nullspace_basis"),
    ("trsqp.linalg", "min_norm_pull", "linalg.min_norm_pull"),
    ("trsqp.linalg", "smallest_eigpair", "linalg.smallest_eigpair"),
    ("trsqp.linalg", "spectral_norm", "linalg.spectral_norm"),
    ("trsqp.linalg", "trs_solve", "linalg.trs_solve"),
    ("trsqp.linalg", "model_value", "linalg.model_value"),
    ("trsqp.steps", "select_step_type", "steps.select_step_type"),
    ("trsqp.steps", "build_trial_step", "steps.build_trial_step"),
    ("trsqp.steps", "predicted_reduction", "steps.predicted_reduction"),
    ("trsqp.steps", "soc_step", "steps.soc_step"),
    ("trsqp.solver", "iterate", "solver.iterate"),
    ("trsqp.solver", "run", "solver.run"),
    ("trsqp.cli", "run", "solver.run"),
    ("trsqp.benchmarks", "true_kkt", "benchmarks.true_kkt"),
    ("trsqp.cli", "main", "cli.main"),
)

# Problem oracles wrapped on the problem value itself, as layer "problem".
PROBLEM_ORACLES = ("constraint", "jacobian", "constraint_hessians")

# Calls that each run one dense SVD or eigendecomposition.
DECOMPOSITIONS = (
    "linalg.nullspace_basis",
    "linalg.min_norm_pull",
    "linalg.smallest_eigpair",
    "linalg.spectral_norm",
    "linalg.trs_solve",
    "estimator.estimate_multiplier",
)

# Span fields, in order.
NAME, START, END, PARENT, SOLVE = range(5)


class Tracer:
    """Records a span for every call of a function it wrapped."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._solves = 0

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        opens_solve = name == "solver.run"

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if opens_solve:
                self._solves += 1
                solve = self._solves
            else:
                solve = spans[parent][SOLVE] if parent >= 0 else 0
            span = [name, clock(), None, parent, solve]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so a span's children are disjoint intervals
    inside it and their durations are the part of it they cover.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


@dataclasses.dataclass
class SpanSummary:
    """Self time and call count per span name, and the time under root spans."""

    self_s: Counter
    calls: Counter
    root_s: float

    @classmethod
    def of(cls, spans) -> "SpanSummary":
        self_s, calls = Counter(), Counter()
        for span, own in zip(spans, self_times(spans)):
            self_s[span[NAME]] += own
            calls[span[NAME]] += 1
        root_s = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
        return cls(self_s, calls, root_s)

    def layer_self(self, layer: str) -> float:
        return sum(t for name, t in self.self_s.items() if name.split(".", 1)[0] == layer)

    def prefix_self(self, prefix: str) -> float:
        return sum(t for name, t in self.self_s.items() if name.startswith(prefix))

    def prefix_calls(self, prefix: str) -> int:
        return sum(n for name, n in self.calls.items() if name.startswith(prefix))


@contextlib.contextmanager
def patched(owner, attr: str, value):
    """Set ``owner.attr`` to ``value`` for the duration of the block."""
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield original
    finally:
        setattr(owner, attr, original)


class _CountingSampler:
    """Objective-sampler proxy that counts calls and samples by kind."""

    def __init__(self, inner, probe: "Probe"):
        for kind in SAMPLE_KINDS:
            counted = _counted(kind, getattr(inner, kind), probe)
            setattr(self, kind, probe.wrap(f"problem.sampler.{kind}", counted))


def _counted(kind, draw, probe):
    def counted(x, n, stream):
        probe.samples[kind] += n
        return draw(x, n, stream)

    return counted


class Reference:
    """A fixed slice of numpy and Python work that gauges the host's speed.

    Other tenants of a shared host slow this process by up to half for
    seconds at a time. Run after every iteration of a workload, the slice is
    slowed alike, so the workload's time over the slices' time holds still
    while both drift. It is the benchmark's own code, so a change to trsqp
    does not move it. It draws Gaussian samples, runs small SVDs and
    eigendecompositions and a 6000 x 15 product: 0.3 to 0.55 ms alone.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 3))
        self.m, self.sym = m, m + m.T
        self.x, self.w = rng.standard_normal((6000, 15)), np.ones(15)

    def __call__(self) -> float:
        a = np.random.default_rng(7).standard_normal((2000, 2))
        total = float(a.mean(axis=0) @ a.std(axis=0))
        for _ in range(4):
            total += float(np.linalg.svd(self.m, compute_uv=False)[0])
            total += float(np.linalg.eigh(self.sym)[0][0])
        return total + float((self.x @ self.w).sum())


class Probe:
    """Instruments one repetition of a workload.

    Always counts samples at the sampler boundary. Given a :class:`Tracer`,
    it records spans. Given a :class:`Reference`, it runs and times one
    slice of it after each call of ``solver.iterate``, outside the
    iteration, so the repetition's time can be read against the host's
    current speed.
    """

    def __init__(self, tracer: Tracer | None = None, reference: Reference | None = None):
        self.tracer = tracer
        self.samples: Counter = Counter()
        self.reference = reference
        self.reference_s = 0.0
        self.slices = 0

    def paced(self, fn, clock=time.perf_counter):
        """``fn`` followed by one timed reference slice per call."""

        def paced(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                t0 = clock()
                self.reference()
                self.reference_s += clock() - t0
                self.slices += 1

        paced.__wrapped__ = fn
        return paced

    def wrap(self, name: str, fn):
        return fn if self.tracer is None else self.tracer.wrap(name, fn)

    def problem(self, problem):
        """A copy of ``problem`` whose sampler (and, traced, oracles) report here."""
        changes = {"sampler": _CountingSampler(problem.sampler, self)}
        if self.tracer is not None:
            for oracle in PROBLEM_ORACLES:
                changes[oracle] = self.wrap(f"problem.{oracle}", getattr(problem, oracle))
        return dataclasses.replace(problem, **changes)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry of :data:`TRACED` and pace ``solver.iterate``, as given."""
        with contextlib.ExitStack() as stack:
            if self.reference is not None:
                solver = importlib.import_module("trsqp.solver")
                stack.enter_context(patched(solver, "iterate", self.paced(solver.iterate)))
            if self.tracer is not None:
                for module, path, name in TRACED:
                    owner = importlib.import_module(module)
                    *outer, attr = path.split(".")
                    for part in outer:
                        owner = getattr(owner, part)
                    wrapped = self.tracer.wrap(name, getattr(owner, attr))
                    stack.enter_context(patched(owner, attr, wrapped))
            yield self
