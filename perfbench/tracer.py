"""Spans and counts recorded from outside the program.

The tracer replaces public functions of the luorbits modules with wrappers.
Each module calls the others through names bound in its own namespace
(``from .canonical import canonicalize``), so a function is replaced under
every name that refers to it in any luorbits module.  Calls into numpy and
scipy are counted, not timed, so a decomposition's self time includes the
LAPACK work it starts.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _state_tag(args, result):
    state = args[0]
    return f"{state.case.value}.n{state.n_levels}"


def _verdict_tag(args, result):
    return "eq" if result.equivalent else "ineq"


def _command_tag(args, result):
    return args[0][0]


# (module, function, span name, tag): one span per call.  A function that is
# missing, because a later version removed or renamed it, is skipped.
SPANS = [
    ("luorbits.states", "validate", "states.validate", None),
    ("luorbits.states", "apply_group_action", "states.apply_group_action", None),
    ("luorbits.states", "apply_algebra_action", "states.apply_algebra_action", None),
    ("luorbits.states", "state_from_dict", "states.state_from_dict", None),
    ("luorbits.moment", "reduced_matrix", "moment.reduced_matrix", None),
    ("luorbits.canonical", "canonicalize", "canonical.canonicalize", _state_tag),
    ("luorbits.canonical", "takagi", "canonical.takagi", None),
    ("luorbits.canonical", "youla_antisymmetric", "canonical.youla_antisymmetric", None),
    ("luorbits.canonical", "svd_congruence", "canonical.svd_congruence", None),
    ("luorbits.strata", "orbit_invariants", "strata.orbit_invariants", None),
    ("luorbits.strata", "enumerate_strata", "strata.enumerate_strata", None),
    ("luorbits.strata", "representative_state", "strata.representative_state", None),
    ("luorbits.equivalence", "lu_equivalent", "equivalence.lu_equivalent", _verdict_tag),
    ("luorbits.oracle", "oracle_check", "oracle.oracle_check", _state_tag),
    ("luorbits.oracle", "orbit_dimension_numeric", "oracle.orbit_dimension_numeric", None),
    ("luorbits.oracle", "symplectic_rank_numeric", "oracle.symplectic_rank_numeric", None),
    ("luorbits.cli", "main", "cli.main", _command_tag),
]

# (module, function, counter): counted only while a luorbits span is open,
# so the benchmark's own linear algebra is left out.
COUNTS = [
    ("numpy.linalg", "svd", "linalg.svd"),
    ("scipy.linalg", "sqrtm", "canonical.scipy"),
    ("scipy.linalg", "null_space", "canonical.scipy"),
]

# span record fields
NAME, TAG, START, END, PARENT, JOB, OK = range(7)


class Tracer:
    """In-memory spans (name, tag, start, end, parent, job, ok) and counts per job."""

    def __init__(self):
        self.spans: list[list] = []
        self.job_counts: dict = defaultdict(Counter)
        self.job_tags: dict = {}
        self.job = None
        self._stack: list[int] = []
        self._undo: list = []

    def start_job(self, job, tag=None):
        self.job = job
        self.job_tags[job] = tag

    def _span(self, name, fn, tag_fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, None, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.job, False]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                tracer._stack.pop()
            rec[OK] = True
            if tag_fn is not None:
                rec[TAG] = tag_fn(args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._stack:
                tracer.job_counts[tracer.job][name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every target under every name bound to it in a loaded luorbits module."""
        modules = [m for name, m in list(sys.modules.items()) if name == "luorbits" or name.startswith("luorbits.")]
        for module_name, attr, span, tag_fn in SPANS:
            original = getattr(importlib.import_module(module_name), attr, None)
            if original is None:
                continue
            wrapper = self._span(span, original, tag_fn)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)
        for module_name, attr, counter in COUNTS:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._undo.append((module, attr, original))
            setattr(module, attr, self._counter(counter, original))

    def uninstall(self):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def self_times(self) -> list[float]:
        """Self time of every span: its duration minus that of its direct children."""
        own = [rec[END] - rec[START] for rec in self.spans]
        for rec in self.spans:
            if rec[PARENT] >= 0:
                own[rec[PARENT]] -= rec[END] - rec[START]
        return own

    def select(self, name, tag=None, job_tag=None):
        """Indices of spans with this name, optionally this tag and this job tag."""
        return [
            i for i, rec in enumerate(self.spans)
            if rec[NAME] == name
            and (tag is None or rec[TAG] == tag)
            and (job_tag is None or self.job_tags.get(rec[JOB]) == job_tag)
        ]

    def duration(self, i) -> float:
        return self.spans[i][END] - self.spans[i][START]
