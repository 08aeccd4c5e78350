"""Outside-in tracer: times calls into named public functions of ``mtdchain``.

Each span is named ``<module>.<function>`` (``<module>.<Class>`` times the
class's ``__init__``; ``<module>.<Class>.<method>`` a method).  The
wrapper replaces the function in every ``mtdchain.*`` namespace that holds
it, including module-level dispatch tables, because the CLI imports names
directly.  Classes are never replaced, only their methods, so
``isinstance`` checks keep working.  A name that no longer exists is
reported as absent.

Self time is a span's duration minus the time of the spans it called.
A few counts are read off arguments and return values at the same
boundaries (EM iterations, distinct words, ...).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# Per-word helpers such as spell_word are left out: wrapping them would
# time the wrapper, not the work.
SPANS = (
    "cli.main",
    "cli.cmd_count",
    "cli.cmd_fit",
    "cli.cmd_eval",
    "cli.cmd_sample",
    "cli.cmd_convert",
    "cli.cmd_bic_compare",
    "cli.cmd_tv_experiment",
    "seqio.read_sequences",
    "counts.count_ngrams",
    "counts.NGramCounts",
    "counts.NGramCounts.word_indices",
    "counts.NGramCounts.values",
    "counts.lag_contingency",
    "em.fit_with_restarts",
    "em.em_fit",
    "em.e_step",
    "em.m_step",
    "em.loglik_from_counts",
    "em.init_contingency",
    "model.MtdModel",
    "model.component_word_probs",
    "berchtold.berchtold_fit",
    "berchtold.loglik_gradient",
    "berchtold.berchtold_step",
    "model.sample_sequence",
    "model.full_transition_matrix",
    "reparam.to_theta_u",
    "reparam.from_theta_u",
    "stationary.stationary_histories",
    "stationary.word_distribution",
    "experiments.fit_full_markov",
    "modelfile.read_model",
    "modelfile.write_model",
)

# Counts summed per repeat, and ratios of totals.
COUNTS = (
    "seqio.letters",
    "counts.distinct_words",
    "em.iterations",
    "em.restarts_failed",
    "berchtold.iterations",
)
RATIOS = (
    "em.restart_useful_ratio",
    "em.cells_per_iteration",
    "berchtold.accept_ratio",
)


class Tracer:
    """Install with ``with Tracer() as t:``; read ``t.calls``, ``t.self_s``, ``t.counts()``."""

    def __init__(self):
        self.names = SPANS
        self.absent: list[str] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.parents: dict[tuple[str | None, str], int] = defaultdict(int)
        self._stack: list[list] = []  # [name, child seconds]
        self._sums: dict[str, float] = defaultdict(float)
        self._undo: list[tuple] = []

    # -- installation -------------------------------------------------------

    def __enter__(self):
        for name in self.names:
            self._install(name)
        return self

    def __exit__(self, *exc):
        for owner, attr, original, is_dict in reversed(self._undo):
            if is_dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()
        return False

    def _install(self, name: str) -> None:
        module_name, *path = name.split(".")
        try:
            owner = importlib.import_module(f"mtdchain.{module_name}")
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            target = getattr(owner, path[-1])
        except (ImportError, AttributeError):
            self.absent.append(name)
            return
        if isinstance(target, type):
            owner, attr, original = target, "__init__", target.__dict__.get("__init__")
            if original is None:
                self.absent.append(name)
                return
        elif isinstance(owner, type):
            attr, original = path[-1], owner.__dict__[path[-1]]
        else:
            attr, original = path[-1], target
        wrapper = self._wrap(name, original)
        if isinstance(owner, type):
            self._undo.append((owner, attr, original, False))
            setattr(owner, attr, wrapper)
            return
        for mod in [m for key, m in sys.modules.items() if key.split(".")[0] == "mtdchain"]:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original, False))
                    setattr(mod, key, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            self._undo.append((value, k, original, True))
                            value[k] = wrapper

    def _wrap(self, name, fn):
        observe = getattr(self, "_on_" + name.replace(".", "_"), None)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.parents[(stack[-1][0] if stack else None, name)] += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            result, error = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                error = err
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self.calls[name] += 1
                self.self_s[name] += elapsed - frame[1]
                if observe is not None:
                    observe(args, kwargs, result, error)

        return wrapper

    # -- counts read at the boundaries --------------------------------------

    def _on_seqio_read_sequences(self, args, kwargs, result, error):
        if result is not None:
            self._sums["seqio.letters"] += sum(len(s) for s in result)

    def _on_counts_count_ngrams(self, args, kwargs, result, error):
        if result is not None:
            self._sums["counts.distinct_words"] += len(result)

    def _on_em_em_fit(self, args, kwargs, result, error):
        counts = args[0] if args else kwargs["counts"]
        init = args[1] if len(args) > 1 else kwargs["init"]
        if result is not None:
            iterations = result.iterations
        else:
            self._sums["em.restarts_failed"] += 1
            iterations = max(len(getattr(error, "trace", ())) - 1, 0)
        self._sums["em.iterations"] += iterations
        self._sums["em.cells"] += iterations * init.n_components * len(counts)

    def _on_em_fit_with_restarts(self, args, kwargs, result, error):
        if result is not None:
            self._sums["em.winner_iterations"] += result.iterations

    def _on_berchtold_loglik_gradient(self, args, kwargs, result, error):
        self._sums["berchtold.iterations"] += 1

    def _on_berchtold_berchtold_fit(self, args, kwargs, result, error):
        if result is not None:
            self._sums["berchtold.accepted"] += result.iterations

    def counts(self) -> dict[str, float]:
        s = self._sums
        return {
            "seqio.letters": s["seqio.letters"],
            "counts.distinct_words": s["counts.distinct_words"],
            "em.iterations": s["em.iterations"],
            "em.restart_useful_ratio": _ratio(s["em.winner_iterations"], s["em.iterations"]),
            "em.restarts_failed": s["em.restarts_failed"],
            "em.cells_per_iteration": _ratio(s["em.cells"], s["em.iterations"]),
            "berchtold.iterations": s["berchtold.iterations"],
            "berchtold.accept_ratio": _ratio(s["berchtold.accepted"], s["berchtold.iterations"]),
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
