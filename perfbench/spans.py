"""Spans recorded from outside the program.

The tracer swaps a layer's public function for a timing wrapper on the
module attribute its caller looks up (``foxbird.hraha.stay_and_disguise``,
``foxbird.textpipe.bow_vectorize``, ...), so nothing under ``src/`` changes.
The wrappers only read clocks and the arguments and results they pass
through; they draw nothing from any RNG, which the traced run proves by
reproducing the untraced fingerprints.

Spans are aggregated per name as they close (calls, total seconds, self
seconds) rather than stored one by one: the sphere workload opens about
60,000 spans per optimizer run. A span's self time is its duration minus
the durations of the spans directly inside it, so the self times of all
spans inside a root span add up to the root's duration.
"""

from __future__ import annotations

import time

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self._stack = [0.0]  # child seconds accumulated by each open span
        self._patches = []

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0,))[0]

    def wrap(self, fn, name: str, probe=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``probe(args)``, if given, runs before the call and returns a
        function that receives the result after it; it records counts."""
        agg = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        def span(*args, **kwargs):
            done = probe(args) if probe is not None else None
            stack.append(0.0)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = _clock() - t0
                child = stack.pop()
                agg[0] += 1
                agg[1] += d
                agg[2] += d - child
                stack[-1] += d
            if done is not None:
                done(result)
            return result

        return span

    def patch(self, module, attr: str, name: str, probe=None) -> None:
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, probe))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def self_time_total(self) -> float:
        return sum(s[2] for s in self.stats.values())


# -- probes: counts measured where the work happens ---------------------------

def accept_probe(tracer: Tracer, name: str):
    """Global step: share of the population's candidates accepted (a member
    whose position object was replaced took its candidate)."""
    def probe(args):
        pop = args[0]
        before = [m.position for m in pop.members]

        def done(_):
            tracer.count(name + ".candidates", len(before))
            tracer.count(name + ".accepted",
                         sum(m.position is not p for m, p in zip(pop.members, before)))
        return done
    return probe


def fired_probe(tracer: Tracer, name: str):
    """Migration: share of calls whose iteration gate was open."""
    def probe(args):
        def done(result):
            tracer.count(name + ".fired", int(bool(result[0])))
        return done
    return probe


def improve_probe(tracer: Tracer, name: str):
    """Move-closer: share of offspring fitter than the member they replaced."""
    def probe(args):
        pop = args[0]
        before = [(m, m.fitness) for m in pop.members]

        def done(_):
            for m_new, (m_old, f_old) in zip(pop.members, before):
                if m_new is not m_old:
                    tracer.count(name + ".offspring")
                    tracer.count(name + ".improved", int(m_new.fitness < f_old))
        return done
    return probe
