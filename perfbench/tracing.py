"""Per-layer spans recorded from outside the program.

`Tracer.install` replaces the public functions of each stp12 module with
timing wrappers and `Tracer.uninstall` puts the originals back.  Modules
import names with `from ... import`, so every binding of a function across
the loaded `stp12.*` modules is replaced, not only the defining module's.
The per-node hot paths (`PartitionState.find`, `Instance.neighbors`) are not
wrapped: they run millions of times per instance.

Each wrapped call is one span with its wall time (`busy`) and its time minus
the wrapped calls made inside it (`self`).  The calls that `six_phase` and
`rayward_smith` make directly mark the boundaries of their phases.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import stp12.audit
import stp12.core
import stp12.exact
import stp12.harness
import stp12.heuristics
import stp12.io
import stp12.matching
import stp12.sixphase
from stp12.core import CapExceeded
from workloads import dp_cells, subset_work

# (module, function) pairs whose spans are recorded.
TARGETS = (
    (stp12.io, "parse_stp"),
    (stp12.io, "generate"),
    (stp12.harness, "full_corpus"),
    (stp12.core, "collapse"),
    (stp12.core, "induced_graph"),
    (stp12.heuristics, "rayward_smith"),
    (stp12.heuristics, "preprocess_terminal_edges"),
    (stp12.heuristics, "find_max_star"),
    (stp12.heuristics, "finishing"),
    (stp12.sixphase, "six_phase"),
    (stp12.sixphase, "max_3star_set"),
    (stp12.sixphase, "upgrade_to_comets"),
    (stp12.sixphase, "best_comet"),
    (stp12.sixphase, "build_fork_candidates"),
    (stp12.matching, "max_matching"),
    (stp12.exact, "brute_force_opt"),
    (stp12.exact, "dreyfus_wagner"),
    (stp12.audit, "normalize"),
    (stp12.audit, "decompose"),
)


@dataclass
class Stat:
    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0


# Calls made directly by these functions mark where their phases begin.
RS = "heuristics.rayward_smith"
SIX = "sixphase.six_phase"
FIND_STAR = "heuristics.find_max_star"
PHASE_OF_CALL = {
    RS: {
        "heuristics.preprocess_terminal_edges": "rs.preprocess_s",
        FIND_STAR: "rs.stars_s",
        "heuristics.finishing": "rs.finishing_s",
    },
    SIX: {
        "heuristics.preprocess_terminal_edges": "sixphase.phase1_s",
        "sixphase.max_3star_set": "sixphase.phase4_s",
        "sixphase.upgrade_to_comets": "sixphase.phase5_s",
        "sixphase.best_comet": "sixphase.phase6_s",
        "heuristics.finishing": "sixphase.finishing_s",
    },
}


@dataclass
class _Frame:
    name: str
    child: float = 0.0
    phase: str | None = None     # phase running in this call, if phased
    mark: float = 0.0            # when that phase began
    stars_done: bool = False     # six_phase: the s > 4 star loop has ended


@dataclass
class Tracer:
    stats: dict[str, Stat] = field(default_factory=lambda: defaultdict(Stat))
    counters: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    _stack: list[_Frame] = field(default_factory=list)
    _bindings: list[tuple[object, str, object, object]] = field(default_factory=list)

    def __post_init__(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("stp12")]
        for module, name in TARGETS:
            original = getattr(module, name)
            wrapper = self._wrap(f"{module.__name__.removeprefix('stp12.')}.{name}", original)
            for holder in modules:
                for attr, value in vars(holder).items():
                    if value is original:
                        self._bindings.append((holder, attr, original, wrapper))

    def install(self) -> None:
        for holder, attr, _, wrapper in self._bindings:
            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original, _ in self._bindings:
            setattr(holder, attr, original)

    def reset(self) -> None:
        self.stats.clear()
        self.counters.clear()

    def _wrap(self, name: str, fn):
        stack = self._stack
        stat_of = self.stats
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = _Frame(name)
            parent = stack[-1] if stack else None
            stack.append(frame)
            outcome = "error"
            start = clock()
            if parent is not None and parent.name in PHASE_OF_CALL:
                self._enter_phase(parent, name, start)
            try:
                result = fn(*args, **kwargs)
                outcome = "ok"
                return result
            except CapExceeded:
                outcome = "refused"
                raise
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                stat = stat_of[name]
                stat.calls += 1
                stat.busy += elapsed
                stat.self_time += elapsed - frame.child
                if parent is not None:
                    parent.child += elapsed
                if frame.phase is not None:
                    self.counters[frame.phase] += end - frame.mark
                if outcome == "refused":
                    self.counters[f"{name}.refused"] += 1
                elif outcome == "ok":
                    self._count(name, args, result, parent)

        return wrapper

    def _enter_phase(self, frame: _Frame, name: str, now: float) -> None:
        """Close the caller's running phase if this call starts the next one.

        A phase runs from its first call to the first call of the next, so
        the caller's own code between calls counts to the phase it serves.
        In six_phase, find_max_star calls belong to phase 2 until one finds
        no star above s = 4, and to phase 3 after it; collapses stay in the
        running phase (2, 3, 5 or 6).
        """
        phase = PHASE_OF_CALL[frame.name].get(name)
        if phase is None and name == FIND_STAR:
            phase = "sixphase.phase3_s" if frame.stars_done else "sixphase.phase2_s"
        if phase is None or phase == frame.phase:
            return
        if frame.phase is not None:
            self.counters[frame.phase] += now - frame.mark
        frame.phase, frame.mark = phase, now

    def _count(self, name, args, result, parent) -> None:
        """Work counters for one call that returned."""
        count = self.counters
        if name == "io.parse_stp":
            count["io.parse_stp.bytes"] += len(args[0].encode())
        elif name == "exact.brute_force_opt":
            count["exact.brute_force_opt.subset_work"] += subset_work(args[0])
        elif name == "exact.dreyfus_wagner":
            count["exact.dreyfus_wagner.dp_cells"] += dp_cells(args[0])
        elif name == "matching.max_matching":
            count["matching.max_matching.aux_vertices"] += len(args[0].vertices)
            count["matching.useful_calls"] += 1 if len(result) else 0
        elif name == "audit.normalize":
            count["audit.normalize.steps"] += len(result[1])
        if parent is None or parent.name != SIX:
            return
        if name == FIND_STAR and parent.phase == "sixphase.phase2_s":
            parent.stars_done = result is None or result.s <= 4
        elif name == "sixphase.max_3star_set":
            count["sixphase.phase4_packed"] += len(result)
        elif name == "sixphase.upgrade_to_comets":
            count["sixphase.phase5_comets"] += sum(
                1 for s in result if isinstance(s, stp12.sixphase.Comet)
            )
        elif name == "core.collapse" and parent.phase == "sixphase.phase6_s":
            count["sixphase.phase6_steps"] += 1
