"""Outside-in per-layer tracing of burnside's layer-boundary functions.

`Tracer.install()` replaces each boundary function, by identity, in every
`burnside` module namespace, so re-exported names (`from .periodicity
import find_runs`) and lazy imports (`from .canonical import can_word`
inside a function body) all reach the wrapper.  Spans are kept in flat
lists while the pass runs and turned into the per-layer table afterwards;
`restore()` puts every original function back.
"""

import gzip
import sys
import time
from collections import Counter

# metric prefix -> (module, attribute) of the wrapped function
BOUNDARIES = {
    "periodicity.find_runs": ("burnside.periodicity", "find_runs"),
    "relators.classify_rank": ("burnside.relators", "classify_rank"),
    "occurrences.maximal_occurrences": ("burnside.occurrences", "maximal_occurrences"),
    "occurrences.corresponding_occurrence": ("burnside.occurrences", "corresponding_occurrence"),
    "occurrences.are_essentially_non_isolated": ("burnside.occurrences", "are_essentially_non_isolated"),
    "turns.turn": ("burnside.turns", "turn"),
    "turns.inverse_turn": ("burnside.turns", "inverse_turn"),
    "semican.descend": ("burnside.semican", "_descend"),
    "canonical.can": ("burnside.canonical", "can"),
    "canonical.can_word": ("burnside.canonical", "can_word"),
    "canonical.can1_word": ("burnside.canonical", "can1_word"),
    "canonical.decision_pass": ("burnside.canonical", "_decision_pass"),
    "canonical.winner_side": ("burnside.canonical", "winner_side"),
    "canonical.certify": ("burnside.canonical", "certify"),
}
STREAM_NEXT = "support.cube_free_stream.next"
ITEM = "item"

TURN_TYPES = ("Type1", "Type2", "Type3")
WINNER_BASES = ("ForcedShort", "ForcedLong", "LengthCompare", "DeglexTuples")
CERT_KINDS = ("Certification", "UnCertification", "Trivial")


def _params_key(params):
    return None if params is None else id(params)


def _measure_key(m):
    """An int or Fraction as an int pair: hashing a Fraction is slow."""
    return m.numerator, m.denominator


# Exact-query keys, bound like the wrapped signatures so positional and
# keyword spellings of one query agree.  Words are keyed by their hash.
def _find_runs_key(w, min_measure=1, max_period=None):
    return hash(tuple(w)), _measure_key(min_measure), max_period


def _maximal_occurrences_key(A, rank, min_measure=1, params=None):
    return hash(tuple(A)), rank, _measure_key(min_measure), _params_key(params)


def _can_word_key(A, r, params=None):
    return hash(tuple(A)), r, _params_key(params)


def layer_names() -> list[str]:
    return [*BOUNDARIES, STREAM_NEXT]


def metric_units() -> dict[str, str]:
    """Every per-layer metric the table holds, with its unit."""
    units = {}
    for name in layer_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.cum_s"] = "s"
    units.update({
        "periodicity.find_runs.letters": "count",
        "periodicity.find_runs.runs_out": "count",
        "periodicity.find_runs.repeat_ratio": "ratio",
        "occurrences.maximal_occurrences.repeat_ratio": "ratio",
        "occurrences.maximal_occurrences.kept_ratio": "ratio",
        "canonical.can_word.repeat_ratio": "ratio",
    })
    units.update({f"turns.turn.{t}": "count" for t in TURN_TYPES})
    units.update({f"canonical.winner_side.{b}": "count" for b in WINNER_BASES})
    units.update({f"canonical.certify.{k}": "count" for k in CERT_KINDS})
    units["semican.descend.steps"] = "count"
    units["semican.descend.watchdog_max"] = "ratio"
    units["trace.wall_s"] = "s"
    units["trace.outside_s"] = "s"
    units["trace.coverage"] = "ratio"
    return units


class Tracer:
    """Span recorder plus the wrappers that feed it.  One per traced pass."""

    def __init__(self):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        # one entry per span, in start order
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_item: list[int] = []
        self.span_outer: list[bool] = []  # no enclosing span of the same name
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self._stack = [-1]
        self._depth: list[int] = []
        self.item = -1
        self.counts: Counter = Counter()
        self._seen: dict[str, set] = {}
        self._patched: list[tuple] = []
        self.watchdog_max = 0.0

    # -- spans -------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_item.append(self.item)
        self.span_outer.append(self._depth[nid] == 0)
        self._depth[nid] += 1
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()
        self._depth[self.span_name[idx]] -= 1

    def parent_name(self, idx: int) -> str | None:
        parent = self.span_parent[idx]
        return None if parent < 0 else self._names[self.span_name[parent]]

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        nid = self.name_id(name)
        begin, end = self.begin, self.end

        def wrapper(*args, **kwargs):
            idx = begin(nid)
            try:
                res = fn(*args, **kwargs)
            finally:
                end(idx)
            if observe is not None:
                observe(self, idx, args, kwargs, res)
            return res

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper._perfbench_wrapper = True
        return wrapper

    def wrap_iterator(self, name: str, it):
        """An iterator whose every `next` is a span called `name`."""
        nid = self.name_id(name)
        tracer = self

        class Traced:
            def __iter__(self):
                return self

            def __next__(self):
                idx = tracer.begin(nid)
                try:
                    return next(it)
                finally:
                    tracer.end(idx)

        return Traced()

    def install(self) -> None:
        """Wrap every boundary function wherever a burnside module binds it."""
        modules = _burnside_modules()
        for name, (modname, attr) in BOUNDARIES.items():
            original = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(name, original, OBSERVERS.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def restore(self) -> None:
        """Put every original back; raise if any wrapper is still bound."""
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()
        left = [f"{m.__name__}.{k}" for m in _burnside_modules()
                for k, v in vars(m).items() if getattr(v, "_perfbench_wrapper", False)]
        if left:
            raise RuntimeError(f"wrappers still bound after restore: {left}")

    # -- counters ------------------------------------------------------------

    def repeat(self, name: str, key) -> None:
        """Count a query, and a repeat if this exact query came before."""
        seen = self._seen.get(name)
        if seen is None:
            seen = self._seen[name] = set()
        self.counts[name] += 1
        if key in seen:
            self.counts[name + ".repeats"] += 1
        else:
            seen.add(key)

    # -- per-layer table -----------------------------------------------------

    def table(self) -> dict[str, float]:
        """Per-layer metrics; self time = duration minus child spans."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += dur[i]
        calls = Counter()
        self_s: Counter = Counter()
        cum_s: Counter = Counter()
        for i in range(n):
            name = self._names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
            if self.span_outer[i]:
                cum_s[name] += dur[i]
        out: dict[str, float] = {}
        for name in layer_names():
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.cum_s"] = cum_s[name]
        c = self.counts
        out["periodicity.find_runs.letters"] = c["find_runs.letters"]
        out["periodicity.find_runs.runs_out"] = c["find_runs.runs_out"]
        for name in ("periodicity.find_runs", "occurrences.maximal_occurrences",
                     "canonical.can_word"):
            out[f"{name}.repeat_ratio"] = _ratio(c[f"{name}.repeats"], c[name])
        out["occurrences.maximal_occurrences.kept_ratio"] = _ratio(
            c["maximal_occurrences.kept"], c["maximal_occurrences.scanned"])
        for t in TURN_TYPES:
            out[f"turns.turn.{t}"] = c[f"turn.{t}"]
        for basis in WINNER_BASES:
            out[f"canonical.winner_side.{basis}"] = c[f"winner_side.{basis}"]
        for kind in CERT_KINDS:
            out[f"canonical.certify.{kind}"] = c[f"certify.{kind}"]
        out["semican.descend.steps"] = c["descend.steps"]
        out["semican.descend.watchdog_max"] = self.watchdog_max
        wall = cum_s[ITEM]
        out["trace.wall_s"] = wall
        out["trace.outside_s"] = self_s[ITEM]
        layers = sum(v for k, v in self_s.items() if k != ITEM)
        out["trace.coverage"] = _ratio(layers + self_s[ITEM], wall)
        return out

    def write_spans(self, path) -> None:
        """Gzipped tab-separated spans: item, name, parent index, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("item\tname\tparent\tstart_s\tend_s\n")
            for i in range(len(self.span_start)):
                f.write(f"{self.span_item[i]}\t{self._names[self.span_name[i]]}\t"
                        f"{self.span_parent[i]}\t{self.span_start[i]:.9f}\t"
                        f"{self.span_end[i]:.9f}\n")


def _burnside_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if name == "burnside" or name.startswith("burnside.")]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# -- observers: count work and outcomes at the boundary ------------------------


def _obs_find_runs(tr: Tracer, idx, args, kwargs, res):
    tr.counts["find_runs.letters"] += len(args[0] if args else kwargs["w"])
    tr.counts["find_runs.runs_out"] += len(res)
    tr.repeat("periodicity.find_runs", _find_runs_key(*args, **kwargs))
    if tr.parent_name(idx) == "occurrences.maximal_occurrences":
        tr.counts["maximal_occurrences.scanned"] += len(res)


def _obs_maximal_occurrences(tr: Tracer, idx, args, kwargs, res):
    tr.counts["maximal_occurrences.kept"] += len(res)
    tr.repeat("occurrences.maximal_occurrences", _maximal_occurrences_key(*args, **kwargs))


def _obs_can_word(tr: Tracer, idx, args, kwargs, res):
    tr.repeat("canonical.can_word", _can_word_key(*args, **kwargs))


def _obs_turn(tr: Tracer, idx, args, kwargs, res):
    tr.counts[f"turn.{res.type_tag}"] += 1


def _obs_winner_side(tr: Tracer, idx, args, kwargs, res):
    tr.counts[f"winner_side.{res.basis}"] += 1


def _obs_certify(tr: Tracer, idx, args, kwargs, res):
    for outcome in res:
        tr.counts[f"certify.{outcome.kind}"] += 1


def _obs_descend(tr: Tracer, idx, args, kwargs, res):
    steps = len(res[1])
    tr.counts["descend.steps"] += steps
    word = args[0] if args else kwargs["A"]
    tr.watchdog_max = max(tr.watchdog_max, steps / (10 * len(word) + 20))


OBSERVERS = {
    "periodicity.find_runs": _obs_find_runs,
    "occurrences.maximal_occurrences": _obs_maximal_occurrences,
    "canonical.can_word": _obs_can_word,
    "turns.turn": _obs_turn,
    "canonical.winner_side": _obs_winner_side,
    "canonical.certify": _obs_certify,
    "semican.descend": _obs_descend,
}
