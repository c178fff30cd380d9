"""Combinatorial Legendrian front diagrams.

A front is a left-to-right word of events on horizontal strands, numbered
1-based from the top:

    L<i>   left cusp inserting two strands at positions i, i+1
    R<i>   right cusp merging strands i, i+1
    X<i>   crossing of strands i, i+1
    O<i>+ / O<i>-   orientation marker, directly after its left cusp

Crossings are resolved with the descending (lesser-slope) strand in front,
as fronts are usually drawn, and crossing signs follow the right-hand rule on
the resolved oriented diagram.  With `O<i>+` the upper strand born at the
cusp is directed rightward; components without a marker orient the upper
strand of their first cusp rightward.

A front is analysed once, when it is constructed: components are numbered
by their first left cusp in the word, and every query (component count,
writhe, tb, rotation, reversal) reads that one analysis.  `parse_front` and
`torus_knot_front` keep the fronts of the last 64 distinct words they built
(`functools.lru_cache`, keyed by the whitespace-normalised word), so a word
is parsed and analysed once per process while it stays among them; fronts
are immutable, so every caller may share one.  The analysis
labels strands, the arcs from a left cusp to a right cusp: a crossing is a
transposition of two labels in the current top-to-bottom order, and a
right cusp pairs the two labels it closes.  Component and direction are
constant along a strand, so one walk over the cusps finds the components,
and the writhe is a sum over the distinct (over, under) strand pairs.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Iterator, Mapping

from .handles import HandleDecomposition, _integer


class FrontError(ValueError):
    """Malformed front word or an invalid query against a front."""


_TOKEN = re.compile(r"([LRX])(\d+)$|O(\d+)([+-])$")
_KINDS = frozenset("LRX")


@dataclass(frozen=True)
class FrontEvent:
    kind: str                 # 'L', 'R' or 'X'
    pos: int                  # 1-based strand position
    orientation: str | None = None   # '+'/'-' marker on a left cusp

    def __post_init__(self) -> None:
        if type(self.pos) is not int:
            object.__setattr__(self, "pos", _integer(self.pos, "front event position",
                                                     FrontError))
        if self.orientation is not None:
            if self.orientation not in ("+", "-"):
                raise FrontError(
                    f"orientation marker must be '+' or '-', got {self.orientation!r}")
            if self.kind != "L":
                raise FrontError(f"only a left cusp carries an orientation marker, "
                                 f"not {self.kind}{self.pos}")


@dataclass(frozen=True)
class FrontDiagram:
    events: tuple[FrontEvent, ...]

    def __post_init__(self) -> None:
        # validates the word; the analysis and the rendered word are kept
        # outside the fields, so equality, hash and repr see only the events
        object.__setattr__(self, "_analysis", _Analysis(self.events))
        object.__setattr__(self, "_word", None)

    @property
    def word(self) -> str:
        word = self._word
        if word is None:
            parts = []
            for e in self.events:
                parts.append(f"{e.kind}{e.pos}")
                if e.orientation:
                    parts.append(f"O{e.pos}{e.orientation}")
            word = " ".join(parts)
            object.__setattr__(self, "_word", word)
        return word

    def __repr__(self) -> str:
        return f"FrontDiagram({self.word!r})"


def parse_front(text: str) -> FrontDiagram:
    """Parse a whitespace-separated front word; rejects anything else.

    Words are memoised once per process, up to 64 distinct words, so a
    repeated word returns the same (immutable) front without parsing or
    analysing it again.  An invalid word raises every time and is never
    stored.  Within a word each distinct token is matched and built once,
    and its repeats share that frozen event.  A marker token stands for the
    marked left cusp that replaces the event before it.
    """
    return _front_of_word(" ".join(text.split()))


@lru_cache(maxsize=64)
def _front_of_word(word: str) -> FrontDiagram:
    built: dict[str, FrontEvent] = {}
    events: list[FrontEvent] = []
    for idx, tok in enumerate(word.split()):
        ev = built.get(tok)
        if ev is None:
            m = _TOKEN.match(tok)
            if not m:
                raise FrontError(f"unrecognized front token {tok!r} (token {idx + 1})")
            if m.group(1):
                ev = FrontEvent(m.group(1), int(m.group(2)))
            else:
                ev = FrontEvent("L", int(m.group(3)), m.group(4))
            built[tok] = ev
        if ev.orientation is None:
            events.append(ev)
            continue
        if not events or events[-1].kind != "L" or events[-1].pos != ev.pos:
            raise FrontError(
                f"marker {tok!r} must directly follow L{ev.pos} (token {idx + 1})")
        if events[-1].orientation is not None:
            raise FrontError(f"duplicate marker at token {idx + 1}")
        events[-1] = ev
    return FrontDiagram(tuple(events))


# -- analysis -------------------------------------------------------------------

class _Analysis:
    """What the queries read: (writhe, tb, rotation) of each component, and
    the marker each left cusp carries in the reversed front.

    A strand is one arc from a left cusp to a right cusp.  Left cusp k
    opens strands 2k (upper) and 2k + 1 (lower); `current` lists the strand
    at each position, a crossing transposes two of its entries and records
    (over, under), and a right cusp pairs the two strands it closes.  A
    strand keeps its component and direction from end to end, so the
    components are the cycles of the cusp graph: one walk per component,
    numbered by its first left cusp and started on that cusp's upper strand
    going rightward.  Only the two tuples are kept: every front carries
    them for its lifetime.
    """

    __slots__ = ("components", "reversal")

    def __init__(self, events: tuple[FrontEvent, ...]):
        marks: list[str | None] = []        # marker of each left cusp
        closes: list[int] = []              # strand each strand meets at its right cusp
        right_cusps: list[int] = []         # upper strand of each right cusp
        crossings: list[tuple[int, int]] = []   # (over, under)
        current: list[int] = []
        for n_event, ev in enumerate(events):
            kind, i = ev.kind, ev.pos - 1
            count = len(current)
            if kind not in _KINDS:
                raise FrontError(f"unknown front event {kind}{ev.pos} (event {n_event + 1})")
            if not 0 <= i <= (count if kind == "L" else count - 2):
                raise FrontError(
                    f"invalid position {kind}{ev.pos} with {count} strands "
                    f"(event {n_event + 1})")
            if kind == "X":
                # the upper strand descends and passes in front
                over, under = current[i], current[i + 1]
                crossings.append((over, under))
                current[i], current[i + 1] = under, over
            elif kind == "L":
                s = len(closes)
                marks.append(ev.orientation)
                closes += (-1, -1)
                current[i:i] = (s, s + 1)
            else:
                a, b = current[i], current[i + 1]
                closes[a], closes[b] = b, a
                right_cusps.append(a)
                del current[i:i + 2]
        if current:
            raise FrontError(f"front ends with {len(current)} open strands")

        uppers = range(0, len(closes), 2)      # upper strand of each left cusp
        comp = [-1] * len(closes)
        rightward = [False] * len(closes)
        starts: list[int] = []      # upper strand of each component's first left cusp
        for first in uppers:
            if comp[first] < 0:
                c, s = len(starts), first
                while comp[s] < 0:
                    comp[s], rightward[s] = c, True
                    t = closes[s]
                    comp[t] = c
                    s = t ^ 1       # the other strand of t's left cusp
                starts.append(first)
        n = len(starts)

        flipped: list[bool | None] = [None] * n
        for s, mark in zip(uppers, marks):
            if mark:
                flip = rightward[s] != (mark == "+")
                if flipped[comp[s]] not in (None, flip):
                    raise FrontError("conflicting orientation markers on one component")
                flipped[comp[s]] = flip

        # reversing a component keeps the sign of its self-crossings, so the
        # walk's directions give the writhe before any marker flip
        writhe = [0] * n
        for (over, under), m in Counter(crossings).items():
            if comp[over] == comp[under]:
                writhe[comp[over]] += m if rightward[over] == rightward[under] else -m
        right = [0] * n
        turn = [0] * n          # down cusps minus up cusps along the walk
        for s in uppers:
            turn[comp[s]] += -1 if rightward[s] else 1
        for s in right_cusps:
            right[comp[s]] += 1
            turn[comp[s]] += 1 if rightward[s] else -1
        assert all(t % 2 == 0 for t in turn)

        self.components = tuple(
            (w, w - r, -t // 2 if f else t // 2)
            for w, r, t, f in zip(writhe, right, turn, flipped))
        # each component's first left cusp starts rightward unless its
        # markers flipped it; the reversal marks that cusp the other way
        self.reversal = tuple(
            None if starts[comp[s]] != s else "+" if flipped[comp[s]] else "-"
            for s in uppers)


def component_count(front: FrontDiagram) -> int:
    return len(front._analysis.components)


def _select_component(an: _Analysis, component: int | None) -> int:
    n_components = len(an.components)
    if n_components == 1:
        return 0
    if component is None:
        raise FrontError(
            f"front has {n_components} components; pass component=<index>")
    if not 0 <= component < n_components:
        raise FrontError(f"no component {component}")
    return component


def writhe(front: FrontDiagram, component: int | None = None) -> int:
    """Signed self-crossing count of one component of the resolved diagram."""
    an = front._analysis
    return an.components[_select_component(an, component)][0]


def thurston_bennequin(front: FrontDiagram, component: int | None = None) -> int:
    """tb = writhe minus the number of right cusps."""
    an = front._analysis
    return an.components[_select_component(an, component)][1]


def rotation_number(front: FrontDiagram, component: int | None = None) -> int:
    """(down cusps - up cusps) / 2 under the component's orientation."""
    an = front._analysis
    return an.components[_select_component(an, component)][2]


def reverse_orientation(front: FrontDiagram) -> FrontDiagram:
    """Same front with every component's orientation reversed."""
    marks = iter(front._analysis.reversal)
    return FrontDiagram(tuple(
        FrontEvent("L", ev.pos, next(marks)) if ev.kind == "L" else ev
        for ev in front.events))


# -- torus knots ----------------------------------------------------------------

def torus_knot_front(p: int, q: int) -> FrontDiagram:
    """Standard maximal-tb front: the positive braid closure on min(p,q) strands."""
    p, q = _integer(p, "p", FrontError), _integer(q, "q", FrontError)
    if p < 2 or q < 2:
        raise FrontError("torus knot parameters must both be >= 2")
    if gcd(p, q) != 1:
        raise FrontError(f"({p},{q}) is not coprime")
    long, s = max(p, q), min(p, q)
    twist = " ".join(f"X{i}" for i in range(1, s))
    return _front_of_word(" ".join([*(f"L{i}" for i in range(1, s + 1)),
                                    *[twist] * long,
                                    *(f"R{i}" for i in range(s, 0, -1))]))


# -- Stein framing verification ---------------------------------------------------

@dataclass(frozen=True)
class SteinVerdict:
    handle: str
    framing: int
    tb: int

    @property
    def ok(self) -> bool:
        return self.framing == self.tb - 1


@dataclass(frozen=True)
class SteinReport:
    verdicts: tuple[SteinVerdict, ...]

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)     # as failures() yields nothing

    def failures(self) -> Iterator[str]:
        bad = [v.handle for v in self.verdicts if not v.ok]
        if bad:
            yield "fails framing = tb - 1 on " + ", ".join(bad)


def stein_check(d: HandleDecomposition,
                annotation: Mapping[str, "FrontDiagram"]) -> SteinReport:
    """Per-handle check that the smooth framing is the contact -1 framing tb - 1."""
    for k in annotation:
        if not d.is_two_handle(k):
            raise FrontError(f"annotation names missing 2-handle {k!r}")
    verdicts = []
    for k in d.two_handle_ids:
        if k not in annotation:
            raise FrontError(f"2-handle {k!r} has no Legendrian annotation")
        front = annotation[k]
        if component_count(front) != 1:
            raise FrontError(f"annotation for {k!r} must be a single component")
        verdicts.append(SteinVerdict(k, d.framing(k), thurston_bennequin(front)))
    return SteinReport(tuple(verdicts))
