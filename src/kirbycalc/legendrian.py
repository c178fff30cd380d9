"""Combinatorial Legendrian front diagrams.

A front is a left-to-right word of events on horizontal strands, numbered
1-based from the top:

    L<i>   left cusp inserting two strands at positions i, i+1
    R<i>   right cusp merging strands i, i+1
    X<i>   crossing of strands i, i+1
    O<i>+ / O<i>-   orientation marker, directly after its left cusp

Crossings are resolved with the descending (lesser-slope) strand in front,
the usual front convention, and crossing signs follow the right-hand rule on
the resolved oriented diagram.  With `O<i>+` the upper strand born at the
cusp is directed rightward; components without a marker orient the upper
strand of their first cusp rightward.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd
from typing import Mapping

from .handles import HandleDecomposition


class FrontError(ValueError):
    """Malformed front word or an invalid query against a front."""


_TOKEN = re.compile(r"([LRX])(\d+)$|O(\d+)([+-])$")


@dataclass(frozen=True)
class FrontEvent:
    kind: str                 # 'L', 'R' or 'X'
    pos: int                  # 1-based strand position
    orientation: str | None = None   # '+'/'-' marker on a left cusp


@dataclass(frozen=True)
class FrontDiagram:
    events: tuple[FrontEvent, ...]

    def __post_init__(self) -> None:
        _analyze(self)  # validates strand bookkeeping

    @property
    def word(self) -> str:
        parts = []
        for e in self.events:
            parts.append(f"{e.kind}{e.pos}")
            if e.kind == "L" and e.orientation:
                parts.append(f"O{e.pos}{e.orientation}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"FrontDiagram({self.word!r})"


def parse_front(text: str) -> FrontDiagram:
    """Parse a whitespace-separated front word; rejects anything else."""
    events: list[FrontEvent] = []
    for idx, tok in enumerate(text.split()):
        m = _TOKEN.match(tok)
        if not m:
            raise FrontError(f"unrecognized front token {tok!r} (token {idx + 1})")
        if m.group(1):
            events.append(FrontEvent(m.group(1), int(m.group(2))))
        else:
            pos, sign = int(m.group(3)), m.group(4)
            if not events or events[-1].kind != "L" or events[-1].pos != pos:
                raise FrontError(
                    f"marker {tok!r} must directly follow L{pos} (token {idx + 1})")
            if events[-1].orientation is not None:
                raise FrontError(f"duplicate marker at token {idx + 1}")
            events[-1] = FrontEvent("L", pos, sign)
    return FrontDiagram(tuple(events))


# -- internal structure --------------------------------------------------------

@dataclass(frozen=True)
class _Cusp:
    side: str          # 'L' or 'R'
    upper: int
    lower: int
    orientation: str | None


@dataclass(frozen=True)
class _Crossing:
    over_in: int       # enters at the upper slot, descends, passes in front
    over_out: int
    under_in: int
    under_out: int


class _Analysis:
    """Segments, cusps, crossings, components and traversal directions."""

    def __init__(self, front: FrontDiagram):
        self.cusps: list[_Cusp] = []
        self.crossings: list[_Crossing] = []
        # (kind, index) arriving at each segment end
        right_end: dict[int, tuple[str, int, str]] = {}
        left_end: dict[int, tuple[str, int, str]] = {}
        parent = {}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a, b):
            parent[find(a)] = find(b)

        segs = 0

        def new_seg():
            nonlocal segs
            parent[segs] = segs
            segs += 1
            return segs - 1

        current: list[int] = []
        for n_event, ev in enumerate(front.events):
            count = len(current)
            if ev.kind == "L":
                if not 1 <= ev.pos <= count + 1:
                    raise FrontError(
                        f"invalid position L{ev.pos} with {count} strands "
                        f"(event {n_event + 1})")
                s1, s2 = new_seg(), new_seg()
                union(s1, s2)
                left_end[s1] = left_end[s2] = ("C", len(self.cusps), "")
                self.cusps.append(_Cusp("L", s1, s2, ev.orientation))
                current[ev.pos - 1:ev.pos - 1] = [s1, s2]
            elif ev.kind == "R":
                if not 1 <= ev.pos <= count - 1:
                    raise FrontError(
                        f"invalid position R{ev.pos} with {count} strands "
                        f"(event {n_event + 1})")
                s1, s2 = current[ev.pos - 1], current[ev.pos]
                union(s1, s2)
                right_end[s1] = right_end[s2] = ("C", len(self.cusps), "")
                self.cusps.append(_Cusp("R", s1, s2, None))
                del current[ev.pos - 1:ev.pos + 1]
            else:
                if not 1 <= ev.pos <= count - 1:
                    raise FrontError(
                        f"invalid position X{ev.pos} with {count} strands "
                        f"(event {n_event + 1})")
                o_in, u_in = current[ev.pos - 1], current[ev.pos]
                o_out, u_out = new_seg(), new_seg()
                union(o_in, o_out)
                union(u_in, u_out)
                k = len(self.crossings)
                right_end[o_in] = ("X", k, "over")
                right_end[u_in] = ("X", k, "under")
                left_end[o_out] = ("X", k, "over")
                left_end[u_out] = ("X", k, "under")
                self.crossings.append(_Crossing(o_in, o_out, u_in, u_out))
                current[ev.pos - 1] = u_out
                current[ev.pos] = o_out
        if current:
            raise FrontError(f"front ends with {len(current)} open strands")

        self.n_segments = segs
        roots = {}
        self.component_of: dict[int, int] = {}
        for s in range(segs):
            r = find(s)
            if r not in roots:
                roots[r] = len(roots)
            self.component_of[s] = roots[r]
        self.n_components = len(roots)

        # traversal: orient each component from its first left cusp
        self.direction: dict[int, int] = {}   # +1 rightward, -1 leftward
        for comp in range(self.n_components):
            first = next(c for c in self.cusps
                         if c.side == "L" and self.component_of[c.upper] == comp)
            seg, direction = first.upper, +1
            while seg not in self.direction:
                self.direction[seg] = direction
                if direction == +1:
                    kind, k, role = right_end[seg]
                    if kind == "C":
                        c = self.cusps[k]
                        seg = c.lower if seg == c.upper else c.upper
                        direction = -1
                    else:
                        x = self.crossings[k]
                        seg = x.over_out if role == "over" else x.under_out
                else:
                    kind, k, role = left_end[seg]
                    if kind == "C":
                        c = self.cusps[k]
                        seg = c.lower if seg == c.upper else c.upper
                        direction = +1
                    else:
                        x = self.crossings[k]
                        seg = x.over_in if role == "over" else x.under_in
            # apply orientation markers; conflicting markers are an error
            flips = set()
            for c in self.cusps:
                if c.side == "L" and c.orientation and self.component_of[c.upper] == comp:
                    want = +1 if c.orientation == "+" else -1
                    flips.add(self.direction[c.upper] != want)
            if flips == {True, False}:
                raise FrontError("conflicting orientation markers on one component")
            if flips == {True}:
                for s, r in self.component_of.items():
                    if r == comp:
                        self.direction[s] = -self.direction[s]

    def crossing_sign(self, x: _Crossing) -> int:
        # +1 when the two strands traverse the crossing in the same direction
        return self.direction[x.over_in] * self.direction[x.under_in]

    def cusp_is_up(self, c: _Cusp) -> bool:
        d = self.direction[c.upper]
        return d == +1 if c.side == "L" else d == -1


def _analyze(front: FrontDiagram) -> _Analysis:
    return _Analysis(front)


def component_count(front: FrontDiagram) -> int:
    return _analyze(front).n_components


def _select_component(an: _Analysis, component: int | None) -> int:
    if an.n_components == 1:
        return 0
    if component is None:
        raise FrontError(
            f"front has {an.n_components} components; pass component=<index>")
    if not 0 <= component < an.n_components:
        raise FrontError(f"no component {component}")
    return component


def _writhe(an: _Analysis, comp: int) -> int:
    return sum(an.crossing_sign(x) for x in an.crossings
               if an.component_of[x.over_in] == comp
               and an.component_of[x.under_in] == comp)


def writhe(front: FrontDiagram, component: int | None = None) -> int:
    """Signed self-crossing count of one component of the resolved diagram."""
    an = _analyze(front)
    return _writhe(an, _select_component(an, component))


def thurston_bennequin(front: FrontDiagram, component: int | None = None) -> int:
    """tb = writhe minus the number of right cusps."""
    an = _analyze(front)
    comp = _select_component(an, component)
    r = sum(1 for c in an.cusps
            if c.side == "R" and an.component_of[c.upper] == comp)
    return _writhe(an, comp) - r


def rotation_number(front: FrontDiagram, component: int | None = None) -> int:
    """(down cusps - up cusps) / 2 under the component's orientation."""
    an = _analyze(front)
    comp = _select_component(an, component)
    up = down = 0
    for c in an.cusps:
        if an.component_of[c.upper] != comp:
            continue
        if an.cusp_is_up(c):
            up += 1
        else:
            down += 1
    assert (down - up) % 2 == 0
    return (down - up) // 2


def reverse_orientation(front: FrontDiagram) -> FrontDiagram:
    """Same front with every component's orientation reversed."""
    an = _analyze(front)
    flipped_first: dict[int, str] = {}
    for c in an.cusps:
        comp = an.component_of[c.upper]
        if c.side == "L" and comp not in flipped_first:
            flipped_first[comp] = "-" if an.direction[c.upper] == +1 else "+"
    events = []
    seen: set[int] = set()
    cusp_idx = 0
    for ev in front.events:
        if ev.kind == "L":
            comp = an.component_of[an.cusps[cusp_idx].upper]
            mark = flipped_first[comp] if comp not in seen else None
            seen.add(comp)
            events.append(FrontEvent("L", ev.pos, mark))
        else:
            events.append(FrontEvent(ev.kind, ev.pos))
        if ev.kind in "LR":
            cusp_idx += 1
    return FrontDiagram(tuple(events))


# -- torus knots ----------------------------------------------------------------

def _require_torus_params(p: int, q: int) -> tuple[int, int]:
    if p < 2 or q < 2:
        raise FrontError("torus knot parameters must both be >= 2")
    if gcd(p, q) != 1:
        raise FrontError(f"({p},{q}) is not coprime")
    return (max(p, q), min(p, q))


def max_tb_torus_knot(p: int, q: int) -> int:
    """Maximal Thurston-Bennequin number pq - p - q of the (p,q) torus knot."""
    p, q = _require_torus_params(p, q)
    return p * q - p - q


def seifert_genus_torus_knot(p: int, q: int) -> int:
    """(p-1)(q-1)/2, the Seifert genus of the (p,q) torus knot."""
    p, q = _require_torus_params(p, q)
    return (p - 1) * (q - 1) // 2


def torus_knot_front(p: int, q: int) -> FrontDiagram:
    """Standard maximal-tb front: the positive braid closure on min(p,q) strands."""
    long, s = _require_torus_params(p, q)
    events = [FrontEvent("L", i) for i in range(1, s + 1)]
    for _ in range(long):
        events.extend(FrontEvent("X", i) for i in range(1, s))
    events.extend(FrontEvent("R", i) for i in range(s, 0, -1))
    return FrontDiagram(tuple(events))


# -- Stein framing verification ---------------------------------------------------

@dataclass(frozen=True)
class SteinVerdict:
    handle: str
    framing: int
    tb: int
    ok: bool


@dataclass(frozen=True)
class SteinReport:
    verdicts: tuple[SteinVerdict, ...]
    ok: bool


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
        tb = thurston_bennequin(front)
        f = d.framing(k)
        verdicts.append(SteinVerdict(k, f, tb, f == tb - 1))
    return SteinReport(tuple(verdicts), all(v.ok for v in verdicts))
