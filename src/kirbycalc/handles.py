"""Framed-link handle decompositions of compact 4-manifolds and their moves.

A decomposition records 1-handles (dotted circles), framed 2-handles, the
algebraic linking numbers between 2-handles, and the algebraic count of each
2-handle through each dotted circle.  All moves are pure: they return a new
value and never mutate their input, so decompositions can be shared freely
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import index
from types import MappingProxyType
from typing import Container, Mapping, Sequence


class HandleError(ValueError):
    """A move was applied to data that does not satisfy its preconditions."""


def _pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def _integer(v: object, what: str, error: type[ValueError] = HandleError) -> int:
    try:
        return index(v)
    except TypeError:
        raise error(f"{what} must be an integer, got {v!r}") from None


def fresh_id(base: str, taken: Container[str]) -> str:
    """Smallest decorated variant of `base` not in `taken`, which is read, not copied."""
    if base not in taken:
        return base
    k = 2
    while f"{base}_{k}" in taken:
        k += 1
    return f"{base}_{k}"


@dataclass(frozen=True)
class HandleDecomposition:
    """Algebraic shadow of a Kirby diagram.

    `two_handles` is an ordered tuple of (id, framing).  `links` maps sorted
    pairs of distinct 2-handle ids to linking numbers, `run_through` maps
    (2-handle id, 1-handle id) to the algebraic count through the dotted
    circle.  Zero entries are dropped and the rest sorted by key, so equal
    diagrams compare equal and print alike; moves may pass zeros in.
    `three_handles` is bookkeeping only and never enters any computation.
    Handle ids are non-empty strings and, like `name`, hold no whitespace
    or `#`, so a `.hbd` document keeps them apart.
    """

    one_handles: tuple[str, ...] = ()
    two_handles: tuple[tuple[str, int], ...] = ()
    links: Mapping[tuple[str, str], int] = field(default_factory=dict)
    run_through: Mapping[tuple[str, str], int] = field(default_factory=dict)
    three_handles: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        ones = tuple(self.one_handles)
        twos = tuple((i, f if type(f) is int else _integer(f, f"framing of {i!r}"))
                     for i, f in self.two_handles)
        object.__setattr__(self, "one_handles", ones)
        object.__setattr__(self, "two_handles", twos)
        object.__setattr__(self, "three_handles", _integer(self.three_handles, "three_handles"))
        all_ids = list(ones) + [i for i, _ in twos]
        # one join and split: a non-str fails the join, an empty or spaced id splits apart
        try:
            ok = "#" not in (joined := " ".join(all_ids)) and joined.split() == all_ids
        except TypeError:
            ok = False
        if not ok:
            bad = next(i for i in all_ids
                       if not isinstance(i, str) or "#" in i or i.split() != [i])
            raise HandleError(f"handle id {bad!r} is not a non-empty string "
                              "free of whitespace and '#'")
        if len(set(all_ids)) != len(all_ids):
            raise HandleError(f"duplicate handle identifiers in {all_ids}")
        if self.three_handles < 0:
            raise HandleError("three_handles must be non-negative")
        if self.name and ("#" in self.name or self.name.split() != [self.name]):
            raise HandleError(f"name {self.name!r} holds whitespace or '#'")
        framings = dict(twos)
        one_set = set(ones)

        links: dict[tuple[str, str], int] = {}
        for (a, b), v in self.links.items():
            if a == b:
                raise HandleError(f"self-linking of {a!r}: use the framing")
            if a not in framings or b not in framings:
                raise HandleError(f"link {a!r}-{b!r} names a missing 2-handle")
            if type(v) is not int:
                v = _integer(v, f"link {a!r}-{b!r}")
            if v:
                key = _pair(a, b)
                if key in links and links[key] != v:
                    raise HandleError(f"conflicting link values for {key}")
                links[key] = v
        rt: dict[tuple[str, str], int] = {}
        for (k, h), v in self.run_through.items():
            if k not in framings:
                raise HandleError(f"run-through names missing 2-handle {k!r}")
            if h not in one_set:
                raise HandleError(f"run-through names missing 1-handle {h!r}")
            if type(v) is not int:
                v = _integer(v, f"run-through {k!r}-{h!r}")
            if v:
                rt[(k, h)] = v
        object.__setattr__(self, "links", MappingProxyType(dict(sorted(links.items()))))
        object.__setattr__(self, "run_through", MappingProxyType(dict(sorted(rt.items()))))
        # lookup tables, not fields: equality, repr and replace() ignore them
        object.__setattr__(self, "_framings", framings)
        object.__setattr__(self, "_one_set", one_set)

    # -- accessors ---------------------------------------------------------

    @property
    def two_handle_ids(self) -> tuple[str, ...]:
        return tuple(i for i, _ in self.two_handles)

    @property
    def all_ids(self) -> tuple[str, ...]:
        return self.one_handles + self.two_handle_ids

    def is_one_handle(self, h: str) -> bool:
        return h in self._one_set

    def is_two_handle(self, k: str) -> bool:
        return k in self._framings

    def framing(self, k: str) -> int:
        f = self._framings.get(k)
        if f is None:
            raise HandleError(f"unknown 2-handle {k!r}")
        return f

    def link(self, a: str, b: str) -> int:
        if a not in self._framings or b not in self._framings:
            raise HandleError(f"link requires two 2-handles, got {a!r}, {b!r}")
        if a == b:
            raise HandleError("self-linking is the framing")
        return self.links.get(_pair(a, b), 0)

    def run_through_count(self, k: str, h: str) -> int:
        if k not in self._framings:
            raise HandleError(f"unknown 2-handle {k!r}")
        if h not in self._one_set:
            raise HandleError(f"unknown 1-handle {h!r}")
        return self.run_through.get((k, h), 0)

    def __repr__(self) -> str:  # compact; the dicts are noisy otherwise
        return (f"HandleDecomposition(name={self.name!r}, "
                f"one={list(self.one_handles)}, two={list(self.two_handles)}, "
                f"links={dict(self.links)}, rt={dict(self.run_through)})")


# -- moves ------------------------------------------------------------------


def handle_slide(d: HandleDecomposition, a: str, b: str, sign: int) -> HandleDecomposition:
    """Slide 2-handle `a` over 2-handle `b` (sign +1 adds, -1 subtracts).

    In homology the slide replaces [a] by [a] + sign*[b], so every pairing of
    `a` updates accordingly: the framing becomes f_a + f_b + 2*sign*lk(a, b),
    lk(a, c) gains sign*lk(b, c) for every other handle c (with lk(b, b) read
    as the framing of b), and run-throughs add.  Sliding with +1 and then -1
    over the same handle restores the input exactly.
    """
    if a == b:
        raise HandleError("cannot slide a handle over itself")
    if type(sign) is not int:
        sign = _integer(sign, "sign")
    if sign not in (1, -1):
        raise HandleError("sign must be +1 or -1")
    fa, fb = d.framing(a), d.framing(b)
    lk_ab = d.link(a, b)

    links = dict(d.links)
    for (x, y), v in d.links.items():
        if b in (x, y) and a not in (x, y):
            key = _pair(a, y if x == b else x)
            links[key] = links.get(key, 0) + sign * v
    links[_pair(a, b)] = lk_ab + sign * fb
    rt = dict(d.run_through)
    for (k, h), v in d.run_through.items():
        if k == b:
            rt[(a, h)] = rt.get((a, h), 0) + sign * v

    new_fa = fa + fb + 2 * sign * lk_ab
    twos = tuple((i, new_fa if i == a else f) for i, f in d.two_handles)
    return HandleDecomposition(d.one_handles, twos, links, rt, d.three_handles, d.name)


def blow_up(d: HandleDecomposition,
            attachments: Sequence[tuple[str, int]] = (),
            new_id: str | None = None) -> HandleDecomposition:
    """Introduce a -1-framed 2-handle encircling the listed handles.

    `attachments` lists (2-handle id, multiplicity); the new circle links the
    listed handles with the given multiplicities, and the full left twist it
    introduces lowers framings by m^2 and mutual linkings by m_a*m_b.  This is
    the exact inverse of `blow_down`, so the boundary 3-manifold is unchanged.
    """
    mult: dict[str, int] = {}
    for k, m in attachments:
        if not d.is_two_handle(k):
            raise HandleError(f"unknown 2-handle {k!r} in blow-up attachments")
        if k in mult:
            raise HandleError(f"duplicate attachment for {k!r}")
        mult[k] = _integer(m, f"multiplicity of {k!r}")
    mult = {k: m for k, m in mult.items() if m}
    e = new_id if new_id is not None else fresh_id("e1", d.all_ids)
    if e in d.all_ids:
        raise HandleError(f"identifier {e!r} already in use")

    links = dict(d.links)
    attached = list(mult.items())
    for i, (x, mx) in enumerate(attached):
        for y, my in attached[i + 1:]:
            key = _pair(x, y)
            links[key] = links.get(key, 0) - mx * my
        links[_pair(e, x)] = mx

    twos = tuple((i, f - mult.get(i, 0) ** 2) for i, f in d.two_handles)
    twos += ((e, -1),)
    return HandleDecomposition(d.one_handles, twos, links, d.run_through,
                               d.three_handles, d.name)


def blow_down(d: HandleDecomposition, e: str) -> HandleDecomposition:
    """Delete a -1-framed 2-handle, absorbing it into the handles it links."""
    if not d.is_two_handle(e):
        raise HandleError(f"unknown 2-handle {e!r}")
    if d.framing(e) != -1:
        raise HandleError(f"blow-down needs framing -1, {e!r} has {d.framing(e)}")
    for h in d.one_handles:
        if d.run_through_count(e, h):
            raise HandleError(f"{e!r} runs through 1-handle {h!r}")

    lk_e = {y if x == e else x: v for (x, y), v in d.links.items() if e in (x, y)}
    links = {key: v for key, v in d.links.items() if e not in key}
    linked = list(lk_e.items())
    for i, (x, vx) in enumerate(linked):
        for y, vy in linked[i + 1:]:
            key = _pair(x, y)
            links[key] = links.get(key, 0) + vx * vy
    twos = tuple((i, f + lk_e.get(i, 0) ** 2) for i, f in d.two_handles if i != e)
    return HandleDecomposition(d.one_handles, twos, links, d.run_through,
                               d.three_handles, d.name)


def dot_zero_swap(d: HandleDecomposition, h: str, k: str) -> HandleDecomposition:
    """Exchange the dot on `h` with the zero framing on `k`.

    The 1-handle `h` becomes a 0-framed 2-handle and the 0-framed 2-handle `k`
    becomes a 1-handle; every pairing is carried over so that the underlying
    surgery presentation is unchanged.  Applying the swap twice restores the
    input exactly.
    """
    if not d.is_one_handle(h):
        raise HandleError(f"{h!r} is not a 1-handle")
    if not d.is_two_handle(k):
        raise HandleError(f"{k!r} is not a 2-handle")
    if d.framing(k) != 0:
        raise HandleError(f"dot-zero swap needs framing 0, {k!r} has {d.framing(k)}")
    for g in d.one_handles:
        if g != h and d.run_through_count(k, g):
            raise HandleError(
                f"{k!r} runs through {g!r}; only the swapped pair may be linked")

    ones = tuple(k if g == h else g for g in d.one_handles)
    twos = tuple((h, 0) if i == k else (i, f) for i, f in d.two_handles)

    links: dict[tuple[str, str], int] = {}
    rt: dict[tuple[str, str], int] = {}
    for (a, b), v in d.links.items():
        if k in (a, b):
            other = b if a == k else a
            rt[(other, k)] = v          # 2-handle linking k now runs through it
        else:
            links[_pair(a, b)] = v
    for (c, g), v in d.run_through.items():
        if c == k and g == h:
            rt[(h, k)] = v              # pairing of the swapped pair survives
        elif g == h:
            links[_pair(c, h)] = v      # runs through h become links with h
        else:
            rt[(c, g)] = v
    return HandleDecomposition(ones, twos, links, rt, d.three_handles, d.name)


def boundary_sum(d1: HandleDecomposition, d2: HandleDecomposition) -> HandleDecomposition:
    """Disjoint union of the handle data; colliding ids of `d2` are renamed."""
    taken = set(d1.all_ids)
    rename: dict[str, str] = {}
    for i in d2.all_ids:
        new = fresh_id(i, taken)
        rename[i] = new
        taken.add(new)

    ones = d1.one_handles + tuple(rename[g] for g in d2.one_handles)
    twos = d1.two_handles + tuple((rename[i], f) for i, f in d2.two_handles)
    links = dict(d1.links)
    links.update({_pair(rename[a], rename[b]): v for (a, b), v in d2.links.items()})
    rt = dict(d1.run_through)
    rt.update({(rename[k], rename[g]): v for (k, g), v in d2.run_through.items()})
    name = d1.name and d2.name and f"{d1.name}+{d2.name}" or (d1.name or d2.name)
    return HandleDecomposition(ones, twos, links, rt,
                               d1.three_handles + d2.three_handles, name)


def rational_blowdown_splice(d: HandleDecomposition, chain: Sequence[str],
                             p: int) -> HandleDecomposition:
    """Replace a linear (-(p+2), -2, ..., -2) chain by its rational ball block.

    The chain must be listed starting from the -(p+2)-framed handle, with
    consecutive linking numbers +1 and no other pairings; any handle outside
    the chain linking into it is rejected rather than re-routed.  The inserted
    block is one dotted circle b0 and one (p-1)-framed 2-handle b1 running
    through it p times, whose boundary presentation has determinant -p^2.
    """
    p = _integer(p, "p")
    if p < 2:
        raise HandleError("rational blowdown needs p >= 2")
    chain = list(chain)
    if len(chain) != p - 1:
        raise HandleError(f"chain must have {p - 1} handles, got {len(chain)}")
    members = set(chain)
    if len(members) != len(chain):
        raise HandleError("chain repeats a handle")
    for c in chain:
        if not d.is_two_handle(c):
            raise HandleError(f"unknown 2-handle {c!r} in chain")
    expected = [-(p + 2)] + [-2] * (p - 2)
    actual = [d.framing(c) for c in chain]
    if actual != expected:
        raise HandleError(f"chain framings {actual} do not match {expected}")
    # only consecutive pairs and pairs that link can break the pattern;
    # sorting the positions reports the first broken pair in chain order
    position = {c: i for i, c in enumerate(chain)}
    pairs = {(i, i + 1) for i in range(len(chain) - 1)}
    pairs.update(tuple(sorted((position[a], position[b])))
                 for a, b in d.links if a in members and b in members)
    for i, j in sorted(pairs):
        want = 1 if j == i + 1 else 0
        if d.links.get(_pair(chain[i], chain[j]), 0) != want:
            raise HandleError("chain linking pattern broken between "
                              f"{chain[i]!r} and {chain[j]!r}")
    ids = d.two_handle_ids
    through = {k for k, _ in d.run_through if k in members}
    outside: dict[str, set[str]] = {}  # chain member -> external handles linking it
    for a, b in d.links:
        if (a in members) != (b in members):
            c, x = (a, b) if a in members else (b, a)
            outside.setdefault(c, set()).add(x)
    for c in chain:
        if c in through:
            raise HandleError(f"chain member {c!r} runs through a 1-handle")
        if c in outside:
            x = next(x for x in ids if x in outside[c])
            raise HandleError(
                f"external handle {x!r} links the excised chain at {c!r}")

    keep = set(ids) - members
    taken = set(d.all_ids)
    b0 = fresh_id("b0", taken)
    b1 = fresh_id("b1", taken | {b0})
    ones = d.one_handles + (b0,)
    twos = tuple((i, f) for i, f in d.two_handles if i in keep) + ((b1, p - 1),)
    links = {key: v for key, v in d.links.items()
             if key[0] in keep and key[1] in keep}
    rt = dict(d.run_through)
    rt[(b1, b0)] = p
    return HandleDecomposition(ones, twos, links, rt, d.three_handles, d.name)
