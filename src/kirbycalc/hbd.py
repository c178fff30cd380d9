"""The `.hbd` diagram format: line-oriented, diffable, hand-writable.

    manifold <name>
    1h <id>
    2h <id> framing <int>
    lk <id> <id> <int>        # 2-handle pair, symmetric; last write wins
    rt <2h-id> <1h-id> <int>
    front <2h-id> : <front tokens>
    3h <count>

`#` starts a comment; identifiers must be declared before they are used.
An error reads `source:line:1: message`.  Handle ids hold no whitespace or
`#` (checked at construction); the parser's id pattern is narrower, so an
id such as `e*` prints but does not parse.
A front line's word is looked up in `parse_front`'s word memo, the one table
from word to front: lines and documents with the same word share one
(immutable) diagram while the word stays among the memo's last 64, and always
parse to equal diagrams.  Printing reads each front's own `word`; it is
canonical (sorted lk/rt lines), and parse(print(doc)) == doc for every valid
document.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from .handles import HandleDecomposition, HandleError, _pair
from .legendrian import FrontDiagram, FrontError, _front_of_word

_ID = re.compile(r"[A-Za-z0-9_.~+'-]+$")
_INT = re.compile(r"[+-]?\d+$")


class HbdParseError(ValueError):
    def __init__(self, message: str, source: str, line: int):
        super().__init__(f"{source}:{line}:1: {message}")
        self.source = source
        self.line = line
        self.column = 1


@dataclass(frozen=True)
class DiagramDocument:
    decomposition: HandleDecomposition
    annotation: Mapping[str, FrontDiagram] = field(default_factory=dict)

    def __post_init__(self) -> None:
        ann = dict(self.annotation)
        for k in ann:
            if not self.decomposition.is_two_handle(k):
                raise HandleError(f"front annotation names missing 2-handle {k!r}")
        object.__setattr__(self, "annotation", MappingProxyType(ann))

    @property
    def name(self) -> str:
        return self.decomposition.name


def parse_hbd(text: str, source: str = "<string>") -> DiagramDocument:
    name: str | None = None
    ones: dict[str, None] = {}      # declared 1-handle ids, in order
    twos: dict[str, int] = {}       # declared 2-handle id -> framing
    links: dict[tuple[str, str], int] = {}
    rt: dict[tuple[str, str], int] = {}
    three = 0
    fronts: dict[str, FrontDiagram] = {}

    def err(msg: str, line_no: int) -> HbdParseError:
        return HbdParseError(msg, source, line_no)

    def want_id(tok: str, line_no: int) -> str:
        # a declared identifier has matched the pattern already
        if tok not in twos and tok not in ones and not _ID.match(tok):
            raise err(f"bad identifier {tok!r}", line_no)
        return tok

    def want_int(tok: str, line_no: int) -> int:
        if not _INT.match(tok):
            raise err(f"bad integer {tok!r}", line_no)
        return int(tok)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kw = parts[0]
        if name is None:
            if kw != "manifold" or len(parts) != 2:
                raise err("expected `manifold <name>` header", line_no)
            name = parts[1]        # names may be freer than handle ids
            continue
        if kw == "manifold":
            raise err("duplicate manifold header", line_no)
        if kw == "1h":
            if len(parts) != 2:
                raise err("expected `1h <id>`", line_no)
            h = want_id(parts[1], line_no)
            if h in ones or h in twos:
                raise err(f"duplicate identifier {h!r}", line_no)
            ones[h] = None
        elif kw == "2h":
            if len(parts) != 4 or parts[2] != "framing":
                raise err("expected `2h <id> framing <int>`", line_no)
            k = want_id(parts[1], line_no)
            if k in ones or k in twos:
                raise err(f"duplicate identifier {k!r}", line_no)
            twos[k] = want_int(parts[3], line_no)
        elif kw == "lk":
            if len(parts) != 4:
                raise err("expected `lk <id> <id> <int>`", line_no)
            a, b = want_id(parts[1], line_no), want_id(parts[2], line_no)
            if a == b:
                raise err("self-linking is forbidden; use the framing", line_no)
            for x in (a, b):
                if x not in twos:
                    raise err(f"lk names undeclared 2-handle {x!r}", line_no)
            key = _pair(a, b)
            if key in links:
                warnings.warn(f"{source}:{line_no}: lk {a} {b} overrides an "
                              "earlier value", stacklevel=2)
            links[key] = want_int(parts[3], line_no)
        elif kw == "rt":
            if len(parts) != 4:
                raise err("expected `rt <2h-id> <1h-id> <int>`", line_no)
            k, h = want_id(parts[1], line_no), want_id(parts[2], line_no)
            if k not in twos:
                raise err(f"rt names undeclared 2-handle {k!r}", line_no)
            if h not in ones:
                raise err(f"rt names undeclared 1-handle {h!r}", line_no)
            if (k, h) in rt:
                warnings.warn(f"{source}:{line_no}: rt {k} {h} overrides an "
                              "earlier value", stacklevel=2)
            rt[(k, h)] = want_int(parts[3], line_no)
        elif kw == "front":
            if len(parts) < 3 or parts[2] != ":":
                raise err("expected `front <2h-id> : <tokens>`", line_no)
            k = want_id(parts[1], line_no)
            if k not in twos:
                raise err(f"front names undeclared 2-handle {k!r}", line_no)
            if k in fronts:
                raise err(f"duplicate front for {k!r}", line_no)
            try:    # the split tokens joined once are already the memo's key
                fronts[k] = _front_of_word(" ".join(parts[3:]))
            except FrontError as exc:
                raise err(str(exc), line_no) from exc
        elif kw == "3h":
            if len(parts) != 2:
                raise err("expected `3h <count>`", line_no)
            three = want_int(parts[1], line_no)
            if three < 0:
                raise err("3-handle count must be non-negative", line_no)
        else:
            raise err(f"unknown directive {kw!r}", line_no)

    if name is None:
        raise HbdParseError("missing manifold header", source,
                            max(1, text.count("\n") + 1))
    decomposition = HandleDecomposition(tuple(ones), tuple(twos.items()), links, rt,
                                        three, name)
    return DiagramDocument(decomposition, fronts)


def print_hbd(doc: DiagramDocument) -> str:
    d = doc.decomposition
    lines = [f"manifold {d.name or 'unnamed'}"]
    lines.extend(f"1h {h}" for h in d.one_handles)
    lines.extend(f"2h {k} framing {f}" for k, f in d.two_handles)
    lines.extend(f"lk {a} {b} {v}" for (a, b), v in d.links.items())
    lines.extend(f"rt {k} {h} {v}" for (k, h), v in d.run_through.items())
    if d.three_handles:
        lines.append(f"3h {d.three_handles}")
    lines.extend(f"front {k} : {doc.annotation[k].word}" for k in sorted(doc.annotation))
    return "\n".join(lines) + "\n"
