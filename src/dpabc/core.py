"""Ground types for approval-based committee voting.

Alternatives are integers ``0..m-1``. A ballot is a non-empty frozenset of
alternatives, a profile is an ordered tuple of ballots, and an :class:`Instance`
bundles a profile with the committee size ``k``. Committees are sorted tuples
of ``k`` distinct alternatives; ``canonical_committees`` fixes the canonical
(lexicographic) order that every distribution and report in this package
indexes by.

All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator


class InvalidParametersError(ValueError):
    """Raised when an operation is called outside its contract."""


class ProfileParseError(ValueError):
    """Raised on malformed profile text; carries a 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ResourceLimitError(RuntimeError):
    """Raised when an exact audit would exceed a documented size policy."""


@dataclass(frozen=True)
class Instance:
    """A voting instance: an approval profile over ``m`` alternatives plus
    the committee size ``k``.

    Invariants enforced at construction: ``m >= 3``, ``1 <= k <= m``,
    ``n >= 1``, and every ballot is a non-empty subset of ``range(m)``.
    ``ballots`` may be any iterable of iterables; it is stored as a tuple of
    frozensets.
    """

    ballots: tuple
    m: int
    k: int

    def __post_init__(self):
        if self.m < 3:
            raise InvalidParametersError(f"need m >= 3 alternatives, got m={self.m}")
        if not 1 <= self.k <= self.m:
            raise InvalidParametersError(f"need 1 <= k <= m, got k={self.k}, m={self.m}")
        canonical = tuple(_ballot(i, b, self.m) for i, b in enumerate(self.ballots))
        if not canonical:
            raise InvalidParametersError("profile must contain at least one voter")
        object.__setattr__(self, "ballots", canonical)

    @property
    def n(self) -> int:
        return len(self.ballots)

    def replace_ballot(self, voter: int, ballot) -> "Instance":
        """Return a new instance with ``voter``'s ballot swapped out. Only the
        new ballot is validated; the rest are already canonical."""
        voter = range(self.n)[voter]  # an IndexError as for the list
        return self._replaced(voter, _ballot(voter, ballot, self.m))

    def _replaced(self, voter: int, ballot: frozenset) -> "Instance":
        """``replace_ballot`` unchecked: ``voter`` in ``range(n)``, ``ballot`` valid."""
        ballots = self.ballots[:voter] + (ballot,) + self.ballots[voter + 1 :]
        inst = object.__new__(Instance)
        object.__setattr__(inst, "ballots", ballots)
        object.__setattr__(inst, "m", self.m)
        object.__setattr__(inst, "k", self.k)
        return inst


def _ballot(voter: int, ballot, m: int) -> frozenset:
    """``voter``'s ballot as a frozenset, or a usage error when it is empty or
    approves alternatives outside ``range(m)``."""
    b = frozenset(ballot)
    if not b:
        raise InvalidParametersError(f"voter {voter} has an empty ballot")
    # type(a) is int rejects bools, which parse_instance could not read back
    if not all(type(a) is int and 0 <= a < m for a in b):
        raise InvalidParametersError(
            f"voter {voter} approves alternatives outside 0..{m - 1}: {sorted(b)}"
        )
    return b


@lru_cache(maxsize=64)
def canonical_committees(m: int, k: int) -> tuple:
    """All C(m, k) size-``k`` committees in lexicographic order of their sorted
    member indices, as one shared tuple per ``(m, k)``. This order is the
    canonical global ordering used by sampling and reports."""
    if k < 1 or k > m:
        raise InvalidParametersError(f"need 1 <= k <= m, got k={k}, m={m}")
    return tuple(itertools.combinations(range(m), k))


@lru_cache(maxsize=64)
def committee_index(m: int, k: int) -> dict:
    """Each canonical committee's position in ``canonical_committees(m, k)``,
    as one shared dict per ``(m, k)``."""
    return {w: i for i, w in enumerate(canonical_committees(m, k))}


def nonempty_subsets(m: int) -> Iterator[frozenset]:
    """The 2^m - 1 non-empty ballots over ``range(m)``, in bitmask order."""
    for mask in range(1, 1 << m):
        yield frozenset(a for a in range(m) if mask >> a & 1)


def enumerate_neighbors(inst: Instance) -> Iterator[tuple]:
    """Yield ``(voter, neighbor)`` for every instance obtained by replacing
    exactly one voter's ballot with a different non-empty subset of the
    alternatives. Yields n*(2^m - 2) neighbors, none equal to the input,
    each at profile distance 1; ``k`` is unchanged."""
    for voter in range(inst.n):
        current = inst.ballots[voter]
        for ballot in nonempty_subsets(inst.m):
            if ballot != current:
                yield voter, inst.replace_ballot(voter, ballot)


def parse_instance(text: str) -> Instance:
    """Parse the profile text format.

    Line 1 is ``m=<int> k=<int>``, both fields once each in either order and
    nothing else; each further non-blank line lists one voter's approved
    alternative indices separated by spaces. Blank lines and ``#`` comments
    are ignored. Empty ballots are rejected.
    """
    return read_instance((text,))


def _utf8(line: str, lineno: int) -> str:
    """``line``, or a parse error when it holds a surrogate: a byte that was not UTF-8."""
    if not line.isascii() and any("\ud800" <= c <= "\udfff" for c in line):
        raise ProfileParseError("not UTF-8 text", lineno)
    return line


def read_instance(source: Iterable[str], admit: Callable = lambda m, k: math.inf) -> Instance:
    """Parse profile text (see :func:`parse_instance`) given in pieces that
    end at line breaks, such as an open file's lines, reading only as far as
    it must. ``admit(m, k)`` runs on the header before any voter line is
    parsed and returns the most voters the instance may have, or raises. The
    first voter line past that many is a ``ResourceLimitError``: no ballot
    past the cap is built, and the lines after it are not parsed. A line with
    a byte that is not UTF-8 (read with ``errors="surrogateescape"``) is a parse error."""
    # each piece splits as str.splitlines splits the whole text
    lines = itertools.chain.from_iterable(map(str.splitlines, source))
    cut = ((i, _utf8(raw, i).split("#", 1)[0].strip()) for i, raw in enumerate(lines, start=1))
    rows = ((i, line) for i, line in cut if line)
    header = next(rows, None)
    if header is None:
        raise ProfileParseError("missing 'm=<int> k=<int>' header", 1)
    lineno, line = header
    parts = line.split()
    try:
        fields = dict(p.split("=", 1) for p in parts)
        if len(parts) != 2 or fields.keys() != {"m", "k"}:
            raise ValueError
        m, k = int(fields["m"]), int(fields["k"])
    except ValueError:
        message = f"expected header 'm=<int> k=<int>', got {line!r}"
        raise ProfileParseError(message, lineno) from None
    cap = admit(m, k)
    ballots = []
    for lineno, line in rows:
        if len(ballots) == cap:
            # one more voter line is read, unparsed, to tell n = cap + 1 apart
            got = f"n={cap + 1}" if next(rows, None) is None else f"n >= {cap + 2}"
            raise ResourceLimitError(f"voter count limited to n <= {cap}, got {got}")
        try:
            approved = [int(tok) for tok in line.split()]
        except ValueError:
            raise ProfileParseError(f"non-integer alternative index in {line!r}", lineno) from None
        bad = [a for a in approved if not 0 <= a < m]
        if bad:
            raise ProfileParseError(f"alternative index out of range 0..{m - 1}: {bad[0]}", lineno)
        ballots.append(frozenset(approved))
    if not ballots:
        raise ProfileParseError("no voter lines", 1)
    try:
        return Instance(tuple(ballots), m, k)
    except InvalidParametersError as exc:
        raise ProfileParseError(str(exc), 1) from None

