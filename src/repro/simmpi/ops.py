"""Operation types for the virtual-time MPI simulator.

Rank programs are Python generators that ``yield`` operation objects;
the engine (:mod:`repro.simmpi.engine`) interprets them, advances
virtual time, and resumes the generator when the operation completes.
Supported operations:

* :class:`Compute` — spend local computation time;
* :class:`Send` / :class:`Recv` — blocking rendezvous point-to-point
  (the transfer starts when both sides have posted, and both resume when
  the last byte arrives — the behaviour of large-message MPI); sends may
  carry a Python *payload* that the matching receive's ``yield``
  expression evaluates to, so programs can move real data;
* :class:`Isend` — eager (buffered) send: the sender continues at once,
  only the receiver waits for the wire time;
* :class:`SendRecv` — simultaneous exchange (full-duplex links make the
  two directions independent);
* :class:`Barrier` — global synchronization.

All volumes are in GB (matching the link-capacity units of
:mod:`repro.netsim`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .._validation import check_nonnegative_int, check_positive_float

__all__ = ["Compute", "Send", "Isend", "Recv", "SendRecv", "Barrier"]


def _check_transfer(rank: int, name: str, gb: float, tag: int) -> None:
    """Validate a transfer op's peer rank, volume and tag.

    Exact ``int`` ranks and tags with a finite positive ``float`` volume
    pass inline (rank programs post one op per message); anything else
    goes through the :mod:`repro._validation` helpers, which raise.
    """
    if (
        type(rank) is int and rank >= 0
        and type(tag) is int and tag >= 0
        and type(gb) is float and 0.0 < gb < math.inf
    ):
        return
    check_nonnegative_int(rank, name)
    check_positive_float(gb, "gb")
    check_nonnegative_int(tag, "tag")


@dataclass(frozen=True)
class Compute:
    """Spend *seconds* of local computation time."""

    seconds: float

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError(
                f"compute time must be non-negative, got {self.seconds}"
            )
        if not math.isfinite(self.seconds):
            raise ValueError(
                f"compute time must be finite, got {self.seconds}"
            )


@dataclass(frozen=True)
class Send:
    """Blocking send of *gb* gigabytes to rank *dst* with a *tag*.

    *payload* is an optional Python object delivered to the matching
    :class:`Recv` when the transfer completes — rank programs can move
    real data (e.g. NumPy blocks) while the engine charges virtual time
    for *gb*.  The payload is passed by reference; treat it as
    immutable after sending.
    """

    dst: int
    gb: float
    tag: int = 0
    payload: object = None

    def __post_init__(self) -> None:
        _check_transfer(self.dst, "dst", self.gb, self.tag)


@dataclass(frozen=True)
class Isend:
    """Eager (buffered, non-blocking) send: the rank continues
    immediately; the transfer occupies the network once the receiver
    posts, and only the receiver waits for its completion.  Models
    MPI's buffered/eager path and is what makes ring pipelines
    expressible under rendezvous semantics.
    """

    dst: int
    gb: float
    tag: int = 0
    payload: object = None

    def __post_init__(self) -> None:
        _check_transfer(self.dst, "dst", self.gb, self.tag)


@dataclass(frozen=True)
class Recv:
    """Blocking receive from rank *src* with a matching *tag*."""

    src: int
    tag: int = 0

    def __post_init__(self) -> None:
        src, tag = self.src, self.tag
        if type(src) is int and src >= 0 and type(tag) is int and tag >= 0:
            return
        check_nonnegative_int(src, "src")
        check_nonnegative_int(tag, "tag")


@dataclass(frozen=True)
class SendRecv:
    """Simultaneously send *gb* to *peer* and receive from *peer*.

    Equivalent to posting a :class:`Send` and a :class:`Recv` to the
    same peer at once; completes when both directions finish.  The
    yielding rank resumes with the peer's *payload* as the value of the
    ``yield`` expression.
    """

    peer: int
    gb: float
    tag: int = 0
    payload: object = None

    def __post_init__(self) -> None:
        _check_transfer(self.peer, "peer", self.gb, self.tag)


@dataclass(frozen=True)
class Barrier:
    """Block until every rank has reached a barrier."""
