"""Central registry of every ``REPRO_*`` environment knob.

Every environment variable the package reads is declared here — name,
kind, default, and a one-line docstring — and every read goes through
this module's accessors.  The :mod:`repro.staticcheck` ``env-knob``
rule enforces the flow-through statically (``os.environ`` anywhere
else in ``src/`` is a lint finding), and the ``repro lint`` drift
check enforces that each registered knob is documented in
``docs/performance.md`` or ``docs/observability.md`` and vice versa.

Why a registry instead of seven ad-hoc ``os.environ.get`` calls:

* one place to discover every knob (``repro.env.knobs()``),
* uniform truthiness semantics for flag knobs (``0``/``false``/``no``/
  ``off`` disable, case-insensitively — previously three modules each
  had their own copy of that set),
* a lintable contract: an undeclared knob cannot be read by accident,
  and a declared knob cannot silently go undocumented.

Accessors never raise on malformed values: a knob that cannot be
parsed falls back to its default (callers that want to *warn* first,
like :func:`repro.parallel.resolve_jobs`, read the raw string via
:func:`get_raw` and keep their own recovery semantics).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = [
    "Knob",
    "register",
    "knobs",
    "knob",
    "get_raw",
    "get_flag",
    "get_int",
    "is_falsey",
    "is_truthy",
    "check_enabled",
    "FALSEY",
    "TRUTHY",
]

#: Shared truthiness vocabulary for flag-shaped knobs.  A flag knob is
#: *disabled* by any of these (case-insensitive, surrounding whitespace
#: ignored) and enabled by anything else.
FALSEY = frozenset({"", "0", "false", "no", "off"})
TRUTHY = frozenset({"1", "true", "yes", "on"})


def is_falsey(raw: str) -> bool:
    """Whether *raw* spells "off" in the shared flag vocabulary."""
    return raw.strip().lower() in FALSEY


def is_truthy(raw: str) -> bool:
    """Whether *raw* spells "on" (exactly; a path is neither)."""
    return raw.strip().lower() in TRUTHY


@dataclass(frozen=True)
class Knob:
    """Declaration of one environment knob.

    Attributes
    ----------
    name:
        The environment variable, always ``REPRO_*``.
    kind:
        ``"flag"`` (on/off via the shared truthiness vocabulary),
        ``"int"`` (positive integer), ``"str"`` (free-form, e.g. a
        path or a task index), or ``"flag-or-path"`` (the
        ``REPRO_TRACE`` shape: falsey = off, truthy = on, anything
        else = on *and* names a file path).
    default:
        Value the accessors return when the variable is unset or
        unparseable.
    doc:
        One-line description; surfaced by the docs drift check.
    """

    name: str
    kind: str
    default: object
    doc: str

    def __post_init__(self) -> None:
        if not self.name.startswith("REPRO_"):
            raise ValueError(
                f"knob {self.name!r} must be namespaced REPRO_*"
            )
        if self.kind not in ("flag", "int", "str", "flag-or-path"):
            raise ValueError(f"unknown knob kind {self.kind!r}")


_REGISTRY: dict[str, Knob] = {}


def register(name: str, kind: str, default: object, doc: str) -> Knob:
    """Declare a knob; re-registration with identical fields is a no-op.

    Conflicting re-registration raises — two modules silently
    disagreeing about a knob's default is exactly the drift this
    module exists to prevent.
    """
    k = Knob(name, kind, default, doc)
    existing = _REGISTRY.get(name)
    if existing is not None:
        if existing != k:
            raise ValueError(
                f"conflicting registration for {name}: {existing} vs {k}"
            )
        return existing
    _REGISTRY[name] = k
    return k


def knobs() -> tuple[Knob, ...]:
    """Every registered knob, sorted by name."""
    return tuple(_REGISTRY[n] for n in sorted(_REGISTRY))


def knob(name: str) -> Knob:
    """The declaration for *name*; raises ``KeyError`` if undeclared."""
    return _REGISTRY[name]


def get_raw(name: str) -> str | None:
    """The raw environment string for a *registered* knob (or None).

    Reading an unregistered name raises ``KeyError`` — new knobs must
    be declared below before use, which is what keeps the registry,
    the lint rule, and the docs in sync.
    """
    if name not in _REGISTRY:
        raise KeyError(
            f"environment knob {name!r} is not registered in repro.env"
        )
    return os.environ.get(name)


def get_flag(name: str) -> bool:
    """A flag knob's value: default when unset, else shared truthiness.

    An empty (or all-whitespace) value counts as *unset*, not as
    "off" — ``REPRO_SHM= python ...`` has always meant "default".
    """
    raw = get_raw(name)
    if raw is None or not raw.strip():
        return bool(_REGISTRY[name].default)
    return not is_falsey(raw)


def get_int(name: str) -> int:
    """An int knob's value; unset/unparseable/non-positive → default."""
    raw = get_raw(name)
    if raw is None:
        return int(_REGISTRY[name].default)  # type: ignore[arg-type]
    try:
        val = int(raw)
    except ValueError:
        return int(_REGISTRY[name].default)  # type: ignore[arg-type]
    return val if val > 0 else int(_REGISTRY[name].default)  # type: ignore[arg-type]


# --------------------------------------------------------------------- #
# The knobs.  One declaration each; the reading module is noted inline.


register(
    "REPRO_JOBS", "int", 0,
    "Default worker count when a sweep is called with jobs=0/None "
    "(repro.parallel.resolve_jobs); 0 means auto-detect CPU count.",
)
register(
    "REPRO_CACHE_SIZE", "int", 4096,
    "Default per-function memo capacity for repro.caching.memoized.",
)
register(
    "REPRO_TRACE", "flag-or-path", False,
    "Observability collection: falsey = off, truthy = collect "
    "in-memory, any other value = collect and export JSONL to that "
    "path (repro.observability).",
)
register(
    "REPRO_SHM", "flag", True,
    "Zero-copy shared-memory sweep transport; REPRO_SHM=0 forces the "
    "classic pickle pipe (repro.sharedmem).",
)
register(
    "REPRO_CHECK", "flag", False,
    "Runtime contract sanitizer: REPRO_CHECK=1 turns on NaN/inf, "
    "shape, dtype, and contiguity checks at PathMatrix/"
    "StackedPathMatrix construction and solver entry "
    "(repro.contracts).",
)
register(
    "REPRO_LEDGER_COMPACT", "int", 65536,
    "Minimum retired path entries before the simmpi FlowLedger "
    "compacts its append-only CSR arena (repro.simmpi.ledger); "
    "retired entries must also outnumber live ones.",
)
register(
    "REPRO_RESILIENCE_TEST_KILL", "str", "",
    "Chaos-test hook: task index at which the sweep executor "
    "(repro.parallel) calls os._exit(43), simulating a worker SIGKILL "
    "(repro.resilience).",
)
register(
    "REPRO_RESILIENCE_TEST_KILL_MARKER", "str", "",
    "Arms REPRO_RESILIENCE_TEST_KILL only while this marker file "
    "does not exist, so a resumed run proceeds (repro.resilience).",
)


def check_enabled() -> bool:
    """Whether the ``REPRO_CHECK`` runtime sanitizer is on.

    Read at call time (one dict lookup) so tests can flip the
    environment mid-process; the disabled path costs one branch.
    """
    return get_flag("REPRO_CHECK")
