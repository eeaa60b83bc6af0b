"""Determinism rules: randomness, wall-clock time, set iteration.

Every result in this reproduction must be a pure function of explicit
seeds — the serial≡parallel, vector≡scalar, and shm≡pickle contracts
are all bit-exact comparisons, and one stray global-RNG draw or
wall-clock read quietly voids them.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from .core import FileContext, Finding, Rule, register_rule, resolved_name

__all__ = [
    "UnseededRandomRule",
    "WallclockRule",
    "SetOrderRule",
]

#: ``random``-module attributes that are *safe*: constructing an
#: explicitly seeded generator object.  Everything else on the module
#: is a draw from (or a mutation of) the hidden global RNG, and
#: ``SystemRandom`` is OS entropy — unseedable by definition.
_RANDOM_OK = frozenset({"Random"})

#: ``numpy.random`` attributes that are safe: generator/seed machinery
#: rather than draws from the hidden legacy global state.
_NP_RANDOM_OK = frozenset({
    "default_rng",
    "SeedSequence",
    "Generator",
    "RandomState",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
})

#: ARPACK solvers that start from a random vector unless given ``v0``
#: (the sixth positional parameter of each).
_ARPACK = frozenset(
    f"scipy.sparse.linalg.{fn}" for fn in ("eigsh", "eigs", "svds")
)

#: ``time``-module calls that read the wall clock (or stall on it).
_WALLCLOCK = frozenset({
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.sleep",
})

_DATETIME_NOW = frozenset({
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})


@register_rule
class UnseededRandomRule(Rule):
    """Unseeded randomness: the global ``random``/``np.random`` state,
    ``SystemRandom``, ``os.urandom``, and ARPACK solves without ``v0``."""

    id = "unseeded-random"
    summary = (
        "randomness must flow through random.Random(seed) or "
        "numpy SeedSequence/default_rng(seed), never the global RNGs"
    )
    hint = (
        "construct random.Random(seed) or np.random.default_rng(seed) "
        "from an explicit seed (see repro.parallel.split_seeds)"
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                name = resolved_name(ctx.aliases, node.func)
                if name is None:
                    continue
                bad = self._classify(name)
                if name in _ARPACK and not self._passes_v0(node):
                    bad = f"{name} without v0 starts ARPACK at random"
                if bad:
                    yield self.finding(ctx, node, bad)
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                for alias in node.names:
                    full = f"{base}.{alias.name}"
                    bad = self._classify(full)
                    if bad:
                        yield self.finding(
                            ctx, node,
                            f"importing {full} pulls in nondeterminism: "
                            f"{bad}",
                        )

    @staticmethod
    def _passes_v0(call: ast.Call) -> bool:
        # ``**kwargs`` may carry v0; only a visible omission fires.
        return len(call.args) >= 6 or any(
            kw.arg in ("v0", None) for kw in call.keywords
        )

    @staticmethod
    def _classify(name: str) -> str | None:
        if name == "os.urandom":
            return "os.urandom is OS entropy; results become irreproducible"
        if name == "random.SystemRandom":
            return (
                "random.SystemRandom draws OS entropy and cannot be "
                "seeded"
            )
        if name.startswith("random."):
            attr = name.split(".", 1)[1]
            if "." not in attr and attr not in _RANDOM_OK:
                return (
                    f"random.{attr} uses the hidden module-global RNG; "
                    f"results depend on import order and call history"
                )
        if name.startswith("numpy.random."):
            attr = name.split(".", 2)[2]
            if "." not in attr and attr not in _NP_RANDOM_OK:
                return (
                    f"numpy.random.{attr} uses the legacy global "
                    f"state; results depend on call history"
                )
        return None


@register_rule
class WallclockRule(Rule):
    """Wall-clock reads outside the observability layer."""

    id = "wallclock"
    summary = (
        "time.*/datetime.now belong to repro.observability; results "
        "must not depend on the clock"
    )
    hint = (
        "move timing into repro.observability spans, or suppress with "
        "a reason if the read cannot influence results"
    )

    #: The one module whose whole job is timing.
    _SANCTIONED = ("repro/observability.py",)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.is_module(*self._SANCTIONED):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = resolved_name(ctx.aliases, node.func)
            if name in _WALLCLOCK or name in _DATETIME_NOW:
                yield self.finding(
                    ctx, node,
                    f"{name} reads the wall clock outside "
                    f"repro.observability",
                )


def _is_set_expr(node: ast.AST) -> bool:
    """A set display, set comprehension, or ``set(...)`` call."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


@register_rule
class SetOrderRule(Rule):
    """Set iteration order leaking into ordered output."""

    id = "set-order"
    summary = (
        "iterating a set into a list/tuple/join or an accumulating "
        "loop bakes hash order into results"
    )
    hint = "wrap the set in sorted(...) before building ordered output"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                fn = node.func
                # list({...}) / tuple({...})
                if (
                    isinstance(fn, ast.Name)
                    and fn.id in ("list", "tuple")
                    and node.args
                    and _is_set_expr(node.args[0])
                ):
                    yield self.finding(
                        ctx, node,
                        f"{fn.id}() over a set produces hash-ordered "
                        f"output",
                    )
                # sep.join({...})
                elif (
                    isinstance(fn, ast.Attribute)
                    and fn.attr == "join"
                    and node.args
                    and _is_set_expr(node.args[0])
                ):
                    yield self.finding(
                        ctx, node,
                        "str.join over a set produces hash-ordered "
                        "output",
                    )
            elif isinstance(node, ast.ListComp):
                if any(_is_set_expr(gen.iter) for gen in node.generators):
                    yield self.finding(
                        ctx, node,
                        "list comprehension over a set produces "
                        "hash-ordered output",
                    )
            elif isinstance(node, ast.For):
                if _is_set_expr(node.iter) and self._accumulates(node):
                    yield self.finding(
                        ctx, node,
                        "loop over a set feeds ordered output "
                        "(append/yield/write)",
                    )

    @staticmethod
    def _accumulates(loop: ast.For) -> bool:
        for sub in ast.walk(loop):
            if isinstance(sub, (ast.Yield, ast.YieldFrom)):
                return True
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in ("append", "extend", "write",
                                      "writelines", "add_row")
            ):
                return True
        return False
