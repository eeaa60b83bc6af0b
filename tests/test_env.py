"""The repro.env knob registry: declarations, accessors, semantics."""

from __future__ import annotations

import dataclasses

import pytest

from repro import env

ALL_KNOBS = (
    "REPRO_JOBS",
    "REPRO_CACHE_SIZE",
    "REPRO_TRACE",
    "REPRO_CHECK",
    "REPRO_RESILIENCE_TEST_KILL",
    "REPRO_RESILIENCE_TEST_KILL_MARKER",
)


class TestRegistry:
    def test_every_expected_knob_is_declared(self):
        assert {k.name for k in env.knobs()} == set(ALL_KNOBS)

    def test_knobs_sorted_and_documented(self):
        names = [k.name for k in env.knobs()]
        assert names == sorted(names)
        for k in env.knobs():
            assert k.doc.strip(), f"{k.name} has no docstring"

    def test_knob_lookup(self):
        assert env.knob("REPRO_CHECK").kind == "flag"
        with pytest.raises(KeyError):
            env.knob("REPRO_NOPE")

    def test_unregistered_read_raises(self):
        with pytest.raises(KeyError, match="not registered"):
            env.get_raw("REPRO_NOPE")

    def test_reregistration_identical_is_noop(self):
        k = env.knob("REPRO_JOBS")
        assert env.register(k.name, k.kind, k.default, k.doc) is k

    def test_reregistration_conflict_raises(self):
        k = env.knob("REPRO_JOBS")
        with pytest.raises(ValueError, match="conflicting"):
            env.register(k.name, k.kind, 99, k.doc)

    def test_knob_must_be_namespaced(self):
        with pytest.raises(ValueError, match="REPRO_"):
            env.Knob("JOBS", "int", 0, "nope")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            env.Knob("REPRO_X", "bool", 0, "nope")


def _default_check_on(monkeypatch):
    """Flip ``REPRO_CHECK``'s default on for one test, so a spelling
    that reads as "off" cannot pass by falling back to the default."""
    knob = dataclasses.replace(env.knob("REPRO_CHECK"), default=True)
    monkeypatch.setitem(env._REGISTRY, "REPRO_CHECK", knob)


class TestFlagSemantics:
    @pytest.mark.parametrize(
        "raw", ["0", "false", "no", "off", "OFF", "FALSE", " Off "]
    )
    def test_falsey_values_disable(self, raw, monkeypatch):
        _default_check_on(monkeypatch)
        monkeypatch.setenv("REPRO_CHECK", raw)
        assert env.get_flag("REPRO_CHECK") is False

    @pytest.mark.parametrize("raw", ["1", "true", "yes", "on", "2", "weird"])
    def test_other_values_enable(self, raw, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", raw)
        assert env.get_flag("REPRO_CHECK") is True

    def test_unset_takes_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        assert env.get_flag("REPRO_CHECK") is False

    @pytest.mark.parametrize("raw", ["", "   "])
    def test_empty_counts_as_unset(self, raw, monkeypatch):
        # `REPRO_CHECK= python ...` means "default", for an
        # off-by-default knob and an on-by-default knob alike.
        monkeypatch.setenv("REPRO_CHECK", raw)
        assert env.get_flag("REPRO_CHECK") is False
        _default_check_on(monkeypatch)
        assert env.get_flag("REPRO_CHECK") is True

    def test_is_falsey_is_truthy_vocabulary(self):
        assert env.is_falsey("") and env.is_falsey(" OFF ")
        assert env.is_truthy("YES") and not env.is_truthy("/tmp/x.jsonl")


class TestIntSemantics:
    def test_valid_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_SIZE", "128")
        assert env.get_int("REPRO_CACHE_SIZE") == 128

    @pytest.mark.parametrize("raw", ["banana", "-3", "0", "1.5"])
    def test_invalid_falls_back_to_default(self, raw, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_SIZE", raw)
        assert env.get_int("REPRO_CACHE_SIZE") == 4096

    def test_unset_takes_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_SIZE", raising=False)
        assert env.get_int("REPRO_CACHE_SIZE") == 4096


class TestCheckEnabled:
    def test_follows_environment_at_call_time(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        assert env.check_enabled() is False
        monkeypatch.setenv("REPRO_CHECK", "1")
        assert env.check_enabled() is True
        monkeypatch.setenv("REPRO_CHECK", "0")
        assert env.check_enabled() is False


class TestLegacyCallersStillWork:
    """The migrated modules keep their pre-registry semantics."""

    def test_caching_default_size(self, monkeypatch):
        from repro.caching import default_cache_size

        monkeypatch.setenv("REPRO_CACHE_SIZE", "64")
        assert default_cache_size() == 64
        monkeypatch.setenv("REPRO_CACHE_SIZE", "not-a-number")
        assert default_cache_size() == 4096

    def test_parallel_invalid_jobs_still_warns(self, monkeypatch):
        from repro.parallel import resolve_jobs

        monkeypatch.setenv("REPRO_JOBS", "banana")
        with pytest.warns(RuntimeWarning, match="banana"):
            resolve_jobs(0)
