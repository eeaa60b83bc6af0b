"""Per-rule fixtures: true positive, true negative, suppression.

Every rule gets at least one fixture that must fire, one
similar-but-clean fixture that must stay silent, and one showing the
``# repro: allow-<rule>`` marker silencing it with an audit reason.
"""

from __future__ import annotations

import textwrap

from repro.staticcheck import analyze_source


def run(src: str, *, path: str = "src/repro/demo.py", rules=None):
    return analyze_source(textwrap.dedent(src), path, rules=rules)


def fired(result, rule: str) -> list:
    return [f for f in result.findings if f.rule == rule]


# ------------------------------------------------------------------ #
# unseeded-random


class TestUnseededRandom:
    def test_global_random_call_fires(self):
        res = run("""
            import random
            x = random.random()
        """)
        (f,) = fired(res, "unseeded-random")
        assert f.line == 3
        assert "module-global RNG" in f.message

    def test_numpy_legacy_global_fires(self):
        res = run("""
            import numpy as np
            noise = np.random.rand(8)
        """)
        assert fired(res, "unseeded-random")

    def test_os_urandom_fires(self):
        res = run("""
            import os
            token = os.urandom(16)
        """)
        (f,) = fired(res, "unseeded-random")
        assert "OS entropy" in f.message

    def test_system_random_fires(self):
        res = run("""
            import random
            rng = random.SystemRandom()
        """)
        assert fired(res, "unseeded-random")

    def test_import_from_global_fires(self):
        res = run("from random import shuffle\n")
        (f,) = fired(res, "unseeded-random")
        assert "random.shuffle" in f.message

    def test_seeded_constructors_clean(self):
        res = run("""
            import random
            import numpy as np
            rng = random.Random(7)
            gen = np.random.default_rng(np.random.SeedSequence(3))
            x = rng.random() + gen.random()
        """)
        assert not fired(res, "unseeded-random")

    def test_arpack_without_v0_fires(self):
        res = run("""
            import scipy.sparse.linalg as sla
            from scipy.sparse.linalg import eigsh, svds

            def spectrum(L, A):
                a = eigsh(L, k=2, which="SM")
                b = sla.eigs(L, 3)
                c = svds(A, k=1)
                return a, b, c
        """)
        found = fired(res, "unseeded-random")
        assert [f.line for f in found] == [6, 7, 8]
        assert all("v0" in f.message for f in found)

    def test_arpack_with_v0_clean(self):
        res = run("""
            import numpy as np
            from scipy.sparse.linalg import eigs, eigsh, lobpcg, svds

            def spectrum(L, A, opts):
                v0 = np.random.default_rng(0).random(L.shape[0])
                a = eigsh(L, k=2, which="SM", v0=v0)
                b = eigs(L, 2, None, None, "LM", v0)
                c = svds(A, k=1, **opts)
                d = lobpcg(L, v0[:, None])
                return a, b, c, d
        """)
        assert not fired(res, "unseeded-random")

    def test_suppression(self):
        res = run("""
            import os
            salt = os.urandom(8)  # repro: allow-unseeded-random salt is cosmetic, never journaled
        """)
        assert not fired(res, "unseeded-random")
        assert res.suppressed


# ------------------------------------------------------------------ #
# wallclock


class TestWallclock:
    def test_time_call_fires(self):
        res = run("""
            import time
            stamp = time.time()
        """)
        (f,) = fired(res, "wallclock")
        assert "time.time" in f.message

    def test_datetime_now_fires(self):
        res = run("""
            import datetime
            stamp = datetime.datetime.now()
        """)
        assert fired(res, "wallclock")

    def test_observability_module_sanctioned(self):
        res = run(
            """
            import time
            t = time.perf_counter()
            """,
            path="src/repro/observability.py",
        )
        assert not fired(res, "wallclock")

    def test_unrelated_time_name_clean(self):
        res = run("""
            def schedule(time):
                return time + 1.5
        """)
        assert not fired(res, "wallclock")

    def test_suppression(self):
        res = run("""
            import time
            time.sleep(0.1)  # repro: allow-wallclock backoff only, results unaffected
        """)
        assert not fired(res, "wallclock")


# ------------------------------------------------------------------ #
# set-order


class TestSetOrder:
    def test_list_over_set_fires(self):
        res = run("order = list({3, 1, 2})\n")
        assert fired(res, "set-order")

    def test_join_over_set_fires(self):
        res = run("label = ', '.join({'b', 'a'})\n")
        assert fired(res, "set-order")

    def test_listcomp_over_set_fires(self):
        res = run("rows = [x * 2 for x in {1, 2, 3}]\n")
        assert fired(res, "set-order")

    def test_accumulating_loop_over_set_fires(self):
        res = run("""
            out = []
            for name in set(names):
                out.append(name)
        """)
        assert fired(res, "set-order")

    def test_sorted_set_clean(self):
        res = run("""
            order = sorted({3, 1, 2})
            label = ', '.join(sorted({'b', 'a'}))
        """)
        assert not fired(res, "set-order")

    def test_orderfree_loop_clean(self):
        # The sharedmem unlink loop: iterating a set is fine when no
        # ordered output is built from it.
        res = run("""
            for seg in {d.segment for d in descriptors}:
                unlink(seg)
        """)
        assert not fired(res, "set-order")

    def test_suppression(self):
        res = run(
            "order = list({3, 1, 2})"
            "  # repro: allow-set-order order rechecked downstream\n"
        )
        assert not fired(res, "set-order")


# ------------------------------------------------------------------ #
# float-eq


class TestFloatEq:
    def test_literal_eq_fires(self):
        res = run("flag = x == 1.0\n")
        (f,) = fired(res, "float-eq")
        assert "1.0" in f.message

    def test_cast_noteq_fires(self):
        res = run("flag = a != float(b)\n")
        assert fired(res, "float-eq")

    def test_division_eq_fires(self):
        res = run("flag = (a / b) == c\n")
        assert fired(res, "float-eq")

    def test_negated_literal_fires(self):
        res = run("flag = x == -1.0\n")
        assert fired(res, "float-eq")

    def test_int_and_inequality_clean(self):
        res = run("""
            a = x == 1
            b = y > 1.0
            c = math.isclose(z, 1.0)
        """)
        assert not fired(res, "float-eq")

    def test_suppression_line_above(self):
        res = run("""
            # repro: allow-float-eq stored sentinel, never computed
            flag = x == 0.0
        """)
        assert not fired(res, "float-eq")
        assert res.suppressed


# ------------------------------------------------------------------ #
# env-knob


class TestEnvKnob:
    def test_environ_subscript_fires(self):
        res = run("""
            import os
            jobs = os.environ["REPRO_JOBS"]
        """)
        assert fired(res, "env-knob")

    def test_getenv_fires(self):
        res = run("""
            import os
            jobs = os.getenv("REPRO_JOBS", "0")
        """)
        assert fired(res, "env-knob")

    def test_imported_environ_fires(self):
        res = run("""
            from os import environ
            jobs = environ.get("REPRO_JOBS")
        """)
        assert fired(res, "env-knob")

    def test_registry_module_sanctioned(self):
        res = run(
            """
            import os
            raw = os.environ.get("REPRO_JOBS")
            """,
            path="src/repro/env.py",
        )
        assert not fired(res, "env-knob")

    def test_registry_read_clean(self):
        res = run("""
            from repro import env
            jobs = env.get_int("REPRO_JOBS")
        """)
        assert not fired(res, "env-knob")

    def test_suppression(self):
        res = run("""
            import os
            os.environ["COLUMNS"] = "200"  # repro: allow-env-knob test harness shimming the terminal
        """)
        assert not fired(res, "env-knob")


# ------------------------------------------------------------------ #
# shm-mutation


class TestShmMutation:
    def test_write_through_attached_view_fires(self):
        res = run("""
            from repro.sharedmem import attach_array, detach_segments
            def worker(desc):
                arr = attach_array(desc)
                arr[0] = 99.0
                detach_segments([desc])
        """)
        (f,) = fired(res, "shm-mutation")
        assert "arr" in f.message

    def test_augassign_through_attached_view_fires(self):
        res = run("""
            from repro.sharedmem import attach_array, detach_segments
            def worker(desc):
                arr = attach_array(desc)
                arr[:] += 1.0
                detach_segments([desc])
        """)
        assert fired(res, "shm-mutation")

    def test_reenabling_writeable_fires(self):
        res = run("""
            def hack(buf):
                buf.flags.writeable = True
        """)
        assert fired(res, "shm-mutation")

    def test_copy_then_mutate_clean(self):
        res = run("""
            from repro.sharedmem import attach_array, detach_segments
            def worker(desc):
                arr = attach_array(desc).copy()
                local = arr
                scratch = list(arr)
                scratch[0] = 99.0
                detach_segments([desc])
        """)
        assert not fired(res, "shm-mutation")

    def test_sharedmem_module_may_flip_writeable(self):
        res = run(
            """
            def _decode(buf):
                buf.flags.writeable = True
            """,
            path="src/repro/sharedmem.py",
        )
        assert not fired(res, "shm-mutation")

    def test_suppression(self):
        res = run("""
            from repro.sharedmem import attach_array, detach_segments
            def worker(desc):
                arr = attach_array(desc)
                arr[0] = 0.0  # repro: allow-shm-mutation scratch segment owned exclusively by this worker
                detach_segments([desc])
        """)
        assert not fired(res, "shm-mutation")


# ------------------------------------------------------------------ #
# shm-pairing


class TestShmPairing:
    def test_attach_without_release_fires(self):
        res = run("""
            from repro.sharedmem import attach_array
            def worker(desc):
                return attach_array(desc).sum()
        """)
        (f,) = fired(res, "shm-pairing")
        assert "never releases" in f.message

    def test_attach_with_release_clean(self):
        res = run("""
            from repro.sharedmem import attach_array, detach_segments
            def worker(desc):
                try:
                    return attach_array(desc).sum()
                finally:
                    detach_segments([desc])
        """)
        assert not fired(res, "shm-pairing")

    def test_codec_definition_clean(self):
        # to_shared/from_shared *definitions* are the codec itself;
        # segment ownership lies with the transport calling them.
        res = run("""
            class Payload:
                def to_shared(self):
                    return put_array(self.data)
        """)
        assert not fired(res, "shm-pairing")

    def test_suppression(self):
        res = run("""
            from repro.sharedmem import attach_array
            def peek(desc):
                return attach_array(desc)[0]  # repro: allow-shm-pairing caller owns segment lifetime
        """)
        assert not fired(res, "shm-pairing")


# ------------------------------------------------------------------ #
# missing-span


class TestMissingSpan:
    EXPERIMENT = "src/repro/experiments/demo.py"

    def test_bare_driver_fires(self):
        res = run(
            """
            def run_demo(machine):
                return machine
            """,
            path=self.EXPERIMENT,
        )
        (f,) = fired(res, "missing-span")
        assert "run_demo" in f.message

    def test_sweep_suffix_fires(self):
        res = run(
            """
            def demo_sweep(grid):
                return grid
            """,
            path=self.EXPERIMENT,
        )
        assert fired(res, "missing-span")

    def test_profiled_decorator_clean(self):
        res = run(
            """
            from .. import observability

            @observability.profiled("experiment.demo.run")
            def run_demo(machine):
                return machine
            """,
            path=self.EXPERIMENT,
        )
        assert not fired(res, "missing-span")

    def test_inline_span_clean(self):
        res = run(
            """
            from .. import observability

            def run_demo(machine):
                with observability.span("experiment.demo"):
                    return machine
            """,
            path=self.EXPERIMENT,
        )
        assert not fired(res, "missing-span")

    def test_private_helper_and_other_packages_clean(self):
        res = run(
            """
            def _run_inner(machine):
                return machine
            """,
            path=self.EXPERIMENT,
        )
        assert not fired(res, "missing-span")
        res = run("""
            def run_anything(x):
                return x
        """)
        assert not fired(res, "missing-span")

    def test_suppression(self):
        res = run(
            """
            def run_demo(machine):  # repro: allow-missing-span microsecond helper, span overhead dominates
                return machine
            """,
            path=self.EXPERIMENT,
        )
        assert not fired(res, "missing-span")


# ------------------------------------------------------------------ #
# checkpoint-purity


class TestCheckpointPurity:
    def test_pid_in_record_fires(self):
        res = run("""
            import os
            def save(ckpt, key, value):
                ckpt.record(key, os.getpid(), value)
        """)
        (f,) = fired(res, "checkpoint-purity")
        assert "os.getpid" in f.message

    def test_segment_attr_in_record_fires(self):
        res = run("""
            def save(self, key, payload):
                self.ckpt.record(key, payload.segment)
        """)
        assert fired(res, "checkpoint-purity")

    def test_timestamp_keyword_fires(self):
        res = run("""
            import time
            def save(checkpoint, key, value):
                checkpoint.record(key, value, at=time.time())
        """)
        assert fired(res, "checkpoint-purity")

    def test_content_pure_record_clean(self):
        res = run("""
            def save(self, index, value):
                self.ckpt.record(self.keys[index], index, value)
        """)
        assert not fired(res, "checkpoint-purity")

    def test_unrelated_record_receiver_clean(self):
        res = run("""
            import os
            def save(audit_log, key):
                audit_log.record(key, os.getpid())
        """)
        assert not fired(res, "checkpoint-purity")

    def test_suppression(self):
        res = run("""
            import os
            def save(ckpt, key):
                ckpt.record(key, os.getpid())  # repro: allow-checkpoint-purity debug journal, never resumed
        """)
        assert not fired(res, "checkpoint-purity")
