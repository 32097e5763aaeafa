"""Tests for repro.exec.jobs: JobSpec identity, cache keys, determinism."""

import dataclasses

import pytest

from repro.bench.circuits import CircuitSpec, DatasetSpec
from repro.core.config import RouterConfig
from repro.errors import ConfigError
from repro.exec import JobSpec, canonical_json, canonical_value, execute_job
from repro.layout.placer import FeedStyle
from repro.tech import Technology


def tiny_spec(name="KEY", seed=5):
    return DatasetSpec(
        name,
        CircuitSpec(
            "K", n_gates=20, n_flops=3, n_inputs=3, n_outputs=2,
            n_diff_pairs=0, seed=seed,
        ),
        FeedStyle.EVEN,
        n_constraints=2,
    )


class TestCacheKey:
    def test_key_is_stable_across_fresh_spec_objects(self):
        # Two structurally identical specs built independently must hash
        # byte-identically (content addressing, not object identity).
        key_a = JobSpec(tiny_spec()).cache_key()
        key_b = JobSpec(tiny_spec()).cache_key()
        assert key_a == key_b
        assert len(key_a) == 64
        int(key_a, 16)  # pure hex

    def test_key_is_stable_across_calls(self):
        job = JobSpec(tiny_spec())
        assert job.cache_key() == job.cache_key()

    def test_seed_changes_key(self):
        base = JobSpec(tiny_spec(seed=5)).cache_key()
        assert JobSpec(tiny_spec(seed=6)).cache_key() != base
        assert JobSpec(tiny_spec(seed=5), seed=6).cache_key() != base

    def test_seed_override_equals_baked_in_seed(self):
        # An explicit seed equal to the baked-in one is the same job.
        assert (
            JobSpec(tiny_spec(seed=5), seed=5).cache_key()
            == JobSpec(tiny_spec(seed=5)).cache_key()
        )

    def test_mode_changes_key(self):
        spec = tiny_spec()
        assert (
            JobSpec(spec, constrained=True).cache_key()
            != JobSpec(spec, constrained=False).cache_key()
        )

    def test_config_field_changes_key(self):
        spec = tiny_spec()
        base = JobSpec(spec, config=RouterConfig()).cache_key()
        changed = JobSpec(
            spec, config=RouterConfig(max_area_passes=2)
        ).cache_key()
        assert base != changed

    def test_none_config_differs_from_explicit_default(self):
        # None means "engine default"; an explicit config is part of the
        # identity even when it happens to equal the default.
        spec = tiny_spec()
        assert (
            JobSpec(spec, config=None).cache_key()
            != JobSpec(spec, config=RouterConfig()).cache_key()
        )

    def test_technology_changes_key(self):
        spec = tiny_spec()
        base = JobSpec(spec).cache_key()
        other = JobSpec(spec, technology=Technology(pitch_um=5.0))
        assert other.cache_key() != base

    def test_dataset_recipe_changes_key(self):
        base = JobSpec(tiny_spec()).cache_key()
        aside = dataclasses.replace(tiny_spec(), feed_style=FeedStyle.ASIDE)
        assert JobSpec(aside).cache_key() != base

    def test_default_config_key_is_pinned(self):
        # ``config=None`` serializes as ``null``, so the key of a default
        # job (CLI batch, the service's default engine) does not depend
        # on RouterConfig's field list: only dataset, mode, technology
        # and CODE_VERSION_SALT move it.  Bump the salt, and this pin,
        # only when routing results change.
        from repro.bench.circuits import small_suite

        s1p1 = next(s for s in small_suite() if s.name == "S1P1")
        assert JobSpec(s1p1).cache_key() == (
            "bf5fccd7770ab8206a9caaa0102edd8affbd5de5ed6324b01478724087b073bb"
        )

    def test_code_version_salt_changes_key(self, monkeypatch):
        import repro.exec.jobs as jobs_module

        job = JobSpec(tiny_spec())
        before = job.cache_key()
        monkeypatch.setattr(
            jobs_module, "CODE_VERSION_SALT", "repro-exec/999"
        )
        assert job.cache_key() != before


class TestCanonicalForm:
    def test_dataclass_and_enum_roundtrip_to_stable_json(self):
        text_a = canonical_json(tiny_spec())
        text_b = canonical_json(tiny_spec())
        assert text_a == text_b
        assert '"__type__"' in text_a
        assert '"__enum__"' in text_a  # FeedStyle

    def test_dict_keys_are_sorted(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_unsupported_type_rejected(self):
        with pytest.raises(ConfigError):
            canonical_value({1, 2, 3})


class TestJobSpec:
    def test_job_id_encodes_dataset_mode_seed(self):
        spec = tiny_spec(seed=5)
        assert JobSpec(spec, constrained=True).job_id == "KEY.c.s5"
        assert JobSpec(spec, constrained=False).job_id == "KEY.u.s5"
        assert JobSpec(spec, seed=9).job_id == "KEY.c.s9"

    def test_resolved_dataset_applies_seed_override(self):
        job = JobSpec(tiny_spec(seed=5), seed=9)
        assert job.resolved_dataset().circuit.seed == 9
        # ... without mutating the original spec.
        assert job.dataset.circuit.seed == 5

    def test_resolved_config_applies_mode(self):
        job = JobSpec(tiny_spec(), constrained=False)
        assert not job.resolved_config().timing_driven

    def test_describe_is_manifest_ready(self):
        payload = JobSpec(tiny_spec()).describe()
        assert payload["job_id"] == "KEY.c.s5"
        assert payload["constrained"] is True
        assert len(payload["cache_key"]) == 64


class TestExecutionDeterminism:
    def test_fresh_runs_produce_identical_records(self):
        # The determinism contract behind the cache: the same JobSpec
        # routed twice from scratch yields byte-identical scalar rows
        # (cpu_s is wall-clock and metrics carry timings, so those are
        # excluded by comparing to_row minus cpu_s).
        job = JobSpec(tiny_spec())
        row_a = execute_job(job).to_row()
        row_b = execute_job(job).to_row()
        row_a.pop("cpu_s")
        row_b.pop("cpu_s")
        assert row_a == row_b

    def test_matches_serial_run_pair(self):
        # One row per job, whichever entry point produced it: the batch
        # runner, the serial pair and a direct run_dataset call agree in
        # every field but the wall-clock cpu_s, the Table 3 bound
        # included.
        from repro.bench.runner import run_dataset, run_pair

        spec = tiny_spec()
        with_c, without_c = run_pair(spec)
        rows = [
            with_c.to_row(),
            execute_job(JobSpec(spec, True)).to_row(),
            run_dataset(spec, True)[0].to_row(),
        ]
        for row in rows:
            row.pop("cpu_s")
        assert rows[1] == rows[0]
        assert rows[2] == rows[0]
        assert without_c.lower_bound_ps == with_c.lower_bound_ps

    def test_lower_bound_computed_once_per_job(self, monkeypatch):
        # Constrained jobs measure the bound on the routed chip (channel
        # tracks given), unconstrained ones before routing; either way
        # exactly once.
        import repro.bench.runner as runner

        routed = []
        bound = runner.critical_path_lower_bound_ps

        def counted(*args, **kwargs):
            routed.append("channel_tracks" in kwargs)
            return bound(*args, **kwargs)

        monkeypatch.setattr(runner, "critical_path_lower_bound_ps", counted)
        execute_job(JobSpec(tiny_spec(), True))
        execute_job(JobSpec(tiny_spec(), False))
        assert routed == [True, False]
