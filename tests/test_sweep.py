"""Sweep orchestrator: matrix validation, pooled determinism, store, report.

The determinism contract under test: every config's fingerprint is
byte-identical whether the sweep runs serially or across a
multiprocessing pool, cold cache or warm — the per-worker ShapeCache only
reuses construction that is a pure function of (protocol, degree,
n_ranks).  The hypothesis suite pins warm-vs-cold equivalence per config;
the pooled test pins serial-vs-pool equivalence over a whole matrix; the
crash test pins that a dying worker costs one config, not the sweep.
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.harness.campaign import OUTCOMES, CampaignConfig, run_case
from repro.harness.report import render_table, sweep_outcome_rows
from repro.harness.store import StoreError, SweepStore, atomic_write_text
from repro.harness.sweep import (
    DETECTOR_PROFILES,
    MIX_PROFILES,
    ShapeCache,
    SweepError,
    SweepSpec,
    _execute_point,
    render_sweep_report,
    run_sweep,
    verify_sample,
)
from tests.conftest import crash_sweep_worker_at

SMALL = SweepSpec(
    protocols=("native", "sdr"), degrees=(2,), ranks=(4,),
    workloads=("ring",), mixes=("clean", "full"), seeds=(0, 1),
)


class TestSpecValidation:
    def test_empty_axis_rejected(self):
        with pytest.raises(SweepError, match="'protocols' is empty"):
            SweepSpec(protocols=()).validate()
        with pytest.raises(SweepError, match="'seeds' is empty"):
            SweepSpec(seeds=()).validate()

    def test_unknown_values_rejected(self):
        with pytest.raises(SweepError, match="unknown 'tmr'"):
            SweepSpec(protocols=("sdr", "tmr")).validate()
        with pytest.raises(SweepError, match="unknown 'stencil'"):
            SweepSpec(workloads=("stencil",)).validate()
        with pytest.raises(SweepError, match="unknown 'cosmic'"):
            SweepSpec(mixes=("cosmic",)).validate()

    def test_degree_rules(self):
        # Any replicated protocol in the matrix demands degree >= 2 ...
        with pytest.raises(SweepError, match="'degrees'.*below the minimum 2"):
            SweepSpec(protocols=("native", "sdr"), degrees=(1,)).validate()
        # ... but a native-only sweep happily runs r=1.
        SweepSpec(protocols=("native",), degrees=(1,)).validate()

    def test_rank_and_seed_floors(self):
        with pytest.raises(SweepError, match="'ranks'.*below the minimum 2"):
            SweepSpec(ranks=(4, 1)).validate()
        with pytest.raises(SweepError, match="'seeds'.*below the minimum 0"):
            SweepSpec(seeds=(-1,)).validate()

    def test_duplicates_and_wrong_types_rejected(self):
        with pytest.raises(SweepError, match="duplicate"):
            SweepSpec(seeds=(0, 1, 0)).validate()
        with pytest.raises(SweepError, match="is not int"):
            SweepSpec(ranks=(4, "8")).validate()
        with pytest.raises(SweepError, match="is not int"):
            SweepSpec(seeds=(True,)).validate()  # bools are not seeds

    def test_scalar_knobs_validated(self):
        with pytest.raises(SweepError, match="steps"):
            SweepSpec(steps=0).validate()
        with pytest.raises(SweepError, match="active"):
            SweepSpec(active=1.0, horizon=1e-3).validate()

    def test_points_enumeration_and_native_dedup(self):
        # native ignores the degree axis: one emission per remaining axes,
        # not one per degree — no duplicate configs that would fingerprint
        # identically.
        spec = SweepSpec(
            protocols=("native", "sdr"), degrees=(2, 3), ranks=(4,),
            workloads=("ring",), mixes=("clean",), seeds=(0,),
        )
        pts = spec.points()
        assert len(pts) == 1 + 2  # native once, sdr at r=2 and r=3
        assert [p.index for p in pts] == list(range(len(pts)))
        assert spec.n_configs == len(pts)
        native = [p for p in pts if p.protocol == "native"]
        assert len(native) == 1 and native[0].effective_degree == 1
        assert native[0].label() == "native/r1/n4/ring/clean/s0"

    def test_campaign_config_applies_mix_profile(self):
        spec = SweepSpec(protocols=("sdr",), mixes=("clean",), seeds=(0,))
        cfg = spec.points()[0].campaign_config()
        assert isinstance(cfg, CampaignConfig)
        for knob, value in MIX_PROFILES["clean"].items():
            assert getattr(cfg, knob) == value
        # "full" is the campaign's own default odds: no overrides at all.
        assert MIX_PROFILES["full"] == {}


class TestShapeCache:
    def test_hit_miss_accounting(self):
        cache = ShapeCache()
        a = cache.get("sdr", 2, 4)
        b = cache.get("sdr", 2, 4)
        c = cache.get("native", 1, 4)
        assert a is b and c is not a
        assert cache.stats() == {"hits": 1, "misses": 2, "shapes": 2}

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        protocol=st.sampled_from(["native", "sdr", "mirror"]),
        mix=st.sampled_from(sorted(MIX_PROFILES)),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_warm_cache_cannot_change_fingerprints(self, protocol, mix, seed):
        # Reusing campaign fingerprint machinery: the same config executed
        # against a cold cache and against a cache warmed by *other*
        # configs must produce byte-identical fingerprints.
        spec = SweepSpec(
            protocols=(protocol,), degrees=(2,), ranks=(4,),
            mixes=(mix,), seeds=(seed,),
        )
        point = spec.points()[0]
        cold = _execute_point(point, ShapeCache())
        warm_cache = ShapeCache()
        for p in ("native", "sdr", "mirror"):
            warm_cache.get(p, 1 if p == "native" else 2, 4)
        warm = _execute_point(point, warm_cache)
        assert cold["fingerprint"] == warm["fingerprint"]
        assert warm_cache.hits >= 1


class TestPooledExecution:
    def test_pool_matches_serial_byte_for_byte(self):
        serial = run_sweep(SMALL, workers=1)
        pooled = run_sweep(SMALL, workers=2)
        assert serial.fingerprints == pooled.fingerprints
        assert all(serial.fingerprints)  # every config actually ran
        assert pooled.cache["hits"] > 0  # the flyweight reuse is real
        assert pooled.worker_crashes == 0
        assert [r["index"] for r in pooled.records] == list(range(SMALL.n_configs))

    def test_worker_crash_marks_config_failed_and_keeps_draining(self, monkeypatch):
        crash_sweep_worker_at(monkeypatch, 2)
        spec = SweepSpec(
            protocols=("native", "sdr"), degrees=(2,), ranks=(4,),
            workloads=("ring",), mixes=("clean",), seeds=(0, 1, 2),
        )
        result = run_sweep(spec, workers=2)
        assert len(result.records) == spec.n_configs  # the sweep drained
        assert result.worker_crashes == 1
        dead = [r for r in result.records if not r["fingerprint"]]
        assert len(dead) == 1 and dead[0]["index"] == 2
        assert dead[0]["outcome"] == "failed" and "worker" in dead[0]["error"]
        # Every other config still carries a real audited fingerprint.
        assert all(r["fingerprint"] for r in result.records if r["index"] != 2)

    def test_verify_sample_passes_and_catches_tampering(self):
        result = run_sweep(SMALL, workers=1)
        assert verify_sample(SMALL, result.records, k=3) == []
        tampered = [dict(r) for r in result.records]
        tampered[0]["fingerprint"] = tampered[0]["fingerprint"] + "x"
        mismatches = verify_sample(SMALL, tampered, k=SMALL.n_configs)
        assert len(mismatches) == 1 and "config #0" in mismatches[0]

    def test_invariant_violation_surfaces_in_result(self, monkeypatch):
        import repro.harness.sweep as sweep_mod
        from repro.harness.campaign import RunRecord

        def bad_run_case(protocol, seed, cfg=None, shape=None):
            return RunRecord(
                protocol=protocol, seed=seed, outcome="completed",
                mix={}, metrics={}, stranded_by_site={},
                invariant_error="arena imbalance: acquired != released + stranded",
                fingerprint="{}",
            )

        monkeypatch.setattr(sweep_mod, "run_case", bad_run_case)
        result = run_sweep(SMALL, workers=1)
        assert len(result.violations) == SMALL.n_configs


class TestStore:
    @staticmethod
    def _record(idx, fingerprint="fp"):
        return {
            "index": idx, "protocol": "sdr", "degree": 2, "n_ranks": 4,
            "workload": "ring", "mix": "clean", "seed": idx,
            "outcome": "completed", "faults_drawn": {},
            "metrics": {"events": 10 + idx, "runtime": 0.5},
            "stranded_by_site": {}, "error": None, "invariant_error": None,
            "fingerprint": fingerprint,
        }

    def test_round_trip(self, tmp_path):
        base = str(tmp_path / "sweep")
        store = SweepStore.create(base)
        for i in (1, 0, 2):  # completion order is not config order
            store.append(self._record(i))
        store.finalize({"workers": 2})
        with SweepStore.open(base) as ro:
            recs = ro.records()
            assert [r["index"] for r in recs] == [0, 1, 2]  # idx order wins
            assert ro.summary == {"workers": 2}
            assert ro.sql("SELECT COUNT(*) FROM runs")[0][0] == 3
            assert ro.sql(
                "SELECT events FROM runs WHERE idx = ?", (2,)
            ) == [(12,)]
            assert ro.records("seed = ?", (1,))[0]["seed"] == 1

    def test_collision_is_loud_and_overwrite_opt_in(self, tmp_path):
        base = str(tmp_path / "sweep")
        store = SweepStore.create(base)
        store.append(self._record(0))
        store.finalize()
        with pytest.raises(StoreError, match="already exist"):
            SweepStore.create(base)
        replacement = SweepStore.create(base, overwrite=True)
        replacement.append(self._record(0, fingerprint="new"))
        replacement.finalize()
        with SweepStore.open(base) as ro:
            assert ro.records()[0]["fingerprint"] == "new"

    def test_abandon_leaves_no_partials_and_no_finals(self, tmp_path):
        base = str(tmp_path / "sweep")
        with SweepStore.create(base) as store:
            store.append(self._record(0))
            # no finalize: the context manager abandons the .partials
        assert os.listdir(tmp_path) == []
        with pytest.raises(StoreError, match="no finalized store"):
            SweepStore.open(base)

    def test_open_names_unfinalized_partials(self, tmp_path):
        base = str(tmp_path / "sweep")
        store = SweepStore.create(base)
        store.append(self._record(0))
        with pytest.raises(StoreError, match="never finalized"):
            SweepStore.open(base)
        store.abandon()

    def test_missing_parent_dir_rejected(self, tmp_path):
        with pytest.raises(StoreError, match="directory does not exist"):
            SweepStore.create(str(tmp_path / "nowhere" / "sweep"))

    def test_run_sweep_streams_to_store(self, tmp_path):
        base = str(tmp_path / "sweep")
        result = run_sweep(SMALL, workers=2, store_base=base)
        with SweepStore.open(base) as ro:
            assert [r["fingerprint"] for r in ro.records()] == result.fingerprints
            assert ro.summary["cache"] == result.cache

    def test_atomic_write_text(self, tmp_path):
        target = tmp_path / "artifact.json"
        atomic_write_text(str(target), '{"ok": true}')
        assert target.read_text() == '{"ok": true}'
        assert os.listdir(tmp_path) == ["artifact.json"]  # no tmp residue


class TestReporting:
    def test_sweep_outcome_rows_groups_and_survival(self):
        records = [
            {"protocol": "sdr", "degree": 2, "n_ranks": 4, "workload": "ring",
             "mix": "full", "outcome": o, "metrics": {"runtime": 1.0}}
            for o in ("completed", "degraded", "deadlocked", "failed")
        ]
        header, rows = sweep_outcome_rows(records, OUTCOMES)
        assert header[0] == "config" and "survive%" in header
        assert len(rows) == 1
        row = rows[0]
        assert row[0] == "sdr/r2/n4/ring/full" and row[1] == 4
        assert row[header.index("survive%")] == "50"  # completed + degraded
        render_table("t", header, rows)  # renders without error

    def test_render_sweep_report_end_to_end(self):
        result = run_sweep(SMALL, workers=1)
        text = render_sweep_report(result.records, result.summary())
        assert "outcomes by config group" in text
        assert "sdr/r2/n4/ring/full" in text
        assert "stranded frames/envs by mechanism" in text
        assert "hits" in text and "0 worker crashes" in text


class TestDetectorAndIntensityAxes:
    def test_unknown_or_invalid_values_rejected(self):
        with pytest.raises(SweepError, match="axis 'detectors': unknown 'psychic'"):
            SweepSpec(detectors=("psychic",)).validate()
        with pytest.raises(SweepError, match="must be > 0"):
            SweepSpec(intensities=(0.0,)).validate()
        with pytest.raises(SweepError, match="is not a number"):
            SweepSpec(intensities=(True,)).validate()
        with pytest.raises(SweepError, match="duplicate"):
            SweepSpec(intensities=(2.0, 2.0)).validate()

    def test_default_axes_change_nothing(self):
        # the axes exist, but at their defaults the label and the campaign
        # config are byte-identical to the pre-axis sweep — stored
        # fingerprints stay comparable
        point = SweepSpec(protocols=("sdr",), seeds=(0,)).points()[0]
        assert point.label() == "sdr/r2/n4/ring/full/s0"
        assert point.campaign_config() == CampaignConfig()
        assert DETECTOR_PROFILES["default"] == CampaignConfig().detector

    def test_intensity_scales_only_network_probabilities(self):
        spec = SweepSpec(
            protocols=("sdr",), mixes=("network",), intensities=(2.0,), seeds=(0,),
        )
        cfg = spec.points()[0].campaign_config()
        assert cfg.p_drop_window == pytest.approx(0.5)   # 0.25 * 2
        assert cfg.p_dup_window == 1.0                   # 0.5 * 2, capped
        assert cfg.p_partition == pytest.approx(0.3)
        # crash-side odds stay the mix's own — intensity is a wire knob
        assert cfg.p_crash == 0.0 and cfg.p_churn == 0.0

    def test_detector_profile_reaches_campaign_config(self):
        spec = SweepSpec(protocols=("sdr",), detectors=("eager",), seeds=(0,))
        cfg = spec.points()[0].campaign_config()
        assert cfg.detector == DETECTOR_PROFILES["eager"]
        assert cfg.detector.suspicion_threshold == 1

    def test_labels_grow_segments_only_off_default(self):
        spec = SweepSpec(
            protocols=("mirror",), detectors=("eager",), intensities=(2.0,), seeds=(0,),
        )
        assert spec.points()[0].label() == "mirror/r2/n4/ring/full/eager/x2/s0"

    def test_axes_multiply_the_matrix_and_ride_into_records(self):
        spec = SweepSpec(
            protocols=("sdr",), mixes=("clean",),
            detectors=("default", "eager"), intensities=(1.0, 2.0), seeds=(0,),
        )
        assert spec.n_configs == 4
        result = run_sweep(spec, workers=1)
        assert {(r["detector"], r["intensity"]) for r in result.records} == {
            ("default", 1.0), ("default", 2.0), ("eager", 1.0), ("eager", 2.0),
        }


class TestExplicitMatrix:
    def test_indices_are_list_positions_and_envelopes_are_per_config(self):
        # mg@8 beside ring@4 is legal in an explicit list — an axis-union
        # check would wrongly test mg@4
        spec = SweepSpec.explicit([
            {"protocol": "native", "n_ranks": 4, "seed": 3, "mix": "clean"},
            {"protocol": "sdr", "n_ranks": 8, "seed": 1, "workload": "mg"},
            {"protocol": "mirror", "n_ranks": 4, "seed": 0,
             "detector": "eager", "intensity": 2.0},
        ])
        pts = spec.points()
        assert [p.index for p in pts] == [0, 1, 2]
        assert pts[1].workload == "mg" and pts[1].n_ranks == 8
        assert pts[2].label() == "mirror/r2/n4/ring/full/eager/x2/s0"
        assert spec.n_configs == 3
        assert len(spec.as_dict()["explicit"]) == 3

    @pytest.mark.parametrize(
        "entries, message",
        [
            ([], "empty"),
            ([{"protocol": "sdr"}], "missing required keys"),
            ([{"protocol": "sdr", "n_ranks": 4, "seed": 0, "flavor": "hot"}],
             "unknown keys"),
            ([{"protocol": "tmr", "n_ranks": 4, "seed": 0}], "unknown protocol"),
            ([{"protocol": "sdr", "n_ranks": 4, "seed": 0, "workload": "mg"}],
             "needs >= 8 ranks"),
            ([{"protocol": "sdr", "n_ranks": 4, "seed": 0, "detector": "psychic"}],
             "unknown detector"),
            ([{"protocol": "sdr", "n_ranks": 4, "seed": 0, "intensity": 0.0}],
             "must be > 0"),
            ([{"protocol": "sdr", "n_ranks": 4, "seed": -1}], "must be an int >= 0"),
        ],
    )
    def test_invalid_entries_rejected_at_build_time(self, entries, message):
        with pytest.raises(SweepError, match=message):
            SweepSpec.explicit(entries)

    def test_explicit_pool_matches_serial_byte_for_byte(self):
        spec = SweepSpec.explicit([
            {"protocol": "native", "n_ranks": 4, "seed": 0, "mix": "clean"},
            {"protocol": "sdr", "n_ranks": 4, "seed": 1},
            {"protocol": "sdr", "n_ranks": 4, "seed": 0,
             "workload": "traffic-poisson", "mix": "clean"},
        ])
        serial = run_sweep(spec, workers=1)
        pooled = run_sweep(spec, workers=2)
        assert serial.fingerprints == pooled.fingerprints
        assert all(serial.fingerprints)
        assert [r["index"] for r in serial.records] == [0, 1, 2]


class TestRunCaseWorkloads:
    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="workload"):
            run_case("sdr", 0, CampaignConfig(workload="fft"))

    def test_allreduce_clean_completes_everywhere(self):
        cfg = CampaignConfig(workload="allreduce", **MIX_PROFILES["clean"])
        for protocol in ("native", "sdr", "mirror"):
            rec = run_case(protocol, 0, cfg)
            assert rec.outcome == "completed", (protocol, rec.error)
            assert rec.invariant_error is None
