"""The repro.hw layer: specs, registry, derivation, and platform parity."""

import json

import pytest

from repro import config
from repro.hw import (
    DRAM_SPECS,
    BROADWELL,
    HARDWARE,
    SKYLAKE,
    DramSpec,
    HardwareSpec,
    get_hardware,
    register_hardware,
    resolve_hardware,
    soc_from_spec,
)
from repro.memory.dram import ddr4_device, lpddr3_device
from repro.runtime.cache import ResultCache
from repro.runtime.executor import Executor
from repro.runtime.jobs import (
    PlatformSpec,
    PolicySpec,
    SimSpec,
    SimulationJob,
    TraceSpec,
    job_from_dict,
)
from repro.sim.engine import SimulationEngine
from repro.sim.platform import build_platform
from repro.soc.broadwell import build_broadwell_soc
from repro.soc.skylake import SkylakeSoC
from repro.workloads.spec2006 import spec_workload

#: Golden content hashes of the registered anchor platforms.  These pin the
#: serialized hardware description: any field addition, rename, or default
#: change is a cache-invalidating schema change and must be made deliberately
#: (update the hash and bump HW_SCHEMA_VERSION when incompatible).
GOLDEN_HASHES = {
    "skylake": "c1e6a3032125320debd4161e718dd36e20a912a4a397663ce9a0922b06bf4c5d",
    "broadwell": "b5c3c60bd17afc0bf9518f115077f90b6679bae91876b8460d0e415cd42415d4",
}


class TestSerialization:
    def test_dict_round_trip(self):
        for spec in (SKYLAKE, BROADWELL, get_hardware("skylake-ddr4")):
            rebuilt = HardwareSpec.from_dict(spec.to_dict())
            assert rebuilt == spec
            assert rebuilt.content_hash == spec.content_hash

    def test_json_round_trip_is_exact(self):
        document = json.dumps(SKYLAKE.to_dict())
        rebuilt = HardwareSpec.from_dict(json.loads(document))
        assert rebuilt == SKYLAKE
        assert rebuilt.to_dict() == SKYLAKE.to_dict()

    def test_dram_spec_round_trip(self):
        spec = DRAM_SPECS["ddr4"]
        assert DramSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_legacy_three_knob_payload_decodes(self):
        """Old PlatformSpec payloads map onto the default Skylake description."""
        spec = HardwareSpec.from_dict(
            {"tdp": 7.0, "dram": "ddr4", "platform_fixed_power": 0.25}
        )
        assert spec.tdp == 7.0
        assert spec.dram == DRAM_SPECS["ddr4"]
        assert spec.platform_fixed_power == 0.25
        assert spec.cpu_ceff == config.CPU_CORE_CEFF  # defaults fill the rest

    def test_metadata_fields_do_not_change_hash_or_equality(self):
        """Names and blurbs label a description; they are not hardware.
        Renaming must never split the cache or break dedup."""
        relabelled = SKYLAKE.derive(
            name="skylake-rebadged",
            soc_name="Same Die, New Sticker",
            description="same hardware, new words",
        )
        assert relabelled == SKYLAKE
        assert relabelled.content_hash == SKYLAKE.content_hash
        for metadata_field in HardwareSpec.METADATA_FIELDS:
            assert metadata_field not in relabelled.to_dict()

    def test_registry_aliases_share_hashes_with_ad_hoc_derives(self):
        """skylake-7w IS skylake at 7 W: the two spellings must dedupe."""
        assert (
            SKYLAKE.derive(tdp=7.0).content_hash
            == get_hardware("skylake-7w").content_hash
        )
        assert (
            SKYLAKE.derive(dram="ddr4").content_hash
            == get_hardware("skylake-ddr4").content_hash
        )

    def test_golden_hashes(self):
        for name, expected in GOLDEN_HASHES.items():
            assert get_hardware(name).content_hash == expected, name


class TestDerive:
    def test_field_override(self):
        derived = SKYLAKE.derive(tdp=5.5, dram="ddr4")
        assert derived.tdp == 5.5
        assert derived.dram.technology == "ddr4"
        assert derived.cpu_ceff == SKYLAKE.cpu_ceff
        assert derived.content_hash != SKYLAKE.content_hash

    def test_scale_override(self):
        derived = SKYLAKE.derive(uncore_leakage_coeff_scale=1.08)
        assert derived.uncore_leakage_coeff == pytest.approx(
            SKYLAKE.uncore_leakage_coeff * 1.08
        )

    def test_unknown_override_rejected(self):
        with pytest.raises(KeyError):
            SKYLAKE.derive(nope=1)
        with pytest.raises(KeyError):
            SKYLAKE.derive(soc_name_scale=2.0)  # only numeric fields scale

    def test_set_and_scale_conflict_rejected(self):
        with pytest.raises(ValueError):
            SKYLAKE.derive(tdp=5.0, tdp_scale=2.0)

    def test_dram_accepts_device_objects(self):
        derived = SKYLAKE.derive(dram=ddr4_device())
        assert derived.dram == DRAM_SPECS["ddr4"]

    def test_validation_still_applies(self):
        with pytest.raises(ValueError):
            SKYLAKE.derive(tdp=-1.0)
        with pytest.raises(KeyError):
            SKYLAKE.derive(dram="hbm3")


class TestRegistry:
    def test_anchor_entries_present(self):
        for name in ("skylake", "broadwell", "skylake-ddr4", "skylake-lowleak"):
            assert name in HARDWARE

    def test_lookup_errors_list_known_names(self):
        with pytest.raises(KeyError, match="skylake"):
            get_hardware("pentium4")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_hardware(SKYLAKE.derive(description="same name"))

    def test_resolve_hardware(self):
        assert resolve_hardware(None) is SKYLAKE
        assert resolve_hardware("broadwell") is BROADWELL
        assert resolve_hardware(BROADWELL) is BROADWELL
        with pytest.raises(TypeError):
            resolve_hardware(42)

    def test_broadwell_matches_legacy_builder(self):
        """The registry delta reproduces the imperative Broadwell exactly."""
        legacy = build_broadwell_soc()
        spec_built = soc_from_spec(BROADWELL)
        assert spec_built.name == legacy.name
        assert spec_built.uncore.leakage_coeff == pytest.approx(
            legacy.uncore.leakage_coeff
        )
        assert spec_built.describe() == legacy.describe()


class TestSeedParity:
    """The default spec reproduces the seed platform bit-identically."""

    def test_soc_matches_dataclass_defaults(self):
        assert soc_from_spec(SKYLAKE).describe() == SkylakeSoC().describe()

    def test_platform_describe_matches_legacy_assembly(self):
        # build_platform(soc=...) is the seed's untouched assembly path over
        # the raw dataclass defaults -- the independent ground truth.
        assert SKYLAKE.build().describe() == build_platform(soc=SkylakeSoC()).describe()

    def test_simulation_results_bit_identical_to_seed_path(self):
        trace = spec_workload(name="470.lbm", duration=0.1)
        results = {}
        for label, platform in (
            ("spec", SKYLAKE.build()),
            ("seed", build_platform(soc=SkylakeSoC())),
        ):
            engine = SimulationEngine(platform)
            for policy_name in ("baseline", "sysscale"):
                policy = PolicySpec.make(policy_name).build(platform)
                results[(label, policy_name)] = engine.run(trace, policy).to_dict()
        assert results[("spec", "baseline")] == results[("seed", "baseline")]
        assert results[("spec", "sysscale")] == results[("seed", "sysscale")]

    def test_cold_and_warm_cache_are_bit_identical(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        jobs = [
            SimulationJob(
                trace=TraceSpec.make("spec", name="470.lbm", duration=0.05),
                policy=PolicySpec.make(policy),
                platform=SKYLAKE,
                sim=SimSpec(max_simulated_time=0.05),
            )
            for policy in ("baseline", "sysscale")
        ]
        cold = Executor().run(jobs, cache=cache)
        warm = Executor().run(jobs, cache=cache)
        assert cold.executed == 2 and warm.executed == 0
        assert warm.cache_hits == 2
        assert warm.payloads() == cold.payloads()


class TestRuntimeIntegration:
    def test_platform_spec_is_hardware_spec(self):
        assert PlatformSpec is HardwareSpec

    def test_job_hash_covers_full_hardware_description(self):
        """Any hardware field -- not just the legacy three knobs -- changes
        the job content hash, so variants cache as distinct jobs."""
        base = SimulationJob(
            trace=TraceSpec.make("spec", name="470.lbm", duration=0.05),
            policy=PolicySpec.make("baseline"),
        )
        for variant in (
            SKYLAKE.derive(uncore_leakage_coeff_scale=1.08),
            SKYLAKE.derive(cpu_ceff_scale=1.01),
            SKYLAKE.derive(v_sa_nominal=0.56),
            BROADWELL,
        ):
            changed = SimulationJob(
                trace=base.trace, policy=base.policy, platform=variant
            )
            assert changed.content_hash != base.content_hash

    def test_job_round_trip_with_variant_platform(self):
        job = SimulationJob(
            trace=TraceSpec.make("spec", name="470.lbm", duration=0.05),
            policy=PolicySpec.make("baseline"),
            platform=BROADWELL.derive(tdp=5.0),
        )
        rebuilt = job_from_dict(json.loads(json.dumps(job.to_dict())))
        assert rebuilt == job
        assert rebuilt.content_hash == job.content_hash

    def test_parallel_workers_rebuild_variant_platforms(self):
        """A derived spec crosses the process boundary and reproduces the
        serial results bit-identically in pool workers."""
        variant = BROADWELL.derive(tdp=5.0)
        jobs = [
            SimulationJob(
                trace=TraceSpec.make("spec", name=name, duration=0.05),
                policy=PolicySpec.make(policy),
                platform=variant,
                sim=SimSpec(max_simulated_time=0.05),
            )
            for name in ("470.lbm", "416.gamess")
            for policy in ("baseline", "sysscale")
        ]
        serial = Executor().run(jobs)
        parallel = Executor(workers=2).run(jobs)
        assert parallel.payloads() == serial.payloads()

    def test_dram_spec_builds_equivalent_devices(self):
        for name, factory in (("lpddr3", lpddr3_device), ("ddr4", ddr4_device)):
            built = DRAM_SPECS[name].device()
            reference = factory()
            assert built.technology == reference.technology
            assert built.frequency_bins == reference.frequency_bins
            assert built.describe() == reference.describe()


class TestHwCli:
    def test_hw_list_names_every_platform(self, capsys):
        from repro.cli import main

        assert main(["hw", "list"]) == 0
        output = capsys.readouterr().out
        for name in HARDWARE:
            assert name in output

    def test_hw_list_json(self, capsys):
        from repro.cli import main

        assert main(["hw", "list", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert HardwareSpec.from_dict(document["skylake"]) == SKYLAKE

    def test_hw_describe(self, capsys):
        from repro.cli import main

        assert main(["hw", "describe", "broadwell"]) == 0
        output = capsys.readouterr().out
        assert "Intel Core M-5Y71 (Broadwell)" in output
        assert BROADWELL.content_hash in output

    def test_hw_describe_json_round_trips(self, capsys):
        from repro.cli import main

        assert main(["hw", "describe", "skylake", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert HardwareSpec.from_dict(document["spec"]) == SKYLAKE
        assert document["content_hash"] == GOLDEN_HASHES["skylake"]

    def test_hw_describe_unknown_fails(self, capsys):
        from repro.cli import main

        assert main(["hw", "describe", "pentium4"]) == 2
        assert "unknown hardware" in capsys.readouterr().err

    def test_hw_hash_matches_golden(self, capsys):
        from repro.cli import main

        assert main(["hw", "hash", "skylake", "broadwell"]) == 0
        output = capsys.readouterr().out
        for name, digest in GOLDEN_HASHES.items():
            assert f"{digest}  {name}" in output

    def test_run_set_override_rejects_garbage(self, capsys):
        from repro.cli import main

        assert main(["run", "table2", "--no-cache", "--set", "nonsense"]) == 2
        assert "key=value" in capsys.readouterr().err
        assert main(["run", "table2", "--no-cache", "--set", "bogus=1"]) == 2
        assert "invalid hardware" in capsys.readouterr().err

    def test_run_platform_reaches_the_context(self, capsys):
        from repro.cli import main

        assert main(
            ["run", "table2", "--no-cache", "--platform", "broadwell"]
        ) == 0
        assert "Intel Core M-5Y71 (Broadwell)" in capsys.readouterr().out


class TestHwSweep:
    def test_quick_sweep_caches_and_reproduces(self, tmp_path, capsys):
        from repro.cli import main

        args = [
            "run", "hwsweep", "--quick",
            "--duration", "0.05", "--max-time", "0.05",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert ", 0 simulated" in warm

        def variant_lines(output):
            return [
                line for line in output.splitlines()
                if any(name in line for name in ("skylake", "broadwell"))
            ]

        assert variant_lines(warm) == variant_lines(cold)
        assert variant_lines(cold)

    def test_sweep_requires_two_variants(self):
        from repro.experiments import build_context, get_spec

        with pytest.raises(ValueError):
            get_spec("hwsweep").run(build_context(), variants=("skylake",))

    def test_session_runs_hwsweep_with_params(self, tmp_path):
        from repro.api import Session

        session = Session(
            cache_dir=str(tmp_path / "cache"), max_time=0.05, duration=0.05
        )
        report = session.run(
            "hwsweep",
            variants=("skylake", "skylake-lowleak"),
            subset=("470.lbm", "416.gamess"),
        )
        variants = {row["variant"] for row in report.block("variants").records()}
        assert variants == {"skylake", "skylake-lowleak"}

    def test_hw_variants_campaign_registered(self):
        from repro.runtime.campaign import CAMPAIGNS

        campaign = CAMPAIGNS["hw-variants"](True)
        assert len(campaign) > 0
        platforms = {job.platform.name for job in campaign.jobs}
        assert len(platforms) >= 3

    def test_context_hardware_joins_the_default_sweep(self, tmp_path):
        """--platform/--set hardware is swept, not silently ignored."""
        from repro.api import Session
        from repro.hw import SKYLAKE

        session = Session(
            cache_dir=str(tmp_path / "cache"),
            overrides={"uncore_leakage_coeff_scale": 1.25},
            max_time=0.05,
            duration=0.05,
        )
        report = session.run("hwsweep", quick=True, subset=("470.lbm",))
        variants = [row["variant"] for row in report.block("variants").records()]
        # The derived context hardware leads the axis (1 + the 3 quick
        # defaults); both specs named "skylake" disambiguate by hash prefix.
        assert len(variants) == 4
        assert variants[0] == f"skylake@{session.hardware.content_hash[:8]}"
        assert f"skylake@{SKYLAKE.content_hash[:8]}" in variants[1:]
        assert "broadwell" in variants

    def test_fig10_follows_the_context_hardware(self):
        """Regression: each fig10 TDP point derives from the context's
        hardware, so at the context's own TDP it reads the very jobs fig7
        reads on a DDR4 context, instead of default LPDDR3 results."""
        from repro.experiments import build_context, get_spec
        from repro.sim.engine import SimulationConfig

        context = build_context(
            hardware=get_hardware("skylake").derive(dram="ddr4"),
            workload_duration=0.2,
            sim_config=SimulationConfig(max_simulated_time=0.2),
        )
        subset = ("470.lbm", "429.mcf")
        fig10 = get_spec("fig10").run(context, subset=subset, tdp_points=(4.5,))
        fig7 = get_spec("fig7").run(context, subset=subset)
        (row,) = fig10.block("rows").records()
        assert row["average"] == fig7.block("average/sysscale").value

    def test_single_string_params_are_not_iterated_charwise(self, tmp_path):
        from repro.experiments import build_context, get_spec

        with pytest.raises(ValueError, match="at least two variants"):
            # one variant, not 9 characters
            get_spec("hwsweep").run(build_context(), variants="broadwell")


class TestCampaignRebasing:
    def test_omitted_grid_axes_inherit_the_base_hardware(self):
        """Regression: rebasing a grid campaign must not silently reset the
        base's TDP or DRAM through the axis defaults."""
        from repro.runtime.campaign import scenario_campaign

        rebased = scenario_campaign(quick=True, hardware=get_hardware("skylake-7w"))
        assert {job.platform.tdp for job in rebased.jobs} == {7.0}
        ddr4 = scenario_campaign(quick=True, hardware=get_hardware("skylake-ddr4"))
        assert {job.platform.dram.technology for job in ddr4.jobs} == {"ddr4"}

    def test_explicit_axes_still_win(self):
        from repro.runtime.campaign import spec_tdp_campaign

        campaign = spec_tdp_campaign(quick=True, hardware=get_hardware("skylake-7w"))
        assert {job.platform.tdp for job in campaign.jobs} == {3.5, 4.5, 7.0}
        # ...but the non-axis fields stay rebased (dram inherited from base).
        assert {job.platform.dram.technology for job in campaign.jobs} == {"lpddr3"}

    def test_default_sysscale_table_matches_the_dram_family(self):
        """SysScale's "default" operating points on a DDR4 platform are the
        DDR4 table, not LPDDR3 frequencies the device does not support."""
        from repro.runtime.jobs import PolicySpec, platform_for

        platform = platform_for(get_hardware("skylake-ddr4"))
        policy = PolicySpec.make("sysscale").build(platform)
        frequencies = {
            point.dram_frequency for point in policy.operating_points
        }
        assert frequencies <= set(config.DDR4_FREQUENCY_BINS)


class TestSessionPlatform:
    def test_session_platform_and_overrides(self, tmp_path):
        from repro.api import Session

        session = Session(
            cache=False,
            platform="broadwell",
            overrides={"tdp": 5.0},
            max_time=0.05,
            duration=0.05,
        )
        assert session.hardware.name == "broadwell"
        assert session.hardware.tdp == 5.0
        result = session.simulate("spec", "baseline", name="470.lbm", duration=0.05)
        assert result.energy.total > 0
