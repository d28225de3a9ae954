"""Job hashes splice each platform's cached canonical text, and a cache
entry is its hash and its result.

A ``HardwareSpec`` encodes its ``to_dict()`` once per instance, in the
canonical form job hashes use.  No job hash may move for it: every check
here compares with the hash of the whole job document, the formula the
runtime used before the splice.  A cache entry is ``json.dumps`` of its
schema, hash and result, and one reader (``ResultCache.read``) serves both
the cache and the fleet store: an entry is served only under the hash it
names, so a mis-filed or truncated entry is a miss, and an entry an earlier
version wrote with the whole job in it is still served.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import config, obs
from repro.fleet import ShardedResultStore
from repro.hashing import Encoded, canonical_json, content_hash
from repro.hw import HardwareSpec, get_hardware
from repro.obs import state as obs_state
from repro.runtime import (
    DegradationJob,
    PlatformSpec,
    PointSpec,
    PolicySpec,
    ResultCache,
    SimSpec,
    SimulationJob,
    TraceSpec,
    execute_job,
)
from repro.runtime.campaign import CAMPAIGNS, resolve_campaign
from repro.runtime.jobs import SCHEMA_VERSION
from repro.workloads.io_devices import STANDARD_CONFIGURATIONS

SRC = Path(__file__).resolve().parents[1] / "src"

#: The power coefficients ``TestGeneratedHardwareParity`` scales.
COEFFICIENTS = (
    "uncore_leakage_coeff",
    "mc_power_high",
    "cpu_ceff",
    "dram_background_power_high",
)


def reference_hash(job):
    """The job hash computed from the whole job document."""
    return content_hash({"schema": SCHEMA_VERSION, **job.to_dict()})


def reference_entry(job, payload):
    """The cache entry text: ``json.dumps`` of the entry document."""
    return json.dumps({"schema": SCHEMA_VERSION, "hash": reference_hash(job), "result": payload})


def _scaled_voltages(points, scale):
    return tuple((frequency, voltage * scale) for frequency, voltage in points)


@st.composite
def hardware(draw):
    """A derived Skylake over the axes of ``TestGeneratedHardwareParity``."""
    base = get_hardware("skylake")
    coefficient = draw(st.sampled_from(COEFFICIENTS))
    return base.derive(
        tdp=draw(st.floats(min_value=3.5, max_value=15.0)),
        dram=draw(st.sampled_from(("lpddr3", "ddr4"))),
        cpu_vf_points=_scaled_voltages(
            base.cpu_vf_points, draw(st.floats(min_value=0.9, max_value=1.1))
        ),
        gfx_vf_points=_scaled_voltages(
            base.gfx_vf_points, draw(st.floats(min_value=0.9, max_value=1.1))
        ),
        **{f"{coefficient}_scale": draw(st.floats(min_value=0.8, max_value=1.25))},
    )


@st.composite
def jobs(draw):
    """Either job kind on generated hardware; simulations draw a policy, a
    default or non-default ``SimSpec`` and a peripheral configuration."""
    platform = draw(hardware())
    trace = TraceSpec.make(
        "spec",
        name=draw(st.sampled_from(("470.lbm", "416.gamess", "429.mcf"))),
        duration=draw(st.floats(min_value=0.01, max_value=2.0)),
    )
    if draw(st.booleans()):
        sim = draw(
            st.one_of(
                st.just(SimSpec()),
                st.builds(
                    SimSpec,
                    max_simulated_time=st.floats(min_value=0.01, max_value=10.0),
                    record_bandwidth_samples=st.booleans(),
                ),
            )
        )
        return SimulationJob(
            trace=trace,
            policy=PolicySpec.make(draw(st.sampled_from(("baseline", "sysscale", "md_dvfs")))),
            platform=platform,
            sim=sim,
            peripherals=draw(st.sampled_from((None, *sorted(STANDARD_CONFIGURATIONS)))),
        )
    return DegradationJob(
        trace=trace,
        high=PointSpec(config.ghz(1.6), config.IO_INTERCONNECT_HIGH_FREQUENCY),
        low=PointSpec(
            draw(st.sampled_from((config.ghz(1.06), config.ghz(1.33)))),
            config.IO_INTERCONNECT_LOW_FREQUENCY,
            v_sa_scale=draw(st.floats(min_value=0.7, max_value=1.0)),
            v_io_scale=draw(st.floats(min_value=0.7, max_value=1.0)),
        ),
        platform=platform,
    )


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=8,
)
payloads = st.dictionaries(st.text(max_size=8), _json_values, max_size=5)


def _tiny_job(name="470.lbm", policy="baseline"):
    return SimulationJob(
        trace=TraceSpec.make("spec", name=name, duration=0.05),
        policy=PolicySpec.make(policy),
        platform=PlatformSpec(tdp=4.5),
        sim=SimSpec(max_simulated_time=0.05),
    )


def _counter(name):
    return obs.snapshot()["counters"].get(name, 0)


class TestSplice:
    """``repro.hashing`` splices a member's text at the member's sorted position."""

    DOCUMENT = {"b": [1, 2.5], "platform": {"x": 1, "a": None}, "a": "é", "z": {"k": True}}
    CANONICAL = json.dumps(DOCUMENT, sort_keys=True, separators=(",", ":"))

    @pytest.mark.parametrize("member", ["b", "platform", "a", "z"])
    def test_one_spliced_member_encodes_as_the_whole_document(self, member):
        value = self.DOCUMENT[member]
        spliced = {**self.DOCUMENT, member: Encoded(canonical_json(value))}
        assert canonical_json(spliced) == self.CANONICAL

    def test_every_member_spliced(self):
        spliced = {key: Encoded(canonical_json(value)) for key, value in self.DOCUMENT.items()}
        assert canonical_json(spliced) == self.CANONICAL

    def test_plain_documents_encode_as_before(self):
        assert canonical_json(self.DOCUMENT) == self.CANONICAL
        assert canonical_json([1, "x"]) == "[1,\"x\"]"

    def test_a_nested_encoded_member_is_refused(self):
        with pytest.raises(TypeError):
            canonical_json({"outer": {"inner": Encoded("{}")}})


class TestNoHashOrByteMoves:
    """No job hash moves, and ``put`` writes exactly ``json.dumps`` of the
    entry document."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(job=jobs(), payload=payloads)
    def test_generated_jobs(self, job, payload):
        assert job.content_hash == reference_hash(job)
        with tempfile.TemporaryDirectory() as root:
            cache = ResultCache(Path(root))
            path = cache.put(job, payload)
            assert path.read_bytes() == reference_entry(job, payload).encode("utf-8")
            assert cache.get(job) == payload

    def test_every_catalog_job(self, tmp_path):
        cache = ResultCache(tmp_path)
        payload = {"degradation": 0.0125, "counters": {"a": 1.5, "b": [0, -2]}}
        checked = 0
        for name in CAMPAIGNS:
            for job in resolve_campaign(name).jobs:
                assert job.content_hash == reference_hash(job), job.label
                path = cache.put(job, payload)
                assert path.read_bytes() == reference_entry(job, payload).encode("utf-8")
                checked += 1
        assert checked

    def test_a_spec_is_encoded_once(self, monkeypatch, tmp_path):
        spec = PlatformSpec(tdp=5.5)
        encodes = []
        real = HardwareSpec.to_dict

        def counting(self):
            encodes.append(self)
            return real(self)

        monkeypatch.setattr(HardwareSpec, "to_dict", counting)
        cache = ResultCache(tmp_path)
        batch = [replace(_tiny_job(name), platform=spec) for name in ("470.lbm", "429.mcf", "433.milc")]
        for job in batch:
            job.content_hash
            cache.put(job, {"x": 1})
            assert cache.get(job) == {"x": 1}
        assert len(encodes) == 1  # its canonical text; entries carry no job


class TestSpecTexts:
    def test_text_is_the_canonical_encoding_of_to_dict(self):
        spec = get_hardware("broadwell")
        assert spec.canonical_text == canonical_json(spec.to_dict())

    def test_cached_texts_leave_equality_and_hashing_alone(self):
        encoded = PlatformSpec(tdp=6.25)
        encoded.canonical_text
        fresh = PlatformSpec(tdp=6.25)
        assert "canonical_text" in vars(encoded) and "canonical_text" not in vars(fresh)
        assert encoded == fresh
        assert hash(encoded) == hash(fresh)
        assert encoded.content_hash == fresh.content_hash
        assert encoded.to_dict() == fresh.to_dict()

    def test_derived_specs_encode_their_own_text(self):
        parent = PlatformSpec(tdp=6.5)
        parent.canonical_text
        for child in (parent.derive(tdp=7.0), replace(parent, tdp=7.0), replace(parent)):
            assert "canonical_text" not in vars(child)
            assert child.canonical_text == canonical_json(child.to_dict())
        assert parent.derive(tdp=7.0).canonical_text != parent.canonical_text

    def test_nothing_is_encoded_at_import(self):
        """No spec of the registry or the job defaults holds a text until a
        job is hashed or cached."""
        probe = (
            "import repro, repro.fleet, repro.experiments\n"
            "from repro.hw import HARDWARE\n"
            "from repro.runtime.jobs import SimulationJob, DegradationJob\n"
            "specs = list(HARDWARE.values()) + [\n"
            "    cls.__dataclass_fields__['platform'].default\n"
            "    for cls in (SimulationJob, DegradationJob)]\n"
            "texts = [s.name for s in specs if 'canonical_text' in vars(s)]\n"
            "print(len(specs), texts)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        ).stdout.split(maxsplit=1)
        assert int(out[0]) > 2 and out[1].strip() == "[]"


class TestReadPath:
    def test_a_misfiled_entry_is_a_miss_and_the_next_put_rewrites_it(self, tmp_path):
        """Another job's entry filed under this hash is no result, to the
        cache and to the fleet store, which reads by hash through the same
        reader."""
        store = ShardedResultStore(tmp_path)
        cache = store.job_cache()
        a, b = _tiny_job("470.lbm"), _tiny_job("416.gamess")
        cache.put(a, {"x": 1})
        misfiled = cache.path_for(b.content_hash)
        misfiled.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(cache.path_for(a.content_hash), misfiled)
        with obs_state.scoped(enabled=True):
            assert cache.get(b) is None
            assert _counter("cache.misses") == 1
            assert _counter("cache.hits") == 0
        assert store.job_payload(b.content_hash) is None
        assert store.job_payload(a.content_hash) == {"x": 1}
        cache.put(b, {"x": 2})
        assert misfiled.read_text(encoding="utf-8") == reference_entry(b, {"x": 2})
        assert cache.get(b) == {"x": 2}
        assert cache.get(a) == {"x": 1}

    def test_a_truncated_entry_is_a_miss_at_every_length(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = _tiny_job(policy="sysscale")
        payload = execute_job(job)
        path = cache.put(job, payload)
        entry = path.read_bytes()
        for end in range(len(entry)):
            path.write_bytes(entry[:end])
            assert cache.get(job) is None, end
        path.write_bytes(entry)
        assert cache.get(job) == payload

    def test_a_result_that_is_not_a_dict_is_absent(self, tmp_path):
        store = ShardedResultStore(tmp_path)
        job = _tiny_job()
        path = store.job_cache().put(job, {"x": 1})
        for result in ([1, 2], "x", None, 3):
            entry = {"schema": SCHEMA_VERSION, "hash": job.content_hash, "result": result}
            path.write_text(json.dumps(entry), encoding="utf-8")
            assert store.job_payload(job.content_hash) is None, result
            assert store.job_cache().get(job) is None, result

    def test_an_entry_in_the_earlier_format_is_served(self, tmp_path):
        """Entries written before this format also carry the whole job; the
        reader ignores it, so old caches and fleet stores serve as they are."""
        store = ShardedResultStore(tmp_path)
        job = _tiny_job(policy="sysscale")
        payload = {"x": 1, "nested": {"y": [1.5, None]}}
        path = store.job_path(job.content_hash)
        path.parent.mkdir(parents=True)
        path.write_text(
            json.dumps(
                {
                    "schema": SCHEMA_VERSION,
                    "hash": job.content_hash,
                    "job": job.to_dict(),
                    "result": payload,
                }
            ),
            encoding="utf-8",
        )
        with obs_state.scoped(enabled=True):
            assert store.job_cache().get(job) == payload
            assert _counter("cache.hits") == 1
        assert store.job_payload(job.content_hash) == payload
