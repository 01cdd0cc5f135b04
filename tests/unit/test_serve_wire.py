"""Wire-format validation and digest identity for serve job submissions."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.assay import graph_to_dict
from repro.core import PDWConfig
from repro.serve import JobSpec, WireError, job_digest, parse_job
from repro.serve.wire import _CONFIG_FIELDS, job_id_for

from tests.conftest import build_demo_assay


def _parse(payload):
    return parse_job(payload)


class TestValidation:
    def test_minimal_benchmark_submission(self):
        spec = _parse({"benchmark": "PCR"})
        assert spec.kind == "benchmark"
        assert spec.benchmark == "PCR"
        assert spec.method == "pdw"
        assert spec.client == "anon"
        assert spec.config.time_limit_s == 120.0  # CLI-matching default

    def test_rejects_non_object(self):
        with pytest.raises(WireError):
            _parse(["not", "an", "object"])

    def test_rejects_unknown_top_level_key(self):
        with pytest.raises(WireError, match="unknown keys"):
            _parse({"benchmark": "PCR", "priority": 9})

    def test_requires_exactly_one_target(self):
        with pytest.raises(WireError, match="exactly one"):
            _parse({})
        with pytest.raises(WireError, match="exactly one"):
            _parse({"benchmark": "PCR", "assay": {}})

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(WireError, match="unknown benchmark"):
            _parse({"benchmark": "nope"})

    def test_rejects_unknown_method(self):
        with pytest.raises(WireError, match="unknown method"):
            _parse({"benchmark": "PCR", "method": "magic"})

    def test_rejects_unknown_config_key(self):
        with pytest.raises(WireError, match="unknown config key"):
            _parse({"benchmark": "PCR", "config": {"turbo": True}})

    def test_every_settable_key_is_a_config_field(self):
        # A wire key PDWConfig lacks would pass validation and then fail
        # in PDWConfig(**kwargs) as a 500 instead of a 400.
        fields = {f.name for f in dataclasses.fields(PDWConfig)}
        assert set(_CONFIG_FIELDS) <= fields, set(_CONFIG_FIELDS) - fields

    def test_rejects_mistyped_config_values(self):
        with pytest.raises(WireError, match="must be a number"):
            _parse({"benchmark": "PCR", "config": {"time_limit_s": "fast"}})
        with pytest.raises(WireError, match="must be a boolean"):
            _parse({"benchmark": "PCR", "config": {"merge_clusters": 1}})
        with pytest.raises(WireError, match="must be an integer"):
            _parse({"benchmark": "PCR", "config": {"max_candidates": 2.5}})

    def test_config_validation_surfaces_as_wire_error(self):
        # PDWConfig's own __post_init__ rejection (negative budget) must
        # come back as a 400-class WireError, not an unhandled WashError.
        with pytest.raises(WireError, match="invalid config"):
            _parse({"benchmark": "PCR", "config": {"time_limit_s": -5}})

    @pytest.mark.parametrize(
        "config",
        [
            '{"mip_gap": -1}',
            '{"max_wash_path_mm": -5}',
            '{"max_wash_path_mm": 0}',
            '{"alpha": NaN}',
            '{"time_limit_s": NaN}',
            '{"gamma": Infinity}',
            '{"beta": -Infinity}',
        ],
    )
    def test_rejects_invalid_numeric_config(self, config):
        # Python's json accepts the non-standard NaN and Infinity literals.
        payload = json.loads('{"benchmark": "PCR", "config": %s}' % config)
        with pytest.raises(WireError, match="invalid config"):
            _parse(payload)

    def test_degrade_requires_pdw_method(self):
        with pytest.raises(WireError, match="PDW capability"):
            _parse({
                "benchmark": "PCR", "method": "dawo",
                "config": {"degrade": "light"},
            })

    def test_rejects_blank_client(self):
        with pytest.raises(WireError, match="client"):
            _parse({"benchmark": "PCR", "client": "   "})

    def test_malformed_assay_graph_is_wire_error(self):
        with pytest.raises(WireError):
            _parse({"assay": {"nonsense": True}})

    def test_assay_submission_roundtrips_graph(self):
        graph = graph_to_dict(build_demo_assay())
        spec = _parse({"assay": graph, "method": "immediate"})
        assert spec.kind == "assay"
        assert spec.target == "assay"
        assert spec.assay["name"] == graph["name"]


class TestDigest:
    def test_identical_submissions_share_a_digest(self):
        a = _parse({"benchmark": "PCR", "config": {"time_limit_s": 30}})
        b = _parse({"config": {"time_limit_s": 30}, "benchmark": "PCR"})
        assert job_digest(a) == job_digest(b)

    def test_int_float_coercion_is_digest_stable(self):
        # {"time_limit_s": 30} and {"time_limit_s": 30.0} are the same job.
        a = _parse({"benchmark": "PCR", "config": {"time_limit_s": 30}})
        b = _parse({"benchmark": "PCR", "config": {"time_limit_s": 30.0}})
        assert job_digest(a) == job_digest(b)

    def test_client_does_not_change_the_digest(self):
        a = _parse({"benchmark": "PCR", "client": "alice"})
        b = _parse({"benchmark": "PCR", "client": "bob"})
        assert job_digest(a) == job_digest(b)

    def test_config_changes_the_digest(self):
        a = _parse({"benchmark": "PCR"})
        b = _parse({"benchmark": "PCR", "config": {"time_limit_s": 33}})
        assert job_digest(a) != job_digest(b)

    def test_method_changes_the_digest(self):
        a = _parse({"benchmark": "PCR", "method": "pdw"})
        b = _parse({"benchmark": "PCR", "method": "dawo"})
        assert job_digest(a) != job_digest(b)

    def test_benchmark_changes_the_digest(self):
        a = _parse({"benchmark": "PCR"})
        b = _parse({"benchmark": "IVD"})
        assert job_digest(a) != job_digest(b)

    def test_assay_digest_is_content_addressed(self):
        graph = graph_to_dict(build_demo_assay())
        a = _parse({"assay": graph})
        b = _parse({"assay": dict(graph)})
        assert job_digest(a) == job_digest(b)

    def test_job_id_shape(self):
        spec = _parse({"benchmark": "PCR"})
        jid = job_id_for(job_digest(spec))
        assert jid.startswith("j") and len(jid) == 17
