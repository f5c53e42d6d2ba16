"""JSON schema handling: exact keys, reduced units, hashing."""

import pytest

from spinpb import ConfigError, HilbertConfig
from spinpb.config import (
    canonical_json,
    config_hash,
    hilbert_from_dict,
    params_from_dict,
    params_reduced_dict,
)

FLAT = {
    "gamma": 2.0,
    "delta": -1.5,
    "omega_b": 40.0,
    "J": 26.8,
    "K": 0.2,
    "Lambda": 1e-4,
    "beta": 0.0,
    "E": 0.01,
    "delta_F": 1.0,
    "m_th": 0.0,
    "gamma_p": 0.0,
}


class TestParamsFromDict:
    def test_absolute_round_trip(self):
        p = params_from_dict(FLAT)
        assert vars(p) == FLAT

    def test_reduced_over_gamma(self):
        raw = dict(FLAT)
        del raw["J"]
        raw["J_over_gamma"] = 13.4
        p = params_from_dict(raw)
        assert p.J == 13.4 * 2.0

    def test_reduced_over_omega_b(self):
        raw = dict(FLAT)
        del raw["delta"]
        raw["delta_over_omega_b"] = -0.5
        assert params_from_dict(raw).delta == -20.0

    def test_mixed_spellings_conflict(self):
        raw = dict(FLAT)
        raw["J_over_gamma"] = 13.4
        with pytest.raises(ConfigError, match="multiple unit spellings"):
            params_from_dict(raw)

    def test_unknown_key_rejected(self):
        raw = dict(FLAT)
        raw["lambda"] = 1.0
        with pytest.raises(ConfigError, match="unknown parameter key"):
            params_from_dict(raw)

    def test_dimensionless_keys_have_no_companions(self):
        raw = dict(FLAT)
        raw["m_th_over_gamma"] = 0.1
        with pytest.raises(ConfigError, match="unknown parameter key"):
            params_from_dict(raw)

    def test_missing_required(self):
        raw = dict(FLAT)
        del raw["omega_b"]
        with pytest.raises(ConfigError, match="missing required key"):
            params_from_dict(raw)

    def test_defaults_for_optional_keys(self):
        p = params_from_dict({"gamma": 1.0, "omega_b": 10.0})
        assert p.J == 0.0 and p.m_th == 0.0 and p.beta == 0.0

    def test_comment_key_ignored(self):
        raw = dict(FLAT)
        raw["comment"] = "working point"
        assert params_from_dict(raw).gamma == 2.0

    @pytest.mark.parametrize("key, value", [
        pytest.param("J", "fast", id="string"),
        pytest.param("gamma", float("nan"), id="nan"),
        pytest.param("delta", float("inf"), id="infinity"),
        pytest.param("E", -float("inf"), id="minus-infinity"),
        pytest.param("K", 10**400, id="int-beyond-float"),
    ])
    def test_non_numeric_value(self, key, value):
        raw = dict(FLAT)
        raw[key] = value
        with pytest.raises(ConfigError, match="must be a finite number"):
            params_from_dict(raw)

    def test_reduced_echo_units(self):
        p = params_from_dict(FLAT)
        reduced = params_reduced_dict(p)
        assert reduced["J_over_gamma"] == pytest.approx(13.4)
        assert reduced["delta_over_omega_b"] == pytest.approx(-1.5 / 40.0)


class TestHilbertFromDict:
    def test_defaults(self):
        assert hilbert_from_dict(None) == HilbertConfig(5, 5)
        assert hilbert_from_dict({}) == HilbertConfig(5, 5)

    def test_explicit(self):
        assert hilbert_from_dict({"n_magnon": 6, "n_photon": 4}) \
            == HilbertConfig(6, 4)

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            hilbert_from_dict({"n_phonon": 3})

    def test_non_integer(self):
        with pytest.raises(ConfigError):
            hilbert_from_dict({"n_magnon": 5.5})
        with pytest.raises(ConfigError):
            hilbert_from_dict({"n_magnon": True})


class TestHashing:
    def test_key_order_invariance(self):
        a = {"x": 1, "y": [1, 2]}
        b = {"y": [1, 2], "x": 1}
        assert config_hash(a) == config_hash(b)

    def test_value_sensitivity(self):
        assert config_hash({"x": 1}) != config_hash({"x": 2})

    def test_canonical_form_is_compact(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_unserializable_value_is_type_error(self):
        # only numpy scalars are converted; anything else is refused
        with pytest.raises(TypeError, match="object is not JSON serializable"):
            config_hash({"x": object()})
