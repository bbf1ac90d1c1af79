"""Serialization: canonical JSON, config loading, manifests, CSV round trips."""

import json

import numpy as np
import pytest

from stochfio.io import (
    ConfigError,
    config_sha256,
    dump_json,
    field_to_dict,
    load_config,
    make_manifest,
    read_field_csv,
    stats_to_dict,
    strip_timing,
    write_field_csv,
)
from stochfio.oscillatory import GridField
from stochfio.stochastic import MCStats


def _sample_field():
    xs = np.linspace(-1.0, 1.0, 9)
    return GridField(
        points=(xs,),
        values={(0,): np.exp(1j * xs), (1,): 1j * np.exp(1j * xs)},
        meta={"kappa": 2, "wall_time": 0.123},
    )


# ---------------------------------------------------------------------------
# canonical JSON


def test_dump_json_sorts_keys_and_ends_with_newline():
    text = dump_json({"b": 1, "a": [np.float64(0.5), np.int64(3)]})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"a": [0.5, 3], "b": 1}


def test_dump_json_encodes_complex_and_arrays():
    data = json.loads(dump_json({"z": 1 + 2j, "v": np.arange(3.0)}))
    assert data["z"] == {"re": 1.0, "im": 2.0}
    assert data["v"] == [0.0, 1.0, 2.0]


def test_dump_json_writes_file(tmp_path):
    path = tmp_path / "out.json"
    text = dump_json({"x": 1}, str(path))
    assert path.read_text() == text


def test_config_hash_is_key_order_independent():
    a = {"grid": {"lo": -1, "hi": 1}, "time": 0.5}
    b = {"time": 0.5, "grid": {"hi": 1, "lo": -1}}
    assert config_sha256(a) == config_sha256(b)
    assert config_sha256(a) != config_sha256({**a, "time": 0.6})


# ---------------------------------------------------------------------------
# config loading


def test_load_config_requires_schema_version(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"grid": {}}))
    with pytest.raises(ConfigError, match="schema_version"):
        load_config(str(path))
    path.write_text(json.dumps({"schema_version": 99}))
    with pytest.raises(ConfigError, match="schema_version"):
        load_config(str(path))
    path.write_text(json.dumps({"schema_version": 1, "time": 0.5}))
    assert load_config(str(path))["time"] == 0.5


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ConfigError):
        load_config(str(path))


# ---------------------------------------------------------------------------
# manifests


def test_manifest_contents_and_timing_strip():
    manifest = make_manifest("apply", {"schema_version": 1},
                             extra={"timing": {"wall_time": 0.4}, "kappa": 2})
    assert manifest["schema_version"] == 1
    assert manifest["command"] == "apply"
    assert len(manifest["config_sha256"]) == 64
    stripped = strip_timing(manifest)
    assert "timing" not in stripped
    assert stripped["kappa"] == 2
    assert "timing" in manifest  # original untouched


# ---------------------------------------------------------------------------
# field / stats dict forms


def test_field_to_dict_moves_wall_time_under_timing():
    data = field_to_dict(_sample_field())
    assert data["timing"] == {"wall_time": 0.123}
    assert "wall_time" not in data["meta"]
    assert data["meta"]["kappa"] == 2
    assert set(data["values"]) == {"0", "1"}
    assert data["values"]["0"]["re"][0] == pytest.approx(np.cos(-1.0))


def test_stats_to_dict_round_trips_failures():
    stats = MCStats.empty((2,))
    stats.push(np.array([1.0 + 1j, 2.0]))
    stats.push(np.array([3.0, 4.0 - 2j]))
    stats.failures = ((7, "ValueError: bad draw"),)
    data = stats_to_dict(stats)
    assert data["n"] == 2
    assert data["mean_re"] == [2.0, 3.0]
    assert data["mean_im"] == [0.5, -1.0]
    assert data["failures"] == [{"index": 7, "error": "ValueError: bad draw"}]
    assert "autocovariance" not in data  # only present when pairs were tracked


def test_stats_to_dict_includes_tracked_autocovariance():
    stats = MCStats.empty((2,), pairs=((0, 1),))
    stats.push(np.array([1.0 + 1j, 2.0]))
    stats.push(np.array([3.0, 4.0 - 2j]))
    data = stats_to_dict(stats)
    cov = data["autocovariance"]
    assert cov["pairs"] == [[0, 1]]
    # two samples: conj(x0 - mean0) (x1 - mean1) summed over draws, over n-1
    expected = (np.conj((1 + 1j) - (2 + 0.5j)) * (2.0 - (3 - 1j))
                + np.conj(3.0 - (2 + 0.5j)) * ((4 - 2j) - (3 - 1j)))
    assert cov["re"] == [pytest.approx(expected.real)]
    assert cov["im"] == [pytest.approx(expected.imag)]


# ---------------------------------------------------------------------------
# CSV


def test_csv_round_trip_is_bit_exact(tmp_path):
    field = _sample_field()
    path = tmp_path / "field.csv"
    write_field_csv(field, str(path))
    back = read_field_csv(str(path))
    assert back["header"] == ["x", "re", "im", "re_d1", "im_d1"]
    assert np.array_equal(back["columns"]["x"], field.points[0])
    assert np.array_equal(back["columns"]["re"], field.values[(0,)].real)
    assert np.array_equal(back["columns"]["im_d1"], field.values[(1,)].imag)


def test_csv_refuses_a_field_with_two_x_columns(tmp_path):
    field = _sample_field()
    two_columns = GridField((field.points[0], field.points[0]), field.values)
    with pytest.raises(ValueError):
        write_field_csv(two_columns, str(tmp_path / "field.csv"))


def test_csv_is_deterministic(tmp_path):
    field = _sample_field()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_field_csv(field, str(p1))
    write_field_csv(field, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
