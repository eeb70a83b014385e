"""Cache filenames derive only from the sha256 spec key, and that key
covers every field of the spec.

``ScenarioSpec.__hash__`` calls the builtin ``hash()`` (carrying a
``repro: allow-hash-builtin`` annotation) for in-process set/dict
membership.  These tests pin down why that is safe: nothing that
crosses a process boundary — cache paths, cache keys, canonical JSON —
depends on ``hash()`` or ``PYTHONHASHSEED``.

The field-coverage tests guard the other way a key goes stale: a field
of ``ScenarioSpec`` or ``ExperimentConfig`` that ``canonical()`` drops
(two different runs share one cache entry) or that ``from_dict`` cannot
rebuild (a sweep reloads a different spec than it ran).
"""

import json
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

from repro.eval.cache import ResultCache
from repro.eval.experiments import ExperimentConfig
from repro.eval.runner import ScenarioSpec
from repro.sim import dumbbell_spec

SRC = str(Path(__file__).resolve().parents[2] / "src")

_KEY_SCRIPT = """\
import json
from repro.eval.runner import ScenarioSpec
spec = ScenarioSpec(scheme="tva", attack="flood", n_attackers=3, seed=7)
print(json.dumps({
    "key": spec.key(),
    "canonical": json.dumps(spec.canonical(), sort_keys=True),
}))
"""


def _spec_key_under_hash_seed(seed: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _KEY_SCRIPT],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": SRC, "PYTHONHASHSEED": seed},
    )
    return json.loads(proc.stdout)


def test_cache_path_uses_only_the_hex_key(tmp_path):
    spec = ScenarioSpec(scheme="tva", attack="flood", n_attackers=3)
    key = spec.key()
    assert re.fullmatch(r"[0-9a-f]{64}", key)
    path = ResultCache(tmp_path).path_for(key)
    assert path == tmp_path / key[:2] / f"{key}.json"
    # The in-process hash() value appears nowhere in the filename.
    assert str(hash(spec)) not in str(path)


def test_spec_key_is_stable_across_hash_seeds():
    one = _spec_key_under_hash_seed("1")
    two = _spec_key_under_hash_seed("2")
    assert one["key"] == two["key"]
    assert one["canonical"] == two["canonical"]


def test_spec_key_matches_in_process_value():
    spec = ScenarioSpec(scheme="tva", attack="flood", n_attackers=3, seed=7)
    assert spec.key() == _spec_key_under_hash_seed("random")["key"]


BASE_SPEC = ScenarioSpec(scheme="tva", attack="legacy", n_attackers=2)

#: One non-default value per field.  The tables must name every field,
#: so a newly added field fails ``test_alternatives_cover_every_field``
#: until it is listed here — and thereby checked by the tests below.
SPEC_ALTERNATIVES = {
    "scheme": "siff",
    "attack": "request",
    "n_attackers": 3,
    "seed": 2,
    "config": ExperimentConfig(duration=7.0),
    "policy": "oracle",
    "attack_start": 1.5,
    "attack_groups": 2,
    "group_stagger": 0.5,
    "siff_secret_period": 3.0,
    "siff_accept_previous": False,
    "siff_mark_bits": 4,
    "metrics": True,
    "metrics_interval": 0.25,
    "faults": "reboot:6.0:R1",
    "topology": dumbbell_spec(n_users=2, n_attackers=2),
    "aggregate": True,
    "scheme_options": {"request_fraction": 0.1},
}

CONFIG_ALTERNATIVES = {
    "n_users": 3,
    "transfer_bytes": 40_000,
    "bottleneck_bps": 5e6,
    "attack_rate_bps": 2e6,
    "attack_pkt_size": 500,
    "duration": 7.0,
    "seed": 2,
    "request_fraction": 0.05,
    "server_grant": (64 * 1024, 5),
    "regular_qdisc": "sfq",
}


def _json_roundtrip(data: dict) -> dict:
    return json.loads(json.dumps(data, sort_keys=True))


def test_alternatives_cover_every_field():
    assert set(SPEC_ALTERNATIVES) == {f.name for f in fields(ScenarioSpec)}
    assert set(CONFIG_ALTERNATIVES) == {
        f.name for f in fields(ExperimentConfig)
    }


@pytest.mark.parametrize("name", sorted(SPEC_ALTERNATIVES))
def test_every_spec_field_reaches_the_key(name):
    base = BASE_SPEC
    if name == "aggregate":  # aggregation needs a topology to act on
        base = replace(base, topology=SPEC_ALTERNATIVES["topology"])
    varied = replace(base, **{name: SPEC_ALTERNATIVES[name]})
    assert varied.key() != base.key()
    again = ScenarioSpec.from_dict(_json_roundtrip(varied.to_dict()))
    assert again == varied
    assert again.key() == varied.key()


@pytest.mark.parametrize("name", sorted(CONFIG_ALTERNATIVES))
def test_every_config_field_reaches_the_key(name):
    config = replace(ExperimentConfig(), **{name: CONFIG_ALTERNATIVES[name]})
    assert replace(BASE_SPEC, config=config).key() != BASE_SPEC.key()
    assert ExperimentConfig.from_dict(_json_roundtrip(config.to_dict())) \
        == config
