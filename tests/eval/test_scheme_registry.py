"""Contracts every registered scheme must satisfy.

The scheme registry (:mod:`repro.schemes`) maps names to frozen knob
dataclasses.  These tests are parametrized over the registry itself, so
adding a scheme automatically subjects it to the same contracts:

* knobs round-trip losslessly through JSON and through
  ``ScenarioSpec.scheme_options`` (same cache key both ways);
* ``build()`` honours ``seed`` and ``destination_policy``;
* unknown knob names fail loudly with a ``TypeError`` naming the scheme;
* every ``build()`` product has every member the ``SchemeFactory``
  protocol declares, and ``reboot_router`` and ``metric_items`` uphold
  the protocol on a live dumbbell;
* every surface that lists schemes (CLI choices, ``repro.api``,
  DESIGN.md's table) derives from — or at least agrees with — the
  registry.

The cache-compatibility tests at the bottom pin the sha256 spec keys of
the pre-redesign default-knob scenarios: the registry redesign must not
invalidate any cached result (CACHE_SALT deliberately stayed at v5).
"""

import dataclasses
import json

import pytest

from repro import api
from repro import schemes as registry
from repro.core.policy import ServerPolicy
from repro.eval.experiments import SCHEMES as EXPERIMENT_SCHEMES
from repro.eval.experiments import ExperimentConfig
from repro.eval.runner import ScenarioSpec, build_fig11_spec
from repro.schemes import SCHEMES, build_scheme, knobs_for, scheme_names
from repro.sim import SchemeFactory, Simulator, dumbbell_spec, instantiate

#: One non-default override per scheme, exercising a representative knob
#: type each (tuple-free floats, ints, and the empty case).
SAMPLE_OPTIONS = {
    "tva": {"request_fraction": 0.1},
    "siff": {"mark_bits": 4},
    "pushback": {"review_interval": 1.5},
    "internet": {},
    "netfence": {"beta": 0.25},
}

ALL_SCHEMES = scheme_names()

#: The public members ``SchemeFactory`` declares: its methods plus its
#: annotated attributes.  Derived from the protocol, so a member added
#: there is checked against every scheme without touching this file.
PROTOCOL_METHODS = [
    n for n in sorted(vars(SchemeFactory))
    if not n.startswith("_") and callable(getattr(SchemeFactory, n))
]
PROTOCOL_MEMBERS = sorted(set(PROTOCOL_METHODS)
                          | set(SchemeFactory.__annotations__))


def test_sample_options_cover_the_registry():
    # A new scheme must add a sample here so the contracts below bite.
    assert set(SAMPLE_OPTIONS) == set(ALL_SCHEMES)


@pytest.mark.parametrize("name", ALL_SCHEMES)
class TestKnobContracts:
    def test_registered_as_frozen_dataclass(self, name):
        cls = SCHEMES[name]
        assert dataclasses.is_dataclass(cls)
        assert cls.__dataclass_params__.frozen
        assert cls.scheme_name == name

    def test_build_product_satisfies_scheme_factory(self, name):
        assert {"name", "metric_items"} <= set(PROTOCOL_MEMBERS)
        scheme = build_scheme(name, seed=5)
        missing = [m for m in PROTOCOL_MEMBERS if not hasattr(scheme, m)]
        assert missing == [], f"{type(scheme).__name__} lacks {missing}"
        for method in PROTOCOL_METHODS:
            assert callable(getattr(scheme, method)), method

    def test_knobs_json_roundtrip(self, name):
        knobs = knobs_for(name, SAMPLE_OPTIONS[name])
        wire = json.loads(json.dumps(knobs.to_dict(), sort_keys=True))
        assert SCHEMES[name].from_dict(wire) == knobs
        # to_dict is pure JSON: no tuples survive the fold.
        assert json.dumps(wire, sort_keys=True) == json.dumps(
            knobs.to_dict(), sort_keys=True
        )

    def test_spec_roundtrip_preserves_cache_key(self, name):
        spec = ScenarioSpec(
            scheme=name,
            attack="legacy",
            n_attackers=2,
            scheme_options=SAMPLE_OPTIONS[name],
        )
        wire = json.loads(json.dumps(spec.to_dict(), sort_keys=True))
        assert ScenarioSpec.from_dict(wire).key() == spec.key()

    def test_non_default_options_change_the_key(self, name):
        if not SAMPLE_OPTIONS[name]:
            pytest.skip(f"{name} has no knobs to vary")
        base = ScenarioSpec(scheme=name, attack="legacy", n_attackers=2)
        varied = ScenarioSpec(
            scheme=name,
            attack="legacy",
            n_attackers=2,
            scheme_options=SAMPLE_OPTIONS[name],
        )
        assert varied.key() != base.key()

    def test_build_honours_seed_and_destination_policy(self, name):
        class MarkerPolicy(ServerPolicy):
            pass

        scheme = build_scheme(
            name, seed=9, destination_policy=MarkerPolicy, **SAMPLE_OPTIONS[name]
        )
        assert scheme.name == name
        shim = scheme.make_host_shim("destination")
        policy = getattr(shim, "policy", None)
        if policy is not None:
            assert isinstance(policy, MarkerPolicy)

    def test_unknown_knob_raises_typeerror_naming_the_scheme(self, name):
        with pytest.raises(TypeError, match=name):
            knobs_for(name, {"no_such_knob": 1})
        with pytest.raises(TypeError, match=name):
            build_scheme(name, no_such_knob=1)

    def test_unknown_knob_rejected_at_spec_construction(self, name):
        with pytest.raises(TypeError, match=name):
            ScenarioSpec(
                scheme=name,
                attack="legacy",
                n_attackers=1,
                scheme_options={"no_such_knob": 1},
            )

    def test_reboot_router_protocol_on_live_dumbbell(self, name):
        scheme = build_scheme(name, seed=5)
        instantiate(dumbbell_spec(n_users=1, n_attackers=1), Simulator(), scheme)
        hit = scheme.reboot_router("R1", now=1.0)
        miss = scheme.reboot_router("no-such-router", now=1.0)
        assert isinstance(hit, bool)
        assert miss is False

    def test_metric_items_names_unique_and_callable(self, name):
        scheme = build_scheme(name, seed=5)
        instantiate(dumbbell_spec(n_users=1, n_attackers=1), Simulator(), scheme)
        items = list(scheme.metric_items())
        names = [n for n, _ in items]
        assert len(names) == len(set(names)), f"duplicate metric names: {names}"
        for metric_name, fn in items:
            assert metric_name
            assert isinstance(float(fn()), float)


def test_unknown_scheme_is_a_value_error():
    with pytest.raises(ValueError, match="unknown scheme"):
        knobs_for("carrier-pigeon")
    with pytest.raises(ValueError, match="unknown scheme"):
        build_scheme("carrier-pigeon")


class TestRegistryCompleteness:
    """Every listing of schemes agrees with the registry."""

    def test_registration_order_is_presentation_order(self):
        assert ALL_SCHEMES == ("tva", "siff", "pushback", "internet", "netfence")

    def test_experiment_harness_derives_from_registry(self):
        assert tuple(EXPERIMENT_SCHEMES) == ALL_SCHEMES

    def test_cli_accepts_every_registered_name(self):
        from repro.cli import _parse_schemes

        assert _parse_schemes(",".join(ALL_SCHEMES)) == list(ALL_SCHEMES)

    def test_api_reexports_the_registry_object(self):
        assert api.SCHEMES is SCHEMES
        assert api.scheme_names is scheme_names
        for name in ALL_SCHEMES:
            knob_cls = SCHEMES[name]
            assert getattr(api, knob_cls.__name__) is knob_cls

    def test_design_doc_table_lists_every_scheme(self):
        from pathlib import Path

        design = (Path(__file__).resolve().parents[2] / "DESIGN.md").read_text()
        for name in ALL_SCHEMES:
            assert f"| `{name}` |" in design, (
                f"DESIGN.md scheme table is missing {name!r}; "
                "update the 'Adding a scheme' section"
            )


class TestCacheCompatibility:
    """The redesign must not invalidate any pre-redesign cache entry.

    These sha256 keys were captured from the flat-kwargs registry before
    knob dataclasses existed.  ``scheme_options`` is omitted from the
    canonical form when empty and CACHE_SALT stayed at v5 precisely so
    these stay byte-identical; a change here silently orphans every
    cached sweep result.
    """

    FROZEN_KEYS = {
        "fig8_tva_k10": (
            "e1f45b1ee5f57ec17700c37fea24b0f5080c3e5c1b0c28169b4d8494d02b303d"
        ),
        "fig9_siff_k100": (
            "5e8a8edc878cb774f8a23879f6a5ddf8ef9d4824f4dbe5a00b483d74631a95be"
        ),
        "fig10_pushback_k4": (
            "e951131fe8deb860b284f5b44628669eba4030ae2f1fc99bc2b04038df37ed2b"
        ),
        "internet_metrics": (
            "1ca5e609979112553c0c8eab0e807ab5a7d2b1cd4553ff7cf756fe59a4d04984"
        ),
        "fig11_tva": (
            "22eacfbcc0c2e2a75d14439e307edf9437ada01809300eaa4f0f5c8a9e829fc2"
        ),
        "fast_cfg": (
            "6b2b0cac015c662ba2e8e80cd178f9c8b8f684217302059e589177046cae81c4"
        ),
    }

    def specs(self):
        return {
            "fig8_tva_k10": ScenarioSpec(
                scheme="tva", attack="legacy", n_attackers=10
            ),
            "fig9_siff_k100": ScenarioSpec(
                scheme="siff", attack="request", n_attackers=100,
                policy="filtering",
            ),
            "fig10_pushback_k4": ScenarioSpec(
                scheme="pushback", attack="colluder", n_attackers=4
            ),
            "internet_metrics": ScenarioSpec(
                scheme="internet", attack="legacy", n_attackers=2, metrics=True
            ),
            "fig11_tva": build_fig11_spec("tva", "staggered"),
            "fast_cfg": ScenarioSpec(
                scheme="tva", attack="legacy", n_attackers=1,
                config=ExperimentConfig(duration=3.0),
            ),
        }

    def test_default_knob_spec_keys_unchanged(self):
        keys = {label: spec.key() for label, spec in self.specs().items()}
        assert keys == self.FROZEN_KEYS

    def test_empty_scheme_options_absent_from_canonical(self):
        spec = ScenarioSpec(scheme="tva", attack="legacy", n_attackers=10)
        assert "scheme_options" not in spec.canonical()
