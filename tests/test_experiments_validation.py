"""Tests for the answer-key schema and the ``repro validate`` fidelity gate.

Four contract areas:

* **schema** — answer-key documents round-trip, malformed documents fail
  loudly with named errors, unknown keys list what *is* available;
* **evaluation** — every operator (``in_range`` / ``at_least`` / ``at_most``
  / ``trend`` / ``greater_than``) passes and fails on synthetic payloads,
  and unresolvable metrics fail the assertion instead of raising;
* **checked-in keys** — every scenario preset ships a loadable key whose
  stages are all registered experiment stages;
* **the gate itself** — ``run_validation`` passes the tiny preset, reuses a
  warm cache without rebuilding, fails loudly (with the violated assertion
  named) on an intentionally-wrong key, and the CLI maps pass/violation/
  usage errors to exit codes 0/1/2.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.experiments import (
    ArtifactResolver,
    canonical_json,
    experiment_names,
    get_scenario,
    run_validation,
    scenario_names,
)
from repro.experiments.answer_keys import (
    AnswerKey,
    KeyAssertion,
    MalformedAnswerKeyError,
    UnknownAnswerKeyError,
    answer_key_names,
    default_keys_dir,
    evaluate_answer_key,
    evaluate_assertion,
    load_answer_key,
)

PAYLOADS = {
    "fig04": {
        "reciprocity": [[10, 0.1], [20, 0.2], [30, 0.3]],
        "alpha": {"out": 1.5, "in": 1.2},
    },
    "sec22": {"10": 0.95, "20": 0.94, "30": 0.95},
}


def _assertion(**kwargs):
    defaults = dict(name="a", metric="fig04/alpha.out", op="at_least", low=1.0)
    defaults.update(kwargs)
    return KeyAssertion(**defaults)


# ----------------------------------------------------------------------
# Schema: round-trip and malformed documents
# ----------------------------------------------------------------------
def test_answer_key_round_trip(tmp_path):
    key = AnswerKey(
        scenario="tiny",
        assertions=(
            _assertion(name="alpha", op="in_range", low=1.0, high=2.0),
            _assertion(
                name="rises", metric="fig04/reciprocity", op="trend",
                low=None, direction="increasing", tolerance=0.001,
            ),
        ),
        description="round-trip fixture",
    )
    path = key.save(tmp_path / "tiny.json")
    loaded = AnswerKey.load(path)
    assert loaded == key
    assert loaded.stages() == ["fig04"]


def test_assertion_document_rejects_unknown_fields():
    with pytest.raises(MalformedAnswerKeyError, match="surprise"):
        KeyAssertion.from_document(
            {"name": "a", "metric": "x/y", "op": "at_least", "surprise": 1}
        )


def test_assertion_rejects_unknown_op_and_direction():
    with pytest.raises(MalformedAnswerKeyError):
        _assertion(op="approximately")
    with pytest.raises(MalformedAnswerKeyError):
        _assertion(op="trend", low=None, direction="sideways")


def test_answer_key_rejects_bad_format_and_duplicates():
    document = AnswerKey(scenario="t", assertions=(_assertion(),)).to_document()
    document["format"] = 99
    with pytest.raises(MalformedAnswerKeyError, match="format"):
        AnswerKey.from_document(document)
    with pytest.raises(MalformedAnswerKeyError):
        AnswerKey(scenario="t", assertions=())
    with pytest.raises(MalformedAnswerKeyError, match="duplicate"):
        AnswerKey(scenario="t", assertions=(_assertion(), _assertion()))


def test_answer_key_load_rejects_invalid_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(MalformedAnswerKeyError, match="not valid JSON"):
        AnswerKey.load(bad)


def test_unknown_answer_key_lists_available(tmp_path):
    AnswerKey(scenario="real", assertions=(_assertion(),)).save(
        tmp_path / "real.json"
    )
    with pytest.raises(UnknownAnswerKeyError, match="real"):
        load_answer_key("no-such-scenario", keys_dir=tmp_path)


def test_load_answer_key_rejects_scenario_mismatch(tmp_path):
    AnswerKey(scenario="other", assertions=(_assertion(),)).save(
        tmp_path / "tiny.json"
    )
    with pytest.raises(MalformedAnswerKeyError, match="other"):
        load_answer_key("tiny", keys_dir=tmp_path)


# ----------------------------------------------------------------------
# Evaluation semantics
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs, passes",
    [
        (dict(op="in_range", low=1.0, high=2.0), True),
        (dict(op="in_range", low=1.6, high=2.0), False),
        (dict(op="at_least", low=1.5), True),
        (dict(op="at_least", low=1.51), False),
        (dict(op="at_most", low=None, high=1.5), True),
        (dict(op="at_most", low=None, high=1.49), False),
        (
            dict(metric="fig04/alpha.out", op="greater_than", low=None,
                 other="fig04/alpha.in", margin=0.2),
            True,
        ),
        (
            dict(metric="fig04/alpha.out", op="greater_than", low=None,
                 other="fig04/alpha.in", margin=0.5),
            False,
        ),
        (
            dict(metric="fig04/reciprocity", op="trend", low=None,
                 direction="increasing", tolerance=0.001),
            True,
        ),
        (
            dict(metric="fig04/reciprocity", op="trend", low=None,
                 direction="decreasing", tolerance=0.001),
            False,
        ),
        (
            dict(metric="sec22/", op="trend", low=None,
                 direction="flat", tolerance=0.005),
            True,
        ),
    ],
)
def test_operator_semantics(kwargs, passes):
    result = evaluate_assertion(_assertion(**kwargs), PAYLOADS)
    assert result.passed is passes, result.detail


def test_unresolvable_metric_fails_without_raising():
    missing_stage = evaluate_assertion(
        _assertion(metric="fig99/anything"), PAYLOADS
    )
    missing_path = evaluate_assertion(
        _assertion(metric="fig04/alpha.sideways"), PAYLOADS
    )
    for result in (missing_stage, missing_path):
        assert not result.passed
        assert result.observed is None
        assert "unresolvable" in result.detail


def test_evaluate_answer_key_keeps_assertion_order():
    key = AnswerKey(
        scenario="t",
        assertions=(
            _assertion(name="first"),
            _assertion(name="second", metric="fig99/gone"),
        ),
    )
    results = evaluate_answer_key(key, PAYLOADS)
    assert [r.assertion.name for r in results] == ["first", "second"]
    assert [r.passed for r in results] == [True, False]


# ----------------------------------------------------------------------
# Checked-in keys
# ----------------------------------------------------------------------
def test_every_preset_has_a_checked_in_key():
    assert set(answer_key_names()) == set(scenario_names())


@pytest.mark.parametrize("name", ["tiny", "sybil-waves", "churn", "flash-crowd",
                                  "privacy-heavy", "paper-default", "large",
                                  "small", "sparse", "dense", "high-reciprocity"])
def test_checked_in_key_is_well_formed(name):
    key = load_answer_key(name)
    assert key.scenario == name
    assert key.assertions
    registered = set(experiment_names())
    for stage in key.stages():
        assert stage in registered, f"key {name} references unknown stage {stage}"
    # The adversarial regimes must assert their defining signal.
    names = {assertion.name for assertion in key.assertions}
    if name == "sybil-waves":
        assert "ranking-separates" in names
    if name == "churn":
        assert "attribute-churn-present" in names
    if name == "flash-crowd":
        assert "arrival-burst" in names
    if name == "privacy-heavy":
        assert "social-coverage-dented" in names


def test_default_keys_dir_is_the_checked_in_tree():
    assert (default_keys_dir() / "tiny.json").is_file()


# ----------------------------------------------------------------------
# The gate: run_validation and the CLI
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def validation_cache(tmp_path_factory):
    return tmp_path_factory.mktemp("validation-cache")


@pytest.fixture(scope="module")
def tiny_validation(validation_cache):
    return run_validation("tiny", cache_dir=validation_cache)


def test_tiny_preset_passes_its_key(tiny_validation):
    assert tiny_validation.passed
    assert tiny_validation.failures() == []
    assert tiny_validation.key_path == default_keys_dir() / "tiny.json"
    report = tiny_validation.rendered()
    assert "PASS" in report and "FAIL" not in report


def test_warm_validation_rebuilds_nothing(tiny_validation, validation_cache):
    warm = run_validation("tiny", cache_dir=validation_cache)
    assert warm.passed
    cache = warm.pipeline.manifest()["cache"]
    assert cache["builds"] == 0
    assert cache["hits"] > 0


def test_validation_manifest_shape(tiny_validation, tmp_path):
    out = tmp_path / "out"
    from repro.experiments import write_validation_outputs

    write_validation_outputs(tiny_validation, out)
    manifest = json.loads((out / "validation.json").read_text(encoding="utf-8"))
    assert manifest["scenario"]["name"] == "tiny"
    assert manifest["passed"] is True
    assert manifest["stages"] == tiny_validation.key.stages()
    assert {a["name"] for a in manifest["assertions"]} == {
        a.name for a in tiny_validation.key.assertions
    }
    assert "builds" in manifest["cache"]
    assert (out / "validation.txt").read_text(encoding="utf-8").rstrip().endswith(
        "views"
    )


def test_intentional_violation_fails_loudly(validation_cache):
    """The regression-gate demonstration: a wrong key names its violation."""
    wrong = AnswerKey(
        scenario="tiny",
        assertions=(
            KeyAssertion(
                name="impossible-reciprocity",
                metric="fig04/reciprocity",
                op="trend",
                direction="decreasing",
                tolerance=0.0,
            ),
            KeyAssertion(
                name="coverage-sane",
                metric="fidelity/crawl.social_coverage",
                op="at_least",
                low=0.5,
            ),
        ),
    )
    result = run_validation("tiny", key=wrong, cache_dir=validation_cache)
    assert not result.passed
    assert [f.assertion.name for f in result.failures()] == [
        "impossible-reciprocity"
    ]
    assert any(
        a["name"] == "impossible-reciprocity" and a["passed"] is False
        for a in result.manifest()["assertions"]
    )
    assert "FAIL impossible-reciprocity" in result.rendered()


def test_cli_validate_passes_and_writes_outputs(
    validation_cache, tmp_path, capsys
):
    exit_code = main(
        [
            "validate", "--scenario", "tiny",
            "--cache-dir", str(validation_cache),
            "--out", str(tmp_path / "v"),
        ]
    )
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "validate scenario=tiny" in output
    assert "0 built" in output  # warm cache: the gate rebuilds nothing
    assert (tmp_path / "v" / "validation.json").is_file()


def test_cli_validate_violation_exits_one(validation_cache, tmp_path, capsys):
    keys_dir = tmp_path / "keys"
    AnswerKey(
        scenario="tiny",
        assertions=(
            KeyAssertion(
                name="absurd-coverage",
                metric="fidelity/crawl.social_coverage",
                op="at_least",
                low=2.0,
            ),
        ),
    ).save(keys_dir / "tiny.json")
    exit_code = main(
        [
            "validate", "--scenario", "tiny",
            "--keys-dir", str(keys_dir),
            "--cache-dir", str(validation_cache),
        ]
    )
    captured = capsys.readouterr()
    assert exit_code == 1
    assert "FAIL absurd-coverage" in captured.out
    assert "absurd-coverage" in captured.err  # the violation is named on stderr


def test_cli_validate_usage_errors(tmp_path, capsys):
    assert main(["validate"]) == 2
    assert "--scenario" in capsys.readouterr().err
    assert main(["validate", "--scenario", "galactic"]) == 2
    assert "galactic" in capsys.readouterr().err
    missing = tmp_path / "empty-keys"
    missing.mkdir()
    assert (
        main(["validate", "--scenario", "tiny", "--keys-dir", str(missing)]) == 2
    )
    assert "tiny" in capsys.readouterr().err


def test_cli_validate_list_names_every_key(capsys):
    assert main(["validate", "--list"]) == 0
    output = capsys.readouterr().out
    for name in scenario_names():
        assert name in output


# ----------------------------------------------------------------------
# Seed determinism across every preset
# ----------------------------------------------------------------------
def test_cache_tokens_are_deterministic():
    for name in scenario_names():
        first = canonical_json(get_scenario(name).cache_token())
        second = canonical_json(get_scenario(name).cache_token())
        assert first == second, f"scenario {name} has an unstable cache token"


@pytest.mark.parametrize(
    "name", ["tiny", "sybil-waves", "churn", "flash-crowd", "privacy-heavy"]
)
def test_evolution_artifact_is_byte_identical_across_builds(name, tmp_path):
    """Two cold builds of the root artifact must serialize identically."""
    payloads = []
    for attempt in ("first", "second"):
        cache = tmp_path / attempt
        ArtifactResolver(get_scenario(name), cache_dir=cache).artifact("evolution")
        files = sorted(cache.glob("**/evolution.col"))
        assert len(files) == 1
        payloads.append(files[0].read_bytes())
    assert payloads[0] == payloads[1], f"scenario {name} evolution is unstable"


def test_unknown_scenario_error_lists_presets():
    from repro.experiments import UnknownScenarioError

    with pytest.raises(UnknownScenarioError) as excinfo:
        get_scenario("not-a-preset")
    message = str(excinfo.value)
    for name in ("tiny", "sybil-waves", "churn", "flash-crowd", "privacy-heavy"):
        assert name in message
