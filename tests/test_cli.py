"""Tests for the command-line interface."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.graph import load_san_tsv, save_san_tsv


def test_simulate_writes_tsv_pair(tmp_path, capsys):
    prefix = tmp_path / "gplus"
    exit_code = main(
        [
            "simulate",
            "--users", "150",
            "--days", "20",
            "--phase-one-end", "5",
            "--phase-two-end", "15",
            "--seed", "3",
            "--out-prefix", str(prefix),
        ]
    )
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "crawled day 20" in output
    san = load_san_tsv(f"{prefix}.social.tsv", f"{prefix}.attrs.tsv")
    assert san.number_of_social_nodes() > 50
    assert san.number_of_social_edges() > 0


def test_simulate_rejects_out_of_range_day(tmp_path, capsys):
    exit_code = main(
        [
            "simulate",
            "--users", "120",
            "--days", "10",
            "--phase-one-end", "3",
            "--phase-two-end", "7",
            "--day", "99",
            "--out-prefix", str(tmp_path / "x"),
        ]
    )
    assert exit_code == 2
    assert "--day must be" in capsys.readouterr().err


def test_measure_prints_report(tmp_path, capsys, figure1_san):
    social = tmp_path / "social.tsv"
    attrs = tmp_path / "attrs.tsv"
    save_san_tsv(figure1_san, social, attrs)
    exit_code = main(
        ["measure", "--social", str(social), "--attributes", str(attrs), "--no-diameter"]
    )
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "reciprocity" in output
    assert "social_nodes" in output
    assert "social_effective_diameter" not in output


def test_estimate_prints_parameters(tmp_path, capsys, tiny_final_san):
    social = tmp_path / "social.tsv"
    attrs = tmp_path / "attrs.tsv"
    save_san_tsv(tiny_final_san, social, attrs)
    exit_code = main(["estimate", "--social", str(social), "--attributes", str(attrs)])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "new_attribute_probability" in output
    assert "lifetime.mu" in output


def test_generate_default_parameters(tmp_path, capsys):
    prefix = tmp_path / "synthetic"
    exit_code = main(
        ["generate", "--steps", "150", "--seed", "9", "--out-prefix", str(prefix)]
    )
    assert exit_code == 0
    san = load_san_tsv(f"{prefix}.social.tsv", f"{prefix}.attrs.tsv")
    assert san.number_of_social_nodes() == 155  # 150 steps + 5 seed nodes
    assert san.number_of_attribute_edges() > 0


def test_generate_with_reference_and_ablations(tmp_path, capsys, tiny_final_san):
    social = tmp_path / "ref.social.tsv"
    attrs = tmp_path / "ref.attrs.tsv"
    save_san_tsv(tiny_final_san, social, attrs)
    prefix = tmp_path / "fitted"
    exit_code = main(
        [
            "generate",
            "--steps", "120",
            "--reference-social", str(social),
            "--reference-attributes", str(attrs),
            "--no-lapa",
            "--no-focal-closure",
            "--out-prefix", str(prefix),
        ]
    )
    assert exit_code == 0
    san = load_san_tsv(f"{prefix}.social.tsv", f"{prefix}.attrs.tsv")
    assert san.number_of_social_nodes() == 125


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_report_runs_frozen_battery(tmp_path, capsys, figure1_san):
    social = tmp_path / "social.tsv"
    attrs = tmp_path / "attrs.tsv"
    save_san_tsv(figure1_san, social, attrs)
    out_file = tmp_path / "report.txt"
    exit_code = main(
        [
            "report",
            "--social", str(social),
            "--attributes", str(attrs),
            "--no-diameter",
            "--out", str(out_file),
        ]
    )
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "frozen once" in output
    for key in ("reciprocity", "exact_social_clustering", "triangles", "wcc_count"):
        assert key in output
    assert out_file.read_text().strip() in output


def test_help_documents_frozen_and_report(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    output = capsys.readouterr().out
    assert "report" in output
    assert "pipeline" in output
    with pytest.raises(SystemExit):
        main(["pipeline", "--help"])
    output = capsys.readouterr().out
    for flag in ("--scenario", "--figures", "--jobs", "--cache-dir", "--out"):
        assert flag in output
    with pytest.raises(SystemExit):
        main(["report", "--help"])
    assert "freeze the SAN once" in capsys.readouterr().out


def test_generate_vectorized_engine(tmp_path, capsys):
    prefix = tmp_path / "fast"
    exit_code = main(
        [
            "generate",
            "--steps", "150",
            "--seed", "9",
            "--out-prefix", str(prefix),
        ]
    )
    assert exit_code == 0
    assert "generated" in capsys.readouterr().out
    san = load_san_tsv(f"{prefix}.social.tsv", f"{prefix}.attrs.tsv")
    assert san.number_of_social_nodes() == 155  # 150 steps + 5 seed nodes
    assert san.number_of_attribute_edges() > 0


def test_generate_and_likelihood_accept_a_negative_seed(tmp_path):
    """A negative seed runs as its absolute value, not into numpy's ValueError."""
    prefix = tmp_path / "negative"
    argv = ["generate", "--steps", "50", "--seed", "-1", "--out-prefix", str(prefix)]
    assert main(argv) == 0
    assert main(["likelihood", "--steps", "50", "--seed", "-1", "--max-links", "0"]) == 0


def test_likelihood_from_generated_history(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    exit_code = main(
        [
            "likelihood",
            "--steps", "300",
            "--max-links", "200",
            "--alphas", "0,1",
            "--papa-betas", "0,2",
            "--lapa-betas", "0,100",
            "--out", str(out),
        ]
    )
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "Figure 15 attachment-model sweep" in output
    assert "links scored=" in output
    import json

    payload = json.loads(out.read_text())
    assert payload["num_links_scored"] > 0
    assert "1,100" in payload["lapa"]


def test_likelihood_from_snapshot_pair(tmp_path, capsys, tiny_snapshots):
    earlier = tiny_snapshots.halfway()
    later = tiny_snapshots.last()
    paths = {}
    for name, san in (("before", earlier), ("after", later)):
        social = tmp_path / f"{name}.social.tsv"
        attrs = tmp_path / f"{name}.attrs.tsv"
        save_san_tsv(san, social, attrs)
        paths[name] = (social, attrs)
    exit_code = main(
        [
            "likelihood",
            "--before-social", str(paths["before"][0]),
            "--before-attributes", str(paths["before"][1]),
            "--after-social", str(paths["after"][0]),
            "--after-attributes", str(paths["after"][1]),
            "--max-links", "300",
            "--alphas", "1",
            "--papa-betas", "0",
            "--lapa-betas", "0,100",
        ]
    )
    assert exit_code == 0
    assert "snapshot diff" in capsys.readouterr().out


def test_likelihood_of_a_snapshot_pair_depends_only_on_its_content(tmp_path, tiny_snapshots):
    """Shuffled TSV lines and another hash seed give the same ``--out`` JSON.

    Users are relabelled as strings, whose sets iterate in an order that
    ``PYTHONHASHSEED`` decides; all links are scored, so every event counts.
    """
    rng = random.Random(3)
    for directory, shuffle in (("ordered", False), ("shuffled", True)):
        (tmp_path / directory).mkdir()
        for name, san in (("before", tiny_snapshots.halfway()), ("after", tiny_snapshots.last())):
            save_san_tsv(san, tmp_path / "social.tsv", tmp_path / "attrs.tsv")
            for kind, users_per_line in (("social", 2), ("attrs", 1)):
                lines = []
                for line in (tmp_path / f"{kind}.tsv").read_text().splitlines():
                    fields = line.split("\t")
                    fields[:users_per_line] = [f"u{user}" for user in fields[:users_per_line]]
                    lines.append("\t".join(fields))
                if shuffle:
                    rng.shuffle(lines)
                (tmp_path / directory / f"{name}.{kind}.tsv").write_text("\n".join(lines) + "\n")
    command = [sys.executable, "-m", "repro", "likelihood", "--max-links", "0", "--out", "out.json"]
    for name in ("before", "after"):
        command += [f"--{name}-social", f"{name}.social.tsv"]
        command += [f"--{name}-attributes", f"{name}.attrs.tsv"]
    source_root = str(Path(repro.__file__).resolve().parent.parent)
    outputs = []
    for directory, hash_seed in (("ordered", "1"), ("ordered", "2"), ("shuffled", "1")):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=source_root)
        subprocess.run(command, cwd=tmp_path / directory, env=env, check=True, capture_output=True)
        outputs.append((tmp_path / directory / "out.json").read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_likelihood_requires_inputs(capsys):
    exit_code = main(["likelihood"])
    assert exit_code == 2
    assert "--steps or all four snapshot TSVs" in capsys.readouterr().err


def test_pipeline_runs_selected_stages(tmp_path, capsys):
    cache = tmp_path / "cache"
    out = tmp_path / "out"
    exit_code = main(
        [
            "pipeline",
            "--scenario", "tiny",
            "--figures", "fig02_03,sec22",
            "--cache-dir", str(cache),
            "--out", str(out),
        ]
    )
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "scenario=tiny" in output
    assert "fig02_03" in output and "sec22" in output
    import json

    manifest = json.loads((out / "manifest.json").read_text())
    assert {stage["name"] for stage in manifest["stages"]} == {"fig02_03", "sec22"}
    assert (out / "fig02_03.txt").exists() and (out / "report.txt").exists()

    # Warm rerun against the same cache: no persistent artifact is rebuilt.
    assert main(
        [
            "pipeline",
            "--scenario", "tiny",
            "--figures", "fig02_03,sec22",
            "--cache-dir", str(cache),
            "--out", str(out),
        ]
    ) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["cache"]["builds"] == 0
    assert manifest["cache"]["hits"] > 0


def test_pipeline_rejects_unknown_scenario_and_stage(capsys):
    assert main(["pipeline", "--scenario", "galactic"]) == 2
    assert "unknown scenario" in capsys.readouterr().err
    assert main(["pipeline", "--scenario", "tiny", "--figures", "fig99"]) == 2
    assert "unknown experiment stage" in capsys.readouterr().err


def test_pipeline_list_scenarios_and_stages(capsys):
    assert main(["pipeline", "--list"]) == 0
    output = capsys.readouterr().out
    for name in ("paper-default", "tiny", "sparse", "dense", "high-reciprocity"):
        assert name in output
    assert "fig15" in output and "arrival_history" in output


def test_likelihood_rejects_steps_with_snapshots(tmp_path, capsys):
    exit_code = main(
        [
            "likelihood",
            "--steps", "100",
            "--before-social", str(tmp_path / "a.tsv"),
            "--before-attributes", str(tmp_path / "b.tsv"),
            "--after-social", str(tmp_path / "c.tsv"),
            "--after-attributes", str(tmp_path / "d.tsv"),
        ]
    )
    assert exit_code == 2
    assert "mutually exclusive" in capsys.readouterr().err


# ----------------------------------------------------------------------
# convert
# ----------------------------------------------------------------------
def test_convert_tsv_to_columnar_with_verify(tmp_path, capsys, figure1_san):
    social, attrs = tmp_path / "social.tsv", tmp_path / "attrs.tsv"
    save_san_tsv(figure1_san, social, attrs)
    out = tmp_path / "san.col"
    exit_code = main(
        [
            "convert",
            "--social", str(social),
            "--attributes", str(attrs),
            "--out", str(out),
            "--verify",
        ]
    )
    assert exit_code == 0
    output = capsys.readouterr().out
    assert f"wrote {out}" in output
    assert "verified" in output
    from repro.graph import open_columnar

    san = open_columnar(out)
    assert san.number_of_social_edges() == figure1_san.number_of_social_edges()


def test_convert_info_prints_header_summary(tmp_path, capsys, figure1_san):
    from repro.graph import save_columnar

    path = tmp_path / "san.col"
    save_columnar(figure1_san, path)
    assert main(["convert", "--info", str(path)]) == 0
    output = capsys.readouterr().out
    assert "columnar v1 kind=san" in output
    assert "social_out_indptr" in output
    assert "social_edges=10" in output


def test_convert_requires_a_source_and_an_output(tmp_path, capsys):
    assert main(["convert", "--out", str(tmp_path / "x.col")]) == 2
    assert "--social/--attributes" in capsys.readouterr().err
    assert main(["convert", "--social", "a.tsv", "--attributes", "b.tsv"]) == 2
    assert "--out" in capsys.readouterr().err


def test_convert_rejects_mixed_sources(tmp_path, capsys):
    exit_code = main(
        [
            "convert",
            "--json", str(tmp_path / "san.json"),
            "--social", str(tmp_path / "social.tsv"),
            "--attributes", str(tmp_path / "attrs.tsv"),
            "--out", str(tmp_path / "x.col"),
        ]
    )
    assert exit_code == 2
    assert "mutually exclusive" in capsys.readouterr().err


def _one_line_error(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


def test_measure_of_a_missing_file_is_a_one_line_error(tmp_path, capsys):
    missing = str(tmp_path / "nonexistent.tsv")
    argv = ["measure", "--social", missing, "--attributes", missing, "--no-diameter"]
    assert main(argv) == 2
    assert "nonexistent.tsv" in _one_line_error(capsys)


def test_convert_info_of_a_missing_file_is_a_one_line_error(tmp_path, capsys):
    assert main(["convert", "--info", str(tmp_path / "nonexistent.col")]) == 2
    assert "nonexistent.col" in _one_line_error(capsys)


def test_a_malformed_tsv_line_is_a_one_line_error(tmp_path, capsys):
    social, attrs = tmp_path / "social.tsv", tmp_path / "attrs.tsv"
    social.write_text("1\t2\t3\n", encoding="utf-8")
    attrs.write_text("", encoding="utf-8")
    argv = ["measure", "--social", str(social), "--attributes", str(attrs), "--no-diameter"]
    assert main(argv) == 2
    assert "expected 2 fields, got 3" in _one_line_error(capsys)


def test_a_truncated_columnar_file_is_a_one_line_error(tmp_path, capsys):
    path = tmp_path / "short.col"
    path.write_bytes(b"REPROCO")
    assert main(["convert", "--info", str(path)]) == 2
    assert "short.col" in _one_line_error(capsys)


def _exit_code(argv) -> int:
    """``main(argv)``'s exit code, also when argparse ends the command."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv,message",
    [
        (["simulate", "--users", "0", "--days", "30"], "--users: expected a positive integer"),
        (["simulate", "--users", "10", "--days", "30"], "--users must be at least --days"),
        (["generate", "--steps", "0"], "--steps: expected a positive integer"),
        (["likelihood", "--steps", "0"], "--steps: expected a positive integer"),
        (["estimate", "--mean-sleep", "0"], "--mean-sleep: expected a positive number"),
        (["estimate", "--beta", "-1"], "--beta: expected a non-negative number"),
        (["likelihood", "--steps", "50", "--alphas", "x"], "--alphas: expected comma-separated"),
        (["likelihood", "--steps", "50", "--smoothing", "-1"], "--smoothing: expected a non-negative"),
    ],
    ids=[
        "simulate-users-0",
        "simulate-users-below-days",
        "generate-steps-0",
        "likelihood-steps-0",
        "estimate-mean-sleep-0",
        "estimate-beta-negative",
        "likelihood-alphas-not-numbers",
        "likelihood-smoothing-negative",
    ],
)
def test_a_bad_argument_is_a_usage_error(tmp_path, capsys, figure1_san, argv, message):
    """Out-of-range arguments exit 2 with an ``error:`` line, like bad input
    files, before any work starts; no library ``ValueError`` escapes."""
    social, attrs = tmp_path / "social.tsv", tmp_path / "attrs.tsv"
    save_san_tsv(figure1_san, social, attrs)
    if argv[0] in ("simulate", "generate"):
        argv = argv + ["--out-prefix", str(tmp_path / "out")]
    elif argv[0] == "estimate":
        argv = argv + ["--social", str(social), "--attributes", str(attrs)]
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert "error: " in captured.err and message in captured.err
    assert "Traceback" not in captured.err
    assert not (tmp_path / "out.social.tsv").exists()
