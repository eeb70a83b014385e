"""The ``repro lint`` subcommand: exit codes, formats, baseline flow."""

import json
from pathlib import Path

from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
POSITIVE = str(FIXTURES / "d001_positive.py")
NEGATIVE = str(FIXTURES / "d001_negative.py")


def test_violations_exit_one(capsys):
    assert main(["lint", POSITIVE]) == 1
    out = capsys.readouterr().out
    assert "D001" in out
    assert "hash-builtin" in out


def test_clean_file_exits_zero(capsys):
    assert main(["lint", NEGATIVE]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_default_target_is_package_and_clean(capsys):
    # The acceptance bar: the shipped tree lints clean by default.
    assert main(["lint"]) == 0


def test_fixture_directory_trips_the_gate(capsys):
    # The CI job relies on this: seeded violations must fail the command.
    assert main(["lint", str(FIXTURES)]) == 1


def test_json_format(capsys):
    assert main(["lint", POSITIVE, "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["version"] == 1
    assert data["counts"]["active"] == 3
    assert all(item["code"] == "D001" for item in data["findings"])


def test_select_restricts_rules(capsys):
    assert main(["lint", POSITIVE, "--select", "D002,D003"]) == 0
    assert main(["lint", POSITIVE, "--select", "hash-builtin"]) == 1


def test_unknown_select_is_usage_error(capsys):
    assert main(["lint", POSITIVE, "--select", "D999"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_baseline_flow(tmp_path, capsys):
    baseline = tmp_path / "lint-baseline.json"
    assert main(["lint", POSITIVE, "--baseline", str(baseline),
                 "--write-baseline"]) == 0
    assert "wrote 3 fingerprint(s)" in capsys.readouterr().out

    # Baselined findings no longer fail the gate...
    assert main(["lint", POSITIVE, "--baseline", str(baseline)]) == 0
    # ...but the run without the baseline still does.
    assert main(["lint", POSITIVE]) == 1


def test_baseline_does_not_mask_new_findings(tmp_path, capsys):
    baseline = tmp_path / "lint-baseline.json"
    assert main(["lint", NEGATIVE, "--baseline", str(baseline),
                 "--write-baseline"]) == 0
    assert main(["lint", POSITIVE, "--baseline", str(baseline)]) == 1


def test_write_baseline_requires_path(capsys):
    assert main(["lint", POSITIVE, "--write-baseline"]) == 2
    assert "--write-baseline requires" in capsys.readouterr().err


def test_corrupt_baseline_is_usage_error(tmp_path, capsys):
    baseline = tmp_path / "lint-baseline.json"
    baseline.write_text("{\"version\": 99, \"fingerprints\": []}")
    assert main(["lint", POSITIVE, "--baseline", str(baseline)]) == 2
    assert "unsupported baseline version" in capsys.readouterr().err


def test_missing_path_is_usage_error(capsys):
    assert main(["lint", str(FIXTURES / "nope.py")]) == 2
    assert "no such file" in capsys.readouterr().err


def test_show_suppressed_lists_annotated_sites(capsys):
    assert main(["lint", NEGATIVE, "--show-suppressed"]) == 0
    assert "(suppressed)" in capsys.readouterr().out


def test_github_format_emits_error_annotations(capsys):
    assert main(["lint", POSITIVE, "--format", "github"]) == 1
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.startswith("::error ")]
    assert len(lines) == 3
    assert all("file=" in ln and "line=" in ln and "col=" in ln
               for ln in lines)
    assert "D001" in lines[0]


def test_github_format_omits_suppressed(capsys):
    assert main(["lint", NEGATIVE, "--format", "github"]) == 0
    out = capsys.readouterr().out
    assert "::error" not in out
    assert "0 finding(s)" in out


def test_select_family(capsys):
    # d001_positive has only D-family findings; the C family is clean.
    assert main(["lint", POSITIVE, "--select", "C"]) == 0
    assert main(["lint", POSITIVE, "--select", "D"]) == 1


def test_unknown_family_is_usage_error(capsys):
    assert main(["lint", POSITIVE, "--select", "Q"]) == 2
    err = capsys.readouterr().err
    assert "unknown rule family" in err
    assert "known families" in err


def test_exclude_skips_subtree(capsys):
    # Excluding the fixtures dir while linting it leaves zero files.
    assert main(["lint", str(FIXTURES), "--exclude", str(FIXTURES)]) == 0
    assert "0 file(s)" in capsys.readouterr().out


WALL_CLOCK = "import time\n\n\ndef now():\n    return time.time()\n"


def test_answer_does_not_depend_on_an_earlier_run(tmp_path, monkeypatch,
                                                   capsys):
    # D004 is scoped by the module name, which comes from the display
    # path: linted from the tree root the file is repro.sim.clock (a
    # simulation module), from inside repro/sim/ it is plain "clock".
    # Each run must give that cold answer whatever ran before it.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    sim_dir = tmp_path / "tree" / "repro" / "sim"
    sim_dir.mkdir(parents=True)
    (sim_dir / "clock.py").write_text(WALL_CLOCK, encoding="utf-8")

    monkeypatch.chdir(tmp_path / "tree")
    assert main(["lint", "repro/sim/clock.py"]) == 1
    monkeypatch.chdir(sim_dir)
    assert main(["lint", "clock.py"]) == 0
    monkeypatch.chdir(tmp_path / "tree")
    assert main(["lint", "repro/sim/clock.py"]) == 1
    assert "D004" in capsys.readouterr().out


def test_lint_writes_no_cache(tmp_path, monkeypatch, capsys):
    cache_home = tmp_path / "cache"
    cache_home.mkdir()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_home))
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache_home))
    assert main(["lint", POSITIVE]) == 1
    assert list(cache_home.iterdir()) == []
