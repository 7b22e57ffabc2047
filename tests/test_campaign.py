import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

from earforge import campaign as cp
from earforge import modal
from earforge.cli import cli_main
from earforge.errors import (CampaignLockedError, FreshStateError,
                             MigrationNeededError, StateIntegrityError,
                             ValidationError)
from earforge.geometry import (THETA, BlankSpec, ContourProfile, CupSpec,
                               write_contour_csv)
from earforge.plant import (DC05, MaterialAnisotropy, SurrogateParams,
                            ingest_profile, simulate)

SCHEMA1 = Path(__file__).parent / "data" / "schema1"
SRC = Path(cp.__file__).parents[1]


def run_pipeline(campaign_dir, *stages):
    for stage in stages:
        code = cli_main(["--campaign", str(campaign_dir), stage])
        assert code == 0, f"stage {stage} failed in {campaign_dir}"


@pytest.fixture()
def full_campaign(tmp_path):
    d = tmp_path / "camp"
    run_pipeline(d, "init", "design", "simulate", "fit", "optimize", "verify")
    return d


class TestCliLifecycle:
    def test_init_creates_state(self, tmp_path):
        d = tmp_path / "camp"
        assert cli_main(["--campaign", str(d), "init"]) == 0
        assert (d / "campaign.json").exists()
        state = cp.load_state(d)
        assert state.stage == "configured"
        assert state.config.space.names == ("D", "A1", "A2")
        assert state.config.target_height == 35.0

    def test_reinit_refused(self, tmp_path):
        d = tmp_path / "camp"
        run_pipeline(d, "init")
        assert cli_main(["--campaign", str(d), "init"]) == 2

    def test_design_writes_csv(self, tmp_path, reference_runs):
        d = tmp_path / "camp"
        run_pipeline(d, "init", "design")
        lines = (d / "design.csv").read_text().strip().splitlines()
        assert lines[0] == "run,role,D,A1,A2"
        assert len(lines) == 16
        reference, _, _ = reference_runs
        got = np.array([[float(v) for v in ln.split(",")[2:]]
                        for ln in lines[1:]])
        assert np.max(np.abs(got - reference)) <= 0.005

    def test_fit_before_simulate_fails_cleanly(self, tmp_path):
        d = tmp_path / "camp"
        run_pipeline(d, "init", "design")
        before = (d / "campaign.json").read_bytes()
        assert cli_main(["--campaign", str(d), "fit"]) == 2
        assert (d / "campaign.json").read_bytes() == before
        assert cp.load_state(d).stage == "designed"

    def test_redoing_a_stage_fails(self, tmp_path):
        d = tmp_path / "camp"
        run_pipeline(d, "init", "design")
        assert cli_main(["--campaign", str(d), "design"]) == 2

    def test_simulate_writes_runs(self, tmp_path):
        d = tmp_path / "camp"
        run_pipeline(d, "init", "design", "simulate")
        state = cp.load_state(d)
        assert len(state.runs) == 15
        assert all((d / r.profile_file).exists() for r in state.runs)
        assert all(len(r.lambdas) == 5 for r in state.runs)
        assert all(r.provenance == "surrogate" for r in state.runs)

    def test_full_pipeline_verification(self, full_campaign):
        state = cp.load_state(full_campaign)
        assert state.stage == "verified"
        v = state.verification
        assert v.status == "ok"
        assert v.baseline_amplitude == pytest.approx(1.719744, abs=1e-6)
        assert v.optimum_amplitude < v.baseline_amplitude
        assert v.reduction_factor > 1.0
        assert (full_campaign / "optimum.json").exists()
        assert (full_campaign / "models.json").exists()

    def test_optimum_json_interface(self, full_campaign):
        payload = json.loads((full_campaign / "optimum.json").read_text())
        assert set(payload) == {"point", "physical", "f_value", "predicted",
                                "report"}
        assert set(payload["physical"]) == {"D", "A1", "A2"}
        assert set(payload["predicted"]) == {"L1", "L2", "L3", "L4", "L5"}
        # frozen at the switch to basin seeding: this campaign's objective has
        # one grid local minimum, inside the 8 best grid points
        assert payload["report"]["starts"] == 8

    def test_missing_campaign_dir_argument(self, monkeypatch):
        monkeypatch.delenv("EARFORGE_CAMPAIGN", raising=False)
        assert cli_main(["design"]) == 2

    def test_env_var_supplies_campaign_dir(self, tmp_path, monkeypatch):
        d = tmp_path / "camp"
        monkeypatch.setenv("EARFORGE_CAMPAIGN", str(d))
        assert cli_main(["init"]) == 0
        assert (d / "campaign.json").exists()

    def test_unknown_subcommand_exits_2(self, tmp_path):
        assert cli_main(["--campaign", str(tmp_path), "frobnicate"]) == 2

    def test_numeric_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        from earforge.errors import NumericError

        def explode(*args, **kwargs):
            raise NumericError("objective is not finite at [0, 0, 0]")

        d = tmp_path / "camp"
        run_pipeline(d, "init", "design", "simulate", "fit")
        monkeypatch.setattr(cp, "minimize", explode)
        assert cli_main(["--campaign", str(d), "optimize"]) == 3
        assert "numeric error" in capsys.readouterr().err

    def test_design_on_fresh_dir_instructs_init(self, tmp_path, capsys):
        assert cli_main(["--campaign", str(tmp_path / "none"), "design"]) == 2
        assert "init" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["design", "simulate", "fit",
                                         "optimize", "verify", "report"])
    def test_command_on_missing_dir_creates_nothing(self, tmp_path, capsys,
                                                    command):
        # a mistyped path is refused without leaving directories behind
        d = tmp_path / "typo" / "deep"
        assert cli_main(["--campaign", str(d), command]) == 2
        assert capsys.readouterr().err == (
            f"error: no campaign state in {d}; run "
            f"`earforge --campaign {d} init` first\n")
        assert list(tmp_path.iterdir()) == []

    def test_init_makes_a_nested_directory(self, tmp_path):
        d = tmp_path / "new" / "deep"
        assert cli_main(["--campaign", str(d), "init"]) == 0
        assert cp.load_state(d).stage == "configured"
        assert sorted(p.name for p in d.iterdir()) == ["campaign.json"]

    @pytest.mark.parametrize("command, needed", [
        ("fit", "a simulated"), ("verify", "an optimized")])
    def test_out_of_order_names_the_needed_stage(self, tmp_path, capsys,
                                                 command, needed):
        d = tmp_path / "camp"
        run_pipeline(d, "init")
        capsys.readouterr()
        assert cli_main(["--campaign", str(d), command]) == 2
        assert (f"`{command}` needs {needed} campaign, but this one is only "
                f"configured" in capsys.readouterr().err)


class TestDecompose:
    def test_flat_profile_decomposes_to_zero(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        write_contour_csv(path, ContourProfile(np.full(144, 35.0)))
        assert cli_main(["decompose", str(path), "--target", "35"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "mode,lambda_mm"
        lambdas = [float(line.split(",")[1]) for line in out[1:6]]
        assert np.allclose(lambdas, 0.0, atol=1e-12)
        assert float(out[6].split(",")[1]) == 0.0

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        write_contour_csv(path, ContourProfile(np.full(144, 34.0)))
        out = tmp_path / "coords.csv"
        assert cli_main(["decompose", str(path), "--target", "35",
                         "--output", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out}\n"
        with out.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["mode", "lambda_mm"]
        assert [r[0] for r in rows[1:]] == ["1", "2", "3", "4", "5", "residue"]
        lambdas = [float(r[1]) for r in rows[1:-1]]
        assert lambdas[0] == pytest.approx(-1.0, abs=1e-9)
        assert np.allclose(lambdas[1:], 0.0, atol=1e-9)
        assert float(rows[-1][1]) == pytest.approx(0.0, abs=1e-9)
        # the file holds exactly what the same call prints without --output
        assert cli_main(["decompose", str(path), "--target", "35"]) == 0
        assert out.read_bytes() == capsys.readouterr().out.encode("utf-8")

    def test_missing_file_is_validation_error(self, tmp_path):
        assert cli_main(["decompose", str(tmp_path / "nope.csv")]) == 2

    def test_mode_count_option_is_a_usage_error(self, tmp_path, capsys):
        # the mode count is five, not an option
        path = tmp_path / "flat.csv"
        write_contour_csv(path, ContourProfile(np.full(144, 35.0)))
        assert cli_main(["decompose", str(path), "--modes", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: earforge")
        assert "unrecognized arguments: --modes 7" in captured.err

    @pytest.mark.parametrize("cloud", [False, True], ids=["polar", "cloud"])
    def test_byte_order_mark_is_ignored(self, tmp_path, capsys, cloud):
        # spreadsheet exports start with a UTF-8 byte-order mark
        theta = THETA[::2] + 0.01
        height = simulate(BlankSpec(117.2, 0.3, -0.5), DC05).height[::2]
        if cloud:
            rows = ["x_mm,y_mm,z_mm"] + [
                f"{33.0 * math.cos(t)!r},{33.0 * math.sin(t)!r},{h!r}"
                for t, h in zip(theta.tolist(), height.tolist())]
        else:
            rows = ["theta_rad,value_mm"] + [
                f"{t!r},{h!r}" for t, h in zip(theta.tolist(), height.tolist())]
        text = "\n".join(rows) + "\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
        a, b = ingest_profile(plain), ingest_profile(marked)
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.height, b.height)
        outputs = []
        for path in (plain, marked):
            assert cli_main(["decompose", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith("mode,lambda_mm\n1,")


class TestParserReuse:
    """cli_main builds its parser once per process; each call parses afresh."""

    @pytest.fixture()
    def flat(self, tmp_path):
        path = tmp_path / "flat.csv"
        write_contour_csv(path, ContourProfile(np.full(144, 35.0)))
        return str(path)

    def test_no_state_leaks_between_calls(self, flat, capsys):
        assert cli_main(["decompose", flat, "--target", "34.5"]) == 0
        first = capsys.readouterr().out.splitlines()
        assert cli_main(["decompose", flat]) == 0
        second = capsys.readouterr().out.splitlines()
        assert len(first) == 1 + 5 + 1
        assert float(first[1].split(",")[1]) == pytest.approx(0.5)
        assert len(second) == 1 + 5 + 1
        assert float(second[1].split(",")[1]) == pytest.approx(0.0, abs=1e-12)

    def test_parser_is_not_rebuilt(self, flat, monkeypatch, capsys):
        assert cli_main(["decompose", flat]) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert cli_main(["decompose", flat]) == 0
        assert cli_main(["decompose"]) == 2
        assert cli_main(["--help"]) == 0
        assert built == []

    def test_streams_are_looked_up_at_each_call(self, capsys):
        errors = []
        for _ in range(2):
            assert cli_main(["decompose"]) == 2
            errors.append(capsys.readouterr().err)
        elsewhere = io.StringIO()
        with contextlib.redirect_stderr(elsewhere):
            assert cli_main(["decompose"]) == 2
        assert errors[0] == errors[1] == elsewhere.getvalue()
        assert errors[0].startswith("usage: earforge decompose")
        assert "required: profile" in errors[0]
        for _ in range(2):
            assert cli_main(["--help"]) == 0
            assert capsys.readouterr().out.startswith("usage: earforge")


class TestStatePersistence:
    def test_save_load_save_is_byte_identical(self, full_campaign):
        raw = (full_campaign / "campaign.json").read_bytes()
        state = cp.load_state(full_campaign)
        cp.save_state(state, full_campaign)
        assert (full_campaign / "campaign.json").read_bytes() == raw

    @pytest.mark.parametrize("name", ["configured", "verified",
                                      "verified_not_applicable"])
    def test_frozen_schema_1_files_reencode_byte_identical(self, name):
        # frozen schema-1 files (default config at `configured` and
        # `verified`; isotropic sheet with c8 = kappa4_6 = 0, whose reduction
        # factor is null): decoding and re-encoding must give back the stored
        # bytes, so the flat config layout, key names and reprs cannot drift
        raw = (SCHEMA1 / f"{name}.json").read_text(encoding="utf-8")
        state = cp.state_from_dict(json.loads(raw))
        again = json.dumps(cp.state_to_dict(state), indent=2,
                           sort_keys=True) + "\n"
        assert again == raw

    def test_models_dict_roundtrip(self, reference_models):
        # the reference surfaces through campaign.json's models section
        state = cp.state_from_dict(json.loads(
            (SCHEMA1 / "verified.json").read_text(encoding="utf-8")))
        state.models = list(reference_models)
        back = cp.state_from_dict(
            json.loads(json.dumps(cp.state_to_dict(state)))).models
        assert len(back) == len(reference_models)
        for orig, rebuilt in zip(reference_models, back):
            assert rebuilt.response == orig.response
            assert rebuilt.factor_names == orig.factor_names
            assert np.array_equal(rebuilt.coefficients, orig.coefficients)
            assert rebuilt.residual_rms == orig.residual_rms
            assert rebuilt.max_abs_residual == orig.max_abs_residual

    def test_cli_and_library_agree(self, tmp_path):
        # a stage that reloads the state must compute from it the bits the
        # in-process run computes, on a config other than the default: every
        # file is byte-identical, stage timestamps aside
        config = dataclasses.replace(cp.default_config(), target_height=34.5)
        cp.init_campaign(tmp_path / "cli", config)
        run_pipeline(tmp_path / "cli", "design", "simulate", "fit",
                     "optimize", "verify", "report")
        state = cp.init_campaign(tmp_path / "lib", config)
        for stage in (cp.design_campaign, cp.simulate_campaign,
                      cp.fit_campaign, cp.optimize_campaign,
                      cp.verify_campaign):
            state = stage(state, tmp_path / "lib")
        cp.report_campaign(state, tmp_path / "lib")
        stamp = re.compile(rb'"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}\+00:00"')
        files = []
        for d in (tmp_path / "cli", tmp_path / "lib"):
            files.append({p.relative_to(d).as_posix():
                          stamp.sub(b'"<timestamp>"', p.read_bytes())
                          for p in sorted(d.rglob("*")) if p.is_file()})
        assert "reports/summary.txt" in files[0]
        assert files[0] == files[1]
        assert [m.response for m in cp.load_state(tmp_path / "cli").models] \
            == ["L1", "L2", "L3", "L4", "L5"]

    def test_loaded_models_compare_equal(self, full_campaign):
        state = cp.load_state(full_campaign)
        reloaded = cp.load_state(full_campaign)
        for a, b in zip(state.models, reloaded.models):
            assert a.response == b.response
            assert np.array_equal(a.coefficients, b.coefficients)
            assert a.residual_rms == b.residual_rms

    def test_pipeline_is_deterministic_modulo_timestamps(self, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        payloads = []
        for d in dirs:
            run_pipeline(d, "init", "design", "simulate", "fit", "optimize",
                         "verify")
            doc = json.loads((d / "campaign.json").read_text())
            del doc["timestamps"]
            payloads.append(json.dumps(doc, sort_keys=True))
        assert payloads[0] == payloads[1]

    def test_empty_directory_is_fresh_state(self, tmp_path):
        with pytest.raises(FreshStateError) as err:
            cp.load_state(tmp_path)
        assert "init" in str(err.value)

    def test_schema_mismatch_needs_migration(self, full_campaign):
        doc = json.loads((full_campaign / "campaign.json").read_text())
        doc["schema_version"] = 99
        (full_campaign / "campaign.json").write_text(json.dumps(doc))
        with pytest.raises(MigrationNeededError,
                           match="has schema 99; this earforge reads schema 1 only"):
            cp.load_state(full_campaign)

    def test_deleted_run_file_is_integrity_error(self, full_campaign):
        (full_campaign / "runs" / "run_07.csv").unlink()
        with pytest.raises(StateIntegrityError) as err:
            cp.load_state(full_campaign)
        assert "run 7" in str(err.value)

    def test_modified_run_file_is_integrity_error(self, full_campaign):
        target = full_campaign / "runs" / "run_03.csv"
        target.write_text(target.read_text().replace("3", "4", 1))
        with pytest.raises(StateIntegrityError) as err:
            cp.load_state(full_campaign)
        assert "run_03.csv" in str(err.value)

    def test_lifecycle_gap_rejected_on_load(self, full_campaign):
        doc = json.loads((full_campaign / "campaign.json").read_text())
        doc["design"] = None  # later stages present without their predecessor
        (full_campaign / "campaign.json").write_text(json.dumps(doc))
        with pytest.raises(StateIntegrityError):
            cp.load_state(full_campaign)


def _drop_n_modes(doc):
    del doc["config"]["n_modes"]
    return doc


def _drop_cup_height(doc):
    del doc["config"]["cup"]["height"]
    return doc


def _cup_is_int(doc):
    doc["config"]["cup"] = 5
    return doc


def _put(*keys, value):
    """An edit that sets doc[keys...] to value."""
    def edit(doc):
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        return doc
    return edit


def _set(*keys, value):
    """An edit that sets config[keys...] to value."""
    return _put("config", *keys, value=value)


def _drop(*keys):
    """An edit that deletes doc[keys...]."""
    def edit(doc):
        node = doc
        for key in keys[:-1]:
            node = node[key]
        del node[keys[-1]]
        return doc
    return edit


def _swap_a1_a2(doc):
    factors = doc["config"]["factors"]
    factors[1], factors[2] = factors[2], factors[1]
    return doc


def _drop_a2(doc):
    del doc["config"]["factors"][2]
    return doc


def _a2_copies_a1(doc):
    for point in doc["design"]["points"]:
        point[2] = point[1]
    return doc


def _halve_design(doc):
    doc["design"]["points"] = [[0.5 * x for x in point]
                               for point in doc["design"]["points"]]
    return doc


def _swap_roles(doc):
    roles = doc["design"]["roles"]  # the last factorial run and the centre
    roles[7], roles[8] = roles[8], roles[7]
    return doc


def _swap_run_roles(doc):
    runs = doc["runs"]  # the centre run and the first star run
    runs[8]["role"], runs[9]["role"] = runs[9]["role"], runs[8]["role"]
    return doc


def _point_outside_cube(doc):
    # D = 117 + 5 * 1.5: the physical blank still maps from the point
    doc["optimum"]["point"][0] = 5.0
    doc["optimum"]["physical"]["D"] = 124.5
    return doc


def _refused_after_edit(campaign_dir, capsys, stage, edit) -> str:
    """Run the stages before `stage`, edit campaign.json, then run `stage`:
    it must exit 2 with a message, writing nothing. Returns stderr."""
    order = ("init", "design", "simulate", "fit", "optimize", "verify",
             "report")
    d = campaign_dir
    run_pipeline(d, *order[:order.index(stage)])
    doc = edit(json.loads((d / "campaign.json").read_text()))
    (d / "campaign.json").write_text(json.dumps(doc))
    before = sorted(d.rglob("*"))
    raw = (d / "campaign.json").read_bytes()
    capsys.readouterr()
    assert cli_main(["--campaign", str(d), stage]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert sorted(d.rglob("*")) == before
    assert (d / "campaign.json").read_bytes() == raw
    return err


class TestMalformedState:
    """A hand-edited campaign.json stops the next stage with exit 2 and a
    message, never a traceback or a campaign run on the wrong factors."""

    @pytest.mark.parametrize("edit, message", [
        (_drop_n_modes, "missing key 'n_modes'"),
        (_drop_cup_height, "missing key 'height'"),
        (_cup_is_int, "malformed state"),
        (lambda doc: [doc], "malformed state"),
        (_swap_a1_a2, "got ('D', 'A2', 'A1')"),
        (_drop_a2, "got ('D', 'A1')"),
        (_set("n_modes", value="5"), "CampaignConfig.n_modes must be int"),
        (_set("n_points", value=144.0), "CampaignConfig.n_points must be int"),
        (_set("surrogate", "k_d", value="0.886"),
         "SurrogateParams.k_d must be float"),
        (_set("target_height", value=True),
         "CampaignConfig.target_height must be float"),
        # the mode count is five, so no other count loads, not even one the
        # quarter chain could supply (7)
        (_set("n_modes", value=1), "CampaignConfig.n_modes must be 5, got 1"),
        (_set("n_modes", value=37), "CampaignConfig.n_modes must be 5, got 37"),
        (_set("n_modes", value=7), "CampaignConfig.n_modes must be 5, got 7"),
        (_set("n_modes", value=True), "CampaignConfig.n_modes must be int"),
        # every rim is on the 144-sample grid, so no other count loads
        (_set("n_points", value=10), "CampaignConfig.n_points must be 144"),
        (_set("n_points", value=288), "CampaignConfig.n_points must be 144"),
        (_set("n_points", value=True), "CampaignConfig.n_points must be int"),
        (_drop("config", "n_points"), "missing key 'n_points'"),
        (_set("target_height", value=-1.0), "target_height must be > 0"),
        (_set("target_height", value=10 ** 400),
         "malformed state: int too large to convert to float"),
        (lambda doc: b"\xff\xfe{", "campaign.json is not valid JSON"),
    ], ids=["no-n_modes", "no-cup-height", "cup-is-int", "top-level-array",
            "a1-a2-swapped", "no-a2", "n_modes-is-str", "n_points-is-float",
            "k_d-is-str", "target-is-bool", "n_modes-1", "n_modes-37",
            "n_modes-7", "n_modes-is-bool",
            "n_points-10", "n_points-288", "n_points-is-bool", "no-n_points",
            "target-negative", "target-past-float",
            "not-utf8"])
    def test_design_exits_2(self, tmp_path, capsys, edit, message):
        # `edit` returns the new document, or the file's raw bytes
        d = tmp_path / "camp"
        run_pipeline(d, "init")
        doc = edit(json.loads((d / "campaign.json").read_text()))
        raw = doc if isinstance(doc, bytes) else json.dumps(doc).encode()
        (d / "campaign.json").write_bytes(raw)
        capsys.readouterr()
        assert cli_main(["--campaign", str(d), "design"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not (d / "design.csv").exists()
        assert not (d / "runs").exists()

    def test_config_check_solves_no_basis(self, tmp_path, monkeypatch):
        # only the stages that decompose a rim ask for the modal basis, once
        # per projection: simulate and verify, and report, which re-derives
        # the verified numbers from the verified rims
        calls, build = [], modal.build_modal_basis
        monkeypatch.setattr(modal, "build_modal_basis",
                            lambda: calls.append(stage) or build())
        stage = "default_config"
        cp.default_config()
        for stage in ("init", "design", "simulate", "fit", "optimize",
                      "verify", "report"):
            run_pipeline(tmp_path / "camp", stage)
        assert list(dict.fromkeys(calls)) == ["simulate", "verify", "report"]

    def test_optimum_f_value_is_checked(self, tmp_path, capsys):
        d = tmp_path / "camp"
        run_pipeline(d, "init", "design", "simulate", "fit", "optimize")
        doc = json.loads((d / "campaign.json").read_text())
        doc["optimum"]["f_value"] = "0.01"
        (d / "campaign.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli_main(["--campaign", str(d), "verify"]) == 2
        err = capsys.readouterr().err
        assert "Optimum.f_value must be float" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("stage, edit, message", [
        ("simulate", _put("design", "points", 0, 0, value="-1"),
         "DesignMatrix.points[0][0] must be float, got '-1'"),
        ("fit", _put("runs", 0, "lambdas", 0, value="0.5"),
         "RunRecord.lambdas[0] must be float, got '0.5'"),
        ("fit", _put("runs", 0, "lambdas", 0, value=True),
         "RunRecord.lambdas[0] must be float, got True"),
        ("fit", _put("runs", 0, "lambdas", value=[0.1, 0.2]),
         "runs[0].lambdas holds 2 entries, not n_modes = 5"),
        ("optimize", _put("models", "L1", "coefficients", "D", value="0.5"),
         "QuadraticModel.coefficients[1] must be float, got '0.5'"),
        ("optimize", _put("models", "L1", "diagnostics", "residual_rms",
                          value=True),
         "QuadraticModel.residual_rms must be float, got True"),
        ("optimize", _drop("models", "L5"),
         "models holds 4 entries, not n_modes = 5"),
        ("optimize", _put("models", "L2", "factors", value=["D", "A1"]),
         "models must use the factors ('D', 'A1', 'A2')"),
        ("optimize", _put("models", "L2", "factors",
                          value=["D", "A1", "A2", "A3"]),
         "models must use the factors ('D', 'A1', 'A2')"),
        ("verify", _put("optimum", "point", 0, value="0.1"),
         "Optimum.point[0] must be float, got '0.1'"),
        ("verify", _put("optimum", "physical", "D", value="117"),
         "Optimum.physical[0] must be float, got '117'"),
        # the physical blank is the optimum's point, mapped as optimize did
        ("verify", _put("optimum", "physical", "D", value=118.4),
         "optimum.physical must be (116.97"),
        ("verify", _drop("optimum", "predicted", "L5"),
         "optimum.predicted holds 4 entries, not n_modes = 5"),
        # minimize returns a point on the factor cube
        ("verify", _drop("optimum", "point", 2),
         "optimum.point must be 3 coordinates in [-1, 1], got ["),
        ("verify", _point_outside_cube,
         "optimum.point must be 3 coordinates in [-1, 1], got [5.0, "),
        ("report", _put("verification", "optimum_lambdas", value=[0.1, 0.2]),
         "verification.optimum_lambdas holds 2 entries, not n_modes = 5"),
        ("report", _put("verification", "baseline_lambdas", value=[0.1]),
         "verification.baseline_lambdas holds 1 entries, not n_modes = 5"),
        ("simulate", _put("design", "points", 0, 0, value=math.nan),
         "DesignMatrix.points[0][0] must be finite, got nan"),
        ("fit", _put("runs", 0, "lambdas", 0, value=math.nan),
         "RunRecord.lambdas[0] must be finite, got nan"),
        ("optimize", _put("models", "L1", "coefficients", "D",
                          value=-math.inf),
         "QuadraticModel.coefficients[1] must be finite, got -inf"),
        ("report", _put("verification", "optimum_lambdas", 1,
                        value=math.inf),
         "VerificationRecord.optimum_lambdas[1] must be finite, got inf"),
        ("fit", _put("runs", 0, "run", value=2),
         "runs[0].run must be 1, got 2"),
        ("report", _put("verification", "baseline_file",
                        value="runs/optimum.csv"),
         "verification.baseline_file must be 'runs/baseline.csv'"),
        ("report", _put("verification", "optimum_file",
                        value="runs/run_01.csv"),
         "verification.optimum_file must be 'runs/optimum.csv'"),
        # each run record is its design point, as simulate recorded it
        ("fit", _put("runs", 0, "blank", value=[200, 9, -9]),
         "runs[0].blank must be (115.5, -1.5, -1.5), got (200.0, 9.0, -9.0)"),
        ("verify", _put("runs", 0, "normalized", value=[0.5, 0.5, 0.5]),
         "runs[0].normalized must be (-1.0, -1.0, -1.0), got (0.5, 0.5, 0.5)"),
        ("report", _swap_run_roles,
         "runs[8].role must be 'center', got 'star'"),
        ("fit", _put("runs", 8, "normalized", value=[-0.0, 0.0, 0.0]),
         "runs[8].normalized must be (0.0, 0.0, 0.0), got (-0.0, 0.0, 0.0)"),
        ("report", lambda doc: {**doc, "runs": doc["runs"] + doc["runs"][:1]},
         "runs holds 16 entries, not the design's 15"),
    ], ids=["design-point-is-str", "run-lambda-is-str", "run-lambda-is-bool",
            "run-has-2-lambdas", "coefficient-is-str", "residual-rms-is-bool",
            "no-model-L5", "model-factors", "model-four-factors",
            "optimum-point-is-str",
            "optimum-physical-is-str", "optimum-physical", "no-predicted-L5",
            "optimum-point-short", "optimum-point-outside",
            "verified-has-2-lambdas", "baseline-has-1-lambda",
            "design-point-is-nan", "run-lambda-is-nan",
            "coefficient-is-inf", "verified-lambda-is-inf", "run-number",
            "baseline-file", "optimum-file", "run-blank", "run-normalized",
            "run-roles-swapped", "run-negative-zero", "run-added"])
    def test_later_stage_exits_2(self, tmp_path, capsys, stage, edit, message):
        # the edit goes into the state the stages before `stage` left; the
        # stage must stop before writing anything
        assert message in _refused_after_edit(tmp_path / "camp", capsys,
                                              stage, edit)

    @pytest.mark.parametrize("value", [math.nan, math.inf],
                             ids=["nan", "inf"])
    @pytest.mark.parametrize("keys, field", [
        (("cup", "diameter"), "CupSpec.diameter"),
        (("alpha",), "FactorSpace.alpha"),
        (("target_height",), "CampaignConfig.target_height"),
        (("surrogate", "k_d"), "SurrogateParams.k_d"),
        (("surrogate", "base_height"), "SurrogateParams.base_height"),
        (("material", "r0"), "MaterialAnisotropy.r0"),
        (("material", "r45"), "MaterialAnisotropy.r45"),
    ], ids=["cup-diameter", "alpha", "target", "k_d", "base_height", "r0",
            "r45"])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, keys, field,
                                       value):
        # a config is refused when it is read, not at the stage that
        # first computes with the number
        err = _refused_after_edit(tmp_path / "camp", capsys, "design",
                                  _set(*keys, value=value))
        assert f"{field} must be finite, got {value!r}" in err

    @pytest.mark.parametrize("edit", [_a2_copies_a1, _halve_design,
                                      _swap_roles],
                             ids=["a2-copies-a1", "halved", "roles-swapped"])
    def test_design_other_than_the_ccd_exits_2(self, tmp_path, capsys, edit):
        # whatever its rank, a design that is not the config's CCD is
        # refused before any run file is written
        err = _refused_after_edit(tmp_path / "camp", capsys, "simulate", edit)
        assert "design is not the central composite design" in err
        assert not (tmp_path / "camp" / "runs").exists()

    @pytest.mark.parametrize("stage", ["fit", "report"])
    @pytest.mark.parametrize("where", ["relative", "absolute"])
    def test_rim_file_outside_the_campaign_exits_2(self, tmp_path, capsys,
                                                   stage, where):
        # run 8's file moved out of the campaign, its hash still right: the
        # state may only name the path the simulate stage wrote
        d, outside = tmp_path / "camp", tmp_path / "outside.csv"

        def move_run_8(doc):
            (d / "runs" / "run_08.csv").replace(outside)
            doc["runs"][7]["profile_file"] = (
                "../outside.csv" if where == "relative" else str(outside))
            return doc
        err = _refused_after_edit(d, capsys, stage, move_run_8)
        assert "runs[7].profile_file must be 'runs/run_08.csv', got " in err
        assert outside.is_file()

    def test_int_for_float_is_accepted(self, tmp_path):
        # an int where a float belongs is read as that float, so the next
        # stage writes the bytes of the campaign that holds the float
        payloads = []
        for number in (float, int):
            d = tmp_path / number.__name__
            run_pipeline(d, "init", "design", "simulate")
            doc = json.loads((d / "campaign.json").read_text())
            doc["config"]["target_height"] = number(35)
            doc["config"]["cup"]["height"] = number(35)
            doc["runs"][0]["lambdas"][0] = number(1)
            (d / "campaign.json").write_text(json.dumps(doc))
            run_pipeline(d, "fit")
            doc = json.loads((d / "campaign.json").read_text())
            del doc["timestamps"]
            payloads.append(json.dumps(doc, sort_keys=True))
        assert payloads[0] == payloads[1]
        state = cp.load_state(tmp_path / "int")
        assert type(state.config.target_height) is float
        assert type(state.runs[0].lambdas[0]) is float


def dumps_reference(payload) -> bytes:
    """The bytes _write_json must write: Python's own indented encoder."""
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


class TestJsonWriter:
    """_write_json writes what json.dumps(indent=2, sort_keys=True) writes."""

    def check(self, tmp_path, payload):
        cp._write_json(tmp_path / "out.json", payload)
        assert (tmp_path / "out.json").read_bytes() == dumps_reference(payload)

    def test_every_stage_and_side_file(self, tmp_path):
        d = tmp_path / "camp"
        state = cp.init_campaign(d)
        for stage in (cp.design_campaign, cp.simulate_campaign,
                      cp.fit_campaign, cp.optimize_campaign,
                      cp.verify_campaign):
            self.check(tmp_path, cp.state_to_dict(state))
            state = stage(state, d)
        self.check(tmp_path, cp.state_to_dict(state))
        self.check(tmp_path, cp._models_to_dict(state.models))
        self.check(tmp_path, cp._optimum_to_dict(state.optimum,
                                                 state.config.space))
        assert (d / "models.json").read_bytes() == dumps_reference(
            cp._models_to_dict(state.models))
        assert (d / "optimum.json").read_bytes() == dumps_reference(
            cp._optimum_to_dict(state.optimum, state.config.space))

    @pytest.mark.parametrize("name", ["configured", "verified",
                                      "verified_not_applicable"])
    def test_frozen_schema_1_states(self, tmp_path, name):
        raw = (SCHEMA1 / f"{name}.json").read_bytes()
        state = cp.state_from_dict(json.loads(raw))
        cp.save_state(state, tmp_path)
        assert (tmp_path / "campaign.json").read_bytes() == raw

    def test_saves_without_json_accelerator(self, tmp_path):
        # as on an interpreter built without json's C accelerator, _json
        child = (
            "import json.encoder, sys\n"
            "json.encoder.c_make_encoder = None\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from earforge import campaign as cp\n"
            "raw = open(sys.argv[2], encoding='utf-8').read()\n"
            "cp.save_state(cp.state_from_dict(json.loads(raw)), sys.argv[3])\n")
        raw = SCHEMA1 / "verified.json"
        subprocess.run([sys.executable, "-c", child, str(SRC), str(raw),
                        str(tmp_path)], check=True)
        assert (tmp_path / "campaign.json").read_bytes() == raw.read_bytes()


class TestNonFiniteConfig:
    """A library config with a NaN or infinite number is refused when it is
    made, so init_campaign never writes NaN or Infinity to campaign.json."""

    @pytest.mark.parametrize("make, field, value", [
        (lambda: dataclasses.replace(cp.default_config(),
                                     cup=CupSpec(math.nan, 35.0)),
         "CupSpec.diameter", math.nan),
        (lambda: dataclasses.replace(cp.default_config(),
                                     target_height=math.inf),
         "CampaignConfig.target_height", math.inf),
        (lambda: dataclasses.replace(
            cp.default_config(), surrogate=SurrogateParams(k_d=math.nan)),
         "SurrogateParams.k_d", math.nan),
        (lambda: dataclasses.replace(
            cp.default_config(),
            material=MaterialAnisotropy(r0=math.nan, r45=1.56, r90=2.72)),
         "MaterialAnisotropy.r0", math.nan),
    ], ids=["cup-diameter-nan", "target-inf", "k_d-nan", "r0-nan"])
    def test_init_campaign_writes_nothing(self, tmp_path, make, field, value):
        d = tmp_path / "camp"
        with pytest.raises(ValidationError,
                           match=re.escape(f"{field} must be finite, "
                                           f"got {value!r}")):
            cp.init_campaign(d, make())
        assert not (d / "campaign.json").exists()


def _annotation_nodes(annotation):
    """The annotation and every type inside it, None and ... left out."""
    yield annotation
    for arg in typing.get_args(annotation):
        if arg not in (type(None), ...):
            yield from _annotation_nodes(arg)


@dataclasses.dataclass
class _Unreadable:
    z: complex


class TestDecoder:
    def test_every_state_annotation_is_readable(self):
        # walks every dataclass reachable from CampaignState: each field
        # annotation, and each type inside it, must reject a wrong value
        # with a TypeError rather than find no decoder
        seen, todo = set(), [cp.CampaignState]
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            for name, annotation in cp._hints(cls).items():
                for node in _annotation_nodes(annotation):
                    with pytest.raises(TypeError):
                        cp._decode(node, object(), f"{cls.__name__}.{name}")
                    if dataclasses.is_dataclass(node):
                        todo.append(node)
        assert {c.__name__ for c in seen} == {
            "CampaignState", "CampaignConfig", "FactorSpace", "Factor",
            "CupSpec", "MaterialAnisotropy", "SurrogateParams",
            "DesignMatrix", "RunRecord", "QuadraticModel", "Optimum",
            "ConvergenceReport", "VerificationRecord"}

    @pytest.mark.parametrize("annotation", [
        complex, set[float], tuple[float, str], int | str, _Unreadable],
        ids=["complex", "set", "fixed-tuple", "union", "dataclass-field"])
    def test_unsupported_annotation_is_named(self, annotation):
        # never a KeyError, which load_state would report as a missing key
        named = complex if annotation is _Unreadable else annotation
        with pytest.raises(NotImplementedError, match=re.escape(repr(named))):
            cp._decode(annotation, {"z": 1.0}, "X.y")


class TestIngestFlow:
    def test_simulate_from_external_files(self, tmp_path, full_campaign):
        external = tmp_path / "external"
        shutil.copytree(full_campaign / "runs", external)
        d = tmp_path / "camp2"
        run_pipeline(d, "init", "design")
        assert cli_main(["--campaign", str(d), "simulate",
                         "--ingest-dir", str(external)]) == 0
        ours = cp.load_state(d)
        theirs = cp.load_state(full_campaign)
        for a, b in zip(ours.runs, theirs.runs):
            assert a.provenance == f"ingested:run_{a.run:02d}.csv"
            assert np.allclose(a.lambdas, b.lambdas, atol=1e-9)

    def test_missing_external_file(self, tmp_path):
        d = tmp_path / "camp"
        run_pipeline(d, "init", "design")
        empty = tmp_path / "external"
        empty.mkdir()
        assert cli_main(["--campaign", str(d), "simulate",
                         "--ingest-dir", str(empty)]) == 2


def flat_rim(cloud=False):
    """Lines of a flat 16-sample rim at 35 mm, without the header."""
    theta = (2 * np.pi * np.arange(16) / 16).tolist()
    if cloud:
        return [f"{30 * math.cos(t)!r},{30 * math.sin(t)!r},35.0" for t in theta]
    return [f"{t!r},35.0" for t in theta]


def bad_rim(case):
    """(file bytes, what the error says after the file name)."""
    polar = ["theta_rad,value_mm"] + flat_rim()
    cloud = ["x_mm,y_mm,z_mm"] + flat_rim(cloud=True)
    encoding = "utf-8"
    if case == "cloud_row_of_2":
        cloud[6] = "1.0,2.0"
        lines, what = cloud, "line 7: expected 3 fields, got 2"
    elif case == "polar_row_of_1":
        polar[4] = "0.9"
        lines, what = polar, "line 5: expected 2 fields, got 1"
    elif case == "polar_rows_of_3":
        polar[1:] = [row + ",7.5" for row in polar[1:]]
        lines, what = polar, "line 2: expected 2 fields, got 3"
    elif case == "nan_angle":
        lines, what = polar + ["nan,35"], "line 18: non-finite"
    elif case == "inf_height":
        polar[9] = "1.2,inf"
        lines, what = polar, "line 10: non-finite"
    elif case == "byte_0xff":  # a Latin-1 or stray byte in one row
        polar[3] += "\xff"
        lines, what, encoding = polar, "not UTF-8 text", "latin-1"
    else:  # "utf16": a spreadsheet's "Unicode text" export
        lines, what, encoding = polar, "not UTF-8 text", "utf-16"
    return ("\n".join(lines) + "\n").encode(encoding), what


BAD_RIMS = ["cloud_row_of_2", "polar_row_of_1", "polar_rows_of_3",
            "nan_angle", "inf_height", "byte_0xff", "utf16"]


def off_turn_rim(case):
    """(file text, what the error says) of a four-lobe polar rim that is not
    one turn: 16 samples of a 0.5 mm ear, or a quarter turn of a 0.86 mm one."""
    theta = (2 * np.pi * np.arange(16) / 16).tolist()
    rows = [(t, 35.0 + 0.5 * math.cos(4 * t)) for t in theta]
    if case == "quarter_turn":  # 60 samples on [0, pi/2]: 3*pi/2 unmeasured
        rows = [(t, 35.0 + 0.86 * math.cos(4 * t))
                for t in np.linspace(0.0, math.pi / 2, 60).tolist()]
        what = "angular gap of 4.71238898 rad after theta = 1.57079633"
    elif case == "degrees":
        rows = [(math.degrees(t), h) for t, h in rows]
        what = "angles span 337.5 rad, more than one turn"
    else:  # "one_turn_apart": theta = 2*pi holds another height than 0
        rows.append((2 * math.pi, 99.0))
        what = "are one turn apart but their heights differ"
    lines = ["theta_rad,value_mm"] + [f"{t!r},{h!r}" for t, h in rows]
    return "\n".join(lines) + "\n", what


OFF_TURN_RIMS = ["degrees", "one_turn_apart", "quarter_turn"]


class TestBadRimFiles:
    @pytest.mark.parametrize("points", [
        [(5.0, -2.0)] * 16,                          # coincident
        [(1.5 * k, 0.0) for k in range(16)],         # on the x axis
        [(0.5 * k, 0.5 * k) for k in range(16)],     # on the diagonal
    ], ids=["coincident", "collinear", "diagonal"])
    def test_cloud_without_a_circle_exits_2(self, tmp_path, capsys, points):
        path = tmp_path / "rim.csv"
        path.write_text("x_mm,y_mm,z_mm\n" + "".join(
            f"{x!r},{y!r},35.0\n" for x, y in points))
        assert cli_main(["decompose", str(path)]) == 2
        err = capsys.readouterr().err
        assert "rim.csv: no circle fits the points" in err
        assert "Traceback" not in err

    def test_well_formed_fixtures(self, tmp_path):
        for lines in (["theta_rad,value_mm"] + flat_rim(),
                      ["x_mm,y_mm,z_mm"] + flat_rim(cloud=True)):
            path = tmp_path / "ok.csv"
            path.write_text("\n".join(lines) + "\n")
            assert cli_main(["decompose", str(path), "--target", "35"]) == 0

    @pytest.mark.parametrize("case", BAD_RIMS)
    def test_decompose_exits_2_naming_the_line(self, tmp_path, capsys, case):
        data, what = bad_rim(case)
        path = tmp_path / "rim.csv"
        path.write_bytes(data)
        assert cli_main(["decompose", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"rim.csv: {what}" in err and "Traceback" not in err

    @pytest.mark.parametrize("case", BAD_RIMS)
    def test_ingest_exits_2_naming_the_line(self, tmp_path, capsys, case):
        d = tmp_path / "camp"
        run_pipeline(d, "init", "design")
        external = tmp_path / "external"
        external.mkdir()
        data, what = bad_rim(case)
        (external / "run_01.csv").write_bytes(data)
        capsys.readouterr()
        assert cli_main(["--campaign", str(d), "simulate",
                         "--ingest-dir", str(external)]) == 2
        err = capsys.readouterr().err
        assert f"run_01.csv: {what}" in err and "Traceback" not in err
        assert cp.load_state(d).stage == "designed"

    @pytest.mark.parametrize("case", OFF_TURN_RIMS)
    def test_decompose_exits_2_off_one_turn(self, tmp_path, capsys, case):
        text, what = off_turn_rim(case)
        path = tmp_path / "rim.csv"
        path.write_text(text)
        assert cli_main(["decompose", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "rim.csv: " in err and what in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("case", OFF_TURN_RIMS)
    def test_ingest_exits_2_off_one_turn(self, tmp_path, capsys, case):
        d = tmp_path / "camp"
        run_pipeline(d, "init", "design")
        external = tmp_path / "external"
        external.mkdir()
        text, what = off_turn_rim(case)
        (external / "run_01.csv").write_text(text)
        capsys.readouterr()
        assert cli_main(["--campaign", str(d), "simulate",
                         "--ingest-dir", str(external)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "run_01.csv: " in err
        assert what in err and "Traceback" not in err
        assert cp.load_state(d).stage == "designed"


class TestVerificationEdgeCases:
    def test_defect_free_plant_reports_not_applicable(self, tmp_path):
        d = tmp_path / "camp"
        config = cp.default_config()
        config.material = MaterialAnisotropy(2.0, 2.0, 2.0)
        config.surrogate = SurrogateParams(c8=0.0, kappa4_6=0.0)
        d.mkdir()  # only `init` makes the directory; the lock needs it first
        with cp.campaign_lock(d):
            state = cp.init_campaign(d, config)
            state = cp.design_campaign(state, d)
            state = cp.simulate_campaign(state, d)
            state = cp.fit_campaign(state, d)
            state = cp.optimize_campaign(state, d)
            state = cp.verify_campaign(state, d)
        assert state.verification.status == "not_applicable"
        assert state.verification.reduction_factor is None
        assert state.verification.baseline_amplitude <= 1e-12


class TestReports:
    def test_report_before_simulate_fails_listing_missing(self, tmp_path,
                                                          capsys):
        d = tmp_path / "camp"
        run_pipeline(d, "init", "design")
        assert cli_main(["--campaign", str(d), "report"]) == 2
        assert "simulated" in capsys.readouterr().err

    def test_partial_report_after_simulate(self, tmp_path, capsys):
        d = tmp_path / "camp"
        run_pipeline(d, "init", "design", "simulate")
        assert cli_main(["--campaign", str(d), "report"]) == 0
        out = capsys.readouterr().out
        assert (d / "reports" / "deviation_polar.svg").exists()
        assert (d / "reports" / "modal_bars.svg").exists()
        assert not (d / "reports" / "overlay_polar.svg").exists()
        assert "skipped" in out

    def test_full_report_bundle(self, full_campaign):
        assert cli_main(["--campaign", str(full_campaign), "report"]) == 0
        reports = full_campaign / "reports"
        for name in ("deviation_polar.svg", "modal_bars.svg",
                     "overlay_polar.svg"):
            text = (reports / name).read_text()
            assert text.startswith("<svg ")
            assert 'version="1.1"' in text
        summary = (reports / "summary.txt").read_text()
        assert "Optimal blank" in summary
        assert "reduction" in summary.lower()

    def test_point_cloud_rim_is_refused(self, tmp_path, capsys):
        # a run file swapped for a one-point cloud, its hash updated to
        # match: the report reads rims as ingest does, which needs 8 points
        d = tmp_path / "camp"
        run_pipeline(d, "init", "design", "simulate")
        cloud = b"x_mm,y_mm,z_mm\n1,2,3\n"
        (d / "runs" / "run_09.csv").write_bytes(cloud)
        doc = json.loads((d / "campaign.json").read_text())
        doc["runs"][8]["sha256"] = hashlib.sha256(cloud).hexdigest()
        (d / "campaign.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli_main(["--campaign", str(d), "report"]) == 2
        err = capsys.readouterr().err
        assert "runs/run_09.csv: need at least 8 points, got 1" in err

    @pytest.mark.parametrize("keys, value", [
        (("reduction_factor",), 99.0),
        (("optimum_amplitude",), 0.001),
        (("optimum_lambdas", 2), 0.5),
    ], ids=["reduction", "optimum-amplitude", "optimum-lambda-3"])
    def test_verified_number_off_its_rims_exits_2(self, tmp_path, capsys,
                                                  keys, value):
        # the rim files are hash-checked, so the verified numbers are
        # re-derived from them and must match bit for bit
        err = _refused_after_edit(tmp_path / "camp", capsys, "report",
                                  _put("verification", *keys, value=value))
        assert f"verification.{keys[0]} must be " in err
        assert "as the rim files give it, got " in err
        assert ("the state was edited, or verified by an earforge from "
                "before exact metrology; re-run the campaign in a fresh "
                "directory") in err

    def test_untouched_campaign_reports_byte_identically(self, tmp_path):
        # the state a library run holds in memory and the state the CLI
        # loads from campaign.json pass the check and write the same reports
        d = tmp_path / "camp"
        d.mkdir()
        with cp.campaign_lock(d):
            state = cp.init_campaign(d)
            for stage in (cp.design_campaign, cp.simulate_campaign,
                          cp.fit_campaign, cp.optimize_campaign,
                          cp.verify_campaign):
                state = stage(state, d)
            written, skipped = cp.report_campaign(state, d)
        assert len(written) == 4 and not skipped
        first = {name: (d / name).read_bytes() for name in written}
        assert cli_main(["--campaign", str(d), "report"]) == 0
        assert {name: (d / name).read_bytes() for name in written} == first

    @pytest.mark.parametrize("key", ["optimum_lambdas", "baseline_lambdas",
                                     "optimum_residue"])
    def test_projected_number_off_by_ten_tolerances_exits_2(self, tmp_path,
                                                            capsys, key):
        # 1e-11 mm, ten times the tolerance `report` once gave the projected
        # numbers; metrology is exact now, so they are held bit for bit
        def nudge(doc):
            v = doc["verification"]
            if key == "optimum_residue":
                v[key] += 1e-11
            else:
                v[key][3] += 1e-11
            return doc

        err = _refused_after_edit(tmp_path / "camp", capsys, "report", nudge)
        assert f"verification.{key} must be " in err
        assert "as the rim files give it, got " in err

    def test_reports_where_blas_kernels_differ(self, tmp_path, emulated_machines):
        # Verified and reported here, then reported again in processes whose
        # numpy and OpenBLAS dispatch to other kernels, as on other machines.
        # Metrology calls no BLAS, so the re-derived lambdas and residue
        # match the stored ones bit for bit and the reports are byte-equal.
        d = tmp_path / "camp"
        run_pipeline(d, "init", "design", "simulate", "fit", "optimize",
                     "verify", "report")
        native = {p.name: p.read_bytes() for p in (d / "reports").iterdir()}
        assert len(native) == 4
        for name, settings in emulated_machines.items():
            env = dict(os.environ, PYTHONPATH=str(SRC), **settings)
            proc = subprocess.run(
                [sys.executable, "-m", "earforge.cli", "--campaign", str(d),
                 "report"], env=env, capture_output=True, text=True)
            assert proc.returncode == 0, (name, proc.stderr)
            assert {p.name: p.read_bytes()
                    for p in (d / "reports").iterdir()} == native, name

    def test_report_is_deterministic(self, full_campaign):
        run = lambda: cli_main(["--campaign", str(full_campaign), "report"])
        assert run() == 0
        first = (full_campaign / "reports" / "overlay_polar.svg").read_bytes()
        assert run() == 0
        assert (full_campaign / "reports" / "overlay_polar.svg").read_bytes() == first


def run_in_child(campaign_dir, settings, *stages):
    """Run the CLI stages in one process with `settings` in its environment."""
    script = ("import sys\nfrom earforge.cli import cli_main\n"
              "for stage in sys.argv[2:]:\n"
              "    if cli_main(['--campaign', sys.argv[1], stage]):\n"
              "        sys.exit(f'stage {stage} failed')\n")
    env = dict(os.environ, PYTHONPATH=str(SRC), **settings)
    done = subprocess.run([sys.executable, "-c", script, str(campaign_dir),
                           *stages], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


class TestAcrossMachines:
    """A default surrogate campaign run natively and in processes whose numpy
    and OpenBLAS dispatch to other kernels, as on other machines."""

    def test_fitted_campaign_is_byte_equal(self, tmp_path, emulated_machines):
        # metrology and the fit are fixed-order sums without BLAS, so
        # through `fitted` the state and the models have the same bytes
        stages = ("init", "design", "simulate", "fit")

        def written(d):
            state = re.sub(rb'"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00"',
                           b'"<timestamp>"', (d / "campaign.json").read_bytes())
            return state, (d / "models.json").read_bytes()

        run_pipeline(tmp_path / "native", *stages)
        native = written(tmp_path / "native")
        assert native[0].count(b'"<timestamp>"') == len(stages)
        for name, settings in emulated_machines.items():
            run_in_child(tmp_path / name, settings, *stages)
            assert written(tmp_path / name) == native, name

    def test_optimum_agrees_within_the_stated_tolerance(self, tmp_path,
                                                        emulated_machines):
        # README: the optimum's point, physical and predicted agree within
        # 1e-12 mm and F within 1e-12 relative; the report may differ
        stages = ("init", "design", "simulate", "fit", "optimize")

        def optimum(d):
            return json.loads((d / "optimum.json").read_text())

        run_pipeline(tmp_path / "native", *stages)
        native = optimum(tmp_path / "native")
        for name, settings in emulated_machines.items():
            run_in_child(tmp_path / name, settings, *stages)
            got = optimum(tmp_path / name)
            assert got.keys() == native.keys(), name
            for key in ("point", "physical", "predicted"):
                want, have = native[key], got[key]
                if isinstance(want, dict):
                    assert have.keys() == want.keys(), (name, key)
                    want, have = list(want.values()), [have[k] for k in want]
                assert np.max(np.abs(np.subtract(have, want))) <= 1e-12, (name, key)
            assert (abs(got["f_value"] - native["f_value"])
                    <= 1e-12 * abs(native["f_value"])), name


class TestLocking:
    def test_stale_lock_blocks_commands(self, tmp_path, capsys):
        d = tmp_path / "camp"
        run_pipeline(d, "init")
        (d / "campaign.lock").write_text("12345")
        assert cli_main(["--campaign", str(d), "design"]) == 2
        err = capsys.readouterr().err
        assert "lock" in err.lower()
        assert "held by PID 12345" in err

    @pytest.mark.parametrize("content", [b"", b"\xff\xfe", b"pid?", None],
                             ids=["empty", "not_ascii", "not_a_pid", "unreadable"])
    def test_lock_without_a_pid_blocks_commands(self, tmp_path, capsys, content):
        # None: the lock is a directory, which exists but cannot be read
        d = tmp_path / "camp"
        run_pipeline(d, "init")
        lock = d / "campaign.lock"
        if content is None:
            lock.mkdir()
        else:
            lock.write_bytes(content)
        assert cli_main(["--campaign", str(d), "design"]) == 2
        err = capsys.readouterr().err
        assert "lock" in err.lower()
        assert "PID" not in err

    def test_lock_released_after_command(self, tmp_path):
        d = tmp_path / "camp"
        run_pipeline(d, "init", "design")
        assert not (d / "campaign.lock").exists()

    def test_lock_context_manager(self, tmp_path):
        d = tmp_path / "camp"
        d.mkdir()  # locking a missing directory creates nothing
        with cp.campaign_lock(d):
            assert (d / "campaign.lock").exists()
            with pytest.raises(CampaignLockedError):
                with cp.campaign_lock(d):
                    pass
        assert not (d / "campaign.lock").exists()
