import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from nsklab.cli import main as cli_main
from nsklab.config import ConfigError, load_config, parse_config
from nsklab.experiment import RunManifest, report, run_experiment, sweep
from nsklab.fields import FieldError, Grid, ScalarField, make_grid, read_snapshot, write_snapshot
from nsklab.probes import AUDITS
from nsklab.selftest import CHECKS
from nsklab.solver import SolverConfig

MINIMAL = """
[grid]
dim = 2
n = 32
box_length = 12.566370614359172
far_field_density = 1.0

[preset]
name = constant

[solver]
gamma = 2.0
dt = 1e-3
t_end = 0.005

[output]
directory = {outdir}
"""

# each shared check of nsklab.selftest, by the index of the CHECKS line that calls it
SELFTEST_CHECKS = [
    (0, "rfft_round_trip_deviation"), (0, "parseval_deviation"), (0, "div_grad_deviation"),
    (1, "reconstruction_deviation"), (1, "orthogonality_deviation"), (2, "closed_form_deviation"),
    (3, "steady_state_deviation"), (4, "transform_round_trip_deviation"), (5, "lower_constant_min"),
    (6, "snapshot_round_trip_deviation"),
]

def _run_config(tmp_path, text, root):
    """Exit code of `nsklab run` on `text`, written to tmp_path / "c.cfg", with outputs under `root`."""
    (tmp_path / "c.cfg").write_text(text)
    return cli_main(["run", str(tmp_path / "c.cfg"), "--output-root", str(root)])


FULL = """
[grid]
dim = 2
n = 32
box_length = 12.566370614359172
far_field_density = 1.0

[preset]
name = gaussian-bump
amplitude = 0.4
width = 1.2

[solver]
gamma = 2.0
dt = 1e-3
t_end = 0.01
formulation = effective

[probes]
names = energy.total, venergy, norm.weighted.p2

[audits]
names = bd-identity, jungel, region-split, log-law, certificate

[output]
directory = {outdir}
state_stride = 2

[rng]
seed = 7
"""


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _missing_probe_cases():
    """For each audit that reads probe columns: a config that records none of
    them, and one that records all but the last."""
    for audit, entry in AUDITS.items():
        if not entry.probes:
            continue
        for recorded in (("venergy",), entry.probes[:-1]):
            names, missing = ", ".join(recorded), ", ".join(p for p in entry.probes if p not in recorded)
            yield pytest.param(audit, names, missing, id=f"{names}-{missing}")


class TestParse:
    def test_minimal_with_defaults(self):
        cfg = parse_config(MINIMAL.format(outdir="out"))
        assert cfg.preset_name == "constant"
        assert cfg.state_stride == 1
        assert cfg.seed == 0
        assert cfg.formulation == "primitive"
        assert cfg.probe_names == ()

    def test_unknown_key_reports_line(self):
        bad = MINIMAL.format(outdir="out") + "\n[grid]\nwavelength = 2\n"
        with pytest.raises(ConfigError, match=r"line \d+: unknown key 'wavelength'"):
            parse_config(bad)

    def test_removed_solver_key_is_unknown(self, tmp_path, capsys):
        # keys with a single legal value went with their alternatives: the one
        # time-stepping scheme, and dealiasing, which both steppers always do
        for key, line in (("scheme", "scheme = semi-implicit-spectral"), ("dealias", "dealias = false")):
            text = MINIMAL.format(outdir="out").replace("t_end = 0.005", "t_end = 0.005\n" + line)
            lineno = text.splitlines().index(line) + 1
            with pytest.raises(ConfigError, match=rf"^line {lineno}: unknown key '{key}' in \[solver\]$"):
                parse_config(text)
            assert _run_config(tmp_path, text, tmp_path) == 2
            assert f"line {lineno}: unknown key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["true", "false"])
    def test_removed_snapshots_key_is_unknown(self, tmp_path, capsys, value):
        # every run writes its initial and final snapshots, so the key had one legal value
        line = f"snapshots = {value}"
        text = MINIMAL.format(outdir="snap") + line + "\n"
        lineno = text.splitlines().index(line) + 1
        with pytest.raises(ConfigError, match=rf"^line {lineno}: unknown key 'snapshots' in \[output\]$"):
            parse_config(text)
        assert _run_config(tmp_path, text, tmp_path) == 2
        assert f"line {lineno}: unknown key 'snapshots'" in capsys.readouterr().err
        assert not (tmp_path / "snap").exists()

    def test_the_audit_table_declares_each_prerequisite(self):
        assert {name: audit.probes for name, audit in AUDITS.items() if audit.probes} == {
            "growth-law": ("norm.weighted.p2", "norm.weighted.p6", "norm.weighted.p14", "norm.weighted.p30")
        }
        assert [name for name, audit in AUDITS.items() if audit.gamma_above_one] == ["pi-equivalence", "region-split"]
        assert {name: audit.second_order for name, audit in AUDITS.items() if audit.second_order} == {
            "jungel": "convexity",
            "bd-identity": "identity",
        }
        # a per-state part is kept under its own key, and no audit has both kinds
        keys = [audit.key for audit in AUDITS.values() if audit.part is not None]
        assert len(set(keys)) == len(keys) and None not in keys
        assert not any(audit.part and audit.second_order for audit in AUDITS.values())

    @pytest.mark.parametrize("audit,names,missing", list(_missing_probe_cases()))
    def test_growth_law_needs_its_four_probes(self, tmp_path, capsys, audit, names, missing):
        text = MINIMAL.format(outdir="growth") + f"\n[probes]\nnames = {names}\n\n[audits]\nnames = {audit}\n"
        with pytest.raises(ConfigError, match=f"audit '{audit}' reads the probes {missing};"):
            parse_config(text)
        assert _run_config(tmp_path, text, tmp_path) == 2
        assert missing in capsys.readouterr().err
        assert not (tmp_path / "growth").exists()
        # with its probes recorded the audit is accepted
        complete = text.replace(f"names = {names}\n", f"names = {', '.join(AUDITS[audit].probes)}\n")
        assert parse_config(complete).audit_names == (audit,)

    @pytest.mark.parametrize("audit", [name for name, audit in AUDITS.items() if audit.gamma_above_one])
    def test_gamma_one_audit_is_config_error(self, tmp_path, capsys, audit):
        # both audits read the potential energy's gamma > 1 branch at every stored state
        text = MINIMAL.format(outdir="gamma1").replace("gamma = 2.0", "gamma = 1.0") + f"\n[audits]\nnames = {audit}\n"
        root = tmp_path / "root"
        assert _run_config(tmp_path, text, root) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: audit '{audit}' needs gamma > 1") and "Traceback" not in err
        assert not root.exists()

    @pytest.mark.parametrize(
        "section,names,twice",
        [("probes", "energy.total, venergy, energy.total", "energy.total"), ("audits", "log-law, log-law", "log-law")],
    )
    def test_a_name_listed_twice_exits_two(self, tmp_path, capsys, section, names, twice):
        text = MINIMAL.format(outdir="twice") + f"\n[{section}]\nnames = {names}\n"
        lineno = text.splitlines().index(f"names = {names}") + 1
        root = tmp_path / "root"
        assert _run_config(tmp_path, text, root) == 2
        assert capsys.readouterr().err == f"config error: line {lineno}: {twice!r} listed twice in [{section}] names\n"
        assert not root.exists()

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"unknown section"):
            parse_config("[turbulence]\nx = 1\n")

    def test_duplicate_key(self):
        bad = MINIMAL.format(outdir="out").replace("dt = 1e-3", "dt = 1e-3\ndt = 2e-3")
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config(bad)

    def test_missing_physics_is_error(self):
        for key in ("gamma", "dt", "t_end"):
            bad = "\n".join(
                line
                for line in MINIMAL.format(outdir="out").splitlines()
                if not line.startswith(key)
            )
            with pytest.raises(ConfigError, match=f"missing required key '{key}'"):
                parse_config(bad)

    def test_missing_grid_section(self):
        text = "\n".join(
            part
            for part in MINIMAL.format(outdir="out").split("\n\n")
            if "[grid]" not in part
        )
        with pytest.raises(ConfigError, match=r"missing required section \[grid\]"):
            parse_config(text)

    def test_misspelled_probe_suggests_nearest(self):
        bad = MINIMAL.format(outdir="out") + "\n[probes]\nnames = energy.totl\n"
        with pytest.raises(ConfigError, match="energy.total"):
            parse_config(bad)

    def test_unknown_audit(self):
        bad = MINIMAL.format(outdir="out") + "\n[audits]\nnames = jungle\n"
        with pytest.raises(ConfigError, match="jungel"):
            parse_config(bad)

    def test_out_of_range_gamma_warns_in_3d(self):
        text = MINIMAL.format(outdir="out").replace("dim = 2", "dim = 3").replace(
            "n = 32", "n = 16"
        ).replace("gamma = 2.0", "gamma = 3.0")
        cfg = parse_config(text)
        assert any("8/3" in w for w in cfg.warnings)

    def test_preset_param_validation(self):
        bad = MINIMAL.format(outdir="out").replace(
            "name = constant", "name = constant\nwidth = 2.0"
        )
        with pytest.raises(ConfigError, match="takes no parameter"):
            parse_config(bad)

    @pytest.mark.parametrize("directory", ["2024", "nan", "inf", "1e3", "true"])
    def test_a_numeric_looking_string_value_is_its_text(self, tmp_path, directory):
        # a string-valued key reads its raw text, whatever number it looks like
        text = MINIMAL.format(outdir=directory)
        assert parse_config(text).directory == directory
        assert _run_config(tmp_path, text, tmp_path / "root") == 0
        assert (tmp_path / "root" / directory / "manifest.json").exists()

    @pytest.mark.parametrize("directory", ["", ".", "./"])
    def test_a_directory_that_names_the_output_root_is_refused(self, tmp_path, directory):
        # the run would write its files straight into the output root
        text = MINIMAL.format(outdir=directory)
        with pytest.raises(ConfigError, match=r"\[output\] directory must name a directory"):
            parse_config(text)
        assert _run_config(tmp_path, text, tmp_path / "root") == 2
        assert not (tmp_path / "root").exists()

    @pytest.mark.parametrize("directory", ["..", "../out", "a/../..", "b/../a"])
    def test_a_directory_with_a_parent_part_is_refused(self, tmp_path, directory):
        # '..' would write beside the output root, and 'b/../a' alias 'a'
        text = MINIMAL.format(outdir=directory)
        with pytest.raises(ConfigError, match=r"\[output\] directory must have no '\.\.' part"):
            parse_config(text)
        root = tmp_path / "root"
        assert _run_config(tmp_path, text, root / "sub") == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg"]

    def test_an_absolute_directory_is_kept(self, tmp_path):
        text = MINIMAL.format(outdir=tmp_path / "abs")
        assert parse_config(text).directory == str(tmp_path / "abs")

    @pytest.mark.parametrize("line", ["n = 32.0", "n = 3e1", "n = nan"])
    def test_an_int_key_takes_only_an_int(self, line):
        with pytest.raises(ConfigError, match=r"'n' must be int, got "):
            parse_config(MINIMAL.format(outdir="out").replace("n = 32", line))

    def test_comments_and_blank_lines_ignored(self):
        text = "# top comment\n" + MINIMAL.format(outdir="out") + "\n# trailing\n"
        parse_config(text)

    @pytest.mark.parametrize(
        "text",
        [
            *(pytest.param(path.read_text(encoding="utf-8"), id=path.name) for path in sorted(CONFIGS.rglob("*.cfg"))),
            pytest.param("#\n" + MINIMAL.format(outdir="out") + "#", id="empty-comment"),
            pytest.param(MINIMAL.format(outdir="out") + "# ρ ≥ ρ̄ > 0, Jüngel's γ\n", id="non-ascii-comment"),
        ],
    )
    def test_config_hash_is_the_sha256_of_the_utf8_text(self, text):
        assert parse_config(text).config_hash() == hashlib.sha256(text.encode("utf-8")).hexdigest()

    def test_a_config_file_is_read_with_universal_newlines(self, tmp_path):
        text = MINIMAL.format(outdir="out") + "# ρ̄\n"
        path = tmp_path / "crlf.cfg"
        path.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
        assert load_config(path).config_hash() == parse_config(text).config_hash()

    def test_always_recorded_probe_names_accepted(self, tmp_path):
        text = MINIMAL.format(outdir="ar") + "\n[probes]\nnames = density.min, veff.max\n"
        manifest = run_experiment(parse_config(text), tmp_path)
        header = (
            (Path(manifest.directory) / "series.csv").read_text().splitlines()[0].split(",")
        )
        assert header.count("density.min") == 1
        assert header.count("veff.max") == 1


class TestRunExperiment:
    def test_outputs_and_manifest(self, tmp_path):
        cfg = parse_config(FULL.format(outdir="runX"))
        manifest = run_experiment(cfg, tmp_path)
        outdir = Path(manifest.directory)
        assert outdir == tmp_path / "runX"
        for name in manifest.files:
            assert (outdir / name).exists()
        data = json.loads((outdir / "manifest.json").read_text())
        assert data["config_hash"] == cfg.config_hash()
        assert data["exit_code"] == manifest.exit_code
        assert "q_admissible" not in data
        # snapshots store the run's grid and the density payload
        rho, t0 = read_snapshot(outdir / "initial.rho.nskf")
        assert t0 == 0.0
        assert rho.grid.n == 32

    def test_series_csv_shape(self, tmp_path):
        cfg = parse_config(FULL.format(outdir="runY"))
        manifest = run_experiment(cfg, tmp_path)
        lines = (Path(manifest.directory) / "series.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "time"
        assert "density.min" in header and "norm.weighted.p2" in header
        assert len(lines) == 1 + 11  # t=0 plus 10 steps

    def test_determinism_byte_identical(self, tmp_path):
        cfg = parse_config(FULL.format(outdir="runD"))
        m1 = run_experiment(cfg, tmp_path / "a")
        m2 = run_experiment(cfg, tmp_path / "b")
        for name in ("series.csv", "audits.csv", "certificate.csv"):
            b1 = (Path(m1.directory) / name).read_bytes()
            b2 = (Path(m2.directory) / name).read_bytes()
            assert b1 == b2, name

    def test_measured_rows_are_not_counted(self, tmp_path):
        # the 2d jungel rows only record a value (rhs = inf): they are written
        # with kind "measured" and left out of the audit counts
        manifest = run_experiment(parse_config(FULL.format(outdir="runK")), tmp_path)
        lines = (Path(manifest.directory) / "audits.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:7] == ["inequality_id", "lhs", "rhs", "ratio", "tolerance", "pass", "citation"]
        assert header[-1] == "kind"
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        measured = [r["inequality_id"] for r in rows if r["kind"] == "measured"]
        assert measured == ["jungel.hessian_sqrt.measured", "jungel.quartic_gradient.measured"]
        assert all(r["kind"] == "asserted" for r in rows if r["inequality_id"] not in measured)
        assert manifest.audit_total == len(rows) - 2
        assert manifest.audit_failures == 0

    def test_rows_without_a_frozen_constant_are_measured(self, tmp_path):
        # the constant preset has no psi.C3 or loglaw.cv key: its reverse-Hoelder
        # rows, like its log-law row, are measured and left out of audit_total
        audits = "t_end = 0.005\n\n[audits]\nnames = reverse-holder, log-law"
        text = MINIMAL.format(outdir="runK").replace("t_end = 0.005", audits)
        manifest = run_experiment(parse_config(text), tmp_path)
        rows = (Path(manifest.directory) / "audits.csv").read_text().strip().splitlines()[1:]
        kinds = {line.split(",")[0]: line.split(",")[-1] for line in rows}
        assert kinds == {"psi.reverse_holder": "measured", "loglaw.v_sup": "measured"}
        assert manifest.audit_total == 0 and manifest.exit_code == 0

    def test_constant_run_all_zero_series(self, tmp_path):
        text = MINIMAL.format(outdir="runZ") + "\n[probes]\nnames = energy.total\n"
        manifest = run_experiment(parse_config(text), tmp_path)
        lines = (Path(manifest.directory) / "series.csv").read_text().strip().splitlines()
        col = lines[0].split(",").index("energy.total")
        for line in lines[1:]:
            assert float(line.split(",")[col]) == 0.0


class TestSweep:
    def test_empty(self):
        assert sweep([]) == []

    def test_each_config_builds_its_grid_once(self, tmp_path, monkeypatch):
        # parse_config builds the grid to check [grid]; the sweep's preset
        # check and the run read that one
        built, build = [], Grid._build_symbols
        monkeypatch.setattr(Grid, "_build_symbols", lambda grid: built.append(grid) or build(grid))
        paths = []
        for i in range(2):
            paths.append(tmp_path / f"s{i}.cfg")
            paths[-1].write_text(MINIMAL.format(outdir=f"sw{i}").replace("name = constant", "name = gaussian-bump"))
        results = sweep(paths, tmp_path)
        assert [r.manifest.exit_code for r in results] == [0, 0]
        assert len(built) == 2

    def test_duplicate_outdirs_rejected(self, tmp_path):
        p1 = tmp_path / "a.cfg"
        p2 = tmp_path / "b.cfg"
        p1.write_text(MINIMAL.format(outdir="same"))
        p2.write_text(MINIMAL.format(outdir="same"))
        with pytest.raises(ConfigError, match="duplicate output directory"):
            sweep([p1, p2], tmp_path)

    def test_outdirs_that_differ_only_in_spelling_are_duplicates(self, tmp_path):
        paths = []
        for i, outdir in enumerate(("a", "a/", "./a")):
            paths.append(tmp_path / f"{i}.cfg")
            paths[-1].write_text(MINIMAL.format(outdir=outdir))
        with pytest.raises(ConfigError, match="duplicate output directory 'a/'"):
            sweep(paths, tmp_path / "root")
        assert not (tmp_path / "root").exists()  # refused before any run starts

    def test_an_alias_through_a_parent_part_is_refused_before_any_run(self, tmp_path):
        paths = []
        for i, outdir in enumerate(("a", "b/../a")):
            paths.append(tmp_path / f"{i}.cfg")
            paths[-1].write_text(MINIMAL.format(outdir=outdir))
        with pytest.raises(ConfigError, match=r"must have no '\.\.' part, got 'b/\.\./a'"):
            sweep(paths, tmp_path / "sw")
        assert not (tmp_path / "sw").exists()

    def test_gamma_sweep_records_each_gamma(self, tmp_path):
        paths = []
        for i, gamma in enumerate((1.1, 1.5, 2.0, 2.5)):
            text = MINIMAL.format(outdir=f"g{i}").replace("gamma = 2.0", f"gamma = {gamma}")
            p = tmp_path / f"g{i}.cfg"
            p.write_text(text)
            paths.append(p)
        results = sweep(paths, tmp_path)
        assert len(results) == 4
        assert [r.manifest.gamma for r in results] == [1.1, 1.5, 2.0, 2.5]
        assert all(r.error == "" for r in results)

    def test_child_failure_isolated(self, tmp_path):
        good = tmp_path / "good.cfg"
        good.write_text(MINIMAL.format(outdir="ok"))
        # a valid config whose run cannot start: a file stands where its output directory goes
        bad = tmp_path / "bad.cfg"
        bad.write_text(MINIMAL.format(outdir="boom"))
        (tmp_path / "boom").write_text("")
        results = sweep([good, bad], tmp_path)
        assert results[0].error == "" and results[0].manifest is not None
        assert results[1].manifest is None and results[1].error.startswith("FileExistsError: ")

    def test_an_unbuildable_preset_is_refused_before_any_run(self, tmp_path):
        good, bad = tmp_path / "good.cfg", tmp_path / "bad.cfg"
        good.write_text(MINIMAL.format(outdir="ok"))
        bad.write_text(MINIMAL.format(outdir="boom").replace("name = constant", "name = gaussian-bump\namplitude = -1.5"))
        with pytest.raises(ConfigError, match=f"^{bad}: bump amplitude would destroy density positivity$"):
            sweep([good, bad], tmp_path / "root")
        assert not (tmp_path / "root").exists()


class TestReport:
    def test_single_run_summary(self, tmp_path, monkeypatch):
        import nsklab.degiorgi as degiorgi

        certificates = []
        certify = degiorgi.lower_bound_certificate

        def recording_certify(*args, **kwargs):
            certificates.append(certify(*args, **kwargs))
            return certificates[-1]

        monkeypatch.setattr(degiorgi, "lower_bound_certificate", recording_certify)
        cfg = parse_config(FULL.format(outdir="runR"))
        manifest = run_experiment(cfg, tmp_path)
        manifest_path = Path(manifest.directory) / "manifest.json"
        out = report([manifest_path], tmp_path / "summary.csv")
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert row["preset"] == "gaussian-bump"
        assert float(row["audit_pass_rate"]) == 1.0
        assert row["growth.p2"] != ""
        assert float(row["c_v"]) >= 0.0
        assert len(certificates) == 1 and float(row["certified_bound"]) == certificates[0].bound
        # the summary comes from the manifest alone
        for name in ("series.csv", "certificate.csv", "certificate.txt"):
            (Path(manifest.directory) / name).unlink()
        bare = report([manifest_path], tmp_path / "bare.csv")
        assert bare.read_text() == out.read_text()

    def test_manifest_with_the_retired_q_admissible_key_loads(self, tmp_path):
        cfg = parse_config(MINIMAL.format(outdir="old"))
        manifest_path = Path(run_experiment(cfg, tmp_path).directory) / "manifest.json"
        current = report([manifest_path], tmp_path / "current.csv").read_text()
        data = json.loads(manifest_path.read_text())
        data["q_admissible"] = 2.0  # written by every run before the key was retired
        manifest_path.write_text(json.dumps(data))
        assert RunManifest.from_json(manifest_path.read_text()).gamma == 2.0
        assert report([manifest_path], tmp_path / "old.csv").read_text() == current
        assert "q_admissible" not in current

    @pytest.mark.parametrize(
        "key,value",
        [
            ("extra", 5),
            ("audit_total", "x"),
            ("files", 3),
            ("gamma", "two"),
            ("audit_total", True),
            ("aborted", 1),
            ("abort_time", "soon"),
        ],
    )
    def test_mistyped_manifest_is_report_error(self, tmp_path, capsys, key, value):
        cfg = parse_config(MINIMAL.format(outdir="typed"))
        manifest_path = Path(run_experiment(cfg, tmp_path).directory) / "manifest.json"
        data = json.loads(manifest_path.read_text())
        data[key] = value
        manifest_path.write_text(json.dumps(data))
        assert cli_main(["report", str(manifest_path), "-o", str(tmp_path / "s.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"report error: {manifest_path}: not a run manifest: {key!r} must be ")
        assert "Traceback" not in err and not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("value", [[1, 2], "1,2", True, None], ids=["list", "comma", "bool", "null"])
    def test_extra_value_that_is_no_number_is_report_error(self, tmp_path, capsys, value):
        cfg = parse_config(MINIMAL.format(outdir="extra"))
        manifest_path = Path(run_experiment(cfg, tmp_path).directory) / "manifest.json"
        data = json.loads(manifest_path.read_text())
        data["extra"]["c_v"] = value  # a list or a comma would split the summary's c_v cell
        manifest_path.write_text(json.dumps(data))
        assert cli_main(["report", str(manifest_path), "-o", str(tmp_path / "s.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"report error: {manifest_path}: not a run manifest: 'extra' value 'c_v' must be ")
        assert "Traceback" not in err and not (tmp_path / "s.csv").exists()

    def test_valid_manifest_gives_one_cell_per_column(self, tmp_path):
        cfg = parse_config(MINIMAL.format(outdir="valid"))
        manifest_path = Path(run_experiment(cfg, tmp_path).directory) / "manifest.json"
        data = json.loads(manifest_path.read_text())
        data["extra"]["growth.p2"] = 3  # an int is a number too
        manifest_path.write_text(json.dumps(data))
        assert cli_main(["report", str(manifest_path), "-o", str(tmp_path / "s.csv")]) == 0
        header, row = [line.split(",") for line in (tmp_path / "s.csv").read_text().splitlines()]
        assert len(header) == len(row) == 16
        assert float(row[header.index("c_v")]) == data["extra"]["c_v"]
        assert row[header.index("growth.p2")] == "3"

    def test_manifest_takes_an_int_for_a_float(self, tmp_path):
        cfg = parse_config(MINIMAL.format(outdir="loose"))
        manifest_path = Path(run_experiment(cfg, tmp_path).directory) / "manifest.json"
        data = json.loads(manifest_path.read_text())
        data["gamma"], data["wall_time_s"] = 2, 1
        assert RunManifest.from_json(json.dumps(data)).gamma == 2

    def test_c_v_is_the_runs_log_law_constant(self, tmp_path):
        from nsklab.estimates import log_law_constant
        from nsklab.probes import resolve_probes
        from nsklab.solver import make_preset, run, to_effective

        # at this amplitude a floor that differs from LOG_FLOOR in the last
        # digits moves c_v by one unit in the last place
        cfg = parse_config(FULL.format(outdir="runC").replace("amplitude = 0.4", "amplitude = 0.3"))
        manifest = run_experiment(cfg, tmp_path)
        out = report([Path(manifest.directory) / "manifest.json"], tmp_path / "summary.csv")
        header, line = out.read_text().strip().splitlines()
        row = dict(zip(header.split(","), line.split(",")))
        state = make_preset(cfg.preset_name, cfg.make_grid(), cfg.preset_params, seed=cfg.seed)
        record = run(
            to_effective(state),
            cfg.solver,
            probes=resolve_probes(cfg.probe_names, cfg.solver.gamma),
            state_stride=cfg.state_stride,
        )
        assert float(row["c_v"]) == log_law_constant(record)


class TestCli:
    def test_run_verb_exit_zero(self, tmp_path, capsys):
        code = _run_config(tmp_path, MINIMAL.format(outdir="cli_run"), tmp_path)
        assert code == 0
        assert "run complete" in capsys.readouterr().out

    def test_run_verb_bad_config_exit_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("[grid]\ndim = 7\n")
        assert cli_main(["run", str(cfg_path)]) == 2

    def test_run_verb_config_not_utf8_exit_two(self, tmp_path, capsys):
        data = MINIMAL.format(outdir="latin").encode("utf-8")
        cfg_path = tmp_path / "latin.cfg"
        cfg_path.write_bytes(data + "# Jüngel\n".encode("latin-1"))
        assert cli_main(["run", str(cfg_path), "--output-root", str(tmp_path)]) == 2
        offset = len(data) + len("# J")
        assert capsys.readouterr().err == f"config error: {cfg_path}: not UTF-8 at byte {offset}\n"
        assert not (tmp_path / "latin").exists()

    def test_run_verb_solver_abort_exit_three(self, tmp_path, capsys):
        # violent unguarded transport drains cells within one oversized step
        text = (
            MINIMAL.format(outdir="abort_run")
            .replace("n = 32", "n = 128")
            .replace("name = constant", "name = random-large\nvelocity_amplitude = 30.0")
            .replace("dt = 1e-3", "dt = 0.05\ncfl_safety = 1e9")
            .replace("t_end = 0.005", "t_end = 1.0\nformulation = effective")
        )
        code = _run_config(tmp_path, text, tmp_path)
        out = capsys.readouterr().out
        assert code == 3
        assert "solver aborted" in out
        manifest = json.loads((tmp_path / "abort_run" / "manifest.json").read_text())
        assert manifest["aborted"] and manifest["abort_time"] == pytest.approx(0.05)

    def test_run_verb_step_guard_abort_exit_three(self, tmp_path, capsys):
        # the guard refuses the first step; the run still ends with its outputs and a manifest
        demo = Path(__file__).resolve().parents[1] / "configs" / "demo.cfg"
        text = demo.read_text().replace("dt = 1e-3", "dt = 1e-2").replace("out/demo", "guard_run")
        code = _run_config(tmp_path, text, tmp_path)
        out = capsys.readouterr().out
        assert code == 3
        assert "solver aborted at t=0.0: dt=0.01 exceeds the stability guard" in out
        outdir = tmp_path / "guard_run"
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["aborted"] and manifest["exit_code"] == 3
        assert manifest["abort_time"] == 0.0
        assert manifest["abort_reason"].startswith("dt=0.01 exceeds the stability guard")
        written = sorted(p.name for p in outdir.iterdir())
        assert sorted(manifest["files"] + ["manifest.json"]) == written
        assert len((outdir / "series.csv").read_text().splitlines()) == 2  # header and t = 0
        assert read_snapshot(outdir / "final.rho.nskf")[1] == 0.0

    def test_missing_subcommand_exit_two(self):
        assert cli_main([]) == 2

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NSKLAB_OUTPUT_ROOT", str(tmp_path))
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(MINIMAL.format(outdir="env_run"))
        assert cli_main(["run", str(cfg_path)]) == 0
        assert (tmp_path / "env_run" / "series.csv").exists()

    @pytest.mark.parametrize(
        "name",
        [
            "sobolev.rho.Hx",
            "sobolev.rho.H1.5",
            "sobolev.v.H-1",
            "norm.weighted.p-1",
            "norm.weighted.pinf",
            "psi.pinf",
            "psi.p-3",
            "psi.pnan",
        ],
    )
    def test_bad_probe_parameter_is_config_error(self, tmp_path, capsys, name):
        root = tmp_path / "root"
        assert _run_config(tmp_path, MINIMAL.format(outdir="bad_probe") + f"\n[probes]\nnames = {name}\n", root) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert not root.exists()

    @pytest.mark.parametrize(
        "name,why",
        [("besov.rho.1.0.2", "p must lie in [1, inf], got 0.0"), ("besov.rho.nan.2.2", "regularity exponent must be finite")],
    )
    def test_bad_besov_index_is_config_error_naming_the_probe(self, tmp_path, capsys, name, why):
        root = tmp_path / "root"
        assert _run_config(tmp_path, MINIMAL.format(outdir="bad_besov") + f"\n[probes]\nnames = {name}\n", root) == 2
        assert capsys.readouterr().err == f"config error: probe {name!r}: {why}\n"
        assert not root.exists()

    @staticmethod
    def _demo_with_probe(tmp_path, name):
        """configs/demo.cfg over two steps, recording ``name`` for sobolev.rho.H2."""
        demo = Path(__file__).resolve().parents[1] / "configs" / "demo.cfg"
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(demo.read_text().replace("sobolev.rho.H2", name).replace("t_end = 0.5", "t_end = 0.002"))
        return cfg_path

    @pytest.mark.parametrize(
        "name",
        [
            "sobolev.rho.H94",
            "sobolev.v.H94",
            f"sobolev.rho.H{10**400}",
            "besov.rho.205.2.2",
            "besov.rho.-205.2.2",
            "besov.rho.200.2.2",
        ],
        ids=[
            "sobolev.rho.H94",
            "sobolev.v.H94",
            "sobolev.rho.H1e400",
            "besov.rho.205.2.2",
            "besov.rho.-205.2.2",
            "besov.rho.200.2.2",
        ],
    )
    def test_probe_weight_beyond_the_float_range_is_config_error(self, tmp_path, capsys, name):
        # on demo's 128^2 grid these weights pass e^700 at the top mode: the
        # run used to end in an OverflowError or record inf at every step;
        # besov.rho.200.2.2's 2^(j_max s) = e^693 passes it once its l^2 sum squares it
        root = tmp_path / "root"
        assert cli_main(["run", str(self._demo_with_probe(tmp_path, name)), "--output-root", str(root)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: probe {name!r} weighs the top mode of the grid by e^")
        assert "outside e^(+-700)" in err and "Traceback" not in err
        assert not root.exists()

    @pytest.mark.parametrize("a", [-3.0, -1e-9, 0.0, 1e-9, 0.5, 7.6])
    def test_sobolev_weight_is_the_power_sum(self, a):
        from nsklab.probes import _log_power_sum

        for k in (0, 1, 5, 40):
            direct = math.log(sum(math.exp(m * a) for m in range(k + 1)))
            assert _log_power_sum(a, k) == pytest.approx(direct, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("name", ["sobolev.rho.H3", "besov.rho.2.2.2", "besov.rho.200.2.1", "besov.rho.200.2.inf"])
    def test_probe_weight_inside_the_float_range_runs(self, tmp_path, name):
        root = tmp_path / "root"
        assert cli_main(["run", str(self._demo_with_probe(tmp_path, name)), "--output-root", str(root)]) == 0
        header, *rows = (root / "out" / "demo" / "series.csv").read_text().splitlines()
        column = header.split(",").index(name)
        assert len(rows) == 3 and all(0.0 < float(row.split(",")[column]) < math.inf for row in rows)

    @pytest.mark.parametrize(
        "content",
        [b"NSKF1 2 x 1.0 1.0 0.0\n" + b"\x00" * 64, b"\xff" + b"\x00" * 64],
        ids=["non-integer-n", "non-ascii"],
    )
    def test_bad_snapshot_header_is_audit_error(self, tmp_path, capsys, content):
        path = tmp_path / "bad.nskf"
        path.write_bytes(content)
        assert cli_main(["audit", str(path), "--gamma", "2.0"]) == 2
        assert capsys.readouterr().err.startswith(f"audit error: not a NSKF1 snapshot: {path}")

    def test_audit_verb(self, tmp_path, capsys):
        assert _run_config(tmp_path, MINIMAL.format(outdir="audit_run"), tmp_path) == 0
        capsys.readouterr()  # flush the run output
        snap = tmp_path / "audit_run" / "final.rho.nskf"
        code = cli_main(["audit", str(snap), "--gamma", "2.0"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("inequality_id,")

    @pytest.mark.parametrize("gamma", [2.0, 1.0])
    def test_audit_verb_prints_the_field_audits_of_the_state(self, tmp_path, capsys, gamma):
        from nsklab.audits import audit_csv_lines
        from nsklab.estimates import jungel_bounds, pi_equivalence_audit, region_split, second_order_terms
        from nsklab.fields import VectorField
        from nsklab.solver import FlowState, Workspace

        # a bump up to 5.5 rho_bar, so that both density ranges hold points
        g = make_grid(2, 32, 4 * np.pi, 1.0)
        x, y = g.meshgrid()
        path = tmp_path / "bump.rho.nskf"
        write_snapshot(ScalarField(g, 1.0 + 4.5 * np.exp(-((x - 2 * np.pi) ** 2 + (y - 2 * np.pi) ** 2))), 0.25, path)
        code = cli_main(["audit", str(path), "--gamma", str(gamma)])
        rho, t = read_snapshot(path)
        state = FlowState(t, rho, VectorField(g, np.zeros((2,) + g.shape)))
        expected = jungel_bounds(second_order_terms(Workspace(state), identity=False), 2)
        if gamma > 1.0:
            expected += [*pi_equivalence_audit(rho, 1.0, gamma), region_split(state, gamma)]
        assert capsys.readouterr().out.splitlines() == audit_csv_lines(expected)
        assert len(expected) == (5 if gamma > 1.0 else 2)
        assert code == (0 if all(r.passed for r in expected) else 1)

    def test_audit_of_a_non_positive_snapshot_is_audit_error(self, tmp_path, capsys):
        # a velocity component is no density: the audits' positivity check refuses it
        g = make_grid(2, 16, 2 * np.pi, 1.0)
        path = tmp_path / "final.vel0.nskf"
        write_snapshot(ScalarField(g, np.sin(g.meshgrid()[0])), 0.5, path)
        assert cli_main(["audit", str(path), "--gamma", "2.0"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"audit error: {path}: ")
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("gamma", ["nan", "inf", "-3", "0.5"])
    def test_audit_rejects_a_gamma_the_solver_rejects(self, tmp_path, capsys, gamma):
        g = make_grid(2, 16, 2 * np.pi, 1.0)
        path = tmp_path / "rho.nskf"
        write_snapshot(ScalarField(g, np.ones(g.shape)), 0.0, path)
        assert cli_main(["audit", str(path), f"--gamma={gamma}"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("audit error: adiabatic exponent must be finite and >= 1")
        assert captured.out == ""
        with pytest.raises(FieldError, match="adiabatic exponent"):
            SolverConfig(gamma=float(gamma), dt=1e-3, t_end=1e-3)

    def test_report_verb(self, tmp_path, capsys):
        assert _run_config(tmp_path, MINIMAL.format(outdir="rep_run"), tmp_path) == 0
        out_csv = tmp_path / "s.csv"
        code = cli_main(
            ["report", str(tmp_path / "rep_run" / "manifest.json"), "-o", str(out_csv)]
        )
        assert code == 0
        assert out_csv.exists()

    @pytest.mark.parametrize(
        "content,match",
        [
            (None, "No such file"),
            ("{not json", "Expecting property name"),
            ('{"directory": "x", "colour": "blue"}', "not a run manifest"),
            ("[1, 2]", "not a run manifest"),
        ],
    )
    def test_report_verb_bad_manifest_exit_two(self, tmp_path, capsys, content, match):
        path = tmp_path / "manifest.json"
        if content is not None:
            path.write_text(content)
        code = cli_main(["report", str(path), "-o", str(tmp_path / "s.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("report error: ") and match in err
        assert str(path) in err
        assert not (tmp_path / "s.csv").exists()

    def test_selftest_verb(self, capsys):
        assert cli_main(["selftest"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 7 and all(line.startswith("[ok] ") for line in lines)
        assert {line for line, _ in SELFTEST_CHECKS} == set(range(7))  # each line can fail below

    def test_python_m_nsklab_reaches_the_cli(self):
        done = subprocess.run(
            [sys.executable, "-m", "nsklab", "selftest"],
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("[ok] ")

    @pytest.mark.parametrize("line,check", SELFTEST_CHECKS)
    def test_selftest_verb_reports_a_failed_check(self, capsys, monkeypatch, line, check):
        # a NaN fails every comparison a check makes, whichever way it points
        monkeypatch.setattr(f"nsklab.selftest.{check}", lambda *args: math.nan)
        assert cli_main(["selftest"]) == 1
        expected = [f"[{'FAIL' if i == line else 'ok'}] {label}" for i, (label, _) in enumerate(CHECKS)]
        assert capsys.readouterr().out.splitlines() == expected

    def test_sweep_verb_directory(self, tmp_path):
        for i in range(2):
            (tmp_path / f"s{i}.cfg").write_text(MINIMAL.format(outdir=f"sw{i}"))
        code = cli_main(["sweep", str(tmp_path), "--output-root", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "sw0" / "manifest.json").exists()
        assert (tmp_path / "sw1" / "manifest.json").exists()

    def test_sweep_verb_names_the_config_in_error(self, tmp_path, capsys):
        (tmp_path / "s0.cfg").write_text(MINIMAL.format(outdir="sw0").replace("dim = 2", "dim = 7"))
        (tmp_path / "s1.cfg").write_text(MINIMAL.format(outdir="sw1"))
        code = cli_main(["sweep", str(tmp_path), "--output-root", str(tmp_path / "root")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"sweep error: {tmp_path / 's0.cfg'}: invalid [grid]: unsupported dimension 7 (2 and 3 only)\n"
        assert not (tmp_path / "root").exists()  # refused before any run starts

    def test_sweep_verb_names_the_bad_besov_probe_and_its_config(self, tmp_path, capsys):
        (tmp_path / "s0.cfg").write_text(MINIMAL.format(outdir="sw0"))
        (tmp_path / "s1.cfg").write_text(MINIMAL.format(outdir="sw1") + "\n[probes]\nnames = besov.rho.nan.2.2\n")
        code = cli_main(["sweep", str(tmp_path), "--output-root", str(tmp_path / "root")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"sweep error: {tmp_path / 's1.cfg'}: probe 'besov.rho.nan.2.2': regularity exponent must be finite\n"
        assert not (tmp_path / "root").exists()

    def test_sweep_verb_names_the_config_that_lists_an_audit_twice(self, tmp_path, capsys):
        (tmp_path / "s0.cfg").write_text(MINIMAL.format(outdir="sw0"))
        text = MINIMAL.format(outdir="sw1") + "\n[audits]\nnames = log-law, log-law\n"
        (tmp_path / "s1.cfg").write_text(text)
        code = cli_main(["sweep", str(tmp_path), "--output-root", str(tmp_path / "root")])
        assert code == 2
        lineno = text.splitlines().index("names = log-law, log-law") + 1
        err = capsys.readouterr().err
        assert err == f"sweep error: {tmp_path / 's1.cfg'}: line {lineno}: 'log-law' listed twice in [audits] names\n"
        assert not (tmp_path / "root").exists()

    def test_sweep_verb_refuses_an_unbuildable_preset_before_any_run(self, tmp_path, capsys):
        (tmp_path / "s0.cfg").write_text(MINIMAL.format(outdir="sw0"))
        bump = "name = gaussian-bump\namplitude = -1.5"
        (tmp_path / "s1.cfg").write_text(MINIMAL.format(outdir="sw1").replace("name = constant", bump))
        code = cli_main(["sweep", str(tmp_path), "--output-root", str(tmp_path / "root")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"sweep error: {tmp_path / 's1.cfg'}: bump amplitude would destroy density positivity\n"
        assert not (tmp_path / "root").exists()  # refused before any run starts

    def test_sweep_verb_config_not_utf8_exit_two(self, tmp_path, capsys):
        (tmp_path / "s0.cfg").write_text(MINIMAL.format(outdir="sw0"), encoding="utf-8")
        (tmp_path / "s1.cfg").write_bytes(bytes(range(128, 228)))
        code = cli_main(["sweep", str(tmp_path), "--output-root", str(tmp_path / "root")])
        assert code == 2
        assert capsys.readouterr().err == f"sweep error: {tmp_path / 's1.cfg'}: not UTF-8 at byte 0\n"
        assert not (tmp_path / "root").exists()  # refused before any run starts


class TestSolverValueExits:
    @pytest.mark.parametrize(
        "line,match",
        [("t_end = 0.0055", "whole number of steps"), ("t_end = 0.005\ncfl_safety = 0.0", "cfl_safety")],
    )
    def test_rejected_value_exit_two(self, tmp_path, capsys, line, match):
        text = MINIMAL.format(outdir="rejected").replace("t_end = 0.005", line)
        with pytest.raises(ConfigError, match=match):
            parse_config(text)
        assert _run_config(tmp_path, text, tmp_path) == 2
        assert match in capsys.readouterr().err
        assert not (tmp_path / "rejected").exists()

    def test_step_count_beyond_the_cap_exit_two(self, tmp_path, capsys, monkeypatch):
        # 5e299 steps: the run never ended, so any step taken fails the test
        import nsklab.solver as solver

        def no_step(*args, **kwargs):
            raise AssertionError("a run of 5e299 steps started stepping")

        monkeypatch.setattr(solver, "step", no_step)
        cfg_path = tmp_path / "c.cfg"
        text = MINIMAL.format(outdir="endless").replace("dt = 1e-3\nt_end = 0.005", "dt = 1e-300\nt_end = 0.5")
        cfg_path.write_text(text)
        t0 = time.perf_counter()
        assert cli_main(["run", str(cfg_path), "--output-root", str(tmp_path)]) == 2
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid [solver]: horizon 0.5 holds more than 10,000,000 steps")
        assert not (tmp_path / "endless").exists()

    def test_grid_out_of_memory_exit_two(self, tmp_path, capsys, monkeypatch):
        from nsklab.fields import Grid

        def out_of_memory(grid):
            raise MemoryError

        # at this n one field takes 8 TiB; the injected error stands in for numpy's
        monkeypatch.setattr(Grid, "_build_symbols", out_of_memory)
        assert _run_config(tmp_path, MINIMAL.format(outdir="huge").replace("n = 32", "n = 1048576"), tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid [grid]: grid n = 1048576 in 2D does not fit in memory")
        assert "8796093022208 bytes" in err and "Traceback" not in err
        assert not (tmp_path / "huge").exists()

    def test_non_finite_step_exit_three(self, tmp_path, capsys, monkeypatch):
        import nsklab.experiment as experiment

        make = experiment.make_preset

        def poisoned_preset(*args, **kwargs):
            state = make(*args, **kwargs)
            comps = state.vel.components.copy()
            comps[0][16, 16] = np.nan
            object.__setattr__(state.vel, "components", comps)
            return state

        monkeypatch.setattr(experiment, "make_preset", poisoned_preset)
        code = _run_config(tmp_path, MINIMAL.format(outdir="nan_run"), tmp_path)
        assert code == 3
        assert "non-finite" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "nan_run" / "manifest.json").read_text())
        assert manifest["aborted"] and manifest["abort_time"] == pytest.approx(1e-3)


class TestInitialStateExits:
    """Preset values the preset cannot take, and an initial state off the
    far-field proxy, are config errors: exit 2 and no output directory."""

    @pytest.mark.parametrize(
        "preset,match",
        [
            ("name = gaussian-bump\namplitude = abc", "'amplitude' must be a finite number, got 'abc'"),
            ("name = gaussian-bump\namplitude = nan", "'amplitude' must be a finite number"),
            ("name = gaussian-bump\namplitude = -1.0", "destroy density positivity"),
            ("name = random-large\namplitude = 1.0", "below the far-field density"),
        ],
        ids=["not-a-number", "nan", "bump-below-vacuum", "random-at-far-field"],
    )
    def test_bad_preset_value_exit_two(self, tmp_path, capsys, preset, match):
        root = tmp_path / "root"
        assert _run_config(tmp_path, MINIMAL.format(outdir="bad_preset").replace("name = constant", preset), root) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and match in err
        assert "Traceback" not in err
        assert not root.exists()

    def test_far_field_violation_exit_two(self, tmp_path, capsys):
        demo = Path(__file__).resolve().parents[1] / "configs" / "demo.cfg"
        text = demo.read_text().replace("width = 1.2566370614359172", "width = 6.0")
        root = tmp_path / "root"
        assert _run_config(tmp_path, text, root) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: initial state violates the far-field proxy")
        assert "boundary deviation 1.787e-01" in err
        assert not root.exists()


def test_aborted_run_final_snapshot_is_the_last_state_reached(tmp_path):
    # positivity is lost at the sixth step, between the stored states at t = 0.08
    # and the horizon: the final snapshot is the state at t = 0.10, not the
    # stored one at t = 0.08
    text = (
        MINIMAL.format(outdir="drain")
        .replace("n = 32", "n = 64")
        .replace("name = constant", "name = random-large\nvelocity_amplitude = 10.0")
        .replace("dt = 1e-3", "dt = 0.02\ncfl_safety = 1e9")
        .replace("t_end = 0.005", "t_end = 0.4")
        + "state_stride = 4\n"
    )
    assert _run_config(tmp_path, text, tmp_path) == 3
    outdir = tmp_path / "drain"
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["abort_time"] == pytest.approx(0.12)
    assert "positivity" in manifest["abort_reason"]
    rho, t = read_snapshot(outdir / "final.rho.nskf")
    assert t == pytest.approx(0.10)
    last = (outdir / "series.csv").read_text().strip().splitlines()
    header, row = last[0].split(","), last[-1].split(",")
    assert float(row[0]) == t
    assert float(row[header.index("density.min")]) == float(np.min(rho.values))
