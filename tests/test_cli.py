import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import unruh_lab
from unruh_lab import cli, output
from unruh_lab.verify import CheckResult


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPoint:
    def test_inertial_bell_point(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "point", "--family", "quantum-single", "--region", "bob-i",
            "--gamma", "0", "--qr", "1", "--alpha", "0.7853981634",
        )
        assert code == 0
        assert "mutual_info=2.000000000000" in out
        assert "cond_entropy=-1.000000000000" in out

    def test_far_wedge_uncorrelated(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "point", "--family", "quantum-single", "--region", "bob-ii",
            "--gamma", "0", "--qr", "1", "--alpha", "0.7853981634",
        )
        assert code == 0
        assert "mutual_info=0.000000000000" in out

    def test_werner_fidelity_domain_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "point", "--family", "werner", "--region", "bob-i",
            "--gamma", "0", "--qr", "1", "--f", "1.5",
        )
        assert code == 3
        assert "f" in err

    def test_werner_alpha_rounded_to_ten_digits(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "point", "--family", "werner", "--region", "bob-i",
            "--gamma", "0", "--qr", "1", "--f", "1", "--alpha", "0.7853981634",
        )
        assert code == 0
        assert "mutual_info=2.000000000000" in out

    @pytest.mark.parametrize("alpha", ["1e300", "-0.1"])
    def test_out_of_range_alpha_names_parameter(self, capsys, alpha):
        code, out, err = run_cli(
            capsys,
            "point", "--family", "quantum-single", "--region", "bob-i",
            "--gamma", "0", "--qr", "1", "--alpha", alpha,
        )
        assert code == 3
        assert out == ""
        assert "alpha: must be within [0, pi]" in err

    def test_gamma_degrees(self, capsys):
        _, radians_out, _ = run_cli(
            capsys,
            "point", "--family", "quantum-single", "--region", "bob-i",
            "--gamma", str(math.pi / 4), "--qr", "1",
        )
        _, degrees_out, _ = run_cli(
            capsys,
            "point", "--family", "quantum-single", "--region", "bob-i",
            "--gamma-degrees", "45", "--qr", "1",
        )
        assert degrees_out == radians_out

    @pytest.mark.parametrize("degrees", ["50", "-1", "nan"])
    def test_out_of_range_gamma_degrees_names_parameter(self, capsys, degrees):
        code, out, err = run_cli(
            capsys,
            "point", "--family", "quantum-dual", "--region", "bob-i",
            "--gamma-degrees", degrees, "--qr", "1",
        )
        assert code == 3
        assert out == ""
        assert f"gamma-degrees: must be within [0, 45], got {float(degrees)}" in err

    def test_acceleration_triple(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "point", "--family", "quantum-single", "--region", "bob-i",
            "--acceleration", "1", "1e12", "1", "--qr", "1",
        )
        assert code == 0
        assert "gamma=0.785398163" in out

    def test_unknown_family_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(
                ["point", "--family", "bosonic", "--region", "bob-i",
                 "--gamma", "0", "--qr", "1"]
            )
        assert exc.value.code == 2

    def test_gamma_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(
                ["point", "--family", "quantum-single", "--region", "bob-i", "--qr", "1"]
            )
        assert exc.value.code == 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "out of range"])
    @pytest.mark.parametrize("param, option, out_of_range", [
        ("gamma", "--gamma", "1"),
        ("gamma-degrees", "--gamma-degrees", "46"),
        ("q_r", "--qr", "1.5"),
        ("alpha", "--alpha", "4"),
        ("f", "--f", "1.5"),
        ("omega", 0, "0"),  # a position in the --acceleration triple
        ("acceleration", 1, "0"),
        ("light_speed", 2, "0"),
    ])
    @pytest.mark.parametrize("family", ["werner", "quantum-single"])
    def test_bad_numbers_name_their_parameter(
        self, capsys, family, bad, param, option, out_of_range
    ):
        value = out_of_range if bad == "out of range" else bad
        options = {"--gamma": ["0.3"], "--qr": ["0.8"]}
        if family == "werner":
            options["--f"] = ["0.5"]
        if isinstance(option, int):
            del options["--gamma"]
            options["--acceleration"] = ["1", "2", "1"]
            options["--acceleration"][option] = value
        else:
            if option.startswith("--gamma"):
                del options["--gamma"]
            options[option] = [value]
        argv = [word for name, values in options.items() for word in (name, *values)]
        code, out, err = run_cli(
            capsys, "point", "--family", family, "--region", "bob-i", *argv
        )
        assert code == 3
        assert out == ""
        assert err.startswith(f"error: {param}:")

    def test_bad_precision_fails_before_the_evaluation(self, capsys, monkeypatch):
        def no_evaluation(*args, **kwargs):
            raise AssertionError("evaluate_point called")

        monkeypatch.setattr(cli, "evaluate_point", no_evaluation)
        code, _, err = run_cli(
            capsys,
            "point", "--family", "quantum-single", "--region", "bob-i",
            "--gamma", "0", "--qr", "1", "--precision", "40",
        )
        assert code == 3
        assert "precision" in err


class TestFigure:
    def test_fig4_file_layout(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "figure", "fig4", "--out-dir", str(tmp_path)
        )
        assert code == 0
        files = sorted(p.name for p in tmp_path.iterdir())
        assert len(files) == 16
        assert "fig4_werner_bob-i_qr0.25_f0.33.csv" in files
        sample = (tmp_path / files[0]).read_text().splitlines()
        assert sample[0].startswith("family,region,gamma")
        assert len(sample) == 102  # header plus one row per gamma point

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        run_cli(capsys, "figure", "fig4", "--out-dir", str(tmp_path / "a"))
        run_cli(capsys, "figure", "fig4", "--out-dir", str(tmp_path / "b"))
        for path in sorted((tmp_path / "a").iterdir()):
            twin = tmp_path / "b" / path.name
            assert path.read_bytes() == twin.read_bytes()

    def test_plot_format(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "figure", "fig4", "--out-dir", str(tmp_path),
            "--format", "plot", "--precision", "8",
        )
        assert code == 0
        files = list(tmp_path.glob("*.dat"))
        assert len(files) == 16
        first_line = files[0].read_text().splitlines()[0]
        gamma, value = first_line.split(" ")
        assert len(gamma.split(".")[1]) == 8

    def test_several_presets_print_every_path_then_one_total(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        singles = []
        for preset in ("fig4", "fig2"):
            code, out, _ = run_cli(capsys, "figure", preset, "--out-dir", str(out_dir))
            *paths, total = out.splitlines()
            assert code == 0 and total == f"wrote {len(paths)} files to {out_dir}"
            singles += paths
        code, out, _ = run_cli(capsys, "figure", "fig4", "fig2", "--out-dir", str(out_dir))
        assert code == 0
        assert out.splitlines() == singles + [f"wrote 32 files to {out_dir}"]

    def test_repeated_preset_is_a_domain_error(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "figure", "fig1", "fig1", "--out-dir", str(out_dir))
        assert (code, out, err) == (3, "", "error: figure: repeats 'fig1'\n")
        assert not out_dir.exists()

    def test_empty_out_dir_is_a_domain_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "figure", "fig1", "--out-dir", "")
        assert (code, out, err) == (3, "", "error: out-dir: must not be empty\n")
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_out_dir_is_io_error(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        code, _, err = run_cli(
            capsys, "figure", "fig4", "--out-dir", str(blocker)
        )
        assert code == 4
        assert "i/o error" in err

    def test_unwritable_out_dir_fails_before_the_sweep(self, capsys, tmp_path, monkeypatch):
        def no_sweep(spec):
            raise AssertionError("run_sweep called")

        monkeypatch.setattr(output, "run_sweep", no_sweep)
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        code, _, err = run_cli(capsys, "figure", "fig4", "--out-dir", str(blocker))
        assert code == 4
        assert "i/o error" in err


class TestVerify:
    def test_exit_zero_when_all_pass(self, capsys, monkeypatch):
        results = [
            CheckResult("1-something", True, "fine"),
            CheckResult("note", True, "informational", informational=True),
        ]
        monkeypatch.setattr(cli, "run_checks", lambda **kwargs: results)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert "PASS 1-something: fine" in out
        assert "NOTE note: informational" in out
        assert "1 of 1 checks passed" in out

    def test_exit_one_on_failure(self, capsys, monkeypatch):
        results = [CheckResult("1-something", False, "broken")]
        monkeypatch.setattr(cli, "run_checks", lambda **kwargs: results)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert "FAIL 1-something: broken" in out

    def test_quick_flag_forwarded(self, capsys, monkeypatch):
        seen = {}

        def fake_run_checks(**kwargs):
            seen.update(kwargs)
            return [CheckResult("x", True, "ok")]

        monkeypatch.setattr(cli, "run_checks", fake_run_checks)
        run_cli(capsys, "verify", "--quick")
        assert seen["include_determinism"] is False


class TestModuleEntry:
    def test_python_dash_m_runs_the_cli(self, tmp_path):
        # a checkout without an install: only the package's parent directory on the path
        src = str(Path(unruh_lab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-m", "unruh_lab", "point", "--family", "quantum-single",
             "--region", "bob-i", "--gamma", "0", "--qr", "1"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "mutual_info=2.000000000000" in done.stdout
