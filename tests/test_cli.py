import json
import subprocess
import sys

import numpy as np
import pytest

from asymscat.kernel_io import load_kernel, save_kernel
from asymscat.kernels import SampledKernel
from asymscat.symmetry import symmetrize
from conftest import cli_env, random_poly_surface


def run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "asymscat", *args],
        capture_output=True, cwd=cwd, text=False, env=cli_env(),
    )


@pytest.fixture
def zero_kernel_file(tmp_path):
    g = np.linspace(-1, 1, 101)
    path = tmp_path / "zero.json"
    save_kernel(SampledKernel(g, np.zeros(101, dtype=complex), is_local=True), path)
    return path


@pytest.fixture
def hermitian_kernel_file(tmp_path, rng):
    ker = symmetrize(random_poly_surface(rng, n=61, scale=0.3), "II")
    path = tmp_path / "herm.json"
    save_kernel(ker, path)
    return path


class TestSolve:
    def test_zero_kernel_free_propagation(self, tmp_path, zero_kernel_file):
        res = run_cli(["solve", "--kernel", str(zero_kernel_file), "--k", "1.0"], tmp_path)
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["abs2"]["Tl"] == pytest.approx(1.0, abs=1e-14)
        assert doc["abs2"]["Rl"] == pytest.approx(0.0, abs=1e-14)

    def test_adjoint_flag_reports_unitarity(self, tmp_path, hermitian_kernel_file):
        res = run_cli(["solve", "--kernel", str(hermitian_kernel_file),
                       "--k", "1.2", "--adjoint"], tmp_path)
        doc = json.loads(res.stdout)
        assert max(doc["unitarity_residuals"]) < 1e-10
        assert "hatted" in doc

    def test_malformed_json_exits_1_with_diagnostic(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"type": "sampled", "d": 1.0, "n": 5, "is_local": false}',
                       encoding="utf-8")
        res = run_cli(["solve", "--kernel", str(bad), "--k", "1.0"], tmp_path)
        assert res.returncode == 1
        assert b"values" in res.stderr

    def test_nonpositive_momentum_is_input_error(self, tmp_path, zero_kernel_file):
        res = run_cli(["solve", "--kernel", str(zero_kernel_file), "--k", "-1.0"], tmp_path)
        assert res.returncode == 1


    @pytest.mark.parametrize("k", ["nan", "inf"])
    def test_non_finite_momentum_is_input_error(self, tmp_path, zero_kernel_file, k):
        res = run_cli(["solve", "--kernel", str(zero_kernel_file), "--k", k], tmp_path)
        assert res.returncode == 1
        assert b"finite" in res.stderr

    def test_non_finite_kernel_file_is_input_error(self, tmp_path):
        bad = tmp_path / "nan.json"
        bad.write_text('{"type": "inverse_square", "d": 1.0, "alpha": NaN, "epsilon": 0.01}',
                       encoding="utf-8")
        res = run_cli(["solve", "--kernel", str(bad), "--k", "1.0"], tmp_path)
        assert res.returncode == 1
        assert b"'alpha' must be finite" in res.stderr


class TestSweepCommand:
    def test_csv_output(self, tmp_path, zero_kernel_file):
        out = tmp_path / "sweep.csv"
        res = run_cli(["sweep", "--kernel", str(zero_kernel_file), "--kmin", "0.5",
                       "--kmax", "1.5", "--n", "5", "--out", str(out)], tmp_path)
        assert res.returncode == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 6
        assert lines[0].startswith("k,abs2_Tl")
        assert (tmp_path / "sweep.csv.manifest.json").exists()


class TestClassify:
    def test_hermitian_report(self, tmp_path, hermitian_kernel_file):
        res = run_cli(["classify", "--kernel", str(hermitian_kernel_file)], tmp_path)
        doc = json.loads(res.stdout)
        assert doc["verdicts"]["II"] is True
        assert not any(doc["allowed_devices"].values())
        assert doc["forbidden_by"]["TR/A"] == ["II"]


class TestDesignCommand:
    def test_design_writes_kernel_and_verification(self, tmp_path):
        out = tmp_path / "tra.json"
        res = run_cli(["design", "--device", "tra", "--out", str(out), "--seed", "0",
                       "--verify-points", "5"], tmp_path)
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["residual"] < 1e-6
        kernel = load_kernel(out)
        assert kernel.coeffs.shape == (6, 2)
        assert (tmp_path / "tra.verify.csv").exists()
        assert (tmp_path / "tra.json.manifest.json").exists()

    def test_forbidden_design_is_input_error(self, tmp_path):
        res = run_cli(["design", "--device", "tra", "--constraint", "viii",
                       "--out", str(tmp_path / "x.json")], tmp_path)
        assert res.returncode == 1
        assert b"VIII" in res.stderr


class TestBornDesignCommand:
    def test_writes_potential_and_sweep(self, tmp_path):
        out = tmp_path / "reflector.json"
        res = run_cli(["born-design", "--alpha", "0.0975", "--epsilon", "1e-4",
                       "--sweep", "0.8:1.2:3", "--out", str(out)], tmp_path)
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["alpha"] == pytest.approx(0.0975)
        pot = load_kernel(out)
        assert pot.epsilon == 1e-4
        assert (tmp_path / "reflector.sweep.csv").exists()


class TestVerifyCommand:
    def test_hermitian_kernel_passes(self, tmp_path, hermitian_kernel_file):
        res = run_cli(["verify", "--kernel", str(hermitian_kernel_file),
                       "--kmin", "0.8", "--kmax", "1.2", "--n", "3"], tmp_path)
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["failures"] == []

    def test_wrong_claim_exits_3(self, tmp_path, hermitian_kernel_file, rng):
        ker = random_poly_surface(rng, n=61)
        path = hermitian_kernel_file.parent / "plain.json"
        save_kernel(ker, path)
        res = run_cli(["verify", "--kernel", str(path), "--claim", "VIII",
                       "--kmin", "1.0", "--kmax", "1.0", "--n", "1"], tmp_path)
        assert res.returncode == 3
        assert b"VIII" in res.stderr


class TestConfigFile:
    def test_key_value_file_sets_defaults(self, tmp_path, zero_kernel_file):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_grid=201\nquadrature=simpson\n", encoding="utf-8")
        res = run_cli(["solve", "--kernel", str(zero_kernel_file), "--k", "1.0",
                       "--config", str(cfg)], tmp_path)
        assert res.returncode == 0

    def test_bad_config_line_is_input_error(self, tmp_path, zero_kernel_file):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("whatisthis\n", encoding="utf-8")
        res = run_cli(["solve", "--kernel", str(zero_kernel_file), "--k", "1.0",
                       "--config", str(cfg)], tmp_path)
        assert res.returncode == 1

    def test_false_flag_stays_off(self, tmp_path, zero_kernel_file):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("adjoint=false\n", encoding="utf-8")
        res = run_cli(["solve", "--kernel", str(zero_kernel_file), "--k", "1.0",
                       "--config", str(cfg)], tmp_path)
        assert res.returncode == 0, res.stderr
        assert "hatted" not in json.loads(res.stdout)

    def test_true_flag_turns_on(self, tmp_path, zero_kernel_file):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("adjoint=true\n", encoding="utf-8")
        res = run_cli(["solve", "--kernel", str(zero_kernel_file), "--k", "1.0",
                       "--config", str(cfg)], tmp_path)
        assert res.returncode == 0, res.stderr
        assert "hatted" in json.loads(res.stdout)

    def test_non_boolean_flag_value_is_input_error(self, tmp_path, zero_kernel_file):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("adjoint=maybe\n", encoding="utf-8")
        res = run_cli(["solve", "--kernel", str(zero_kernel_file), "--k", "1.0",
                       "--config", str(cfg)], tmp_path)
        assert res.returncode == 1
        assert b"adjoint" in res.stderr

    def test_unknown_key_is_input_error(self, tmp_path, zero_kernel_file):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_grid=201\nbogus_key=3\n", encoding="utf-8")
        res = run_cli(["solve", "--kernel", str(zero_kernel_file), "--k", "1.0",
                       "--config", str(cfg)], tmp_path)
        assert res.returncode == 1
        assert b"bogus_key" in res.stderr


class TestDeterminism:
    def _twice(self, args, wd, outputs):
        # the identical invocation, repeated in place, must reproduce
        # byte-identical stdout and output files
        blobs = []
        for _ in range(2):
            res = run_cli(args, wd)
            assert res.returncode == 0, res.stderr
            blobs.append((res.stdout, [(wd / name).read_bytes() for name in outputs]))
        assert blobs[0][0] == blobs[1][0]
        for f0, f1 in zip(blobs[0][1], blobs[1][1]):
            assert f0 == f1

    def test_design_runs_are_byte_identical(self, tmp_path):
        self._twice(
            ["design", "--device", "trt", "--constraint", "pt", "--seed", "7",
             "--out", "k.json", "--verify-points", "3"],
            tmp_path,
            ["k.json", "k.verify.csv", "k.json.manifest.json"],
        )

    def test_sweep_runs_are_byte_identical(self, tmp_path, zero_kernel_file):
        self._twice(
            ["sweep", "--kernel", str(zero_kernel_file), "--kmin", "0.5",
             "--kmax", "2.0", "--n", "4", "--out", "s.csv"],
            tmp_path,
            ["s.csv", "s.csv.manifest.json"],
        )
