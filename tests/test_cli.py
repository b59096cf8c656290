import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from asymscat import cli
from asymscat.cli import build_parser
from asymscat.errors import VerificationError
from asymscat.kernel_io import load_kernel, save_kernel, sha256_path
from asymscat.kernels import RegularizedInverseSquare, SampledKernel
from asymscat.symmetry import symmetrize
from conftest import cli_env, random_poly_surface


def run_cli(args, cwd):
    """``asymscat ARGS`` run in this process with ``cwd`` as the working
    directory: the exit code, and stdout and stderr as bytes.

    ``cli.main`` is the whole program behind ``python -m asymscat``
    (``sys.exit(main())``), so only start-up is skipped; ``TestProcess``
    runs the real process.  An uncaught exception fails the test, as a
    traceback on stderr would.
    """
    buffers = io.BytesIO(), io.BytesIO()
    # text streams like a process's own, which encode UTF-8 on Linux
    stdout, stderr = (io.TextIOWrapper(b, encoding="utf-8") for b in buffers)
    cwd_before = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(list(args))
    except SystemExit as exc:  # argparse's --help, --version and usage errors
        code = 0 if exc.code is None else exc.code
    finally:
        os.chdir(cwd_before)
    stdout.flush()
    stderr.flush()
    return subprocess.CompletedProcess(args, code, *(b.getvalue() for b in buffers))


def run_process(args, cwd):
    """``python -m asymscat ARGS`` in a new process."""
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
        bad.write_text('{"format": 2, "type": "sampled", "d": 1.0, "n": 5, "is_local": false}',
                       encoding="utf-8")
        res = run_cli(["solve", "--kernel", str(bad), "--k", "1.0"], tmp_path)
        assert res.returncode == 1
        assert res.stderr == b"input error: missing required field 'values'\n"

    @pytest.mark.parametrize("fields, message", [
        ({}, "missing required field 'format'"),
        ({"format": 1}, "field 'format' must be 2, got 1"),
    ], ids=["no-format", "format-1"])
    def test_format_1_file_is_input_error(self, tmp_path, fields, message):
        # format 1 stored [re, im] pairs and had no format field
        doc = {"type": "polynomial", "d": 1.0, "imax": 0, "jmax": 0,
               "coeffs": [[1.0, 0.0]], **fields}
        (tmp_path / "old.json").write_text(json.dumps(doc), encoding="utf-8")
        res = run_cli(["solve", "--kernel", "old.json", "--k", "1.0", "--out", "r.json"],
                      tmp_path)
        assert res.returncode == 1
        assert res.stderr == f"input error: {message}\n".encode()
        assert res.stdout == b""
        assert [p.name for p in tmp_path.iterdir()] == ["old.json"]

    def test_nonpositive_momentum_is_input_error(self, tmp_path, zero_kernel_file):
        res = run_cli(["solve", "--kernel", str(zero_kernel_file), "--k", "-1.0"], tmp_path)
        assert res.returncode == 1


    @pytest.mark.parametrize("k", ["nan", "inf"])
    def test_non_finite_momentum_is_input_error(self, tmp_path, zero_kernel_file, k):
        res = run_cli(["solve", "--kernel", str(zero_kernel_file), "--k", k], tmp_path)
        assert res.returncode == 1
        assert b"finite" in res.stderr


    @pytest.mark.parametrize("command", ["solve", "sweep", "verify"])
    def test_grid_above_the_node_cap_is_input_error(self, tmp_path, zero_kernel_file, command):
        # parsed before, and the first solve would have asked numpy for 8 TB
        extra = {"solve": ["--k", "1.0"], "sweep": ["--kmin", "0.5", "--kmax", "1.0", "--n", "2"],
                 "verify": []}[command]
        res = run_cli([command, "--kernel", str(zero_kernel_file), *extra,
                       "--n-grid", "1000000000001", "--out", "r.out"], tmp_path)
        assert res.returncode == 1
        assert res.stderr == (b"input error: n_grid=1000000000001 needs 1000000000001 nodes, "
                              b"above the 1000000 allowed\n")
        assert [p.name for p in tmp_path.iterdir()] == [zero_kernel_file.name]


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


    def test_tuned_reflector_is_not_reported_fully_symmetric(self, tmp_path):
        # a 401-point resampling used to report all eight symmetries here
        made = run_cli(["born-design", "--alpha", "0.0976", "--epsilon", "1e-5",
                        "--out", "r.json"], tmp_path)
        assert made.returncode == 0, made.stderr
        res = run_cli(["classify", "--kernel", "r.json"], tmp_path)
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        assert [c for c, v in doc["verdicts"].items() if v] == ["I", "IV", "VI", "VII"]
        assert [c for c, v in doc["allowed_devices"].items() if v] == ["TR/T"]
        assert doc["residuals"]["II"] == pytest.approx(9.0 / (4.0 * np.sqrt(3.0)), rel=1e-14)

    @pytest.mark.parametrize("alpha, epsilon, satisfied", [
        (0.0976, -1e-8, ["I", "IV", "VI", "VII"]),
        (0.0976, 10.0, ["I", "IV", "VI", "VII"]),
        (0.0, 1e-4, ["I", "II", "III", "IV", "V", "VI", "VII", "VIII"]),
    ])
    def test_inverse_square_verdicts(self, tmp_path, alpha, epsilon, satisfied):
        save_kernel(RegularizedInverseSquare(alpha, epsilon, d=4.0), tmp_path / "r.json")
        res = run_cli(["classify", "--kernel", "r.json"], tmp_path)
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        assert [c for c, v in doc["verdicts"].items() if v] == satisfied
        assert doc["allowed_devices"]["TR/T"] is (alpha != 0.0)

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-9"])
    def test_tolerance_must_be_positive_and_finite(self, tmp_path, hermitian_kernel_file, tol):
        res = run_cli(["classify", "--kernel", str(hermitian_kernel_file), f"--tol={tol}"],
                      tmp_path)
        assert res.returncode == 1
        assert b"positive and finite" in res.stderr


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

    def test_one_way_r_filter(self, tmp_path):
        res = run_cli(["design", "--device", "ra", "--out", "ra.json"], tmp_path)
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        assert doc["device"] == "R/A"
        assert doc["residual"] < 1e-6
        assert load_kernel(tmp_path / "ra.json").coeffs.shape == (6, 2)
        assert (tmp_path / "ra.verify.csv").exists()
        assert (tmp_path / "ra.json.manifest.json").exists()

    @pytest.mark.parametrize("constraint, symmetry", [("pt", b"VII"), ("viii", b"VIII")])
    def test_forbidden_r_filter_constraints_are_input_errors(self, tmp_path, constraint,
                                                            symmetry):
        res = run_cli(["design", "--device", "ra", "--constraint", constraint,
                       "--out", "ra.json"], tmp_path)
        assert res.returncode == 1
        assert b"device R/A is forbidden by symmetry " + symmetry + b";" in res.stderr
        assert not list(tmp_path.iterdir())

    def test_help_lists_all_six_devices(self, tmp_path):
        res = run_cli(["design", "--help"], tmp_path)
        assert res.returncode == 0
        assert b"{ra,ta,tr,tra,trr,trt}" in res.stdout

    @pytest.mark.parametrize("k0", ["nan", "inf"])
    def test_non_finite_momentum_is_input_error(self, tmp_path, k0):
        # a new process: LAPACK prints its DLASCL errors to file descriptor 2,
        # past the sys.stderr that run_cli captures
        res = run_process(["design", "--device", "tra", "--k0", k0,
                       "--out", str(tmp_path / "x.json")], tmp_path)
        assert res.returncode == 1
        assert b"positive and finite" in res.stderr
        assert b"DLASCL" not in res.stderr

    # 0.5 * k0**2 used to end in an OverflowError traceback (1e200), in
    # scipy's "Initial guess is outside of provided bounds" (1e154), or in
    # 16 overflowing restarts and exit 2 (1e100, 1e30); 1e4 exited 2 after
    # seconds of restarts
    @pytest.mark.parametrize("k0", ["1e200", "1e154", "1e100", "1e30", "1e4"])
    def test_momentum_with_infinite_square_is_input_error(self, tmp_path, k0):
        res = run_cli(["design", "--device", "tra", "--k0", k0, "--out", "x.json"], tmp_path)
        assert res.returncode == 1
        assert b"input error: design momentum k0" in res.stderr
        assert b"Traceback" not in res.stderr
        assert not list(tmp_path.iterdir())

    def test_forbidden_design_is_input_error(self, tmp_path):
        res = run_cli(["design", "--device", "tra", "--constraint", "viii",
                       "--out", str(tmp_path / "x.json")], tmp_path)
        assert res.returncode == 1
        assert b"VIII" in res.stderr

    def test_negative_seed_is_named(self, tmp_path):
        # numpy's "expected non-negative integer" named neither seed nor value
        res = run_cli(["design", "--device", "tra", "--seed", "-1", "--out", "x.json"], tmp_path)
        assert res.returncode == 1
        assert res.stderr == b"input error: seed must be an integer of at least 0, got -1\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_verify_points_below_one_fails_before_designing(self, tmp_path, points):
        # --verify-points 0 used to design and write the kernel, then fail
        res = run_cli(["design", "--device", "tra", "--verify-points", points,
                       "--out", str(tmp_path / "x.json")], tmp_path)
        assert res.returncode == 1
        assert res.stderr == (f"input error: --verify-points must be an integer of at least 1, "
                              f"got {points}\n").encode()
        assert not list(tmp_path.iterdir())


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

    @pytest.mark.parametrize("flags", [["--epsilon", "1e-4", "--window", "inf"],
                                       ["--epsilon", "inf"]], ids=["window", "epsilon"])
    def test_non_finite_mesh_is_input_error(self, tmp_path, flags):
        res = run_cli(["born-design", *flags, "--tune", "--out",
                       str(tmp_path / "r.json")], tmp_path)
        assert res.returncode == 1
        assert b"input error:" in res.stderr and b"finite" in res.stderr

    @pytest.mark.parametrize("flags", [["--kref", "1e9"], ["--window", "1e9"],
                                       ["--sweep", "0.5:1e9:4"]],
                             ids=["kref", "window", "sweep"])
    def test_mesh_above_the_node_cap_is_input_error(self, tmp_path, flags):
        # each asked numpy for about 142 GiB or more, which ended in a traceback
        res = run_cli(["born-design", "--epsilon", "1e-4", "--tune", *flags,
                       "--out", str(tmp_path / "r.json")], tmp_path)
        assert res.returncode == 1
        assert res.stderr.startswith(b"input error: graded mesh for k_max=")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("spec", ["0.5:5", "0.5:5:3:1", "0:5:3", "nan:5:3",
                                      "0.5:inf:3", "0.5:5:0", "0.5:5:x"])
    def test_bad_sweep_spec_fails_before_any_write(self, tmp_path, spec):
        # the spec used to be parsed after tuning and after writing the kernel
        res = run_cli(["born-design", "--epsilon", "1e-4", "--tune", "--sweep", spec,
                       "--out", str(tmp_path / "r.json")], tmp_path)
        assert res.returncode == 1
        assert b"bad grid spec" in res.stderr
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("tune", [[], ["--tune"]], ids=["alpha", "tune"])
    @pytest.mark.parametrize("window", ["nan", "inf", "0", "-1"])
    def test_window_is_named(self, tmp_path, tune, window):
        # it was reported as "kernel d" or "d", after tuning
        res = run_cli(["born-design", "--epsilon", "1e-3", *tune, "--window", window,
                       "--out", "r.json"], tmp_path)
        assert res.returncode == 1
        assert res.stderr == (f"input error: --window must be positive and finite, "
                              f"got {float(window)!r}\n").encode()
        assert not list(tmp_path.iterdir())


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
                       "--kmin", "1.0", "--kmax", "1.0", "--n", "1", "--out", "v.json"],
                      tmp_path)
        assert res.returncode == 3
        assert b"VIII" in res.stderr
        assert json.loads((tmp_path / "v.json").read_text())["failures"]
        manifest = json.loads((tmp_path / "v.json.manifest.json").read_text())
        assert set(manifest["input_digests"]) == {"kernel"}
        assert set(manifest["output_digests"]) == {"report"}

    def test_report_counts_unitarity_checks(self, tmp_path, rng):
        # a rough kernel satisfies no symmetry beyond I, so no relation is
        # checked, but unitarity is, once per momentum
        g = np.linspace(-1, 1, 61)
        v = 0.05 * (rng.normal(size=(61, 61)) + 1j * rng.normal(size=(61, 61)))
        save_kernel(SampledKernel(g, v), tmp_path / "rough.json")
        res = run_cli(["verify", "--kernel", "rough.json", "--n", "3"], tmp_path)
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["verdicts"] == {c: c == "I" for c in doc["verdicts"]}
        assert (doc["n_checks"], doc["n_unitarity_checks"]) == (0, 3)
        assert doc["failures"] == []

    @pytest.mark.parametrize("flag", ["--tol", "--sym-tol"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    def test_tolerance_must_be_positive_and_finite(self, tmp_path, hermitian_kernel_file,
                                                   flag, tol):
        # a NaN tolerance made every `residual > tol` check pass; --sym-tol
        # was named "tol" in the error
        res = run_cli(["verify", "--kernel", str(hermitian_kernel_file), flag, tol,
                       "--kmin", "1.0", "--kmax", "1.0", "--n", "1"], tmp_path)
        assert res.returncode == 1
        assert res.stderr == (f"input error: {flag} must be positive and finite, "
                              f"got {float(tol)!r}\n").encode()

    @pytest.mark.parametrize("command", ["sweep", "verify"])
    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_n_must_be_at_least_one(self, tmp_path, zero_kernel_file, command, n):
        # verify --n 0 used to pass with no check made, and sweep --n 0
        # to write a header-only CSV
        res = run_cli([command, "--kernel", str(zero_kernel_file), "--kmin", "0.5",
                       "--kmax", "1.5", "--n", n, "--out", "o.txt"], tmp_path)
        assert res.returncode == 1
        assert res.stderr == (f"input error: --n must be an integer of at least 1, "
                              f"got {n}\n").encode()
        assert [p.name for p in tmp_path.iterdir()] == [zero_kernel_file.name]

    @pytest.mark.parametrize("command", ["sweep", "verify"])
    @pytest.mark.parametrize("flag", ["--kmin", "--kmax"])
    @pytest.mark.parametrize("k", ["nan", "inf", "0", "-1"])
    def test_momentum_flags_are_named(self, tmp_path, command, flag, k):
        # they were reported as k_grid[0] or incident wavenumber k, after
        # the kernel was loaded; the kernel file here does not exist
        kmin, kmax = (k, "1.5") if flag == "--kmin" else ("0.5", k)
        res = run_cli([command, "--kernel", "missing.json", "--kmin", kmin, "--kmax", kmax,
                       "--n", "3", "--out", "o.txt"], tmp_path)
        assert res.returncode == 1
        assert res.stderr == (f"input error: {flag} must be positive and finite, "
                              f"got {float(k)!r}\n").encode()
        assert not list(tmp_path.iterdir())


class TestExitCodes:
    # argparse exits 2 on usage errors, the code of a numerical failure;
    # the parser reports them as input errors instead
    @pytest.mark.parametrize("args", [
        ["born-design", "--epsilon", "-1e-3", "--out", "r.json"],
        ["classify", "--kernel", "x.json", "--tol", "-1e-9"],
        ["solve", "--kernel", "x.json"],
        ["bogus"],
    ], ids=["negative-epsilon", "negative-tol", "missing-k", "unknown-command"])
    def test_usage_error_exits_1(self, tmp_path, args):
        res = run_cli(args, tmp_path)
        assert res.returncode == 1
        assert b"usage:" in res.stderr and b"error:" in res.stderr

    @pytest.mark.parametrize("args", [["--help"], ["--version"], ["design", "--help"]])
    def test_help_and_version_exit_0(self, tmp_path, args):
        res = run_cli(args, tmp_path)
        assert res.returncode == 0
        assert res.stdout

    @pytest.mark.parametrize("args", [
        ["classify", "--kernel", "a_dir"],
        ["design", "--device", "tra", "--out", "a_dir"],
    ], ids=["kernel", "out"])
    def test_path_naming_a_directory_is_input_error(self, tmp_path, args):
        (tmp_path / "a_dir").mkdir()
        res = run_cli(args, tmp_path)
        assert res.returncode == 1
        assert b"input error:" in res.stderr and b"a_dir" in res.stderr
        assert b"Traceback" not in res.stderr


# every command that takes --out, on the kernel file given as {kernel}
OUT_COMMANDS = {
    "solve": ["solve", "--kernel", "{kernel}", "--k", "1.2", "--adjoint",
              "--out", "r.json"],
    "sweep": ["sweep", "--kernel", "{kernel}", "--kmin", "0.8", "--kmax", "1.2",
              "--n", "3", "--out", "s.csv"],
    "classify": ["classify", "--kernel", "{kernel}", "--out", "c.json"],
    "verify": ["verify", "--kernel", "{kernel}", "--n", "2", "--out", "v.json"],
    "design": ["design", "--device", "tra", "--verify-points", "3", "--out", "k.json"],
    "born-design": ["born-design", "--alpha", "0.0975", "--epsilon", "1e-4",
                    "--sweep", "0.8:1.2:3", "--out", "p.json"],
}


class TestFailureLeavesNoOutput:
    # every output is computed before the first write; if a write fails,
    # the files already written are removed and nothing is printed

    @pytest.mark.parametrize("args, table", [
        (["design", "--device", "tra", "--verify-points", "3", "--out", "k.json"],
         "k.verify.csv"),
        (["born-design", "--alpha", "0.0975", "--epsilon", "1e-4", "--sweep", "0.8:1.2:3",
          "--out", "k.json"], "k.sweep.csv"),
    ], ids=["design", "born-design"])
    def test_unwritable_table_is_input_error(self, tmp_path, args, table):
        (tmp_path / table).mkdir()
        res = run_cli(args, tmp_path)
        assert res.returncode == 1
        assert b"input error:" in res.stderr and table.encode() in res.stderr
        assert [p.name for p in tmp_path.iterdir()] == [table]

    @pytest.mark.parametrize("args, table", [
        (["design", "--device", "tra", "--verify-points", "3", "--out", "k"], "k.verify.csv"),
        (["born-design", "--alpha", "0.0975", "--epsilon", "1e-4", "--sweep", "0.8:1.2:3",
          "--out", "k"], "k.sweep.csv"),
    ], ids=["design", "born-design"])
    def test_unwritable_kernel_removes_its_table(self, tmp_path, args, table):
        (tmp_path / "k").mkdir()
        res = run_cli(args, tmp_path)
        assert res.returncode == 1
        assert b"input error:" in res.stderr
        assert not (tmp_path / table).exists()
        assert [p.name for p in tmp_path.iterdir()] == ["k"]

    @pytest.mark.parametrize("command", list(OUT_COMMANDS))
    def test_unwritable_manifest_removes_every_output(self, tmp_path, hermitian_kernel_file,
                                                      command):
        args = [a.format(kernel=hermitian_kernel_file) for a in OUT_COMMANDS[command]]
        manifest = args[args.index("--out") + 1] + ".manifest.json"
        wd = tmp_path / "run"
        wd.mkdir()
        (wd / manifest).mkdir()
        res = run_cli(args, wd)
        assert res.returncode == 1
        assert b"input error:" in res.stderr and manifest.encode() in res.stderr
        assert [p.name for p in wd.iterdir()] == [manifest]
        assert res.stdout == b""

    @pytest.mark.parametrize("command, kernel, out", [
        ("solve", "herm.json", "herm.json"),
        ("sweep", "herm.json", "herm.json"),
        ("solve", "r.json.manifest.json", "r.json"),
    ], ids=["solve", "sweep", "manifest"])
    def test_output_naming_the_kernel_is_input_error(self, tmp_path, hermitian_kernel_file,
                                                     command, kernel, out):
        # solve --out <kernel> used to replace the kernel with its report and
        # record the report's digest as the kernel's
        (tmp_path / kernel).write_bytes(hermitian_kernel_file.read_bytes())
        before = sorted(p.name for p in tmp_path.iterdir())
        # an absolute --kernel against a relative --out: the same file by two names
        args = [a.format(kernel=tmp_path / kernel) for a in OUT_COMMANDS[command]]
        args[args.index("--out") + 1] = out
        res = run_cli(args, tmp_path)
        assert res.returncode == 1
        named = out if kernel == out else kernel
        assert res.stderr == (f"input error: output path {named!r} names the input "
                              f"kernel file\n").encode()
        assert res.stdout == b""
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert (tmp_path / kernel).read_bytes() == hermitian_kernel_file.read_bytes()

    def test_part_written_kernel_is_removed(self, tmp_path, monkeypatch):
        def fail(kernel, path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write('{"format": 2, "type"')
            raise OSError(f"no space left on device: {path!r}")

        monkeypatch.setattr(cli, "save_kernel", fail)
        res = run_cli(["design", "--device", "tra", "--verify-points", "3", "--out", "k.json"],
                      tmp_path)
        assert res.returncode == 1
        assert b"input error: no space left on device" in res.stderr
        assert not list(tmp_path.iterdir())
        assert res.stdout == b""

    def test_failed_verification_exits_3(self, tmp_path, monkeypatch):
        def fail(result, n_points):
            raise VerificationError("1 verification check(s) failed", ["forced failure"])

        monkeypatch.setattr(cli, "verify_design", fail)
        res = run_cli(["design", "--device", "tra", "--out", "k.json"], tmp_path)
        assert res.returncode == 3
        assert b"forced failure" in res.stderr
        assert not list(tmp_path.iterdir())


class TestProcess:
    # what only a new process shows: start-up, and each exit code leaving
    # through python -m asymscat's sys.exit(main())

    def test_version(self, tmp_path):
        res = run_process(["--version"], tmp_path)
        assert res.returncode == 0
        assert res.stdout == f"asymscat {cli.__version__}\n".encode()

    @pytest.mark.parametrize("args, code, stderr", [
        (["solve", "--kernel", "zero.json", "--k", "1.0"], 0, b""),
        (["solve", "--kernel", "missing.json", "--k", "1.0"], 1, b"input error:"),
        # at eps = 0.5 tune_alpha cannot bracket its target
        (["born-design", "--epsilon", "0.5", "--tune", "--out", "r.json"], 2,
         b"numerical failure:"),
        (["verify", "--kernel", "plain.json", "--claim", "VIII", "--kmin", "1.0",
          "--kmax", "1.0", "--n", "1"], 3, b"verification failed:"),
    ], ids=["0", "1", "2", "3"])
    def test_exit_code(self, tmp_path, zero_kernel_file, rng, args, code, stderr):
        save_kernel(random_poly_surface(rng, n=61), tmp_path / "plain.json")
        res = run_process(args, tmp_path)
        assert res.returncode == code, res.stderr
        assert res.stderr.startswith(stderr)
        assert b"Traceback" not in res.stderr
        if code == 0:
            assert json.loads(res.stdout)["abs2"]["Tl"] == pytest.approx(1.0, abs=1e-14)
        else:
            assert not (tmp_path / "r.json").exists()

    def test_scipy_optimize_and_interpolate_never_load(self, tmp_path):
        # scipy.optimize (with scipy.special) costs about a third of a start,
        # and scipy.interpolate loads both; no path needs any of them.
        # Sampled kernels build their B-splines with numpy and LAPACK, design
        # runs its own trust-region loop on scipy.linalg's SVD, and the
        # finite-difference oracle needs scipy.linalg alone.
        script = """if True:
            import contextlib, io, json, sys
            import numpy as np
            import asymscat
            from asymscat import cli
            LAZY = ("scipy.optimize", "scipy.interpolate", "scipy.special",
                    "scipy.sparse.linalg", "scipy.linalg")
            loaded = lambda: [m for m in LAZY if m in sys.modules]
            seen = {"import": loaded()}
            asymscat.save_kernel(asymscat.PolynomialKernel([[0.1, 0.2j], [0.3, -0.1]]), "p.json")
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [cli.main(args) for args in (
                    ["solve", "--kernel", "p.json", "--k", "1.0"],
                    ["classify", "--kernel", "p.json"],
                    ["born-design", "--epsilon", "1e-4", "--tune", "--sweep", "0.5:5:4",
                     "--out", "r.json"])]
            seen["cli"] = loaded()
            asymscat.scatter_oracle_all(asymscat.load_kernel("p.json"), 1.0, 101)
            asymscat.scatter_oracle_all(asymscat.load_kernel("r.json"), 1.0, 101)
            seen["oracle"] = loaded()
            g = np.linspace(-1.0, 1.0, 11)
            kernel = asymscat.SampledKernel(g, 0.1 * np.outer(1 - g * g, 1 - g * g) + 0j)
            noise = np.random.default_rng(0).normal(size=(3, 11, 11))
            full = asymscat.SampledKernel(g, 0.02 * (noise[0] + 1j * noise[1]))
            local = asymscat.SampledKernel(g, 0.1 * noise[2, 0] + 0j, is_local=True)
            forms = [kernel._low_rank is not None, full._low_rank is None]
            stored = asymscat.SolverConfig(n_grid=11, quadrature="simpson")
            for sampled in (kernel, full):
                asymscat.scatter_all(sampled, 1.0, stored, include_adjoint=True)
                asymscat.k_sweep(sampled, [0.5, 1.0, 2.0], stored)
            seen["stored"] = loaded()
            # off the stored grid: spline fits and design matrices
            for sampled in (kernel, full, local):
                asymscat.scatter_all(sampled, 1.0, asymscat.SolverConfig(n_grid=21),
                                     include_adjoint=True)
            full.sample_matrix([0.3], [-0.2])
            seen["sampled"] = loaded()
            asymscat.design_device(asymscat.DeviceSpec("R/A"), restarts=0)
            seen["design"] = loaded()
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(["design", "--device", "trt", "--constraint", "pt",
                                       "--out", "t.json"]))
            seen["design-cli"] = loaded()
            print(json.dumps({"codes": codes, "seen": seen, "forms": forms}))
        """
        res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             cwd=tmp_path, env=cli_env())
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        assert doc["codes"] == [0, 0, 0, 0]
        # a compressed and a full-rank sampled kernel on their stored grid
        # (adjoint and Simpson sweep included), off it with a sampled local
        # kernel, and design by the library and by the CLI load none of them;
        # positive control: the detector sees scipy.linalg, which every solve uses
        assert doc["forms"] == [True, True]
        for stage in ("import", "cli", "oracle", "stored", "sampled", "design", "design-cli"):
            assert doc["seen"][stage] == ["scipy.linalg"], stage


class TestManifest:
    # each command runs in a directory of its own, so every file there
    # is one it wrote
    @pytest.mark.parametrize("command", list(OUT_COMMANDS))
    def test_files_digests_and_flags(self, tmp_path, hermitian_kernel_file, command):
        args = [a.format(kernel=hermitian_kernel_file) for a in OUT_COMMANDS[command]]
        wd = tmp_path / "run"
        wd.mkdir()
        res = run_cli(args, wd)
        assert res.returncode == 0, res.stderr
        blobs = [f.read_bytes() for f in wd.iterdir()] + ([res.stdout] if res.stdout else [])
        for blob in blobs:
            assert b"\r" not in blob and blob.endswith(b"\n")

        out = args[args.index("--out") + 1]
        manifest_path = wd / (out + ".manifest.json")
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        assert manifest["command"] == command
        written = sorted(sha256_path(f) for f in wd.iterdir() if f != manifest_path)
        assert sorted(manifest["output_digests"].values()) == written
        kernel_inputs = {"kernel": sha256_path(hermitian_kernel_file)} if "--kernel" in args else {}
        assert manifest["input_digests"] == kernel_inputs

        parsed = vars(build_parser().parse_args(args))
        del parsed["func"]
        assert manifest["flags"] == parsed


class TestArgumentFile:
    # @FILE stands for the lines of FILE, one argument each, read in place

    def test_file_supplies_the_required_device(self, tmp_path):
        outputs = ["ra.json", "ra.verify.csv", "ra.json.manifest.json"]
        flags, by_file_dir = tmp_path / "flags", tmp_path / "file"
        flags.mkdir()
        by_file_dir.mkdir()
        (tmp_path / "ra.args").write_text("--device=ra\n", encoding="utf-8")
        by_flag = run_cli(["design", "--device", "ra", "--out", "ra.json"], flags)
        by_file = run_cli(["design", "@../ra.args", "--out", "ra.json"], by_file_dir)
        assert by_flag.returncode == 0, by_flag.stderr
        assert by_file.returncode == 0, by_file.stderr
        assert by_file.stdout == by_flag.stdout
        assert sorted(p.name for p in by_file_dir.iterdir()) == sorted(outputs)
        for name in outputs:
            assert (by_file_dir / name).read_bytes() == (flags / name).read_bytes(), name

    @pytest.mark.parametrize("command", list(OUT_COMMANDS))
    def test_every_command_reads_its_arguments_from_a_file(self, tmp_path,
                                                           hermitian_kernel_file, command):
        args = [a.format(kernel=hermitian_kernel_file) for a in OUT_COMMANDS[command]]
        (tmp_path / "all.args").write_text("".join(a + "\n" for a in args[1:]),
                                           encoding="utf-8")
        flags, by_file_dir = tmp_path / "flags", tmp_path / "file"
        flags.mkdir()
        by_file_dir.mkdir()
        by_flag = run_cli(args, flags)
        by_file = run_cli([command, "@../all.args"], by_file_dir)
        assert by_flag.returncode == 0, by_flag.stderr
        assert by_file.returncode == 0, by_file.stderr
        assert by_file.stdout == by_flag.stdout
        outputs = sorted(p.name for p in flags.iterdir())
        assert sorted(p.name for p in by_file_dir.iterdir()) == outputs
        for name in outputs:
            assert (by_file_dir / name).read_bytes() == (flags / name).read_bytes(), name

    def test_file_may_name_another_file(self, tmp_path):
        (tmp_path / "outer.args").write_text("@inner.args\n--out=ra.json\n", encoding="utf-8")
        (tmp_path / "inner.args").write_text("--device=ra\n", encoding="utf-8")
        res = run_cli(["design", "@outer.args"], tmp_path)
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "ra.json").exists()

    def test_value_starting_with_at_names_a_file(self, tmp_path):
        # no option value may start with @: argparse reads it as a file name
        res = run_cli(["design", "--device", "tra", "--out", "@k.json"], tmp_path)
        assert res.returncode == 1
        assert b"usage:" in res.stderr and b"error: [Errno" in res.stderr
        assert b"k.json" in res.stderr
        assert not list(tmp_path.iterdir())

    def test_file_supplies_solve_kernel_and_momentum(self, tmp_path, zero_kernel_file):
        (tmp_path / "run.args").write_text(f"--kernel={zero_kernel_file}\n--k=1.5\n",
                                           encoding="utf-8")
        by_flag = run_cli(["solve", "--kernel", str(zero_kernel_file), "--k", "1.5"], tmp_path)
        by_file = run_cli(["solve", "@run.args"], tmp_path)
        assert by_file.returncode == 0, by_file.stderr
        assert (by_file.stdout, by_file.stderr) == (by_flag.stdout, by_flag.stderr)
        assert json.loads(by_file.stdout)["k"] == 1.5

    @pytest.mark.parametrize("args, k", [
        (["solve", "@run.args", "--k", "0.75"], 0.75),
        (["solve", "--k", "0.75", "@run.args"], 1.5),
    ], ids=["after", "before"])
    def test_later_arguments_override_earlier_ones(self, tmp_path, zero_kernel_file, args, k):
        (tmp_path / "run.args").write_text(f"--kernel\n{zero_kernel_file}\n--k\n1.5\n",
                                           encoding="utf-8")
        res = run_cli(args, tmp_path)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["k"] == k

    def test_flag_line_turns_the_flag_on(self, tmp_path, zero_kernel_file):
        (tmp_path / "run.args").write_text("--adjoint\n", encoding="utf-8")
        res = run_cli(["solve", "--kernel", str(zero_kernel_file), "--k", "1.0", "@run.args"],
                      tmp_path)
        assert res.returncode == 0, res.stderr
        assert "hatted" in json.loads(res.stdout)

    @pytest.mark.parametrize("lines, args, named", [
        (["--bogus-key=3"], ["solve", "--kernel", "K", "--k", "1.0"], "--bogus-key"),
        (["--k=abc"], ["solve", "--kernel", "K"], "'abc'"),
        (["--n-grid=2.5"], ["solve", "--kernel", "K", "--k", "1.0"], "'2.5'"),
        (["--n=x"], ["sweep", "--kernel", "K", "--kmin", "0.5", "--kmax", "1.0"], "'x'"),
        (["--seed=1.5"], ["design", "--device", "tra"], "'1.5'"),
        (["--claim=IX"], ["verify", "--kernel", "K"], "'IX'"),
        (["--device=zz"], ["design"], "'zz'"),
        (["--constraint", "bogus"], ["design", "--device", "tra"], "'bogus'"),
        (["--quadrature=gauss"], ["solve", "--kernel", "K", "--k", "1.0"], "'gauss'"),
        (["--device=tra", ""], ["design"], "unrecognized arguments"),
        (["# a comment", "--device=tra"], ["design"], "# a comment"),
        (["--seed 3"], ["design", "--device", "tra"], "--seed 3"),
    ], ids=["unknown", "k", "n-grid", "n", "seed", "claim", "device", "constraint",
            "quadrature", "blank-line", "comment", "flag-and-value-on-one-line"])
    def test_bad_argument_in_file_is_usage_error(self, tmp_path, zero_kernel_file, lines,
                                                 args, named):
        (tmp_path / "bad.args").write_text("".join(line + "\n" for line in lines),
                                           encoding="utf-8")
        args = [str(zero_kernel_file) if a == "K" else a for a in args]
        res = run_cli([*args, "@bad.args", "--out", "x.json"], tmp_path)
        assert res.returncode == 1
        assert b"usage:" in res.stderr and named.encode() in res.stderr
        assert b"Traceback" not in res.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.args", zero_kernel_file.name]

    @pytest.mark.parametrize("name", ["a_dir", "missing.args"])
    def test_file_that_cannot_be_read_is_usage_error(self, tmp_path, name):
        (tmp_path / "a_dir").mkdir()
        res = run_cli(["design", "--device", "tra", f"@{name}", "--out", "x.json"], tmp_path)
        assert res.returncode == 1
        assert b"usage:" in res.stderr and b"error: [Errno" in res.stderr
        assert name.encode() in res.stderr
        assert [p.name for p in tmp_path.iterdir()] == ["a_dir"]


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

    def test_r_filter_design_runs_are_byte_identical(self, tmp_path):
        self._twice(
            ["design", "--device", "ra", "--out", "ra.json"],
            tmp_path,
            ["ra.json", "ra.verify.csv", "ra.json.manifest.json"],
        )

    def test_sweep_runs_are_byte_identical(self, tmp_path, zero_kernel_file):
        self._twice(
            ["sweep", "--kernel", str(zero_kernel_file), "--kmin", "0.5",
             "--kmax", "2.0", "--n", "4", "--out", "s.csv"],
            tmp_path,
            ["s.csv", "s.csv.manifest.json"],
        )

    def test_verify_runs_are_byte_identical(self, tmp_path, hermitian_kernel_file):
        self._twice(
            ["verify", "--kernel", str(hermitian_kernel_file), "--kmin", "0.8",
             "--kmax", "1.2", "--n", "2", "--out", "v.json"],
            tmp_path,
            ["v.json", "v.json.manifest.json"],
        )
