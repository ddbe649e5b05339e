import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from quiverhecke import __version__
from quiverhecke import cli


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def test_verify_reports_all_fields(capsys):
    code, out = run_cli(
        capsys, ["verify", "demazure", "--n", "2", "--trials", "3"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["version"] == __version__
    assert report["config"]["seed"] == 0
    assert report["passed"] is True
    assert all(
        set(c) == {"name", "params", "pass"} for c in report["checks"]
    )


def test_verify_byte_deterministic(capsys):
    argv = ["verify", "fock", "--p", "2", "--max-size", "4", "--seed", "7"]
    _, first = run_cli(capsys, argv)
    _, second = run_cli(capsys, argv)
    assert first == second
    assert json.loads(first)["config"]["seed"] == 7


def test_compute_byte_deterministic(capsys):
    argv = ["compute", "poincare", "--n", "5"]
    _, first = run_cli(capsys, argv)
    _, second = run_cli(capsys, argv)
    assert first == second


def test_compute_poincare_values(capsys):
    code, out = run_cli(capsys, ["compute", "poincare", "--n", "3"])
    assert code == 0
    data = json.loads(out)["data"]
    assert data["coefficients"] == {"0": 1, "1": 2, "2": 2, "3": 1}


def test_compute_grdim_single_monomial(capsys):
    code, out = run_cli(
        capsys,
        ["compute", "grdim", "--quiver", "a2", "--v", "1,2", "--vprime", "2,1"],
    )
    assert code == 0
    assert json.loads(out)["data"]["grdim"] == "q"


def test_compute_grdim_is_guarded_by_the_words_it_visits(capsys):
    # 9 letters, but only the 5! x 4! = 2,880 permutations that carry v to
    # v' are visited; the guard counts those, not 9!
    from quiverhecke.klr import hom_graded_dimension_closed, linear_quiver, make_klr

    v, vp = (1, 1, 1, 1, 1, 2, 2, 2, 2), (2, 2, 2, 2, 1, 1, 1, 1, 1)
    code, out = run_cli(
        capsys,
        [
            "compute", "grdim", "--quiver", "a2",
            "--v", ",".join(map(str, v)), "--vprime", ",".join(map(str, vp)),
        ],
    )
    assert code == 0
    closed = hom_graded_dimension_closed(make_klr(linear_quiver(2), 9), v, vp)
    assert json.loads(out)["data"]["grdim"] == closed.str_in("q")
    assert sum(closed.terms.values()) == 2880


def test_compute_hall_table(capsys):
    code, out = run_cli(
        capsys,
        ["compute", "hall-table", "--q", "2", "--max-dim", "1,1"],
    )
    assert code == 0
    data = json.loads(out)["data"]
    assert len(data["classes"]) == 4
    assert all(row["f"] > 0 for row in data["hall_numbers"])


def test_compute_fock_matrix_shapes(capsys):
    code, out = run_cli(
        capsys,
        ["compute", "fock-matrix", "--p", "3", "--i", "1", "--size", "3"],
    )
    assert code == 0
    data = json.loads(out)["data"]
    assert len(data["matrix"]) == len(data["rows"])
    assert all(len(r) == len(data["cols"]) for r in data["matrix"])


def test_text_and_csv_formats(capsys):
    code, out = run_cli(
        capsys,
        ["verify", "grdim", "--n", "2", "--format", "text"],
    )
    assert code == 0
    assert out.startswith(f"quiverhecke {__version__}\n")
    assert "result: all passed" in out
    code, out = run_cli(
        capsys,
        ["verify", "grdim", "--n", "2", "--format", "csv"],
    )
    assert code == 0
    assert out.splitlines()[0] == "name,params,pass"


def test_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_nonpositive_cap_is_usage_error(capsys):
    assert cli.main(["verify", "demazure", "--n", "0"]) == 2


LOOP_QUIVER = "vertex 1\n1 -> 1\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "hall", "--q", "7"], "unsupported field size q = 7"),
        (
            ["compute", "hall-table", "--q", "6", "--max-dim", "1,1"],
            "unsupported field size q = 6",
        ),
        (["verify", "fock", "--p", "0"], "--p must be at least 1"),
        (["compute", "fock-matrix", "--p", "-1"], "--p must be at least 1"),
        (
            ["compute", "hall-table", "--max-dim", "1"],
            "--max-dim must be two nonnegative integers",
        ),
        (
            ["compute", "hall-table", "--max-dim", "1,-1"],
            "--max-dim must be two nonnegative integers",
        ),
        (
            ["compute", "grdim", "--vprime", "1"],
            "--v and --vprime must have the same length",
        ),
        (["compute", "poincare", "--n", "-2"], "--n must be at least 0"),
        (
            ["verify", "heckebridge", "--n", "1", "--window", "3"],
            "the Hecke relations need n >= 2",
        ),
        (["compute", "schubert-basis", "--n", "-1"], "--n must be at least 0"),
        (
            ["compute", "cyclotomic-basis", "--n", "-1"],
            "--n must be at least 0",
        ),
        (
            ["compute", "cyclotomic-basis", "--n", "2", "--i", "-1"],
            "--i must be at least 0",
        ),
        (
            ["compute", "grdim", "--v", "1,2", "--vprime", "1,3"],
            "--vprime entries must be vertices",
        ),
        (
            ["verify", "klr-relations", "--quiver", "LOOP_FILE", "--n", "2"],
            "needs a quiver without loops",
        ),
        (
            [
                "compute", "grdim", "--quiver", "LOOP_FILE",
                "--v", "1,1", "--vprime", "1,1",
            ],
            "needs a quiver without loops",
        ),
        (["verify", "cyclotomic", "--n", "5"], "--n must be at most 4"),
        (
            ["verify", "klr-relations", "--quiver", "EMPTY_FILE", "--n", "2"],
            "needs at least one vertex",
        ),
        (
            ["verify", "grdim", "--quiver", "EMPTY_FILE", "--n", "2"],
            "needs at least one vertex",
        ),
        (
            ["verify", "pbw", "--quiver", "EMPTY_FILE", "--n", "2"],
            "needs at least one vertex",
        ),
        (["verify", "nilhecke", "--n", "1"], "--n must be at least 2"),
        (
            ["compute", "hall-table", "--q", "4", "--max-dim", "3,3"],
            "--max-dim 3,3 at q = 4 enumerates 262144 matrices",
        ),
        (
            ["verify", "heckebridge", "--n", "4", "--window", "4"],
            "the relation window for n = 4 is at most 3, got 4",
        ),
        (
            ["verify", "heckebridge", "--n", "2", "--window", "17"],
            "the relation window for n = 2 is at most 16, got 17",
        ),
        (
            ["verify", "heckebridge", "--n", "3", "--window", "7"],
            "the relation window for n = 3 is at most 6, got 7",
        ),
        (
            ["verify", "demazure", "--n", "6", "--max-deg", "6"],
            "--n must be at most 5 for the demazure suite, got 6",
        ),
        (["verify", "fock", "--max-size", "-1"], "--max-size must be at least 0"),
        (["compute", "fock-matrix", "--size", "-2"], "--size must be at least 0"),
        (
            ["compute", "hall-table", "--q", "2", "--max-dim", "0,0"],
            "--max-dim must have a positive entry, got 0,0",
        ),
        (
            ["verify", "klr-relations", "--quiver", "a3", "--n", "6"],
            "729 idempotents and 84 monomials of degree at most 3 at n = 6",
        ),
        (
            ["verify", "demazure", "--n", "5", "--max-deg", "30"],
            "324632 monomials of degree at most 30 at n = 5",
        ),
        (
            ["verify", "grdim", "--quiver", "a2", "--n", "7"],
            "128 x 7! = 645120 words tau_w 1_v, above the limit 50000",
        ),
        (
            ["verify", "grdim", "--quiver", "a3", "--n", "6"],
            "729 x 6! = 524880 words tau_w 1_v, above the limit 50000",
        ),
        (
            ["verify", "grdim", "--quiver", "single", "--n", "9"],
            "1 x 9! = 362880 words tau_w 1_v, above the limit 50000",
        ),
        (
            ["compute", "grdim", "--quiver", "single", "--v", "1,1,1,1,1,1,1,1,1",
             "--vprime", "1,1,1,1,1,1,1,1,1"],
            "1 x 9! = 362880 words tau_w 1_v, above the limit 50000",
        ),
        (
            ["compute", "grdim", "--quiver", "a2", "--v", "1,1,1,1,1,1,2,2,2,2,2",
             "--vprime", "2,2,2,2,2,1,1,1,1,1,1"],
            "1 x 6! x 5! = 86400 words tau_w 1_v, above the limit 50000",
        ),
        (
            ["verify", "heckebridge", "--n", "5", "--window", "2"],
            "13608 basis monomials, above the limit",
        ),
        (
            ["verify", "nilhecke", "--n", "2", "--trials", "-1"],
            "--trials must be nonnegative, got -1",
        ),
        (
            ["verify", "demazure", "--n", "2", "--trials", "-3"],
            "--trials must be nonnegative, got -3",
        ),
        (["compute", "fock-matrix", "--size", "23"], "--size must be at most 22, got 23"),
        (
            ["compute", "fock-matrix", "--op", "e", "--size", "10000000000"],
            "--size must be at most 22, got 10000000000",
        ),
        (["verify", "fock", "--p", "1", "--max-size", "31"], "--max-size must be at most 30, got 31"),
        (
            ["verify", "fock", "--p", "3", "--max-size", "27"],
            "--max-size 27 at --p 3 gives 132678 commutator cases, above the limit 120000",
        ),
        (
            ["verify", "fock", "--p", "100", "--max-size", "6"],
            "--max-size 6 at --p 100 gives 300000 commutator cases, above the limit 120000",
        ),
        (
            ["verify", "fock", "--p", "1000000000", "--max-size", "0"],
            "--max-size 0 at --p 1000000000 gives 1000000000000000000 commutator cases",
        ),
        (
            ["compute", "hall-table", "--q", "5", "--max-dim", "1,6"],
            "--max-dim 1,6 at q = 5 enumerates more than 300000 subspace tuples",
        ),
    ],
)
def test_unsupported_parameter_exits_two(capsys, tmp_path, argv, message):
    # refused with a message, never reported as a FAIL or a vacuous PASS
    loop_file = tmp_path / "loop.quiver"
    loop_file.write_text(LOOP_QUIVER)
    empty_file = tmp_path / "empty.quiver"
    empty_file.write_text("")
    files = {"LOOP_FILE": str(loop_file), "EMPTY_FILE": str(empty_file)}
    argv = [files.get(a, a) for a in argv]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "command",
    [
        "verify grdim --quiver a2 --n 7",
        "verify grdim --quiver a3 --n 6",
        "verify grdim --quiver single --n 9",
        "compute grdim --quiver single --v 1,1,1,1,1,1,1,1,1 --vprime 1,1,1,1,1,1,1,1,1",
        "compute grdim --quiver a2 --v 1,1,1,1,1,1,2,2,2,2,2 --vprime 2,2,2,2,2,1,1,1,1,1,1",
    ],
)
def test_grdim_guard_refuses_at_once(capsys, command):
    # these took 21-98s before the guard
    start = time.perf_counter()
    assert cli.main(command.split()) == 2
    assert time.perf_counter() - start < 1


def test_loop_quiver_exits_two_under_optimize(tmp_path):
    # `python -O` strips asserts; the loop must still be refused
    loop_file = tmp_path / "loop.quiver"
    loop_file.write_text(LOOP_QUIVER)
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONOPTIMIZE", None)
    res = subprocess.run(
        [
            sys.executable, "-O", "-m", "quiverhecke.cli", "compute", "grdim",
            "--quiver", str(loop_file), "--v", "1,1", "--vprime", "1,1",
        ],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 2, res.stdout
    assert res.stdout == ""
    assert "needs a quiver without loops" in res.stderr


def test_poincare_cross_check_exits_two_under_optimize():
    # a wrong product form must be caught with asserts stripped too
    code = (
        "import sys\n"
        "from quiverhecke import cli\n"
        "from quiverhecke.laurent import Laurent\n"
        "cli.poincare_product_form = lambda n: Laurent.gen(n)\n"
        "sys.exit(cli.main(['compute', 'poincare', '--n', '3']))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONOPTIMIZE", None)
    res = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 2, res.stdout
    assert res.stdout == ""
    assert "Poincare polynomial" in res.stderr


# sha256 of the stdout of the README `compute` examples, larger tables and
# several suites; a changed digest is a changed command-line output
STDOUT_SHA256 = {
    "compute poincare --n 4":
        "2e2e08174b864b9af4427154d514c89e3277357fd723d694f88f01af63f201a5",
    "compute schubert-basis --n 3":
        "d66557374c525697c60e1da2763db7f3e3c23aecdbc2f11160ef55583f8bc6e2",
    "compute schubert-basis --n 4":
        "965c4121b6088fac7acc4cf0e7426d41a815188d70a234c7cdd5770429b544ca",
    "compute grdim --quiver a2 --v 1,2 --vprime 2,1":
        "50af2a6a27ef48e23ed5eeae7ff84ca9a51bb7746005e0af6f2490581a044e0e",
    "compute grdim --quiver a3 --v 1,2,3 --vprime 3,2,1":
        "d7cf5e28049fa42cbc1a64f0a46e8d3f5b3f311d26f79c0e6ff6d8875d1cf595",
    "compute cyclotomic-basis --n 3 --i 2":
        "56b9340d38a8af8d74b9c4a03584adba4bd8c9755dcb0157004236ea93e2d4e4",
    "compute cyclotomic-basis --n 4 --i 3":
        "488e9e9bda45a2b34cfc780acd39b3efc1ead612cc82b936778d7e836714d6bf",
    "compute hall-table --q 2 --max-dim 2,2":
        "b286b59e9ccde76522ff882d197dfa84f2efc3a4d76bc060ad0d707e832b1ec0",
    # q = 3 walks orbits with the diagonal step, which q = 2 does not have
    "compute hall-table --q 3 --max-dim 2,2":
        "5e03baa3d706a1529bb75df28903b137b27c67eecb5a213067d746ba0dabf401",
    "compute fock-matrix --p 3 --i 0 --size 4 --op f":
        "69ca21c6c1bd13df9a9781c77044b7ab236120bd98c49c288f1d25710b4115b3",
    "verify hall --q 2":
        "90961b699ff6453ee4d5dafd7d33af14a8ef64d329692db677e4024082edbab6",
    "verify hall --q 5":
        "bad26a77d3e2af6d49dfaf26b6d2de6b75cb5d67a9880487ce352da0ad27aa1b",
    "verify fock --p 3 --max-size 8":
        "4a61c5f3e7f2ee59070872cf105cc53a89992865ba8f696f9acc79d85117c14c",
    "verify pbw --quiver a3 --n 3":
        "007670d0b69256623585f0520efc03df43809e984498688bc35c441c2d0d1bfd",
    "verify pbw --quiver a2 --n 4":
        "bbbc4022c2c26de1f918326cc6e1db73aeb29f8309100bb91d824232aa51f5ef",
    "verify pbw --quiver single --n 4":
        "301bfe0e95d6e8cecb04fc09e51c10a3a593b655a34aec46da2bbc66ba4fded2",
    "verify klr-relations --quiver a2 --n 3":
        "263785ebdce1a74de670aba37132baeeea9aa592c85891523f883bde64c96e24",
    "verify klr-relations --quiver a3 --n 3":
        "53d5476a8575d154699335509109cee2190316d36abb9b9af1791500e67246b5",
    "verify heckebridge --n 3 --window 2":
        "9993bfc1cfffad2324ba2c9188e4b69d195ffc390da83ca5fc984e57a1e65ba7",
    "verify cyclotomic --n 3":
        "cba3b17271f5cdb81ddafd1bd971b63e6331916848e53a78b95f578a25cbb49f",
    "verify cyclotomic --n 4":
        "3ccbdac7f9399c79c6d969f0623c1b9671e9faec42e193f3eeceaefdd5845935",
    "verify demazure --n 4":
        "796aa123125aa6f38d416aa7720a61efb678d78867045201a46feac3853bb5bf",
    # demazure-commutation has no case at n = 3 and is reported SKIP
    "verify demazure --n 3":
        "1abd2be0c749942eade75d8ef6a5a32a3ae221a08fc3f8fae4f1562113922c95",
    "verify klr-relations --quiver single --n 4":
        "d9b619c0544e44a3bcd78e5dd6ba5ebb312cfb92e77537e705f7796502b14950",
    "verify klr-relations --quiver a2 --n 4 --max-deg 4":
        "a14addf349bf31984d4adf706e741a6aecf4824ebc6a87d964be20fd5da4281a",
    "verify nilhecke --n 3":
        "f7eaa644ec48cdb06e97c6c9e2b6e5cec8d47ddf19a92108582409cea644ab06",
    # certifies the t'-Gram determinant at n = 4 as well
    "verify nilhecke --n 4":
        "c14b6744b1b2c53188ef949dcb06934146f85a19ac719be9b2e4ff5a4e790cf6",
    # the six commands of the perfbench hall-fock workload
    "compute hall-table --q 2 --max-dim 3,3":
        "9d690f29734c9cc199fce54d9ee84dc0d2869fe8725e6ac3798930eb1aacdf30",
    "compute hall-table --q 3 --max-dim 3,2":
        "42c2e14d0cc2c962d2054a18b0a8118cbec7fc00e2f9d40f96db6ebbc3408d5a",
    "verify hall --q 3":
        "ed697ee933836386ba542459511913e853f9fb39a27d0a1cb415c6384f00fdaf",
    "verify hall --q 4":
        "d9c4ca167a56bdd63d88bd855311a23e8330c90449ef4052d9bb820ab20dbd43",
    "verify fock --p 3 --max-size 12":
        "dfafcc72f31236d159053a1a2ce84f5e3f5de88800eb59ae104e4863c3d121f4",
    "compute fock-matrix --p 3 --i 0 --size 14":
        "ab8a0d8e8b3e5427f22c8b780c7db2e6876e49e4745ca10ab38e55e24d316598",
    # graded dimensions and the Poincare product form, read off the
    # q-numbers (`verify hall --q 3`, their other consumer, is pinned above)
    "verify grdim --quiver a2 --n 4":
        "1dee9b3db6caa001a1f0b5140b3f7ef9c59b688981fd2eedc087ab18344bd42e",
    "verify grdim --quiver a3 --n 3":
        "49b5164a184590e2823359a911eaa79a9199d1b5be41ea861453782ac540b11d",
    "verify grdim --quiver single --n 5":
        "00187ccbb546bae41906c18ee594df3b5ba15426bd08abee319ef01ae0672da3",
    "compute poincare --n 6":
        "796bab1ed64eb33f3c8c357180bb35f1ba5056c42487144580fe21294b1e642b",
    # Hall tables over GF(4) and GF(5), and in the csv and text formats
    "compute hall-table --q 4 --max-dim 2,1":
        "349e8edf6988bf02d0af3951baf1bc98199738405333895644efd71725e25925",
    "compute hall-table --q 2 --max-dim 2,1 --format csv":
        "34ef4ed45e3090fde242eadaf0c70bc19d86685bf1d4d024f56c8261e1fb792d",
    "compute hall-table --q 5 --max-dim 1,2 --format text":
        "a21af0cf93f7171e8fa00aa5b64422977cf98afac3d00638369852aac1e90327",
    # the Fock space at p = 1, 2 and 4, both operators, all three formats
    "verify fock --p 2 --max-size 10":
        "f5f5cb75f7ffad69324d072c42e1e283e63c35e7d64037294d1fe6054b685bbe",
    "verify fock --p 4 --max-size 8 --format text":
        "d64de8d1fe4316507f412c9dde75d7a5493c2844b2712d68b97d2114236cf0fe",
    "compute fock-matrix --p 2 --i 1 --size 9 --op e":
        "f72e0d2575ceac58c198769fffd59ece066b891f92fec0e371d01ce926384915",
    "compute fock-matrix --p 1 --i 0 --size 7 --format csv":
        "c13bd2ac03bca78ef3263c81e96ee98a96429792ff486499d4789d600c713a85",
}


@pytest.mark.parametrize("command", sorted(STDOUT_SHA256))
def test_stdout_is_pinned(capsys, command):
    code, out = run_cli(capsys, command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[command]


# cases examined per check, as stderr reports them: a relation check that
# visits other cases shows here even when stdout is unchanged
STDERR_CASES = {
    "verify demazure --n 3": {
        "demazure-square-zero": 168,
        "demazure-commutation": 0,
        "demazure-braid": 84,
        "staircase-longest-word": 2,
        "schubert-round-trip": 20,
    },
    "verify demazure --n 4": {
        "demazure-square-zero": 630,
        "demazure-commutation": 210,
        "demazure-braid": 420,
        "staircase-longest-word": 3,
        "schubert-round-trip": 20,
    },
    "verify klr-relations --quiver single --n 4": {
        "klr-quadratic": 105, "klr-straightening": 420, "klr-braid": 70,
    },
    "verify klr-relations --quiver a2 --n 4 --max-deg 4": {
        "klr-quadratic": 720, "klr-straightening": 2880, "klr-braid": 480,
    },
    "verify klr-relations --quiver a2 --n 3": {
        "klr-quadratic": 320, "klr-straightening": 960, "klr-braid": 160,
    },
    "verify klr-relations --quiver a3 --n 3": {
        "klr-quadratic": 1080, "klr-straightening": 3240, "klr-braid": 540,
    },
    "verify fock --p 3 --max-size 8": {
        "fock-p3-example": 6, "fock-commutators": 603, "fock-transpose-adjointness": 18,
    },
    "verify fock --p 4 --max-size 8": {
        "fock-commutators": 1072, "fock-transpose-adjointness": 24,
    },
}


@pytest.mark.parametrize("command", sorted(STDERR_CASES))
def test_stderr_case_counts_are_pinned(capsys, command):
    code = cli.main(command.split())
    err = capsys.readouterr().err
    assert code == 0
    counts = re.findall(r"^(\S+): \d+\.\d+s, (\d+) cases$", err, re.MULTILINE)
    assert {name: int(k) for name, k in counts} == STDERR_CASES[command]


@pytest.mark.parametrize("quiver", ["single", "a2"])
def test_pbw_certifies_n_four(capsys, quiver):
    # the leading-term certificate needs no test monomials; the rank of
    # apply images on exponents below 3 was short of full at n = 4
    code, out = run_cli(capsys, ["verify", "pbw", "--quiver", quiver, "--n", "4"])
    assert code == 0
    assert [c["pass"] for c in json.loads(out)["checks"]] == [True, True]


@pytest.mark.parametrize("argv", [["--n", "6", "--quiver", "single"], ["--n", "5"]])
def test_pbw_refuses_sizes_past_the_guard(capsys, tmp_path, argv):
    # n = 6, and a four-vertex quiver at n = 5 (1024 x 120 words), exit 2
    quiver = tmp_path / "a4.quiver"
    quiver.write_text("1 -> 2\n2 -> 3\n3 -> 4\n")
    if "--quiver" not in argv:
        argv = argv + ["--quiver", str(quiver)]
    code = cli.main(["verify", "pbw"] + argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "the pbw suite stops at n = 5" in captured.err


@pytest.mark.parametrize("p, expected", [(2, []), (3, [True])])
def test_fock_p3_example_runs_only_at_p3(capsys, p, expected):
    # at p != 3 the example has nothing to check, so it is not reported
    code, out = run_cli(
        capsys, ["verify", "fock", "--p", str(p), "--max-size", "2"]
    )
    assert code == 0
    checks = json.loads(out)["checks"]
    assert [c["pass"] for c in checks if c["name"] == "fock-p3-example"] == (
        expected
    )


@pytest.mark.parametrize(
    "argv, skipped",
    [
        (
            ["verify", "demazure", "--n", "2"],
            {"demazure-commutation", "demazure-braid"},
        ),
        (["verify", "demazure", "--n", "3"], {"demazure-commutation"}),
        (["verify", "klr-relations", "--n", "2"], {"klr-braid"}),
        (["verify", "pbw", "--trials", "0"], {"pbw-round-trip"}),
    ],
)
def test_zero_case_checks_are_skipped(capsys, argv, skipped):
    # a check that examined nothing is SKIP (null in JSON), never PASS
    code, out = run_cli(capsys, argv)
    assert code == 0
    report = json.loads(out)
    assert {c["name"] for c in report["checks"] if c["pass"] is None} == (
        skipped
    )
    assert report["passed"] is True
    _, out = run_cli(capsys, argv + ["--format", "text"])
    lines = out.splitlines()
    assert {ln.split()[1] for ln in lines if ln.startswith("SKIP")} == skipped


def test_failing_check_exits_one(capsys, monkeypatch):
    def broken(cfg, rng):
        return [
            {"name": "always-fails", "params": {}, "pass": False, "cases": 1}
        ]

    monkeypatch.setitem(cli._SUITES, "demazure", broken)
    code, out = run_cli(capsys, ["verify", "demazure"])
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_wrong_q_matrix_fails_klr_relations(capsys, monkeypatch):
    # the expected Q is read off the quiver's arrows, so a wrong Q in the
    # polynomial representation cannot agree with itself
    from quiverhecke.klr import KLRContext

    right = KLRContext.q_poly
    monkeypatch.setattr(
        KLRContext, "q_poly", lambda self, *args: right(self, *args) * 2
    )
    code, out = run_cli(
        capsys, ["verify", "klr-relations", "--quiver", "a2", "--n", "3"]
    )
    assert code == 1
    assert {c["name"]: c["pass"] for c in json.loads(out)["checks"]} == {
        "klr-quadratic": False,
        "klr-straightening": True,
        "klr-braid": False,
    }


def test_opposite_grading_fails_verify_grdim(capsys, monkeypatch):
    # one grading convention: the closed form under q -> q^-1 must fail
    from quiverhecke import klr
    from quiverhecke.laurent import Laurent

    right = klr.hom_graded_dimension_closed
    monkeypatch.setattr(
        klr,
        "hom_graded_dimension_closed",
        lambda *args: Laurent({-k: c for k, c in right(*args).terms.items()}),
    )
    code, out = run_cli(capsys, ["verify", "grdim", "--n", "2"])
    assert code == 1
    assert [c["pass"] for c in json.loads(out)["checks"]] == [False]


@pytest.mark.parametrize(
    "argv, failing",
    [
        (["verify", "cyclotomic", "--n", "2"], "cyclotomic-iso"),
        (["verify", "hall", "--q", "2"], "hall-serre-relation"),
    ],
)
def test_wrong_q_binomial_fails(capsys, monkeypatch, argv, failing):
    # a quantum binomial one too large in its top coefficient
    from quiverhecke import cyclotomic, hall
    from quiverhecke.laurent import Laurent, q_binomial

    def off_by_one(n, k):
        return q_binomial(n, k) + Laurent.gen(k * (n - k))

    monkeypatch.setattr(cyclotomic, "q_binomial", off_by_one)
    monkeypatch.setattr(hall, "q_binomial", off_by_one)
    code, out = run_cli(capsys, argv)
    assert code == 1
    assert [c["name"] for c in json.loads(out)["checks"] if not c["pass"]] == [
        failing
    ]


def test_installed_entry_point_runs():
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "quiverhecke.cli",
            "verify",
            "grdim",
            "--n",
            "2",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True
