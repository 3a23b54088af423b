import numpy as np
import pytest

from btt_expm.block_linalg import BlockVector, error_report
from btt_expm.cli import main, parse_complex
from btt_expm.errors import ParseError
from btt_expm.io import (format_block_vector, parse_block_vector,
                         read_block_vector, write_block_vector)
from btt_expm.model_gen import random_subgenerator


class TestFileFormat:
    @pytest.mark.parametrize("seed", range(3))
    def test_round_trip_exact(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        arr = rng.standard_normal((5, 3, 3)) * 10.0 ** rng.integers(-12, 12, (5, 3, 3))
        v = BlockVector(arr)
        path = tmp_path / "v.btt"
        write_block_vector(path, v)
        back = read_block_vector(path)
        np.testing.assert_array_equal(back.data, v.data)

    def test_header_line(self):
        v = BlockVector(np.zeros((2, 3, 3)))
        text = format_block_vector(v)
        assert text.splitlines()[0] == "btt v1 n=2 m=3"
        assert len(text.splitlines()) == 1 + 2 * 3

    def test_comments_ignored(self):
        v = BlockVector(np.ones((1, 1, 1)))
        text = format_block_vector(v, comments=["method=test", "extra"])
        assert "# method=test" in text
        back = parse_block_vector(text)
        np.testing.assert_array_equal(back.data, v.data)

    @pytest.mark.parametrize("text", [
        "",
        "btt v2 n=1 m=1\n0",
        "btt v1 n=1 m=1\n",
        "btt v1 n=1 m=1\n1 2",
        "btt v1 n=1 m=2\n1 2\nbad x",
        "btt v1 n=0 m=1\n",
    ])
    def test_malformed_rejected(self, text):
        with pytest.raises(ParseError):
            parse_block_vector(text)

    @pytest.mark.parametrize("line", [1, 4, 6])
    def test_bad_token_names_its_line(self, line):
        # the messages of the per-line parser, for any line of the file
        rows = [["0.5", "1e-3"] for _ in range(6)]
        rows[line - 1][1] = "x"
        text = "btt v1 n=3 m=2\n" + "\n".join(" ".join(r) for r in rows) + "\n"
        with pytest.raises(ParseError) as exc:
            parse_block_vector(text)
        assert str(exc.value) == (
            f"data line {line}: could not convert string to float: 'x'")

    @pytest.mark.parametrize("body,message", [
        ("1\n2 3 4", "data line 1 has 1 values, expected 2"),
        ("1 2 ;\n3", "data line 1 has 3 values, expected 2"),
        ("1 ;\n2 3", "data line 1: could not convert string to float: ';'"),
    ])
    def test_value_count_names_its_line(self, body, message):
        # the total count matches in each case; so does the place of the line
        # separator token in the last two
        with pytest.raises(ParseError) as exc:
            parse_block_vector("btt v1 n=1 m=2\n" + body + "\n")
        assert str(exc.value) == message

    def test_missing_file(self):
        with pytest.raises(ParseError):
            read_block_vector("/definitely/not/here.btt")

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_format_matches_per_value_loop(self, m):
        # the reference is the per-value f-string the format was defined by
        extremes = [-0.0, 1e-300, 5e300, 2.0 ** -1074, np.pi, -1 / 3, 0.0, 1.0]
        v = BlockVector(np.resize(extremes, 8 * m * m).reshape(8, m, m))
        lines = [f"btt v1 n=8 m={m}"]
        lines += [" ".join(f"{x:.17g}" for x in row) for block in v.data for row in block]
        lines += ["# method=test"]
        assert format_block_vector(v, ["method=test"]) == "\n".join(lines) + "\n"

    def test_complex_not_serialized(self):
        with pytest.raises(ValueError):
            format_block_vector(BlockVector(np.ones((1, 1, 1)) * 1j))


class TestParseComplex:
    @pytest.mark.parametrize("text,value", [
        ("0.5", 0.5),
        ("1e-2", 1e-2),
        ("1e-2i", 1e-2j),
        ("-3+0.25i", -3 + 0.25j),
        ("i", 1j),
        ("-i", -1j),
        ("2-4i", 2 - 4j),
    ])
    def test_accepted_forms(self, text, value):
        assert parse_complex(text) == value

    @pytest.mark.parametrize("text", ["", "abc", "1+2x", "1j"])
    def test_rejected_forms(self, text):
        with pytest.raises(ParseError):
            parse_complex(text)


@pytest.fixture
def instance_file(tmp_path):
    spec = random_subgenerator(6, 2, seed=5, alpha_target=0.05)
    path = tmp_path / "inst.btt"
    write_block_vector(path, spec.u)
    return str(path)


class TestCli:
    def test_gen_then_validate(self, tmp_path, capsys):
        path = str(tmp_path / "g.btt")
        assert main(["gen", "--n", "4", "--m", "2", "--seed", "9",
                     "--alpha-target", "0.5", "--out", path]) == 0
        assert main(["validate", path]) == 0
        out = capsys.readouterr().out
        assert "alpha=0.5" in out
        assert "recommended_epsilon_imaginary=" in out
        assert "recommended_K_at_1e-12=" in out

    def test_gen_banded(self, tmp_path):
        path = str(tmp_path / "b.btt")
        assert main(["gen", "--n", "8", "--m", "2", "--seed", "1",
                     "--bandwidth", "2", "--out", path]) == 0
        v = read_block_vector(path)
        assert np.abs(v.data[2:]).max() == 0.0

    def test_expm_single_block_any_method(self, tmp_path, capsys):
        from oracles import expm_small
        spec = random_subgenerator(1, 2, slack=0.4, seed=3)
        path = str(tmp_path / "one.btt")
        write_block_vector(path, spec.u)
        for method in ("eps-circulant", "eps-averaged", "embedding", "taylor"):
            assert main(["expm", path, "--method", method, "--out", "-"]) == 0
            y = parse_block_vector(capsys.readouterr().out)
            np.testing.assert_allclose(y.data[0], expm_small(spec.u.data[0]),
                                       rtol=1e-10, atol=1e-12)

    def test_expm_methods_agree(self, instance_file, tmp_path):
        outs = {}
        for method in ("embedding", "taylor"):
            out = str(tmp_path / f"{method}.btt")
            assert main(["expm", instance_file, "--method", method,
                         "--out", out]) == 0
            outs[method] = read_block_vector(out)
        rep = error_report(outs["embedding"], outs["taylor"])
        assert rep.nw_rel <= 1e-9

    def test_expm_writes_metadata(self, instance_file, capsys):
        assert main(["expm", instance_file, "--method", "embedding",
                     "--K", "16", "--out", "-"]) == 0
        out = capsys.readouterr().out
        assert "# method=embedding" in out
        assert "# K=16" in out

    def test_expm_writes_effective_length(self, tmp_path, capsys):
        from btt_expm.exp_btt import _schedule, exp_btt_taylor
        from btt_expm.model_gen import banded_subgenerator
        spec = banded_subgenerator(512, 2, 3, seed=1, alpha_target=2.0)
        n_eff = _schedule(spec, 0)[0]
        assert n_eff < 512
        # every method shares the length schedule, and so its truncation
        bound = exp_btt_taylor(spec, 1e-15).predicted_bounds["truncation"]
        path = str(tmp_path / "banded.btt")
        write_block_vector(path, spec.u)
        for method in ("eps-circulant", "eps-averaged", "embedding", "taylor"):
            assert main(["expm", path, "--method", method, "--out", "-"]) == 0
            out = capsys.readouterr().out
            assert f"# n_eff={n_eff}\n" in out
            assert f"# predicted_truncation={bound:.17g}\n" in out
            assert np.all(parse_block_vector(out).data[n_eff:] == 0)

    def test_expm_embedding_default_K_from_rule(self, tmp_path, capsys):
        # K = 4n gave nw_rel 7.3e-4 here; the rule's K at 1e-12 gives roundoff
        from btt_expm.dense_expm import expm_dense_oracle
        from btt_expm.exp_btt import scaling_exponent, select_embedding_K
        spec = random_subgenerator(128, 3, density=0.3, seed=11, alpha_target=50.0)
        path = str(tmp_path / "dense.btt")
        write_block_vector(path, spec.u)
        assert main(["expm", path, "--method", "embedding", "--out", "-"]) == 0
        out = capsys.readouterr().out
        K = select_embedding_K(spec.scaled(scaling_exponent(spec)), 1e-12)
        assert K > 4 * 128
        assert f"# K={K}\n" in out
        y = parse_block_vector(out)
        assert error_report(y, expm_dense_oracle(spec)).nw_rel <= 1e-12

    def test_missing_input_exits_2(self, capsys):
        assert main(["expm", "/nope.btt", "--method", "taylor"]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_subgenerator_exits_3(self, tmp_path, capsys):
        path = tmp_path / "bad.btt"
        path.write_text("btt v1 n=1 m=1\n1.0\n")
        assert main(["expm", str(path), "--method", "taylor"]) == 3

    def test_numerical_failure_exits_4(self, tmp_path):
        spec = random_subgenerator(4, 2, seed=2, alpha_target=1.0)
        path = str(tmp_path / "inst.btt")
        write_block_vector(path, spec.u)
        assert main(["expm", path, "--method", "taylor",
                     "--tol", "1e-15", "--max-terms", "2"]) == 4

    def test_taylor_no_scaling_exits_2(self, tmp_path, capsys):
        spec = random_subgenerator(4, 2, seed=2, alpha_target=1.0)
        path = str(tmp_path / "inst.btt")
        write_block_vector(path, spec.u)
        assert main(["expm", path, "--method", "taylor", "--no-scaling"]) == 2
        assert "--no-scaling" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--method", "eps-averaged", "--k", "0"],
        ["--method", "eps-circulant", "--epsilon", "2i"],
        ["--method", "eps-circulant", "--epsilon", "0"],
        ["--method", "embedding", "--K", "3"],
        ["--method", "taylor", "--tol", "0"],
        ["--method", "taylor", "--max-terms", "1"],
    ])
    def test_bad_method_parameter_exits_2(self, tmp_path, capsys, flags):
        # the methods' own parameter checks, reported as a bad flag
        path = str(tmp_path / "inst.btt")
        write_block_vector(path, random_subgenerator(16, 2, seed=3).u)
        assert main(["expm", path, *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["expm", "--method", "eps-circulant", "--epsilon", "nan"],
        ["expm", "--method", "eps-circulant", "--epsilon", "nani"],
        ["sweep-epsilon", "--thetas", "1e-2,inf"],
    ])
    def test_non_finite_parameter_exits_2(self, instance_file, capsys, argv):
        # these wrote a NaN row or NaN errors and exited 0
        assert main([argv[0], instance_file, *argv[1:], "--out", "-"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err

    @pytest.mark.parametrize("argv", [
        ["expm", "{inst}", "--method", "taylor"],
        ["gen", "--n", "4", "--m", "2"],
        ["sweep-epsilon", "{inst}", "--thetas", "1e-2"],
        ["sweep-K", "{inst}", "--K-list", "16"],
    ])
    def test_unwritable_out_exits_2(self, instance_file, tmp_path, capsys, argv):
        out = str(tmp_path / "missing" / "out.txt")
        argv = [a.replace("{inst}", instance_file) for a in argv]
        assert main([*argv, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}") and "Traceback" not in err

    def test_bad_flags_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["expm", "x.btt", "--method", "splines"])
        assert exc.value.code == 2

    def test_sweep_epsilon_rows_and_shape(self, instance_file, capsys):
        thetas = "1e-6,1e-4,1e-2,1e-1"
        assert main(["sweep-epsilon", instance_file, "--thetas", thetas,
                     "--k", "1,2", "--out", "-"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "# reference=dense_oracle"
        assert lines[1] == "theta,k,cw_abs,cw_rel,nw_abs,nw_rel,wall_time"
        rows = [ln.split(",") for ln in lines[2:]]
        assert len(rows) == 4 * 2  # |grid| * |k list|
        k1 = {float(r[0]): float(r[5]) for r in rows if r[1] == "1"}
        # V shape: the mid-grid error is below both extremes for k=1
        assert min(k1[1e-4], k1[1e-2]) < k1[1e-6]
        assert min(k1[1e-4], k1[1e-2]) < k1[1e-1]
        # k=2 at least as accurate as k=1 where approximation error dominates
        k2 = {float(r[0]): float(r[5]) for r in rows if r[1] == "2"}
        assert k2[1e-1] <= k1[1e-1]

    def test_sweep_epsilon_k4_curve_almost_decreasing(self, instance_file, capsys):
        thetas = "1e-6,1e-4,1e-2,3e-1"
        assert main(["sweep-epsilon", instance_file, "--thetas", thetas,
                     "--k", "4", "--out", "-"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        nw = [float(ln.split(",")[5]) for ln in lines[2:]]
        assert nw[-1] < nw[0]
        inversions = sum(1 for a, b in zip(nw, nw[1:]) if b > a)
        assert inversions <= 1

    def test_sweep_K_monotone_and_predicted(self, instance_file, capsys):
        # K equal to the instance length itself is admissible
        assert main(["sweep-K", instance_file, "--K-list", "6,8,16,32,64",
                     "--out", "-"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1].startswith("K,")
        rows = [ln.split(",") for ln in lines[2:]]
        assert [r[0] for r in rows] == ["6", "8", "16", "32", "64"]
        assert all(np.isfinite(float(x)) for r in rows for x in r[1:])
        nw = [float(r[3]) for r in rows[1:]]
        floor = 1e-13
        for a, b in zip(nw, nw[1:]):
            assert b <= a or a <= floor
        predicted = [float(r[6]) for r in rows[1:]]
        assert all(a > b for a, b in zip(predicted, predicted[1:]))

    def test_sweep_outputs_deterministic_up_to_wall_time(self, instance_file, capsys):
        def run():
            assert main(["sweep-epsilon", instance_file, "--thetas", "1e-4,1e-2",
                         "--k", "1,2", "--out", "-"]) == 0
            rows = capsys.readouterr().out.strip().splitlines()
            return [",".join(ln.split(",")[:-1]) for ln in rows]  # drop wall_time
        assert run() == run()
