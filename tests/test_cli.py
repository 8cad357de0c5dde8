import csv
import json

import pytest

from erclique.cli import main
from erclique.hypergraph import Hypergraph, write_hypergraph


def run(args):
    return main([str(a) for a in args])


def read_rows(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_sample_roundtrip(tmp_path):
    assert run(["sample", "--n", 8, "--c", "0.5", "--s", 2,
                "--out-dir", tmp_path, "--output", "g.txt", "--seed", 1]) == 0
    from erclique.hypergraph import read_hypergraph
    g = read_hypergraph(tmp_path / "g.txt")
    assert g.n == 8 and g.s == 2


def test_sample_kpartite(tmp_path):
    assert run(["sample", "--n", 2, "--k", 3, "--c", "0.5", "--s", 2, "--kpartite",
                "--out-dir", tmp_path, "--output", "kp.txt", "--seed", 1]) == 0
    from erclique.hypergraph import read_kpartite
    g = read_kpartite(tmp_path / "kp.txt")
    assert (g.n, g.k, g.s) == (2, 3, 2)


def test_count_brute_on_file(tmp_path):
    write_hypergraph(Hypergraph.complete(6, 2), tmp_path / "k6.txt")
    assert run(["count", "--input", tmp_path / "k6.txt", "--k", 3,
                "--out-dir", tmp_path, "--output", "out.csv"]) == 0
    rows = read_rows(tmp_path / "out.csv")
    assert rows[0][:7] == ["trial", "algorithm", "n", "k", "s", "c", "count"]
    assert rows[1][1] == "brute" and rows[1][6] == "20"


def test_count_greedy_agreement(tmp_path):
    assert run(["count", "--algo", "greedy,brute", "--n", 20, "--c", "0.4",
                "--s", 2, "--k", 3, "--trials", 5, "--compare-brute",
                "--seed", 3, "--out-dir", tmp_path, "--output", "g.csv"]) == 0
    rows = read_rows(tmp_path / "g.csv")[1:]
    assert all(r[8] == "true" for r in rows)


def test_count_itgen_cutoff_exit(tmp_path, capsys):
    write_hypergraph(Hypergraph.complete(6, 2), tmp_path / "k6.txt")
    code = run(["count", "--algo", "itgen", "--input", tmp_path / "k6.txt",
                "--k", 3, "--c", "0.001", "--out-dir", tmp_path])
    assert code == 1
    assert "cutoff" in capsys.readouterr().err


def test_malformed_file_exit(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 5 1\n1 9\n")
    code = run(["count", "--input", bad, "--k", 3, "--out-dir", tmp_path])
    assert code == 2
    assert "line 2" in capsys.readouterr().err


REDUCE_ARGS = ["--n", 5, "--c", "0.5", "--s", 3, "--k", 3, "--gamma", "0.2"]
COUNT_ARGS = ["--n", 8, "--c", "0.4", "--s", 2, "--k", 3]


@pytest.mark.parametrize("argv,message", [
    pytest.param(["count", "--n", 10, "--c", "1.5", "--s", 2, "--k", 3],
                 "c must be", id="count-c"),
    pytest.param(["reduce", *REDUCE_ARGS, "--trials", 0], "--trials", id="reduce-trials"),
    pytest.param(["parity-reduce", *REDUCE_ARGS, "--trials", 0], "--trials",
                 id="parity-trials"),
    pytest.param(["reduce", *REDUCE_ARGS, "--oracle", "flip", "--flip-rate", "abc"],
                 "--flip-rate", id="flip-rate-text"),
    pytest.param(["reduce", *REDUCE_ARGS, "--gamma", 0], "--gamma", id="gamma-zero"),
    pytest.param(["parity-reduce", *REDUCE_ARGS, "--gamma", "-0.1"], "--gamma",
                 id="gamma-negative"),
    pytest.param(["reduce", *REDUCE_ARGS, "-R", 0], "--repetitions", id="repetitions"),
    pytest.param(["verify-expansion", "--grid", "4,0.5,0.1"], "odd prime", id="grid-p4"),
    pytest.param(["verify-expansion", "--grid", "2,0.5,0.1"], "odd prime", id="grid-p2"),
    pytest.param(["verify-expansion", "--grid", "1,0.5,0.1"], "odd prime", id="grid-p1"),
    pytest.param(["decide", *COUNT_ARGS, "--trials-factor", 0], "--trials-factor",
                 id="trials-factor-zero"),
    pytest.param(["count", "--algo", "greedy", *COUNT_ARGS, "--eps", -1], "--eps",
                 id="count-eps"),
    pytest.param(["bench", "--algo", "greedy", *COUNT_ARGS, "--eps", -1], "--eps",
                 id="bench-eps"),
    pytest.param(["count", "--algo", "greedy", *COUNT_ARGS, "--iterations", -3],
                 "--iterations", id="count-iterations"),
    pytest.param(["bench", "--algo", "greedy", *COUNT_ARGS, "--iterations", -3],
                 "--iterations", id="bench-iterations"),
    pytest.param(["count", "--algo", "itgen", *COUNT_ARGS, "--cutoff-scale", -1],
                 "--cutoff-scale", id="count-cutoff-scale"),
    pytest.param(["bench", "--algo", "itgen", *COUNT_ARGS, "--cutoff-scale", -1],
                 "--cutoff-scale", id="bench-cutoff-scale"),
    pytest.param(["count", *COUNT_ARGS, "--workers", 0], "--workers", id="count-workers"),
    pytest.param(["reduce", *REDUCE_ARGS, "--workers", 0], "--workers",
                 id="reduce-workers"),
    pytest.param(["verify-expansion", "--grid", "5,0.5,0.01", "--workers", 0],
                 "--workers", id="verify-expansion-workers"),
    pytest.param(["sample", "--n", 5, "--c", "0.5", "--s", 2, "--workers", 0],
                 "--workers", id="sample-workers"),
    pytest.param(["count", "--algo", "greedy", *COUNT_ARGS, "--iterations", 0],
                 "--iterations", id="count-iterations-zero"),
])
def test_invalid_config_ranges(tmp_path, capsys, argv, message):
    code = run(argv + ["--out-dir", tmp_path])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_csv_determinism(tmp_path):
    for name in ("a.csv", "b.csv"):
        assert run(["count", "--algo", "greedy,brute", "--n", 15, "--c", "0.4",
                    "--s", 2, "--k", 3, "--trials", 4, "--compare-brute",
                    "--seed", 11, "--out-dir", tmp_path, "--output", name]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert b"\r" not in (tmp_path / "a.csv").read_bytes()


def test_reduce_exact(tmp_path):
    assert run(["reduce", "--n", 6, "--c", "0.5", "--s", 2, "--k", 3,
                "--trials", 2, "--adversarial", "-R", 1, "--gamma", "0.2",
                "--reports", "--seed", 2, "--out-dir", tmp_path,
                "--output", "red.csv"]) == 0
    rows = read_rows(tmp_path / "red.csv")
    body = [r for r in rows[1:] if r[0] != "summary"]
    assert all(r[9] == "true" and r[7] == r[8] for r in body)
    summary = rows[-1]
    assert summary[0] == "summary" and summary[9] == "1.0000"
    rep = json.loads((tmp_path / "reduce_trial0000.json").read_text())
    assert rep["succeeded"] is True
    assert rep["count"] == int(body[0][7])
    assert set(rep["query_tv"]) == {str(p) for p in rep["primes"]}
    assert all(0 <= tv <= 0.2 for tv in rep["query_tv"].values())


def test_reduce_flip_auto(tmp_path):
    assert run(["reduce", "--n", 6, "--c", "0.5", "--s", 2, "--k", 3,
                "--trials", 2, "--oracle", "flip", "--flip-rate", "auto",
                "-R", 1, "--gamma", "0.2", "--seed", 3, "--out-dir", tmp_path,
                "--output", "f.csv"]) == 0
    rows = read_rows(tmp_path / "f.csv")
    body = [r for r in rows[1:] if r[0] != "summary"]
    assert all(float(r[6]) < 1e-3 for r in body)  # auto rate resolved
    assert all(r[9] == "true" for r in body)  # tolerant rate: trials succeed


def test_parity_reduce(tmp_path):
    assert run(["parity-reduce", "--n", 6, "--c", "0.5", "--s", 2, "--k", 3,
                "--trials", 3, "-R", 1, "--seed", 5, "--out-dir", tmp_path,
                "--output", "par.csv"]) == 0
    rows = read_rows(tmp_path / "par.csv")
    body = [r for r in rows[1:] if r[0] != "summary"]
    assert all(r[9] == "true" for r in body)


def test_decide_cmd(tmp_path):
    assert run(["decide", "--n", 9, "--c", "0.7", "--s", 2, "--k", 3,
                "--trials", 3, "--seed", 7, "--out-dir", tmp_path,
                "--output", "dec.csv"]) == 0
    rows = read_rows(tmp_path / "dec.csv")[1:]
    assert all(r[4] == r[5] for r in rows)


def test_verify_expansion(tmp_path):
    assert run(["verify-expansion", "--grid", "5,0.5,0.01;31,0.1,0.01",
                "--out-dir", tmp_path, "--output", "v.csv"]) == 0
    rows = read_rows(tmp_path / "v.csv")
    assert rows[0][0] == "p"
    assert rows[1][5] == "true" and float(rows[1][6]) < 1e-12
    assert rows[2][5] == "true"


def test_verify_expansion_rejects_zero_eps(tmp_path, capsys):
    code = run(["verify-expansion", "--grid", "5,0.5,0", "--out-dir", tmp_path])
    assert code == 2


def test_config_file_defaults_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 6, "c": 0.5, "s": 2, "k": 3, "seed": 9}))
    assert run(["--config", cfg, "count", "--out-dir", tmp_path,
                "--output", "c1.csv", "--trials", 2]) == 0
    rows = read_rows(tmp_path / "c1.csv")[1:]
    assert rows[0][2] == "6"
    # explicit flag overrides the config value
    assert run(["--config", cfg, "count", "--n", 7, "--out-dir", tmp_path,
                "--output", "c2.csv", "--trials", 1]) == 0
    assert read_rows(tmp_path / "c2.csv")[1][2] == "7"


def test_env_var_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("ERCLIQUE_OUT", str(tmp_path / "envout"))
    assert run(["count", "--n", 6, "--c", "0.5", "--s", 2, "--k", 3,
                "--trials", 1, "--output", "e.csv"]) == 0
    assert (tmp_path / "envout" / "e.csv").exists()


def test_workers_preserve_order(tmp_path):
    assert run(["count", "--n", 12, "--c", "0.5", "--s", 2, "--k", 3,
                "--trials", 6, "--workers", 3, "--seed", 4,
                "--out-dir", tmp_path, "--output", "w.csv"]) == 0
    assert run(["count", "--n", 12, "--c", "0.5", "--s", 2, "--k", 3,
                "--trials", 6, "--workers", 1, "--seed", 4,
                "--out-dir", tmp_path, "--output", "w1.csv"]) == 0
    assert (tmp_path / "w.csv").read_bytes() == (tmp_path / "w1.csv").read_bytes()


@pytest.mark.parametrize("cmd", ["reduce", "parity-reduce"])
def test_reduce_csv_independent_of_workers(tmp_path, cmd):
    # trials running in threads share the memoised plan and nothing else
    for workers in (1, 2):
        assert run([cmd, "--n", 5, "--c", "0.5", "--s", 2, "--k", 3,
                    "--trials", 4, "-R", 1, "--gamma", "0.2", "--oracle", "flip",
                    "--flip-rate", "auto", "--workers", workers, "--seed", 6,
                    "--out-dir", tmp_path, "--output", f"w{workers}.csv"]) == 0
    assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()


def test_bench_smoke(tmp_path):
    assert run(["bench", "--n", 12, "--c", "0.5", "--s", 2, "--k", 3,
                "--trials", 1, "--seed", 0, "--out-dir", tmp_path,
                "--output", "b.csv"]) == 0
    rows = read_rows(tmp_path / "b.csv")[1:]
    assert {r[1] for r in rows} == {"brute", "greedy", "itgen", "matmul"}
    assert all(r[9] for r in rows)  # timings filled
