import json
import warnings

import numpy as np
import pytest

from lacmas.cli import EXIT_CONFIG, EXIT_FAULT, EXIT_OK, EXIT_VERIFY, main
from lacmas.config import build_benchmark, config_from_dict, seeded_runs, wsn_runs
from lacmas.engine import CSV_HEADER, run, write_trace_csv
from lacmas.swarm import AgentSwarm
from lacmas.wsn import system_error

TINY = {
    "objective": {"num_agents": 4, "dim": 3, "hetero_sigma": 0.0},
    "max_iterations": 40,
    "num_runs": 2,
    "log_every": 10,
    "pcg": {"horizon_T": 60},
}


def write_config(tmp_path, extra=None):
    data = dict(TINY)
    if extra:
        data.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def read_csv_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# master_seed=")
    assert lines[1] == CSV_HEADER
    return lines[2:]


def test_run_emits_one_csv_per_function_seed_pair(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "results"
    code = main(["run", "--config", str(cfg), "--suite", "sphere", "--out", str(out)])
    assert code == EXIT_OK
    csvs = sorted(out.glob("trace_*.csv"))
    assert len(csvs) == 2
    assert read_csv_rows(csvs[0])
    assert (out / "summary_full.txt").exists()


def test_run_is_byte_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--suite", "sphere", "--out", str(out_a)]) == EXIT_OK
    assert main(["run", "--config", str(cfg), "--suite", "sphere", "--out", str(out_b)]) == EXIT_OK
    for pa in sorted(out_a.glob("*.csv")):
        pb = out_b / pa.name
        assert pa.read_bytes() == pb.read_bytes()


def test_baseline_llm_provider_needs_no_endpoint(tmp_path, capsys, monkeypatch):
    # A baseline run consults no guidance: provider llm without an endpoint
    # runs, silently, exactly as the heuristic provider does.
    monkeypatch.delenv("LACMAS_LLM_URL", raising=False)
    monkeypatch.delenv("LACMAS_LLM_MODEL", raising=False)
    cfg = write_config(tmp_path)
    traces = {}
    for provider in ("llm", "heuristic"):
        out = tmp_path / provider
        code = main(
            [
                "run", "--config", str(cfg), "--suite", "sphere", "--out", str(out),
                "--variant", "baseline", "--provider", provider, "--seeds", "1",
            ]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""
        traces[provider] = [p.read_bytes() for p in sorted(out.glob("trace_*.csv"))]
    assert traces["llm"] and traces["llm"] == traces["heuristic"]


@pytest.mark.parametrize(
    "command, flag",
    [
        *[("verify", f) for f in
          ("--out", "--seed", "--variant", "--provider", "--max-iter", "--agents", "--dim")],
        *[("calibrate", f) for f in ("--out", "--variant", "--provider", "--max-iter")],
        ("wsn", "--agents"),
        ("wsn", "--dim"),
        ("suite", "--variant"),
    ],
)
def test_unread_flag_gives_config_exit(tmp_path, capsys, command, flag):
    # Each of these flags was accepted and then ignored by its subcommand.
    # `suite --variant` also shows that flags are not abbreviated: it used to
    # pass as `--variants`.
    value = {"--variant": "coop", "--provider": "heuristic"}.get(flag, "3")
    argv = [command, flag, value]
    if command == "verify":
        argv.append(str(tmp_path / "m.npz"))
    code = main(argv)
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip()
    assert err.startswith("configuration error:") and "unrecognized arguments" in err
    assert flag in err
    assert "\n" not in err


@pytest.mark.parametrize(
    "argv, detail",
    [
        (["run", "--bogus"], "--bogus"),
        (["run", "--seeds", "abc"], "--seeds"),
        (["wsn", "--provider", "gpt"], "--provider"),
        ([], "required"),
    ],
)
def test_bad_command_line_gives_config_exit(capsys, argv, detail):
    # argparse used to print its usage and exit 2, the runtime-fault code.
    code = main(argv)
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip()
    assert err.startswith("configuration error: lacmas") and detail in err
    assert "\n" not in err


def test_llm_provider_without_endpoint_writes_nothing(tmp_path, capsys, monkeypatch):
    # The missing endpoint used to surface inside the first run, after the
    # output directory had been created.
    monkeypatch.delenv("LACMAS_LLM_URL", raising=False)
    monkeypatch.delenv("LACMAS_LLM_MODEL", raising=False)
    cfg = write_config(tmp_path)
    out = tmp_path / "r"
    code = main(
        ["run", "--config", str(cfg), "--suite", "sphere", "--provider", "llm", "--out", str(out)]
    )
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip()
    assert err.startswith("configuration error:") and "LACMAS_LLM_URL" in err
    assert "\n" not in err
    assert not out.exists()


def assert_llm_timeout_gives_config_exit(tmp_path, capsys, monkeypatch, timeout):
    monkeypatch.setenv("LACMAS_LLM_URL", "http://localhost:9")
    monkeypatch.setenv("LACMAS_LLM_MODEL", "m")
    cfg = write_config(tmp_path, {"guidance": {"llm_timeout": timeout}})
    out = tmp_path / "r"
    code = main(
        ["run", "--config", str(cfg), "--suite", "sphere", "--provider", "llm", "--out", str(out)]
    )
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip()
    assert err.startswith("configuration error:") and "guidance.llm_timeout" in err
    assert "\n" not in err
    assert not out.exists()


@pytest.mark.parametrize("timeout", [0, -1])
def test_non_positive_llm_timeout_gives_config_exit(tmp_path, capsys, monkeypatch, timeout):
    # Such a timeout used to exit 0 with every guidance refresh fallen back.
    assert_llm_timeout_gives_config_exit(tmp_path, capsys, monkeypatch, timeout)


def test_llm_timeout_beyond_the_socket_limit_gives_config_exit(tmp_path, capsys, monkeypatch):
    # Above threading.TIMEOUT_MAX the socket raises OverflowError, which the
    # provider's fallback does not catch: the run ended in a traceback at its
    # first cooperation refresh.
    assert_llm_timeout_gives_config_exit(tmp_path, capsys, monkeypatch, 1e10)


@pytest.mark.parametrize(
    "data, key",
    [
        ({"definitely_not_a_key": 1}, "definitely_not_a_key"),
        # The heuristic rule parameters are constants of guidance.py.
        ({"heuristic": {"self_weight": 0.2}}, "heuristic"),
        # The scenario seed of a WSN run is its run seed.
        ({"wsn": {"seed": 0}}, "wsn.'seed'"),
        # The swarm's coefficients and particle count are constants of swarm.py.
        ({"swarm": {"population": 10}}, "unknown configuration key 'swarm'"),
    ],
)
def test_unknown_config_key_gives_config_exit(tmp_path, capsys, data, key):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    # A budget of one short run, so a key that loads fails fast.
    out = tmp_path / "out"
    budget = ["--max-iter", "1", "--seeds", "1", "--suite", "sphere", "--out", str(out)]
    code = main(["run", "--config", str(path), *budget])
    assert code == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "guidance, key",
    [({"act_window": 25}, "act_window"), ({"act_window": 0}, "act_window"),
     ({"coop_window": 40}, "coop_window")],
)
def test_bad_guidance_window_fails_before_first_round(tmp_path, capsys, guidance, key):
    # The act window used to pass loading and fail at the first act refresh.
    cfg = write_config(tmp_path, {"guidance": guidance, "max_iterations": 100000})
    code = main(["run", "--config", str(cfg), "--suite", "sphere", "--out", str(tmp_path / "r")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip()
    assert err.startswith("configuration error:") and key in err
    assert "\n" not in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "extra, key",
    [
        ({"max_iterations": "100"}, "max_iterations"),
        ({"log_every": 2.5}, "log_every"),
        ({"master_seed": True}, "master_seed"),
        ({"convergence_threshold": True}, "convergence_threshold"),
        ({"variant": None}, "variant"),
        ({"pcg": {"horizon_T": "30"}}, "pcg.horizon_T"),
    ],
)
def test_wrongly_typed_value_gives_config_exit(tmp_path, capsys, extra, key):
    # Unchecked, "max_iterations": "100" loads and ends in a TypeError traceback.
    cfg = write_config(tmp_path, extra)
    code = main(["run", "--config", str(cfg), "--suite", "sphere", "--out", str(tmp_path / "r")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip()
    assert err.startswith("configuration error:") and key in err
    assert "\n" not in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "extra, key",
    [
        ({"provider": "llm", "guidance": {"llm_url": 5, "llm_model": "m"}}, "guidance.llm_url"),
        ({"provider": "llm", "guidance": {"llm_url": "http://h", "llm_model": ["m"]}},
         "guidance.llm_model"),
        ({"graph": {"kind": "explicit", "edges": 5}}, "graph.edges"),
        ({"graph": {"kind": "explicit", "edges": [[0, 1, 2]]}}, "graph.edges"),
        ({"graph": {"kind": "explicit", "edges": [[0, "1"]]}}, "graph.edges"),
    ],
)
def test_wrongly_typed_optional_value_gives_config_exit(tmp_path, capsys, extra, key):
    # Keys whose default is None used to accept any type: an int llm_url ended
    # in an AttributeError, an int edge list in a TypeError, both mid-run.
    cfg = write_config(tmp_path, extra)
    code = main(["run", "--config", str(cfg), "--suite", "sphere", "--out", str(tmp_path / "r")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip()
    assert err.startswith("configuration error:") and key in err
    assert "\n" not in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("suite_flag", [[], ["--suite", ","], ["--suite", ""]])
def test_empty_suite_gives_config_exit(tmp_path, capsys, suite_flag):
    # An empty suite used to print "wrote 0 runs" and exit 0; an empty
    # `--suite ""` was dropped, and all ten families ran.
    cfg = write_config(tmp_path, {"suite": []} if not suite_flag else None)
    code = main(["run", "--config", str(cfg), *suite_flag, "--out", str(tmp_path / "r")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip()
    assert err.startswith("configuration error:") and "suite" in err
    assert "\n" not in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command", ["run", "suite", "wsn"])
def test_empty_out_gives_config_exit(tmp_path, capsys, monkeypatch, command):
    # An empty `--out ""` was dropped: the command wrote its files under the
    # config's output_dir, here `results` in the working directory.
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, {"suite": ["sphere"], "num_runs": 1, "max_iterations": 2})
    assert main([command, "--config", str(cfg), "--out", ""]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip()
    assert err.startswith("configuration error:") and "--out" in err
    assert "\n" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("below", [False, True])
@pytest.mark.parametrize("command", ["run", "suite", "wsn"])
def test_out_on_a_file_gives_config_exit(tmp_path, capsys, command, below):
    # `--out` naming a file used to end in a FileExistsError traceback, and a
    # path below a file in a NotADirectoryError one.
    cfg = write_config(tmp_path, {"suite": ["sphere"], "num_runs": 1, "max_iterations": 2})
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / "r" if below else afile
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip()
    assert err.startswith("configuration error:") and "--out" in err
    assert "\n" not in err and "Traceback" not in err
    assert afile.read_text() == "kept\n"


@pytest.mark.parametrize(
    "graph, key",
    [
        # Each used to run without a random graph and exit 0, the key
        # ignored; the last two give the random graph's default values.
        ({"kind": "ring", "edge_prob": 0.9, "seed": 7}, "graph.edge_prob"),
        ({"kind": "ring", "seed": 0}, "graph.seed"),
        ({"kind": "explicit", "edges": [[0, 1], [1, 2], [2, 3]], "edge_prob": 0.3}, "graph.edge_prob"),
    ],
)
def test_random_graph_keys_go_only_with_a_random_graph(tmp_path, capsys, graph, key):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(
        {"graph": graph, "objective": {"num_agents": 4, "dim": 2}, "suite": ["sphere"],
         "num_runs": 1, "max_iterations": 20}
    ))
    out = tmp_path / "r"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip()
    assert err.startswith("configuration error:") and key in err
    assert "\n" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--suite", "sphere", "--max-iter", "0"],
        ["run", "--suite", "sphere", "--seeds", "0"],
        ["run", "--suite", "sphere", "--agents", "0"],
        ["suite", "--suite", "sphere", "--dim", "0"],
        ["wsn", "--targets", "0"],
        ["calibrate", "--probe-length", "0"],
        ["calibrate", "--probe-length", "-3"],
    ],
)
def test_zero_numeric_flag_gives_config_exit(tmp_path, capsys, argv):
    # A truthiness test would skip a zero flag, and a probe length set after
    # validation would skip the check; either runs the configured budget.
    out = tmp_path / "r"
    cfg = write_config(tmp_path)
    # calibrate writes no files, so it takes no --out.
    out_flag = [] if argv[0] == "calibrate" else ["--out", str(out)]
    code = main([*argv, "--config", str(cfg), *out_flag])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip()
    assert err.startswith("configuration error:")
    assert "unrecognized" not in err
    assert "\n" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, extra, flags, key",
    [
        ("run", {"master_seed": -1}, [], "master_seed"),
        ("run", {"objective": {"suite_seed": -3}}, [], "objective.suite_seed"),
        ("run", {"graph": {"kind": "random", "seed": -2}}, [], "graph.seed"),
        ("wsn", {"master_seed": -4}, [], "master_seed"),
        ("run", None, ["--seed", "-1"], "master_seed"),
        ("wsn", None, ["--seed", "-1"], "master_seed"),
    ],
)
def test_negative_seed_gives_config_exit(tmp_path, capsys, command, extra, flags, key):
    # numpy's SeedSequence rejects negative entropy: unchecked, each of these
    # ended in "ValueError: expected non-negative integer" and a traceback.
    cfg = write_config(tmp_path, extra)
    out = tmp_path / "r"
    argv = [command, "--config", str(cfg), *flags, "--out", str(out)]
    if command == "run":
        argv += ["--suite", "sphere"]
    code = main(argv)
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip()
    assert err.startswith("configuration error:") and key in err
    assert "\n" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "extra, key",
    [
        ({"convergence_threshold": float("nan")}, "convergence_threshold"),
        ({"objective": {"bound": float("inf")}}, "objective.bound"),
        ({"graph": {"kind": "random", "edge_prob": float("nan")}}, "graph.edge_prob"),
        ({"pcg": {"horizon_T": 10**400}}, "pcg.horizon_T"),
        ({"objective": {"bound": -(10**400)}}, "objective.bound"),
        ({"objective": {"bound": 1e308}}, "finite widths"),
        ({"objective": {"hetero_sigma": 1e308}}, "hetero_sigma"),
        ({"objective": {"bound": 0}}, "objective.bound"),
        ({"objective": {"bound": -5}}, "objective.bound"),
    ],
)
def test_unusable_number_gives_config_exit(tmp_path, capsys, extra, key):
    # Python's JSON reader accepts NaN, Infinity and integers of any size.
    # Unchecked, a NaN threshold never stopped a run, and the other values
    # ended in a ValueError or OverflowError traceback: from a float
    # conversion, a uniform draw, a squared float or a ceiling of infinity.
    # A bound of 0 ran in a zero-width box, and a negative one failed as a
    # shift outside the box.
    cfg = write_config(tmp_path, extra)
    code = main(["run", "--config", str(cfg), "--suite", "sphere", "--out", str(tmp_path / "r")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip()
    assert err.startswith("configuration error:") and key in err
    assert "\n" not in err


@pytest.mark.parametrize("noise", ["nan", "inf"])
def test_non_finite_flag_gives_config_exit(tmp_path, capsys, noise):
    # A flag's value passes the check a config file's value does. Unchecked,
    # --noise nan ran as if there were no noise and --noise inf aborted in
    # round 0.
    out = tmp_path / "r"
    argv = ["wsn", "--noise", noise, "--config", str(write_config(tmp_path)), "--out", str(out)]
    code = main(argv)
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip()
    assert err.startswith("configuration error:") and "--noise" in err
    assert "\n" not in err
    assert not out.exists()


def test_flag_replaces_a_bad_file_value_before_the_check(tmp_path, capsys):
    # The flag's value is the one the run uses, so the file's value is never
    # checked: this used to fail with "num_runs must be positive".
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"num_runs": 0}))
    out = tmp_path / "r"
    argv = ["run", "--config", str(cfg), "--seeds", "1", "--suite", "sphere",
            "--agents", "4", "--dim", "2", "--max-iter", "2", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert len(list(out.glob("trace_*.csv"))) == 1


@pytest.mark.parametrize(
    "extra, flags, named, unnamed",
    [
        (None, ["--hetero-sigma", "inf"], "--hetero-sigma", "objective.hetero_sigma"),
        ({"objective": {"hetero_sigma": float("inf")}}, [], "objective.hetero_sigma",
         "--hetero-sigma"),
        ({"objective": {"hetero_sigma": float("inf")}}, ["--hetero-sigma", "inf"],
         "--hetero-sigma", "objective.hetero_sigma"),
    ],
)
def test_a_bad_value_names_its_flag_or_its_key(tmp_path, capsys, extra, flags, named, unnamed):
    # Checked once after the merge, a value's error names where it came
    # from. With both bad, the file's value used to be checked, and named,
    # first, though the flag's would have replaced it.
    out = tmp_path / "r"
    argv = ["run", "--config", str(write_config(tmp_path, extra)), *flags,
            "--suite", "sphere", "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"configuration error: {named} must be a finite number")
    assert unnamed not in err and "\n" not in err
    assert not out.exists()


def test_contract_error_gives_config_exit(tmp_path, capsys):
    # A box this wide would overflow the squared dead-velocity limit; the
    # swarm's box check rejects it with a ContractError when the run is built.
    cfg = write_config(tmp_path, {"objective": {"bound": 1e200}})
    code = main(["run", "--config", str(cfg), "--suite", "sphere", "--out", str(tmp_path / "r")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip()
    assert err.startswith("configuration error:") and "mean span" in err
    assert "\n" not in err


@pytest.mark.parametrize("command", ["run", "suite"])
def test_bad_box_fails_before_the_output_directory_exists(tmp_path, capsys, command):
    # The box used to be checked only when the first run set up its
    # population, after the output directory had been created.
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(
        {"objective": {"bound": 1e200, "num_agents": 4, "dim": 2}, "suite": ["sphere"], "num_runs": 1}
    ))
    out = tmp_path / "r"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip()
    assert err.startswith("configuration error:") and "mean span" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "graph",
    [
        # Used to run a plain ring and exit 0, the edge list ignored.
        {"kind": "ring", "edges": [[0, 1], [1, 2], [2, 3], [0, 2]]},
        # Used to fail as "invalid graph: connectivity", naming no edges.
        {"kind": "explicit"},
    ],
)
def test_edges_go_only_with_an_explicit_graph(tmp_path, capsys, graph):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(
        {"graph": graph, "objective": {"num_agents": 4, "dim": 2}, "suite": ["sphere"], "num_runs": 1}
    ))
    out = tmp_path / "r"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip()
    assert err.startswith("configuration error:") and "graph.edges" in err
    assert "\n" not in err
    assert not out.exists()


@pytest.mark.parametrize("source", ["config", "environment"])
@pytest.mark.parametrize("url", ["localhost:11434", "http://localhost:port", "http://:11434"])
def test_unusable_llm_url_fails_before_output(tmp_path, capsys, monkeypatch, source, url):
    # A URL without a scheme used to exit 0 with every refresh fallen back
    # to the heuristic: act_calls=8 coop_calls=40 fallbacks=48.
    monkeypatch.setenv("LACMAS_LLM_MODEL", "m")
    if source == "config":
        monkeypatch.delenv("LACMAS_LLM_URL", raising=False)
        cfg = write_config(tmp_path, {"guidance": {"llm_url": url}})
    else:
        monkeypatch.setenv("LACMAS_LLM_URL", url)
        cfg = write_config(tmp_path)
    out = tmp_path / "r"
    argv = ["run", "--config", str(cfg), "--suite", "sphere", "--provider", "llm", "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err.strip()
    key = "guidance.llm_url" if source == "config" else "LACMAS_LLM_URL"
    assert err.startswith(f"configuration error: {key}:") and repr(url) in err
    assert "\n" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "provider, variant", [("heuristic", "full"), ("llm", "baseline")]
)
def test_unusable_llm_url_is_ignored_by_a_run_that_never_asks(
    tmp_path, capsys, monkeypatch, provider, variant
):
    # Only a guided llm run sends requests, so only it checks the URL.
    monkeypatch.setenv("LACMAS_LLM_URL", "localhost:11434")
    monkeypatch.setenv("LACMAS_LLM_MODEL", "m")
    cfg = write_config(tmp_path)
    argv = [
        "run", "--config", str(cfg), "--suite", "sphere", "--out", str(tmp_path / "r"),
        "--variant", variant, "--provider", provider, "--seeds", "1",
    ]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv, extra",
    [
        # Positions near 1e155 overflow the squared distances: divergence inf.
        (["run", "--suite", "sphere", "--agents", "4", "--dim", "2"], {"objective": {"bound": 1e155}}),
        # Range noise near 1e300 overflows every local fitness value.
        (["wsn"], {"wsn": {"noise_sigma": 1e300}}),
        # The first overflow again, in a suite cell run to the full budget.
        (["suite", "--suite", "sphere", "--agents", "4", "--dim", "2"], {"objective": {"bound": 1e155}}),
    ],
)
def test_overflowing_run_aborts_as_numerical_fault(tmp_path, capsys, argv, extra):
    # These used to run on to the first cooperation refresh and stop there
    # with "configuration error: ... must be finite" (exit 1).
    # The fault reports the overflow once: numpy's RuntimeWarnings, which
    # used to add six lines to stderr, would raise under this filter.
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(extra))
    out = tmp_path / "r"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([*argv, "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_FAULT
    err = capsys.readouterr().err
    assert "configuration error:" not in err
    assert "RuntimeWarning" not in err
    # The aborted run's summary, and no result file: `run` used to leave the
    # aborted run's trace behind.
    assert err.startswith("variant=") and "\nwall_clock_s=" in err
    assert "aborted=true fault=non-finite best value" in err
    assert list(out.iterdir()) == []


def test_non_finite_particle_state_exits_as_numerical_fault(tmp_path, capsys, monkeypatch):
    # NaN velocities in agent 2: the batched swarm update finds them.
    original = AgentSwarm.step_particles

    def step(self, *args, **kwargs):
        if self.agent_id == 2:
            self.population.velocities[2] = np.nan
        return original(self, *args, **kwargs)

    monkeypatch.setattr(AgentSwarm, "step_particles", step)
    cfg = write_config(tmp_path)
    argv = ["run", "--config", str(cfg), "--suite", "sphere", "--out", str(tmp_path / "r")]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    assert code == EXIT_FAULT
    err = capsys.readouterr().err
    assert "aborted=true fault=non-finite particle state for agent 2" in err


@pytest.mark.parametrize(
    "argv, extra, detail",
    [
        (["run", "--suite", "sphere,sphere"], None, "suite names a family twice"),
        (["run"], {"suite": ["ackley", "sphere", "ackley"]}, "suite names a family twice"),
        (["suite", "--suite", "sphere,sphere"], None, "suite names a family twice"),
        (["suite", "--suite", "sphere", "--variants", "full,coop,full"], None, "--variants"),
    ],
)
def test_repeated_family_or_variant_gives_config_exit(tmp_path, capsys, argv, extra, detail):
    # A repeated family used to overwrite the first one's traces, and a
    # repeated variant ran every cell twice into two identical rows.
    cfg = write_config(tmp_path, extra)
    out = tmp_path / "r"
    assert main([*argv, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip()
    assert err.startswith("configuration error:") and detail in err
    assert "\n" not in err
    assert not out.exists()


def test_suite_table_has_row_per_function_variant(tmp_path):
    cfg = write_config(tmp_path, {"max_iterations": 30, "num_runs": 1})
    out = tmp_path / "results"
    code = main(
        [
            "suite", "--config", str(cfg), "--suite", "sphere,rastrigin",
            "--variants", "baseline,coop,act,full", "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    lines = (out / "ablation.csv").read_text().splitlines()
    assert lines[0].startswith("family,variant")
    assert len(lines) == 1 + 2 * 4
    assert sum(1 for l in lines if l.startswith("sphere,")) == 4


def test_empty_variant_list_gives_config_exit(tmp_path, capsys):
    # An empty list used to write an ablation.csv holding only the header.
    cfg = write_config(tmp_path)
    out = tmp_path / "r"
    code = main(["suite", "--config", str(cfg), "--variants", ",", "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip()
    assert err.startswith("configuration error:") and "--variants" in err
    assert "\n" not in err
    assert not out.exists()


def test_wsn_subcommand_emits_trace(tmp_path, capsys):
    cfg = write_config(tmp_path, {"wsn": {"num_sensors": 4, "num_targets": 1}})
    out = tmp_path / "results"
    code = main(
        ["wsn", "--config", str(cfg), "--out", str(out), "-n", "4", "--targets", "1"]
    )
    assert code == EXIT_OK
    # One run per seed of the config's num_runs (2), each with its trace.
    traces = sorted(p.name for p in out.glob("wsn_*.csv"))
    assert traces == ["wsn_n4_t1_seed0.csv", "wsn_n4_t1_seed1.csv"]
    assert (out / "summary_wsn.txt").read_text().count("[wsn_n4_t1_seed") == 2
    assert len((out / "err_by_targets.csv").read_text().splitlines()) == 1 + 2
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("single-target runs below 0.001: ")
    assert printed[0].endswith("/2")
    assert printed[1].startswith("targets=1: mean final err (floored at 0.001) ")
    assert printed[2].startswith("floored error non-decreasing in target count: ")


def test_wsn_sweep_rows_are_the_errors_of_its_runs(tmp_path):
    # Every (target count, seed) run of the sweep, each row of err_by_targets.csv
    # the final error of that run built on its own through config.wsn_runs.
    data = {**TINY, "master_seed": 3, "num_runs": 1, "wsn": {"num_sensors": 4, "num_targets": 2}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "results"
    assert main(["wsn", "--config", str(path), "--seeds", "2", "--out", str(out)]) == EXIT_OK
    assert len(list(out.glob("wsn_*.csv"))) == 4
    header, *rows = (out / "err_by_targets.csv").read_text().splitlines()
    assert header == "num_targets,seed,final_err"
    expected = []
    for nt, objective, run_cfg in wsn_runs(config_from_dict({**data, "num_runs": 2})):
        report = run(run_cfg)
        seed = run_cfg.master_seed
        err = system_error(objective.scenario, objective.phi, report.final_states)
        expected.append(f"{nt},{seed},{err!r}")
        write_trace_csv(report, tmp_path / "trace.csv")
        trace = out / f"wsn_n4_t{nt}_seed{seed}.csv"
        assert trace.read_bytes() == (tmp_path / "trace.csv").read_bytes()
    assert rows == expected
    assert [row.split(",")[:2] for row in rows] == [["1", "3"], ["1", "4"], ["2", "3"], ["2", "4"]]


def test_calibrate_prints_positive_integer(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = main(["calibrate", "--config", str(cfg), "--probe-length", "60"])
    assert code == EXIT_OK
    printed = capsys.readouterr().out.strip().splitlines()[-1]
    assert int(printed) > 0


def test_verify_accepts_recorded_run(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "results"
    assert (
        main(
            [
                "run", "--config", str(cfg), "--suite", "sphere", "--out", str(out),
                "--seeds", "1", "--record-matrices",
            ]
        )
        == EXIT_OK
    )
    npz = next(out.glob("*_matrices.npz"))
    code = main(["verify", "--config", str(cfg), str(npz)])
    assert code == EXIT_OK


def test_verify_rejects_inadmissible_matrices(tmp_path, capsys):
    bad = np.eye(4)
    bad[0, 0] = 0.4  # row sum 0.4
    path = tmp_path / "bad.npz"
    np.savez(path, bad)
    cfg = write_config(tmp_path)
    code = main(["verify", "--config", str(cfg), str(path)])
    assert code == EXIT_VERIFY
    assert "admissible: false" in capsys.readouterr().out


def test_verify_names_the_first_off_pattern_entry(tmp_path, capsys):
    # 0 and 2 are not adjacent in ring(4); row 0 still sums to 1 and holds
    # no negative entry, so only the entry's position says what is wrong.
    bad = np.eye(4)
    bad[0, 0] = bad[0, 2] = 0.5
    path = tmp_path / "bad.npz"
    np.savez(path, bad)
    code = main(["verify", "--config", str(write_config(tmp_path)), str(path)])
    assert code == EXIT_VERIFY
    assert capsys.readouterr().out.splitlines()[0] == (
        "iteration 0: violation (row_dev=0.0, min=0.0, off_pattern=(0, 2))"
    )


def test_verify_output_positive(tmp_path, capsys):
    good = np.full((4, 4), 0.0)
    ring_rows = {0: (0, 1, 3), 1: (0, 1, 2), 2: (1, 2, 3), 3: (0, 2, 3)}
    for i, members in ring_rows.items():
        for k in members:
            good[i, k] = 1.0 / 3.0
    path = tmp_path / "good.npz"
    np.savez(path, good)
    cfg = write_config(tmp_path)
    code = main(["verify", "--config", str(cfg), str(path)])
    assert code == EXIT_OK
    assert "admissible: true" in capsys.readouterr().out


def _write_npy(path):
    np.save(path, np.eye(4))


def _write_bytes(path):
    path.write_bytes(b"not an archive of matrices")


def _write_0d_npz(path):
    np.savez(path, np.float64(0.25), np.eye(4))


def _write_object_npz(path):
    np.savez(path, np.array([[None]], dtype=object))


@pytest.mark.parametrize(
    "name, write",
    [
        ("m.npy", _write_npy),
        ("m.npz", _write_bytes),
        ("m.npz", _write_0d_npz),
        ("m.npz", _write_object_npz),
    ],
    ids=["npy", "not-a-zip", "0-d", "object"],
)
def test_verify_rejects_unusable_matrices_file(tmp_path, capsys, name, write):
    # Each of these used to end in a traceback: an ndarray is no context
    # manager, foreign bytes read as pickled data, a 0-d array has no rows,
    # and object arrays cannot be loaded without pickle.
    path = tmp_path / name
    write(path)
    code = main(["verify", "--config", str(write_config(tmp_path)), str(path)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip()
    assert err.startswith("configuration error:")
    assert "\n" not in err


def test_suite_table_has_criterion_6_fitness_reading(tmp_path):
    # Criterion 6 compares final_best_agent_value; the table must carry its mean.
    data = {"objective": {"num_agents": 4, "dim": 3}, "max_iterations": 30, "num_runs": 2}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    argv = ["suite", "--config", str(path), "--suite", "sphere", "--variants", "full",
            "--out", str(out)]
    assert main(argv) == EXIT_OK
    header, row = (out / "ablation.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    cfg = config_from_dict(data)
    run_cfgs = seeded_runs(cfg, build_benchmark(cfg, "sphere"), stop_at_convergence=False)
    bests = [run(run_cfg).final_best_agent_value for run_cfg in run_cfgs]
    assert float(cells["mean_best_agent_value"]) == sum(bests) / 2
