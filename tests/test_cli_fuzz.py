"""Property tests: no configuration file or matrices file makes the CLI crash.

Random JSON configs are drawn from the schema's own keys plus unknown keys,
with values of mixed types, NaN and inf included, and sent through
`lacmas.cli.main`. Whatever the file says, the command must end with exit 0,
a one-line `configuration error:` (exit 1) or a reported runtime fault
(exit 2); never with an uncaught exception. Budgets are pinned small so every
example that loads runs in milliseconds. A random subset of each subcommand's
other key flags, given random values, must end the same way. Random files
sent through `verify` must likewise end with exit 0, 1 or 3 (verification
failure).
"""

import contextlib
import io
import json
import math
import tempfile
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lacmas.cli import EXIT_CONFIG, EXIT_FAULT, EXIT_OK, EXIT_VERIFY, _build_parser, main
from lacmas.config import _NESTED, ExperimentConfig
from lacmas.cooperation import assemble_mixing_matrix
from lacmas.objectives import FAMILIES
from lacmas.topology import build_ring


def _default(f):
    return f.default if f.default is not MISSING else f.default_factory()


# Every schema key with its default, top-level keys under section None.
SCHEMA = {
    None: {f.name: _default(f) for f in fields(ExperimentConfig) if f.name not in _NESTED},
    **{s: {f.name: _default(f) for f in fields(cls)} for s, cls in _NESTED.items()},
}

# Keys forced to small values whenever their section is an object, so a
# config that loads runs a tiny budget. Zero and negative sizes are covered
# by test_cli.py.
PINNED = {
    None: {
        "max_iterations": st.integers(1, 20),
        "num_runs": st.just(1),
        "provider": st.just("heuristic"),
    },
    "objective": {"num_agents": st.integers(1, 8), "dim": st.integers(1, 5)},
    "wsn": {"num_sensors": st.integers(1, 8), "num_targets": st.integers(1, 3)},
}

WORDS = ["ring", "random", "explicit", "full", "baseline", "act", "coop", "heuristic",
         "llm", "sphere", "http://127.0.0.1:9", ""]
# Valid choices of the string keys, drawn more often than other words.
CHOICES = {
    "kind": ["ring", "random", "explicit"],
    "variant": ["baseline", "act", "coop", "full"],
}
floats = st.one_of(
    st.floats(-3.0, 3.0),
    st.floats(0.0, 1e4),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, 1e-300]),
    st.floats(allow_nan=True, allow_infinity=True),
)
ints = st.one_of(
    st.integers(-3, 40), st.integers(-(2**70), 2**70), st.sampled_from([10**400, -(10**400)])
)
scalars = st.one_of(
    st.none(), st.booleans(), ints, floats, st.sampled_from(WORDS), st.text(max_size=4)
)
garbage = st.one_of(
    scalars,
    st.lists(scalars, max_size=4),
    st.dictionaries(st.text(max_size=3), scalars, max_size=2),
)
edge_lists = st.lists(st.lists(st.integers(-2, 9), min_size=2, max_size=2), max_size=8)


def _typed(key, default):
    """Values of the default's own type, extreme ones included: these pass
    the type check and so reach the range checks and the run."""
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return ints
    if isinstance(default, float):
        return floats | ints
    if isinstance(default, str):
        return st.sampled_from(CHOICES.get(key, WORDS)) | st.sampled_from(WORDS)
    if isinstance(default, tuple):
        return st.lists(floats, min_size=len(default), max_size=len(default))
    if isinstance(default, list):
        return st.lists(st.sampled_from(FAMILIES), max_size=3)
    return st.none() | (edge_lists if key == "edges" else st.sampled_from(WORDS))


@st.composite
def _entries(draw, section):
    """A few keys of one section: mostly typed values, now and then a value
    of the wrong type or an unknown key."""
    keys = draw(st.lists(st.sampled_from(sorted(SCHEMA[section])), max_size=4, unique=True))
    entries = {}
    for key in keys:
        wrong = draw(st.integers(0, 19)) == 0
        entries[key] = draw(garbage if wrong else _typed(key, SCHEMA[section][key]))
    if draw(st.integers(0, 29)) == 0:
        entries[draw(st.text(min_size=1, max_size=8))] = draw(garbage)
    return entries


@st.composite
def configs(draw):
    config = draw(_entries(None))
    for section in _NESTED:
        if draw(st.booleans()):
            # Mostly an object; now and then a value of the wrong type.
            config[section] = draw(_entries(section) if draw(st.integers(0, 29)) else garbage)
    for section, pins in PINNED.items():
        target = config if section is None else config.setdefault(section, {})
        if isinstance(target, dict):
            for key, strategy in pins.items():
                target[key] = draw(strategy)
    return config


COMMANDS = {
    "run": ["run"],
    "suite": ["suite", "--variants", "baseline,full"],
    "wsn": ["wsn"],
    "calibrate": ["calibrate", "--probe-length", "20"],
}


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(config=configs(), command=st.sampled_from(sorted(COMMANDS)))
def test_any_config_ends_in_a_known_exit(config, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        argv = [*COMMANDS[command], "--config", str(path)]
        if command != "calibrate":  # calibrate writes no files and takes no --out
            argv += ["--out", str(Path(tmp) / "out")]
        code, err = _main_quietly(argv)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_FAULT)
    _check_config_error(code, err)


# Each fuzzed subcommand's key flags, as {config key: flag}, less the pinned
# budget keys and output_dir: `--out` is always the example's own directory.
UNDRAWN = {"output_dir"} | {
    k if s is None else f"{s}.{k}" for s, pins in PINNED.items() for k in pins
}
KEY_FLAGS = {
    command: {
        key: flag for key, flag in _build_parser().parse_args(argv).key_flags.items()
        if key not in UNDRAWN
    }
    for command, argv in COMMANDS.items()
}


@st.composite
def key_flag_args(draw, command):
    """`--flag=value` for a random subset of `command`'s key flags, as the
    command line spells it: mostly a value of the key's type, now and then
    any scalar."""
    args = []
    for key, flag in draw(st.lists(st.sampled_from(sorted(KEY_FLAGS[command].items())),
                                   max_size=3, unique=True)):
        section, _, name = key.rpartition(".")
        typed = _typed(name, SCHEMA[section or None][name])
        value = draw(scalars if draw(st.integers(0, 4)) == 0 else typed)
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        args.append(f"{flag}={text}")
    return args


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(config=configs(), command=st.sampled_from(sorted(COMMANDS)), data=st.data())
def test_any_config_and_key_flags_end_in_a_known_exit(config, command, data):
    # A flag's value joins the file's before the one check, so a bad flag
    # value must end like a bad file value.
    flags = data.draw(key_flag_args(command))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        argv = [*COMMANDS[command], "--config", str(path), *flags]
        if command != "calibrate":
            argv += ["--out", str(Path(tmp) / "out")]
        code, err = _main_quietly(argv)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_FAULT)
    _check_config_error(code, err)


def _main_quietly(argv):
    """main(argv)'s exit code and stderr, stdout discarded."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def _check_config_error(code, err):
    if code == EXIT_CONFIG:
        message = err.strip()
        assert message.startswith("configuration error:") and "\n" not in message


# What a matrices file may hold: 0-d, 1-d, non-square, object-dtype, square
# real matrices of any values, and admissible ones on the default ring graph.
matrix_entries = st.floats(allow_nan=True, allow_infinity=True)
held_arrays = st.one_of(
    arrays(np.float64, (), elements=matrix_entries),
    arrays(np.float64, st.integers(0, 5), elements=matrix_entries),
    arrays(np.float64, st.tuples(st.integers(0, 5), st.integers(0, 5)), elements=matrix_entries),
    st.lists(st.lists(scalars, max_size=3), max_size=3).map(lambda v: np.array(v, dtype=object)),
    st.integers(1, 6).flatmap(lambda n: arrays(np.float64, (n, n), elements=matrix_entries)),
    st.integers(3, 6).map(lambda n: assemble_mixing_matrix(build_ring(n))),
)


@st.composite
def matrices_files(draw):
    """(file name, bytes): random bytes, some behind a zip or .npy magic
    number, an .npy file, or an .npz archive, whole or cut short."""
    kind = draw(st.sampled_from(["bytes", "npy", "npz"]))
    if kind == "bytes":
        magic = draw(st.sampled_from([b"", b"PK\x03\x04", b"\x93NUMPY\x01\x00"]))
        return "m.npz", magic + draw(st.binary(max_size=64))
    buffer = io.BytesIO()
    if kind == "npy":
        np.save(buffer, draw(held_arrays))
        return "m.npy", buffer.getvalue()
    np.savez(buffer, *draw(st.lists(held_arrays, max_size=3)))
    data = buffer.getvalue()
    if draw(st.integers(0, 4)) == 0:
        data = data[: draw(st.integers(0, len(data)))]
    return "m.npz", data


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(matrices_files())
def test_any_matrices_file_ends_in_a_known_exit(file):
    name, data = file
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(data)
        code, err = _main_quietly(["verify", str(path)])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_VERIFY)
    _check_config_error(code, err)
