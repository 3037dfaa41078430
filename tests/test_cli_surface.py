"""The flag surface of repro-serve, repro-store and repro-eval is pinned.

``tests/data/cli_surface.json`` records, for every verb of the three
tools, each option's strings, dest, default, type, choices, required,
nargs, action and metavar, plus every mutually exclusive group.  It also
records the ``Namespace`` the benchmark harness's exact ``serve`` and
``coordinate`` command lines parse to.  A change to any flag fails here.

Regenerate only on a deliberate flag change:

    PYTHONPATH=src python tests/data/make_cli_surface.py
"""

from __future__ import annotations

import argparse
import json
import pathlib
import socket
import threading

import pytest

FIXTURE = pathlib.Path(__file__).parent / "data" / "cli_surface.json"

#: the argv ``benchmarks/perf/adapters.py`` starts its daemons with: a
#: ``serve_mixed`` daemon, a ``cluster_mixed`` worker and its coordinator
HARNESS_ARGV = {
    "serve": [
        "serve", "--root", "/tmp/sut", "--namespace", "bench",
        "--assignments", "a0", "a1", "--k", "256", "--port", "0",
        "--granularity", "day", "--compact-to", "off", "--tick", "3600",
    ],
    "serve-worker": [
        "serve", "--root", "/tmp/sut/w0", "--namespace", "bench",
        "--assignments", "a0", "a1", "--k", "256", "--port", "0",
        "--granularity", "day", "--compact-to", "off", "--tick", "3600",
        "--cluster-slots", "8",
    ],
    "coordinate": [
        "coordinate", "--root", "/tmp/sut/coordinator",
        "--namespace", "bench", "--assignments", "a0", "a1",
        "--k", "256", "--port", "0", "--slots", "8", "--replication", "2",
        "--heartbeat", "3600", "--repair-interval", "3600",
    ],
}


def _parsers() -> dict:
    from repro.evaluation.cli import build_parser as eval_parser
    from repro.service.cli import build_parser as serve_parser
    from repro.store.cli import build_parser as store_parser

    return {
        "repro-serve": serve_parser(),
        "repro-store": store_parser(),
        "repro-eval": eval_parser(),
    }


def _jsonable(value):
    if value is argparse.SUPPRESS or isinstance(value, (str, int, float)):
        return value
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return repr(value)


def _options(parser: argparse.ArgumentParser) -> dict:
    options = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            continue
        key = " ".join(action.option_strings) or action.dest
        options[key] = {
            "dest": action.dest,
            "default": _jsonable(action.default),
            "type": getattr(action.type, "__name__", None),
            "choices": (
                None if action.choices is None
                else sorted(str(choice) for choice in action.choices)
            ),
            "required": action.required,
            "nargs": action.nargs,
            "action": type(action).__name__,
            "metavar": action.metavar,
        }
    groups = [
        {
            "options": sorted(
                " ".join(action.option_strings)
                for action in group._group_actions
            ),
            "required": group.required,
        }
        for group in parser._mutually_exclusive_groups
    ]
    groups.sort(key=lambda group: group["options"])
    return {"options": options, "exclusive": groups}


def cli_surface() -> dict:
    """Every verb's flags, keyed ``tool -> verb -> ...`` (``""``: top)."""
    surface = {}
    for tool, parser in _parsers().items():
        verbs = {"": {**_options(parser), "help": None}}
        for action in parser._actions:
            if not isinstance(action, argparse._SubParsersAction):
                continue
            helps = {
                choice.dest: choice.help
                for choice in action._choices_actions
            }
            for name, sub in action.choices.items():
                verbs[name] = {**_options(sub), "help": helps.get(name)}
        surface[tool] = verbs
    serve = _parsers()["repro-serve"]
    surface["harness"] = {
        name: {
            key: _jsonable(value)
            for key, value in sorted(vars(serve.parse_args(argv)).items())
            if key != "func"
        }
        for name, argv in HARNESS_ARGV.items()
    }
    return surface


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def current() -> dict:
    # the same JSON round trip the fixture went through
    return json.loads(json.dumps(cli_surface(), sort_keys=True))


@pytest.mark.parametrize("tool", ["repro-serve", "repro-store", "repro-eval"])
def test_every_verb_keeps_its_flags(tool, pinned, current):
    assert sorted(current[tool]) == sorted(pinned[tool])
    for verb, spec in pinned[tool].items():
        assert current[tool][verb] == spec, f"{tool} {verb or '(top)'}"


@pytest.mark.parametrize("name", sorted(HARNESS_ARGV))
def test_harness_argv_parses_to_the_same_namespace(name, pinned, current):
    assert current["harness"][name] == pinned["harness"][name]


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.mark.parametrize("command", ["serve", "coordinate"])
def test_daemon_banner_lines(command, tmp_path, capsys):
    # benchmark harnesses read the bound port off the first stdout line
    from repro.service.cli import main
    from repro.service.client import ServiceClient

    port = _free_port()
    root = tmp_path / command
    argv = [
        command, "--root", str(root), "--namespace", "web",
        "--assignments", "h1", "h2", "--port", str(port),
    ]
    argv += (
        ["--compact-to", "off", "--tick", "3600"] if command == "serve"
        else ["--slots", "4", "--replication", "2", "--heartbeat", "3600",
              "--repair-interval", "3600"]
    )
    rc: list[int] = []
    thread = threading.Thread(
        target=lambda: rc.append(main(argv)), daemon=True
    )
    thread.start()
    with ServiceClient(port=port) as client:
        client.wait_ready()
        client.shutdown()
    thread.join(10.0)
    assert rc == [0]
    lines = capsys.readouterr().out.splitlines()
    if command == "serve":
        assert lines == [
            f"repro-serve listening on http://127.0.0.1:{port} "
            f"(store {root}, namespaces: web)",
            "repro-serve stopped (live windows checkpointed)",
        ]
    else:
        assert lines == [
            f"repro-serve coordinating on http://127.0.0.1:{port} "
            f"(root {root}, 4 slots x2, namespaces: web)",
            "repro-serve coordinator stopped",
        ]
