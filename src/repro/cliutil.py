"""What the three command-line tools share.

``repro-serve`` and ``repro-store`` are each one table of :class:`Verb`
rows (name, help, handler, flags); ``repro-eval`` is one flag list.  A
:class:`Flag` is one ``add_argument`` call and a flag group a tuple of
them, so a flag several verbs or tools take is written once.  :func:`run`
calls the handler and turns a user error into one ``error: ...`` exit.
"""

from __future__ import annotations

import argparse
import json
from typing import Callable, NamedTuple

from repro.ranks.families import RANK_FAMILIES

__all__ = [
    "ESTIMATOR", "FAMILY", "Flag", "OneOf", "SAMPLING", "USER_ERRORS",
    "Verb", "add_flags", "flag", "print_json", "read_events", "run",
    "verb_parser",
]


class Flag(NamedTuple):
    """The arguments of one ``add_argument`` call."""

    names: tuple
    options: dict


def flag(*names: str, **options) -> Flag:
    return Flag(names, options)


class OneOf(NamedTuple):
    """Flags of which at most one (exactly one if ``required``) is given."""

    flags: tuple
    required: bool = False


class Verb(NamedTuple):
    """One sub-command: ``handler(args)`` returns the exit status."""

    name: str
    help: str
    handler: Callable[[argparse.Namespace], int]
    flags: tuple = ()


def add_flags(parser, flags) -> None:
    """Add ``flags`` — :class:`Flag`, :class:`OneOf` or nested groups."""
    for entry in flags:
        if isinstance(entry, Flag):
            parser.add_argument(*entry.names, **entry.options)
        elif isinstance(entry, OneOf):
            add_flags(
                parser.add_mutually_exclusive_group(required=entry.required),
                entry.flags,
            )
        else:
            add_flags(parser, entry)


def verb_parser(
    prog: str, description: str, verbs: "tuple[Verb, ...]"
) -> argparse.ArgumentParser:
    """A parser with one required sub-command per :class:`Verb` row."""
    parser = argparse.ArgumentParser(prog=prog, description=description)
    commands = parser.add_subparsers(dest="command", required=True)
    for verb in verbs:
        sub = commands.add_parser(verb.name, help=verb.help)
        add_flags(sub, verb.flags)
        sub.set_defaults(func=verb.handler)
    return parser


#: a bad request, a missing or clashing input, an unreachable daemon
USER_ERRORS = (ValueError, KeyError, FileNotFoundError, FileExistsError,
               TimeoutError, ConnectionError)


def run(parser: argparse.ArgumentParser, argv, *errors) -> int:
    """Parse ``argv`` and call its handler; a user error (one of
    :data:`USER_ERRORS` or ``errors``) exits with ``error: ...``."""
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (*USER_ERRORS, *errors) as err:
        # str(KeyError) wraps its message in quotes; unwrap for clean output
        message = err.args[0] if isinstance(err, KeyError) and err.args else err
        raise SystemExit(f"error: {message}") from err


def print_json(payload) -> None:
    print(json.dumps(payload, indent=1, sort_keys=True))


def read_events(path: str) -> list[tuple[str, float]]:
    """Parse ``key,weight`` CSV lines (a header row is skipped if present)."""
    events: list[tuple[str, float]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            key, comma, weight = line.rpartition(",")
            if not comma:
                raise SystemExit(
                    f"{path}:{lineno}: expected 'key,weight', got {line!r}"
                )
            try:
                events.append((key, float(weight)))
            except ValueError:
                # Skip line 1 as a header only when the weight field looks
                # like a column name (no digits); a malformed first data
                # row like "alice,12x3" must abort, not silently vanish.
                if lineno == 1 and not any(ch.isdigit() for ch in weight):
                    continue
                raise SystemExit(
                    f"{path}:{lineno}: non-numeric weight {weight!r}"
                ) from None
    return events


FAMILY = flag("--family", default="ipps", choices=RANK_FAMILIES)

#: how a daemon or a store writer samples: ``NamespaceConfig``'s fields
SAMPLING = (
    flag("--k", type=int, default=256,
         help="bottom-k sample size (default 256)"),
    FAMILY,
    flag("--salt", type=int, default=0,
         help="key-hasher salt (must match across coordinated writers)"),
)

#: which estimator answers an aggregate
ESTIMATOR = (
    flag("--estimator", default="auto"),
    flag("--ell", type=int, default=None, help="ℓ for lth_largest"),
)
