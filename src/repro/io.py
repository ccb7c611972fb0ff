"""JSON serialization for games, configurations and trajectories.

Exact rationals survive the round trip: powers, rewards and step
payoffs serialize as ``"numerator/denominator"`` strings, never floats,
so a game loaded from disk has bit-identical strategic structure
(stability, potential comparisons, design invariants) to the one saved,
and a loaded trajectory's steps carry the original exact gains.

Format (version 1)::

    {
      "format": "game-of-coins/game",
      "version": 1,
      "miners": [{"name": "p1", "power": "5/2"}, ...],
      "coins": ["c1", "c2", ...],
      "rewards": {"c1": "100/1", ...}
    }

Configurations reference the owning game's miner/coin names only.
Trajectories store the initial assignment (with its miner order, so
rebuilt configurations compare equal to the originals) plus the step
list; intermediate configurations are *replayed* from the moves rather
than stored, which keeps files small and the round trip exact.
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction
from typing import Any, Callable, Dict, Optional

from repro.core.coin import RewardFunction, make_coins
from repro.core.configuration import Configuration
from repro.core.game import Game
from repro.core.miner import Miner
from repro.exceptions import InvalidModelError
from repro.learning.trajectory import Step, Trajectory

GAME_FORMAT = "game-of-coins/game"
CONFIGURATION_FORMAT = "game-of-coins/configuration"
TRAJECTORY_FORMAT = "game-of-coins/trajectory"
_VERSION = 1


def write_json_atomic(
    payload: Any,
    path: str,
    *,
    indent: Optional[int] = 2,
    sort_keys: bool = True,
    default: Optional[Callable[[Any], Any]] = None,
) -> str:
    """Write *payload* as JSON to *path* crash-safely and return *path*.

    The document is serialized to a temporary file in the same
    directory and renamed over *path* with :func:`os.replace`, so
    readers only ever observe the old complete file or the new
    complete file — never a truncated one. The rename is atomic on
    POSIX and same-volume by construction; the temp file is fsynced
    before the rename so a crash cannot publish an empty file.
    """
    target = os.path.abspath(path)
    fd, tmp_path = tempfile.mkstemp(
        dir=os.path.dirname(target),
        prefix=os.path.basename(target) + ".",
        suffix=".tmp",
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=indent, sort_keys=sort_keys, default=default)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, target)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return path


def _fraction_to_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _fraction_from_str(text: str, *, context: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as error:
        raise InvalidModelError(f"bad rational {text!r} in {context}: {error}")


def game_to_dict(game: Game) -> Dict[str, Any]:
    """A JSON-ready dict for *game* (exact rationals as strings).

    A masked game adds ``"allowed"``: miner name → allowed coin names.
    """
    payload: Dict[str, Any] = {
        "format": GAME_FORMAT,
        "version": _VERSION,
        "miners": [
            {"name": miner.name, "power": _fraction_to_str(miner.power)}
            for miner in game.miners
        ],
        "coins": [coin.name for coin in game.coins],
        "rewards": {
            coin.name: _fraction_to_str(game.rewards[coin]) for coin in game.coins
        },
    }
    if game.allowed is not None:
        payload["allowed"] = {
            miner.name: [coin.name for coin in coins]
            for miner, coins in game.allowed.items()
        }
    return payload


def game_from_dict(payload: Dict[str, Any]) -> Game:
    """Rebuild a game saved by :func:`game_to_dict`."""
    if payload.get("format") != GAME_FORMAT:
        raise InvalidModelError(
            f"not a game payload (format={payload.get('format')!r})"
        )
    if payload.get("version") != _VERSION:
        raise InvalidModelError(f"unsupported game version {payload.get('version')!r}")
    miners = tuple(
        Miner(entry["name"], _fraction_from_str(entry["power"], context=entry["name"]))
        for entry in payload["miners"]
    )
    coins = make_coins(payload["coins"])
    rewards = RewardFunction(
        {
            coin: _fraction_from_str(
                payload["rewards"][coin.name], context=f"reward of {coin.name}"
            )
            for coin in coins
        }
    )
    game = Game(miners, coins, rewards)
    if "allowed" not in payload:
        return game
    return game.with_allowed(
        {
            game.miner_named(name): [game.coin_named(coin) for coin in names]
            for name, names in payload["allowed"].items()
        }
    )


def configuration_to_dict(config: Configuration) -> Dict[str, Any]:
    """A JSON-ready dict for *config* (names only)."""
    return {
        "format": CONFIGURATION_FORMAT,
        "version": _VERSION,
        "assignment": config.as_dict(),
    }


def configuration_from_dict(payload: Dict[str, Any], game: Game) -> Configuration:
    """Rebuild a configuration against *game* (validating names)."""
    if payload.get("format") != CONFIGURATION_FORMAT:
        raise InvalidModelError(
            f"not a configuration payload (format={payload.get('format')!r})"
        )
    assignment = payload["assignment"]
    mapping = {}
    for miner in game.miners:
        if miner.name not in assignment:
            raise InvalidModelError(f"configuration misses miner {miner.name!r}")
        mapping[miner] = game.coin_named(assignment[miner.name])
    return Configuration.from_mapping(game.miners, mapping)


def trajectory_to_dict(trajectory: Trajectory) -> Dict[str, Any]:
    """A JSON-ready dict for *trajectory* (payoffs as exact rationals).

    Stores the initial configuration (with its miner order) and the
    step list; whether intermediate configurations were recorded is a
    flag, so the loader reproduces the same ``configurations`` shape
    the engine would have produced.
    """
    initial = trajectory.initial
    return {
        "format": TRAJECTORY_FORMAT,
        "version": _VERSION,
        "miner_order": [miner.name for miner in initial.miners],
        "initial": initial.as_dict(),
        "steps": [
            {
                "miner": step.miner.name,
                "source": step.source.name,
                "target": step.target.name,
                "payoff_before": _fraction_to_str(step.payoff_before),
                "payoff_after": _fraction_to_str(step.payoff_after),
            }
            for step in trajectory.steps
        ],
        "converged": trajectory.converged,
        "recorded_configurations": len(trajectory.configurations)
        == len(trajectory.steps) + 1,
    }


def trajectory_from_dict(payload: Dict[str, Any], game: Game) -> Trajectory:
    """Rebuild a trajectory saved by :func:`trajectory_to_dict`.

    Configurations are replayed from the initial assignment and the
    step moves, so every rebuilt configuration (and every step's exact
    payoffs) compares equal to the original's.
    """
    if payload.get("format") != TRAJECTORY_FORMAT:
        raise InvalidModelError(
            f"not a trajectory payload (format={payload.get('format')!r})"
        )
    if payload.get("version") != _VERSION:
        raise InvalidModelError(
            f"unsupported trajectory version {payload.get('version')!r}"
        )
    miners = tuple(game.miner_named(name) for name in payload["miner_order"])
    if frozenset(miners) != frozenset(game.miners):
        raise InvalidModelError("trajectory miner order does not cover the game")
    assignment = payload["initial"]
    initial = Configuration(
        miners, [game.coin_named(assignment[miner.name]) for miner in miners]
    )
    game.validate_configuration(initial)
    recorded = bool(payload.get("recorded_configurations", True))
    trajectory = Trajectory(
        configurations=[initial], converged=bool(payload["converged"])
    )
    config = initial
    for index, entry in enumerate(payload["steps"]):
        miner = game.miner_named(entry["miner"])
        source = game.coin_named(entry["source"])
        target = game.coin_named(entry["target"])
        if config.coin_of(miner) != source:
            raise InvalidModelError(
                f"step {index}: miner {miner.name!r} is on "
                f"{config.coin_of(miner).name!r}, not the recorded source "
                f"{source.name!r}; trajectory is inconsistent"
            )
        config = config.move(miner, target)
        trajectory.steps.append(
            Step(
                index=index,
                miner=miner,
                source=source,
                target=target,
                payoff_before=_fraction_from_str(
                    entry["payoff_before"], context=f"step {index} payoff_before"
                ),
                payoff_after=_fraction_from_str(
                    entry["payoff_after"], context=f"step {index} payoff_after"
                ),
            )
        )
        if recorded:
            trajectory.configurations.append(config)
    if not recorded and trajectory.steps:
        trajectory.configurations.append(config)
    return trajectory


def save_game(game: Game, path: str) -> None:
    """Write *game* to *path* as JSON (atomically; see :func:`write_json_atomic`)."""
    write_json_atomic(game_to_dict(game), path)


def load_game(path: str) -> Game:
    """Read a game previously written by :func:`save_game`."""
    with open(path, "r", encoding="utf-8") as handle:
        return game_from_dict(json.load(handle))


def save_configuration(config: Configuration, path: str) -> None:
    write_json_atomic(configuration_to_dict(config), path)


def load_configuration(path: str, game: Game) -> Configuration:
    with open(path, "r", encoding="utf-8") as handle:
        return configuration_from_dict(json.load(handle), game)


def save_trajectory(trajectory: Trajectory, path: str) -> None:
    """Write *trajectory* to *path* as JSON (atomic write, exact payoffs preserved)."""
    write_json_atomic(trajectory_to_dict(trajectory), path)


def load_trajectory(path: str, game: Game) -> Trajectory:
    """Read a trajectory previously written by :func:`save_trajectory`."""
    with open(path, "r", encoding="utf-8") as handle:
        return trajectory_from_dict(json.load(handle), game)
