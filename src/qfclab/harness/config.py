"""Sweep configuration and the line-oriented config file grammar.

Grammar (documented here and in the README): ``#`` starts a comment,
``[section]`` lines open a section, every other non-blank line is
``key = value`` within the current section.  List values are comma-separated.
Sections: ``[sweep]`` (grids and evaluation protocol), ``[checkpoints]``
(where trained agents live, whether to train on demand), ``[output]``.
A key may appear once per file.  One table, :data:`KEYS`, maps each
(section, key) to its :class:`SweepConfig` field, parser and formatter, and
drives both :func:`parse_config_file` and :func:`format_config`.  Text values
cannot hold ``#`` or a newline, list items cannot hold ``,``, and leading or
trailing whitespace is stripped.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from ..channels import CHANNEL_KINDS, EPSILON_MAX
from ..rl.config import PpoConfig
from ..rl.envs import SCENARIO_KINDS

VALID_SCENARIOS = ("basic",) + SCENARIO_KINDS
VALID_NOISES = tuple(CHANNEL_KINDS)

#: published test grids: alpha 0..1 step 0.1, six epsilon values
TABLE_ALPHAS = tuple(round(0.1 * k, 10) for k in range(11))
TABLE_EPSILONS = (0.1, 0.15, 0.175, 0.2, 0.25, 0.3)

#: reduced preset for desk-scale runs (full RL grids are compute-hours)
DESK_ALPHAS = (0.0, 0.2, 0.4, 0.6)
DESK_EPSILONS = (0.1, 0.2)
DESK_EPISODES = 200


class ConfigError(ValueError):
    """Bad config file or out-of-domain sweep parameters."""


def check_f_star(f_star: float) -> float:
    """``f_star`` if it lies in (0, 1], every command's range; else :class:`ConfigError`."""
    if not 0.0 < f_star <= 1.0:
        raise ConfigError(f"f_star must lie in (0, 1], got {f_star!r}")
    return f_star


@dataclass(frozen=True)
class SweepConfig:
    scenarios: tuple[str, ...] = ("basic",)
    noises: tuple[str, ...] = VALID_NOISES
    alphas: tuple[float, ...] = TABLE_ALPHAS
    epsilons: tuple[float, ...] = TABLE_EPSILONS
    episodes: int = 1000
    horizon: int = 20
    master_seed: int = 0
    f_star: float = 0.9
    checkpoint_dir: str = "checkpoints"
    train_on_demand: bool = False
    train_timesteps: int = 200_000
    output_dir: str = "results"

    def __post_init__(self):
        if not self.scenarios:
            raise ConfigError("scenario list is empty")
        for s in self.scenarios:
            if s not in VALID_SCENARIOS:
                raise ConfigError(f"unknown scenario {s!r}; choose from {VALID_SCENARIOS}")
        if not self.noises:
            raise ConfigError("noise list is empty")
        for n in self.noises:
            if n not in VALID_NOISES:
                raise ConfigError(f"unknown noise {n!r}; choose from {VALID_NOISES}")
        if not self.alphas or not all(0.0 <= a <= 1.0 for a in self.alphas):
            raise ConfigError("alpha grid must be non-empty within [0, 1]")
        if not self.epsilons or not all(0.0 <= e <= EPSILON_MAX for e in self.epsilons):
            raise ConfigError(f"epsilon grid must be non-empty within [0, {EPSILON_MAX}]")
        if self.episodes < 1:
            raise ConfigError("episodes must be >= 1")
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        check_f_star(self.f_star)
        if self.train_timesteps < PpoConfig.n_steps:
            raise ConfigError(
                f"train_timesteps must cover one {PpoConfig.n_steps}-step rollout, "
                f"got {self.train_timesteps}"
            )


def desk_scale(cfg: SweepConfig | None = None) -> SweepConfig:
    """Shrink a config to the desk-scale preset grids and episode count."""
    base = cfg or SweepConfig()
    return replace(
        base, alphas=DESK_ALPHAS, epsilons=DESK_EPSILONS, episodes=DESK_EPISODES
    )


_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _bool(value: str) -> bool:
    if value.lower() not in _BOOL:
        raise ValueError(f"expected one of {', '.join(_BOOL)}")
    return _BOOL[value.lower()]


def _list(item):
    return lambda value: tuple(item(v.strip()) for v in value.split(",") if v.strip())


def _join(values) -> str:
    return ", ".join(map(str, values))


#: (section, key) -> (SweepConfig field, parser, formatter), in file order;
#: ``str`` formats a float as its shortest exact repr, so values round-trip
KEYS = {
    ("sweep", "scenarios"): ("scenarios", _list(str), _join),
    ("sweep", "noises"): ("noises", _list(str), _join),
    ("sweep", "alphas"): ("alphas", _list(float), _join),
    ("sweep", "epsilons"): ("epsilons", _list(float), _join),
    ("sweep", "episodes"): ("episodes", int, str),
    ("sweep", "horizon"): ("horizon", int, str),
    ("sweep", "master_seed"): ("master_seed", int, str),
    ("sweep", "f_star"): ("f_star", float, str),
    ("checkpoints", "dir"): ("checkpoint_dir", str, str),
    ("checkpoints", "train_on_demand"): ("train_on_demand", _bool, lambda b: str(b).lower()),
    ("checkpoints", "train_timesteps"): ("train_timesteps", int, str),
    ("output", "dir"): ("output_dir", str, str),
}
SECTIONS = tuple(dict.fromkeys(section for section, _ in KEYS))


def parse_config_file(path) -> SweepConfig:
    """Load a sweep config, starting from the full-grid defaults."""
    kw: dict = {}
    seen: dict[tuple[str, str], int] = {}
    section = None
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, value = (part.strip() for part in line.partition("="))
        if (section, key) not in KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        if (section, key) in seen:
            raise ConfigError(
                f"line {lineno}: key {key!r} in [{section}] repeats line {seen[section, key]}"
            )
        seen[section, key] = lineno
        name, parse, _ = KEYS[section, key]
        try:
            kw[name] = parse(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {value!r} ({exc})") from None
    return SweepConfig(**kw)


def format_config(cfg: SweepConfig) -> str:
    """Serialize a config in the same grammar; :func:`parse_config_file` reads
    it back equal (text values within the grammar's limits)."""
    lines = []
    for section in SECTIONS:
        lines += ["", f"[{section}]"] if lines else [f"[{section}]"]
        lines += [
            f"{key} = {fmt(getattr(cfg, name))}"
            for (sec, key), (name, _, fmt) in KEYS.items()
            if sec == section
        ]
    return "\n".join(lines) + "\n"
