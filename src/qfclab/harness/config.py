"""Sweep configuration and the line-oriented config file grammar.

Grammar (documented here and in the README): ``#`` starts a comment,
``[section]`` lines open a section, every other non-blank line is
``key = value`` within the current section.  List values are comma-separated.
Sections: ``[sweep]`` (grids and evaluation protocol), ``[checkpoints]``
(where trained agents live, whether to train on demand), ``[output]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from ..rl.config import PpoConfig

VALID_SCENARIOS = ("basic", "mbs", "dbs", "qomdp")
VALID_NOISES = ("depolarizing", "amplitude_damping", "random_permutation")

#: published test grids: alpha 0..1 step 0.1, six epsilon values
TABLE_ALPHAS = tuple(round(0.1 * k, 10) for k in range(11))
TABLE_EPSILONS = (0.1, 0.15, 0.175, 0.2, 0.25, 0.3)

#: reduced preset for desk-scale runs (full RL grids are compute-hours)
DESK_ALPHAS = (0.0, 0.2, 0.4, 0.6)
DESK_EPSILONS = (0.1, 0.2)
DESK_EPISODES = 200


class ConfigError(ValueError):
    """Bad config file or out-of-domain sweep parameters."""


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
        if not self.epsilons or not all(0.0 <= e <= 0.3 for e in self.epsilons):
            raise ConfigError("epsilon grid must be non-empty within [0, 0.3]")
        if self.episodes < 1:
            raise ConfigError("episodes must be >= 1")
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        if not 0.0 < self.f_star <= 1.0:
            raise ConfigError("f_star must lie in (0, 1]")
        if self.train_timesteps < PpoConfig.n_steps:
            raise ConfigError(
                f"train_timesteps must cover one {PpoConfig.n_steps}-step rollout, "
                f"got {self.train_timesteps}"
            )


def table_defaults() -> SweepConfig:
    """The full published grid (all noises, 11 alphas, 6 epsilons, 1000 episodes)."""
    return SweepConfig()


def desk_scale(cfg: SweepConfig | None = None) -> SweepConfig:
    """Shrink a config to the desk-scale preset grids and episode count."""
    base = cfg or SweepConfig()
    return replace(
        base, alphas=DESK_ALPHAS, epsilons=DESK_EPSILONS, episodes=DESK_EPISODES
    )


_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _parse_lines(text: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        sections[current][key.strip()] = value.strip()
    return sections


def _float_list(value: str) -> tuple[float, ...]:
    return tuple(float(v.strip()) for v in value.split(",") if v.strip())


def _str_list(value: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in value.split(",") if v.strip())


def _parse_value(key: str, value: str, parse):
    try:
        return parse(value)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {value!r} ({exc})") from None


def parse_config_file(path) -> SweepConfig:
    """Load a sweep config, starting from the full-grid defaults."""
    text = Path(path).read_text()
    sections = _parse_lines(text)
    known = {"sweep", "checkpoints", "output"}
    unknown = set(sections) - known
    if unknown:
        raise ConfigError(f"unknown sections: {sorted(unknown)}")
    kw: dict = {}
    sweep_section = sections.get("sweep", {})
    parsers = {
        "scenarios": ("scenarios", _str_list),
        "noises": ("noises", _str_list),
        "alphas": ("alphas", _float_list),
        "epsilons": ("epsilons", _float_list),
        "episodes": ("episodes", int),
        "horizon": ("horizon", int),
        "master_seed": ("master_seed", int),
        "f_star": ("f_star", float),
    }
    for key, value in sweep_section.items():
        if key not in parsers:
            raise ConfigError(f"unknown key {key!r} in [sweep]")
        field_name, parse = parsers[key]
        kw[field_name] = _parse_value(key, value, parse)
    ckpt_section = sections.get("checkpoints", {})
    for key, value in ckpt_section.items():
        if key == "dir":
            kw["checkpoint_dir"] = value
        elif key == "train_on_demand":
            if value.lower() not in _BOOL:
                raise ConfigError(f"bad boolean {value!r} for train_on_demand")
            kw["train_on_demand"] = _BOOL[value.lower()]
        elif key == "train_timesteps":
            kw["train_timesteps"] = _parse_value(key, value, int)
        else:
            raise ConfigError(f"unknown key {key!r} in [checkpoints]")
    out_section = sections.get("output", {})
    for key, value in out_section.items():
        if key == "dir":
            kw["output_dir"] = value
        else:
            raise ConfigError(f"unknown key {key!r} in [output]")
    return SweepConfig(**kw)


def format_config(cfg: SweepConfig) -> str:
    """Serialize a config in the same grammar (round-trips through the parser)."""
    def fmt_floats(values):
        return ", ".join(f"{v:g}" for v in values)

    return "\n".join(
        [
            "[sweep]",
            f"scenarios = {', '.join(cfg.scenarios)}",
            f"noises = {', '.join(cfg.noises)}",
            f"alphas = {fmt_floats(cfg.alphas)}",
            f"epsilons = {fmt_floats(cfg.epsilons)}",
            f"episodes = {cfg.episodes}",
            f"horizon = {cfg.horizon}",
            f"master_seed = {cfg.master_seed}",
            f"f_star = {cfg.f_star:g}",
            "",
            "[checkpoints]",
            f"dir = {cfg.checkpoint_dir}",
            f"train_on_demand = {'true' if cfg.train_on_demand else 'false'}",
            f"train_timesteps = {cfg.train_timesteps}",
            "",
            "[output]",
            f"dir = {cfg.output_dir}",
            "",
        ]
    )
