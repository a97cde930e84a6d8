"""Flat key = value config files with '#' comments and line-numbered errors.

Dotted keys group settings: dataset.dir or sbm.* pick the data, model.* the
preset and its knobs, train.* the optimizer, out.dir the output directory.
The schema tables are in experiment, which rejects every key a run does not read.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class ConfigValue:
    raw: str
    line: int


def parse_config_text(text: str, source: str = "<config>") -> dict[str, ConfigValue]:
    out: dict[str, ConfigValue] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value' in {source}", line=lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"empty key in {source}", line=lineno)
        if key in out:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        out[key] = ConfigValue(raw=value, line=lineno)
    return out


def parse_config(path) -> dict[str, ConfigValue]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), source=str(path))


def _parse_ints(text: str) -> tuple[int, ...]:
    """Comma-separated integers; a blank text is (), a blank field an error."""
    fields = text.split(",") if text.strip() else []
    if not all(x.strip() for x in fields):
        raise ValueError(f"empty field in comma-separated integers {text!r}")
    return tuple(int(x) for x in fields)


def parse_paths(text: str) -> tuple[tuple[int, ...], ...]:
    """Wavelet-scale paths: scales comma-separated, paths split on '|'; a
    blank path is the identity cascade."""
    return tuple(_parse_ints(part) for part in text.split("|"))


class ConfigView:
    """Typed getters over a parsed config; errors carry the line number."""

    def __init__(self, values: dict[str, ConfigValue]):
        self.values = values

    def has(self, key: str) -> bool:
        return key in self.values

    def _get(self, key: str, default, parse, what: str):
        cv = self.values.get(key)
        if cv is None:
            return default
        try:
            return parse(cv.raw)
        except ValueError:
            raise ConfigError(f"key {key!r} needs {what}, got {cv.raw!r}",
                              line=cv.line) from None

    def get_str(self, key: str, default=None) -> str | None:
        return self._get(key, default, str, "a string")

    def get_int(self, key: str, default=None):
        return self._get(key, default, int, "an integer")

    def get_float(self, key: str, default=None):
        return self._get(key, default, float, "a number")

    def get_int_tuple(self, key: str, default=None):
        return self._get(key, default, _parse_ints, "comma-separated integers")

    def get_paths(self, key: str, default=None):
        """Wavelet-scale paths, in the parse_paths format."""
        return self._get(key, default, parse_paths, "paths like '1|2,3'")
