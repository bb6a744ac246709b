"""What every engine knob set shares: coercion, validation, cell keys.

:class:`~repro.sim.concurrent.ConcurrencyConfig` and
:class:`~repro.sim.mpp.MppConfig` are frozen dataclasses of knobs.  Both
take their values from scenario registrations, CLI flags and store cell
keys through :meth:`KnobSet.from_params`, which coerces each value to
its field's declared type, and both key store cells by
:meth:`KnobSet.to_params`.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import fields

#: The field annotations a knob may carry, and their coercions.
_COERCE = {"int": int, "float": float, "str": str}


class KnobSet:
    """Base of a frozen dataclass of knobs."""

    #: The knob family's name in error messages.
    kind = "knob"

    def validate(self) -> None:
        """Raise :class:`ValueError` on a NaN or infinite float knob.

        A NaN passes every range comparison, so a subclass checks its
        ranges after calling this.
        """
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{spec.name} must be finite, got {value!r}")

    @classmethod
    def from_params(cls, params: Mapping[str, object] | None = None):
        """Build from a knob mapping; unknown keys and bad values raise.

        The single coercion point for knobs coming from scenario
        registrations, CLI flags, and store cell keys.
        """
        known = {spec.name: _COERCE[spec.type] for spec in fields(cls)}
        kwargs: dict[str, object] = {}
        for key, value in dict(params or {}).items():
            if key not in known:
                names = ", ".join(sorted(known))
                raise ValueError(
                    f"unknown {cls.kind} parameter {key!r} (known: {names})"
                )
            kwargs[key] = known[key](value)
        config = cls(**kwargs)
        config.validate()
        return config

    def to_params(self) -> dict[str, object]:
        """Every knob as a plain dict — the store cell-key representation.

        Always fully resolved (defaults included), so an explicitly
        passed default value and an omitted knob hash identically.
        """
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}
