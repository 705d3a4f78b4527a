"""Exception types shared across the engine, and the one reader of the numbers
from outside it: a boolean, a string or an integer beyond the double range is a BadParameter."""
from contextlib import suppress

import numpy as np

NOT_NUMBERS = (("boolean", (bool, np.bool_)), ("string", str))   # float() reads them as numbers


class BadParameter(ValueError):
    """Invalid builder or configuration parameter."""


def is_int(x) -> bool:
    """x is an integer and not a boolean."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def floats(values, what: str) -> np.ndarray:
    """values as a float array; BadParameter on NOT_NUMBERS or a too large integer."""
    for kind, types in NOT_NUMBERS:
        if any(isinstance(v, types) for v in np.asarray(values, dtype=object).flat):
            raise BadParameter(f"{what} must be numeric, not a {kind}")
    try:
        return np.asarray(values, dtype=float)
    except OverflowError as exc:   # an integer of more than 308 digits
        raise BadParameter(f"{what} must be finite, not beyond the double range") from exc


def finite(values, what: str) -> np.ndarray:
    """values as a float vector; BadParameter unless there is at least one
    entry and every entry is a finite number."""
    v = np.atleast_1d(floats(values, what))
    if not (v.size and np.all(np.isfinite(v))):
        raise BadParameter(f"{what} must be finite and non-empty")
    return v


def number(value, what: str, minimum: float = -np.inf) -> float:
    """value as a finite float >= minimum; else BadParameter(f"{what}, got {value!r}")."""
    with suppress(TypeError, ValueError):   # BadParameter is a ValueError
        if np.ndim(value) == 0 and finite(value, what)[0] >= minimum:
            return float(value)
    raise BadParameter(f"{what}, got {value!r}")


class NotSymmetric(ValueError):
    """Matrix handed to the symmetric pseudoinverse is not symmetric."""


class DegenerateStep(RuntimeError):
    """A one-step market admits a riskless nonzero return (no signed
    martingale measure exists), or is too ill-conditioned for the
    recursion's identities to hold; carries the offending node id."""

    def __init__(self, node_id: int):
        self.node_id = node_id
        super().__init__(f"degenerate one-step market at node {node_id}")

    @classmethod
    def raise_lowest(cls, failing) -> None:
        """Raise at the lowest node id in failing (arrays of node ids), if any."""
        lowest = min((int(ids.min()) for ids in failing if len(ids)), default=None)
        if lowest is not None:
            raise cls(lowest)


class TooLarge(ValueError):
    """Tree exceeds the brute-force oracle size bound."""


class Infeasible(RuntimeError):
    """Martingale-measure constraints are inconsistent."""


class IncompatibleClaim(ValueError):
    """Strategy kind is incompatible with the attached claim."""
