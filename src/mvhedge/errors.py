"""Exception types shared across the engine."""


class BadParameter(ValueError):
    """Invalid builder or configuration parameter."""


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
