"""Exception types raised by the solver and its kernels."""


class TrsqpError(Exception):
    """Base class for all package errors."""


class RankDeficient(TrsqpError):
    """Constraint Jacobian failed the full-row-rank tolerance check."""


class NonFiniteInput(TrsqpError):
    """An input array contains NaN or infinity."""


class SubsolverFailure(TrsqpError):
    """The trust-region solve's secular-equation root was not found."""


class MeritLoopDiverged(TrsqpError):
    """The merit parameter overflowed: no finite value clears the Pred threshold."""


class MissingNoiselessOracle(TrsqpError):
    """An operation needs exact objective oracles the problem does not have."""


class EmptyDataset(TrsqpError):
    """A finite-sum problem was built from zero records."""
