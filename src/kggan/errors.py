"""Exception hierarchy shared by every module.

The CLI maps these onto process exit codes: ConfigError -> 2,
ContractError (and subclasses) -> 3, NumericalAbort -> 4, OSError -> 5.
"""


class ConfigError(ValueError):
    """A configuration value is out of its documented range."""


class ContractError(ValueError):
    """A caller violated a documented precondition."""


class DimensionError(ContractError):
    """Operand shapes do not conform; the message names both shapes."""


class NumericalAbort(RuntimeError):
    """A non-finite value surfaced where finite math was required.

    When raised from a training loop, ``last_good`` holds the named state
    (see ``checkpoint``) at the start of the failing iteration: parameters,
    condition transform, spectral state, both optimizers and the
    iteration, which ``iteration`` also gives.
    """

    def __init__(self, message, last_good=None, iteration=None):
        super().__init__(message)
        self.last_good = last_good
        self.iteration = iteration
