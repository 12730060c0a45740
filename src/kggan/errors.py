"""Exception hierarchy shared by every module.

The CLI maps these onto process exit codes: ConfigError -> 2,
ContractError (and subclasses) -> 3, NumericalAbort -> 4, OSError -> 5.

Each precondition is checked once, where its value enters the program.
A ConfigError comes from the config or the CLI. A ContractError comes
from a file, checkpoint metadata (a GAN's metric log among it), or an
``autodiff`` or ``linalg`` operand. Functions trust the values the
program built: a bound that ``validate_config`` enforces, or the split
that ``cli`` makes, is not checked again downstream.
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
    (see ``checkpoint``) at the start of the failing iteration: the
    parameters, the spectral ``u`` vectors and both optimizers' second
    moments (the GAN's Adam keeps no first moment).
    ``log`` is the loop's metric log, the list of ``gan.METRIC_COLUMNS``
    rows of the iterations before it, so the failing iteration is its
    length. The condition table is not held: it is rebuilt from the
    dataset's category table. ``cli`` saves ``last_good`` with ``log`` in
    checkpoint.aborted.ckpt, the one file a resume from the abort reads.
    """

    def __init__(self, message, last_good=None, log=None):
        super().__init__(message)
        self.last_good = last_good
        self.log = log
