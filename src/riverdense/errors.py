"""Exception types shared across the toolkit."""


class RiverDenseError(Exception):
    """Base class for every error raised by this package."""


class CycleDetected(RiverDenseError):
    """The directed edge set contains a cycle; river graphs must be acyclic."""


class DuplicateEdge(RiverDenseError):
    """The same (src, dst) pair appears more than once."""


class NonpositiveLength(RiverDenseError):
    """A stream length is zero or negative."""


class MuOutOfRange(RiverDenseError):
    """Spectral parameter mu must lie in [0, 1)."""


class IsolatedRow(RiverDenseError):
    """A kernel-matrix row has no positive weight left to normalize."""


class DegenerateSigma(RiverDenseError):
    """The kernel bandwidth resolved to zero (all distances equal)."""


class UnknownStation(RiverDenseError):
    """A station identifier is not present in the network."""


class ShapeMismatch(RiverDenseError):
    """Tensor shapes do not match the forecast task or network size."""


class NonfiniteLoss(RiverDenseError):
    """Training produced a NaN or infinite loss."""


class ConstantObserved(RiverDenseError):
    """NSE is undefined when the observed series has zero variance."""


class RowWriterFailed(RiverDenseError):
    """A child process formatting adjacency CSV rows exited with an error."""


class CsvFormatError(RiverDenseError):
    """A CSV or other text input failed to decode or parse; message carries file:line."""

    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line
