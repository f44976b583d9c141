"""Exception types shared across the toolkit."""

from pathlib import Path


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
    """A CSV input failed to parse; message carries file:line context."""

    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line

    @classmethod
    def undecodable(cls, path) -> "CsvFormatError":
        """The error for the first byte of ``path`` that is not UTF-8, at its line."""
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:  # lines end as the csv module's do: \n, \r\n or \r
            return cls(path, len((data[:exc.start] + b"x").splitlines()),
                       f"byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})")
        return cls(path, 0, "not UTF-8 when read, UTF-8 when read again")
