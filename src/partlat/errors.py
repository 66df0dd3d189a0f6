"""Exception types shared across the package."""

__all__ = [
    "PartlatError",
    "BadParameter",
    "DuplicateLabel",
    "UnknownLabel",
    "CycleDetected",
    "NotALattice",
    "NotPlos",
    "AxiomViolation",
    "NotACongruence",
    "NotClosed",
    "ImageEscapes",
    "ParseError",
    "SemanticError",
    "InvariantError",
]


class PartlatError(Exception):
    """Base class for every error raised by partlat."""


class BadParameter(PartlatError):
    pass


class DuplicateLabel(PartlatError):
    pass


class UnknownLabel(PartlatError):
    pass


class CycleDetected(PartlatError):
    """Antisymmetry failure in an order closure, with a witness cycle."""

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        loop = " < ".join(self.cycle + self.cycle[:1])
        super().__init__(f"order cycle: {loop}")


class NotALattice(PartlatError):
    """A pair of elements without a least upper or greatest lower bound."""

    def __init__(self, pair):
        self.pair = tuple(pair)
        super().__init__(f"no total sup/inf at pair {self.pair}")


class NotPlos(PartlatError):
    """A bound property failed; carries the report with the witness pair."""

    def __init__(self, report):
        self.report = report
        super().__init__(
            f"{report.side} bound set of pair {report.witness} has no extremum"
        )


class AxiomViolation(PartlatError):
    def __init__(self, axiom, witness, detail=""):
        self.axiom = axiom
        self.witness = tuple(witness)
        msg = f"{axiom} violated at {self.witness}"
        if detail:
            msg = f"{msg}: {detail}"
        super().__init__(msg)


class NotACongruence(PartlatError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__("relation does not restrict back to itself")


class NotClosed(PartlatError):
    def __init__(self, report):
        self.report = report
        super().__init__(f"map is not a closed homomorphism ({report.kind})")


class ImageEscapes(PartlatError):
    def __init__(self, pair):
        self.pair = tuple(pair)
        super().__init__(f"element {self.pair[0]} maps to adjoined bound {self.pair[1]}")


class ParseError(PartlatError):
    def __init__(self, line, col, expected):
        self.line = line
        self.col = col
        self.expected = expected
        super().__init__(f"line {line}, col {col}: expected {expected}")


class SemanticError(PartlatError):
    def __init__(self, line, col, message):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}")


class InvariantError(PartlatError):
    """A library result broke a property that holds for correct code."""


def ensure(condition, message):
    """Raise InvariantError unless ``condition``; unlike ``assert``, survives -O."""
    if not condition:
        raise InvariantError(message)
