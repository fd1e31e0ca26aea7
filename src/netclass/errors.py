"""Exception types shared across the package, and the default clique
budget, which the CLI's parser needs before NumPy loads."""

# cliques an enumeration may emit before it raises BudgetExceededError
DEFAULT_CLIQUE_BUDGET = 10_000_000


class ParseError(ValueError):
    """Malformed edge-list input. Carries the 1-based line number."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class BudgetExceededError(RuntimeError):
    """An enumeration exceeded its configured output budget."""

    def __init__(self, budget: int, what: str = "cliques"):
        self.budget = budget
        super().__init__(f"{what} budget of {budget} exceeded")


class NotConnectedError(ValueError):
    """A metric operation was asked to run on a disconnected graph."""

    def __init__(self, n_components: int):
        self.n_components = n_components
        super().__init__(
            f"graph is disconnected ({n_components} components); "
            "restrict to the largest component first"
        )


class DatasetError(RuntimeError):
    """A named dataset could not be retrieved or fails integrity checks."""
