"""Exception types shared across the package, and the default clique
budget, which the CLI's parser needs before NumPy loads."""

# cliques an enumeration may emit before it raises BudgetExceededError
DEFAULT_CLIQUE_BUDGET = 10_000_000


class ParseError(ValueError):
    """Malformed edge-list input. Carries the 1-based line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(message, line_no)  # raw, for pickling; see __str__
        self.line_no = line_no

    def __str__(self) -> str:
        return f"line {self.line_no}: {self.args[0]}"


class BudgetExceededError(RuntimeError):
    """An enumeration exceeded its configured output budget."""

    def __init__(self, budget: int, what: str):
        super().__init__(budget, what)
        self.budget = budget

    def __str__(self) -> str:
        return f"{self.args[1]} budget of {self.budget} exceeded"


class NotConnectedError(ValueError):
    """A metric operation was asked to run on a disconnected graph."""

    def __init__(self, n_components: int):
        super().__init__(n_components)
        self.n_components = n_components

    def __str__(self) -> str:
        return (f"graph is disconnected ({self.n_components} components); "
                "restrict to the largest component first")


class DatasetError(RuntimeError):
    """A named dataset could not be retrieved or fails integrity checks."""
