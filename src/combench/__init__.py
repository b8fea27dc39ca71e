"""Desk-scale exact solvers, checkers, generators and Monte Carlo experiments
for a collection of open problems in combinatorics."""

__version__ = "0.1.0"


class CombenchError(ValueError):
    """Input a solver, checker or generator rejects.  ``exit_code`` is what
    the CLI exits with: 2 for bad input, 3 for an unknown problem id."""

    def __init__(self, message: str, exit_code: int = 2):
        super().__init__(message)
        self.exit_code = exit_code
