"""Far-field structure of semilinear elliptic fields on truncated domains."""

__version__ = "0.1.0"
