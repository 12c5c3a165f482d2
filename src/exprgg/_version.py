"""The package version: the one place it is written down. The package,
the run manifest and the build metadata all read it from here."""

__version__ = "0.1.0"
