"""``python -m autopark``: the command line, for a checkout that is not installed."""

from .cli import entry

if __name__ == "__main__":
    entry()
