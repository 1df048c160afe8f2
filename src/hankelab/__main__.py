"""Run the command line interface with ``python -m hankelab``."""

from .cli import main

if __name__ == "__main__":
    main()
