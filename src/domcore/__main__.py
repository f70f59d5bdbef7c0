"""Entry point for ``python -m domcore``; see domcore.cli."""

from .cli import main

if __name__ == "__main__":
    main()
