"""``python -m daclear``: the same commands as the ``daclear`` script."""

from .cli import main

if __name__ == "__main__":
    main()
