"""``python -m qkdpost``: the same commands as the ``qkdpost`` console script."""

from .cli import main

if __name__ == "__main__":
    main()
