"""`python -m zetapoly ...`: the same command line as the `zetapoly` script."""

from .cli import main

if __name__ == "__main__":
    main()
