"""``python -m ellipcert``: run the command-line driver once."""

from .cli import main

if __name__ == "__main__":
    main()
