"""Run the command-line interface as ``python -m delchan``."""
from delchan.cli import main

if __name__ == "__main__":
    main(prog_name="delchan")
