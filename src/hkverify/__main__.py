"""`python -m hkverify` runs the `hkverify` command line."""

from .cli import main_entry

main_entry()
