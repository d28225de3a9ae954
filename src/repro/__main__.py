"""``python -m repro`` entry point (delegates to :mod:`repro.cli`)."""

from repro.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
