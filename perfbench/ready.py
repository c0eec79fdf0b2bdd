"""Child process of the set-up measurement: open a Session, say ``ready``.

Usage: ``python ready.py``.  The session is the store-less one the
in-process workloads open.
"""

from repro.api import Session, SessionConfig


def main() -> None:
    session = Session(SessionConfig())
    print("ready", flush=True)
    session.close()


if __name__ == "__main__":
    main()
