"""Stand-in for sdafd in the daemon-hygiene tests.

Creates the socket file, announces readiness like sdafd, and on SIGTERM
exits 0 after printing sdafd's shutdown line -- but leaves the socket
file behind, so the tests see that the harness removes it. Modes:
--mode=stubborn ignores SIGTERM; --mode=die exits before it is ready.
"""

import signal
import sys
import time

args = dict(a.split("=", 1) for a in sys.argv[1:] if "=" in a)
mode = args.get("--mode", "ok")
if mode == "die":
    print("bind failed", file=sys.stderr)
    sys.exit(1)

path = args["--unix"]
open(path, "w").close()


def on_term(*_):
    if mode == "stubborn":
        return
    print("sdafd: done (fake)", file=sys.stderr, flush=True)
    sys.exit(0)


signal.signal(signal.SIGTERM, on_term)
print(f"listening unix {path}", flush=True)
while True:
    time.sleep(0.02)
