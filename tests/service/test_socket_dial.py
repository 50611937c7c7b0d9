"""Worker dials: an IP literal is connected without name resolution.

``socket.create_connection`` resolves every host through
``getaddrinfo``, and its idna encoding of the host imports
``encodings.idna``, ``stringprep`` and ``unicodedata`` into each
worker. ``SocketChildChannel`` connects an IP literal directly and
keeps ``create_connection`` for host names. Each case runs in a fresh
interpreter, so no earlier test has imported those modules.
"""

import os
import subprocess
import sys

import repro

_DIAL = """
import socket, sys
from repro.service.transport.client import SocketChildChannel
family = socket.AF_INET6 if sys.argv[1] == "::1" else socket.AF_INET
server = socket.socket(family, socket.SOCK_STREAM)
server.bind((sys.argv[1], 0))
server.listen(2)
before = {"encodings.idna", "stringprep", "unicodedata"} & set(sys.modules)
SocketChildChannel(sys.argv[2], server.getsockname()[1])
accepted, _ = server.accept()
after = {"encodings.idna", "stringprep", "unicodedata"} & set(sys.modules)
print(sorted(before), sorted(after))
"""


def _dial(bind: str, host: str) -> str:
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", _DIAL, bind, host],
                            capture_output=True, text=True, env=env,
                            timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_ip_literal_dial_imports_no_idna_codec():
    assert _dial("127.0.0.1", "127.0.0.1") == "[] []"


def test_host_name_still_connects():
    # a name goes through getaddrinfo, which may import the codec
    assert _dial("127.0.0.1", "localhost").startswith("[] ")
