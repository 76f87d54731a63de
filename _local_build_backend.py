"""Minimal in-tree PEP 517 build backend (stdlib only).

The execution environment for this reproduction is offline and has no
``wheel`` package, so neither the default setuptools backend (which
needs to download build dependencies into its isolation environment)
nor its PEP 660 editable path (which needs ``wheel``) can run.  This
backend builds the project's wheels itself with nothing but the
standard library, and declares ``requires = []`` so build isolation
never touches the network:

* :func:`build_wheel` packs ``src/repro`` into a regular purelib wheel;
* :func:`build_editable` emits a PEP 660 wheel containing a single
  ``.pth`` file pointing at ``src`` (the classic path-style editable
  install).

The metadata below mirrors what ``setup.cfg`` would have declared.
"""

from __future__ import annotations

import base64
import csv
import hashlib
import io
import os
import zipfile

NAME = "repro"
VERSION = "1.0.0"
SUMMARY = (
    "FTBAR: distributed and fault-tolerant static scheduling "
    "(reproduction of Girault et al., DSN 2003)"
)
#: No runtime dependencies.  networkx (``to_networkx()`` exports) and
#: numpy (the kernel's vectorised sweep) are optional and imported only
#: where they are used.
REQUIRES: list[str] = []
TAG = "py3-none-any"

_METADATA = "\n".join(
    [
        "Metadata-Version: 2.1",
        f"Name: {NAME}",
        f"Version: {VERSION}",
        f"Summary: {SUMMARY}",
        "License: MIT",
        "Requires-Python: >=3.10",
        *[f"Requires-Dist: {req}" for req in REQUIRES],
        "",
    ]
)

_WHEEL_FILE = "\n".join(
    [
        "Wheel-Version: 1.0",
        "Generator: repro-local-backend (1.0.0)",
        "Root-Is-Purelib: true",
        f"Tag: {TAG}",
        "",
    ]
)

_ENTRY_POINTS = "\n".join(
    [
        "[console_scripts]",
        "ftbar = repro.cli:main",
        "",
    ]
)


def _dist_info_name() -> str:
    return f"{NAME}-{VERSION}.dist-info"


def _record_entry(path: str, data: bytes) -> tuple[str, str, int]:
    digest = hashlib.sha256(data).digest()
    encoded = base64.urlsafe_b64encode(digest).rstrip(b"=").decode("ascii")
    return (path, f"sha256={encoded}", len(data))


def _write_wheel(wheel_path: str, files: dict[str, bytes]) -> None:
    dist_info = _dist_info_name()
    files = dict(files)
    files[f"{dist_info}/METADATA"] = _METADATA.encode()
    files[f"{dist_info}/WHEEL"] = _WHEEL_FILE.encode()
    files[f"{dist_info}/entry_points.txt"] = _ENTRY_POINTS.encode()
    files[f"{dist_info}/top_level.txt"] = b"repro\n"
    record = io.StringIO()
    writer = csv.writer(record, lineterminator="\n")
    for path, data in sorted(files.items()):
        writer.writerow(_record_entry(path, data))
    writer.writerow((f"{dist_info}/RECORD", "", ""))
    files[f"{dist_info}/RECORD"] = record.getvalue().encode()
    with zipfile.ZipFile(wheel_path, "w", zipfile.ZIP_DEFLATED) as archive:
        for path, data in sorted(files.items()):
            archive.writestr(path, data)


def _package_files() -> dict[str, bytes]:
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
    collected: dict[str, bytes] = {}
    for directory, _, names in os.walk(os.path.join(root, "repro")):
        for name in names:
            if name.endswith((".pyc", ".pyo")):
                continue
            full = os.path.join(directory, name)
            archive_path = os.path.relpath(full, root).replace(os.sep, "/")
            with open(full, "rb") as handle:
                collected[archive_path] = handle.read()
    return collected


# ----------------------------------------------------------------------
# PEP 517 hooks
# ----------------------------------------------------------------------

def get_requires_for_build_wheel(config_settings=None):
    return []


def get_requires_for_build_editable(config_settings=None):
    return []


def get_requires_for_build_sdist(config_settings=None):
    return []


def build_wheel(wheel_directory, config_settings=None, metadata_directory=None):
    wheel_name = f"{NAME}-{VERSION}-{TAG}.whl"
    _write_wheel(os.path.join(wheel_directory, wheel_name), _package_files())
    return wheel_name


def build_editable(wheel_directory, config_settings=None, metadata_directory=None):
    source = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
    wheel_name = f"{NAME}-{VERSION}-{TAG}.whl"
    files = {f"{NAME}.pth": (source + "\n").encode()}
    _write_wheel(os.path.join(wheel_directory, wheel_name), files)
    return wheel_name


def build_sdist(sdist_directory, config_settings=None):
    raise NotImplementedError(
        "sdists are not needed in the offline reproduction environment"
    )
