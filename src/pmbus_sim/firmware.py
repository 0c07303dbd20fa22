"""BMC firmware upgrade-package format: build, parse, verify, patch, repack.

Image layout (little-endian throughout)::

    [ nvram | rootfs | kernel | webfs ]   section data, back to back from 0
    [ firmware table ]                    AES-128-CBC encrypted
    [ footer, 64 bytes ]                  plaintext, magic "ATENs_FW"
    [ signature trailer ]                 optional: sig || u32 len || "ATENSIG0"

The footer records the body length (== table offset), a CRC-32 over the
first half of the body, and the table extent. Table records are 33 bytes:
``[img]`` tag, 16-byte NUL-padded name, offset, length, CRC-32 of the
stored section bytes. rootfs and webfs hold an LZMA-compressed record
archive whose leading 512 bytes (rounded down to the AES block) are
AES-CBC encrypted in place; everything past the header is just compressed.
"""

from __future__ import annotations

import functools
import hashlib
import json
import lzma
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import (
    BadArchive,
    BadFooter,
    BadMagic,
    DecryptFailed,
    InvalidKey,
    NoSuchEntry,
    TruncatedImage,
)

if TYPE_CHECKING:
    from cryptography.hazmat.primitives.asymmetric import rsa

# `cryptography` is imported inside the functions that encrypt, decrypt, sign,
# verify or handle RSA keys, so bus-only processes never load it.

FOOTER_MAGIC = b"ATENs_FW"
SIG_MAGIC = b"ATENSIG0"
FOOTER_SIZE = 64
TABLE_TAG = b"[img]"
SECTION_ORDER = ("nvram", "rootfs", "kernel", "webfs")
ARCHIVE_SECTIONS = ("rootfs", "webfs")
ENC_HEADER_MAX = 512
SHELL_ENTRY = "SMASH/msh"
ROOT_SHELL_SCRIPT = b"#!/bin/sh\nexec /bin/sh\n"
DEFAULT_VERSION = 0x0163
AES_KEY_BYTES = 16  # AES-128 key and CBC IV alike

_FOOTER_STRUCT = struct.Struct("<8sIIIII")  # magic, version, body_len, half_crc, table_off, table_len
_RECORD_STRUCT = struct.Struct("<5s16sIII")


@dataclass(frozen=True)
class KeyMaterial:
    aes_key: bytes
    aes_iv: bytes

    @classmethod
    def load(cls, path: str | Path) -> "KeyMaterial":
        """A JSON object with exactly ``aes_key`` and ``aes_iv``, each 16 bytes in hex;
        anything else raises ``InvalidKey``."""
        try:
            doc = json.loads(Path(path).read_text())
        except ValueError as exc:  # not JSON, or not text
            raise InvalidKey(f"{path}: not a JSON key file: {exc}") from exc
        if not isinstance(doc, dict) or set(doc) != {"aes_key", "aes_iv"}:
            raise InvalidKey(f"{path}: expected an object with exactly aes_key and aes_iv")
        try:
            key, iv = bytes.fromhex(doc["aes_key"]), bytes.fromhex(doc["aes_iv"])
        except (TypeError, ValueError) as exc:
            raise InvalidKey(f"{path}: aes_key and aes_iv must be hex strings: {exc}") from exc
        if len(key) != AES_KEY_BYTES or len(iv) != AES_KEY_BYTES:
            raise InvalidKey(f"{path}: aes_key and aes_iv must be {AES_KEY_BYTES} bytes each")
        return cls(key, iv)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps({"aes_key": self.aes_key.hex(), "aes_iv": self.aes_iv.hex()}, indent=2)
            + "\n"
        )


@dataclass(frozen=True)
class FwFooter:
    version: int
    body_len: int
    half_crc: int
    table_off: int
    table_len: int

    def pack(self) -> bytes:
        packed = _FOOTER_STRUCT.pack(
            FOOTER_MAGIC, self.version, self.body_len, self.half_crc, self.table_off, self.table_len
        )
        return packed.ljust(FOOTER_SIZE, b"\x00")

    @classmethod
    def unpack(cls, data: bytes) -> "FwFooter":
        if len(data) != FOOTER_SIZE:
            raise BadFooter(f"footer must be {FOOTER_SIZE} bytes")
        magic, version, body_len, half_crc, table_off, table_len = _FOOTER_STRUCT.unpack(
            data[: _FOOTER_STRUCT.size]
        )
        if magic != FOOTER_MAGIC:
            raise BadMagic(f"footer magic {magic!r}")
        return cls(version, body_len, half_crc, table_off, table_len)


@dataclass
class Section:
    name: str
    offset: int
    length: int
    crc32: int
    data: bytes  # stored image bytes (archive headers remain encrypted here)


@dataclass
class FirmwarePackage:
    footer: FwFooter
    sections: list[Section]
    signature: bytes | None
    image: bytes  # canonical unsigned image bytes (body + table + footer)

    @property
    def table_encrypted(self) -> bool:
        """Parsed without the key: a keyed parse yields all four sections or raises."""
        return not self.sections

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.image).hexdigest()

    def section(self, name: str) -> Section:
        for s in self.sections:
            if s.name == name:
                return s
        raise NoSuchEntry(name)


@dataclass
class VerificationReport:
    section_crc: dict[str, bool]
    half_crc_ok: bool
    signature: str | None  # "pass" | "fail" | "absent" | None when not required

    @property
    def failure(self) -> str | None:
        """The first check that failed: "BadCrc", "BadSignature", or None when every check passed."""
        if not all(self.section_crc.values()) or not self.half_crc_ok:
            return "BadCrc"
        if self.signature not in (None, "pass"):
            return "BadSignature"
        return None

    @property
    def ok(self) -> bool:
        return self.failure is None


# -- AES helpers ----------------------------------------------------------------


def _aes_cbc(key: KeyMaterial, data: bytes, encrypt: bool) -> bytes:
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

    cipher = Cipher(algorithms.AES(key.aes_key), modes.CBC(key.aes_iv))
    op = cipher.encryptor() if encrypt else cipher.decryptor()
    return op.update(data) + op.finalize()


def _encrypt_padded(key: KeyMaterial, data: bytes) -> bytes:
    from cryptography.hazmat.primitives.padding import PKCS7

    padder = PKCS7(128).padder()
    return _aes_cbc(key, padder.update(data) + padder.finalize(), encrypt=True)


def _decrypt_padded(key: KeyMaterial, data: bytes) -> bytes:
    if not data or len(data) % 16:
        raise DecryptFailed("ciphertext not block aligned")
    from cryptography.hazmat.primitives.padding import PKCS7

    plain = _aes_cbc(key, data, encrypt=False)
    unpadder = PKCS7(128).unpadder()
    try:
        return unpadder.update(plain) + unpadder.finalize()
    except ValueError as exc:
        raise DecryptFailed("bad padding (wrong key?)") from exc


def _crypt_header(key: KeyMaterial, blob: bytes, encrypt: bool) -> bytes:
    span = min(ENC_HEADER_MAX, (len(blob) // 16) * 16)
    if span == 0:
        return blob
    return _aes_cbc(key, blob[:span], encrypt=encrypt) + blob[span:]


# -- toy archive ------------------------------------------------------------------


def pack_archive(entries: list[tuple[str, bytes]], key: KeyMaterial) -> bytes:
    out = bytearray()
    for name, data in entries:
        raw = name.encode()
        out += struct.pack("<H", len(raw)) + raw + struct.pack("<I", len(data)) + data
    compressed = lzma.compress(bytes(out), preset=6)
    return _crypt_header(key, compressed, encrypt=True)


def unpack_archive(blob: bytes, key: KeyMaterial) -> list[tuple[str, bytes]]:
    compressed = _crypt_header(key, blob, encrypt=False)
    try:
        raw = lzma.decompress(compressed)
    except lzma.LZMAError as exc:
        raise DecryptFailed("archive header did not decrypt to a valid stream") from exc
    entries = []
    pos = 0
    try:
        while pos < len(raw):
            (name_len,) = struct.unpack_from("<H", raw, pos)
            pos += 2
            name = raw[pos : pos + name_len].decode()
            pos += name_len
            (data_len,) = struct.unpack_from("<I", raw, pos)
            pos += 4
            if pos + data_len > len(raw):
                raise BadArchive(f"record {name!r} runs past the archive end")
            entries.append((name, raw[pos : pos + data_len]))
            pos += data_len
    except (struct.error, UnicodeDecodeError) as exc:
        raise BadArchive(f"archive record at byte {pos}: {exc}") from exc
    return entries


# -- build / parse / repack --------------------------------------------------------


def _assemble(
    section_bytes: dict[str, bytes],
    key: KeyMaterial,
    version: int,
    signer: rsa.RSAPrivateKey | None = None,
) -> bytes:
    body = bytearray()
    table_plain = bytearray()
    for name in SECTION_ORDER:
        data = section_bytes[name]
        table_plain += _RECORD_STRUCT.pack(
            TABLE_TAG, name.encode().ljust(16, b"\x00"), len(body), len(data), zlib.crc32(data)
        )
        body += data
    table_enc = _encrypt_padded(key, table_plain)
    footer = FwFooter(
        version=version,
        body_len=len(body),
        half_crc=zlib.crc32(bytes(body[: len(body) // 2])),
        table_off=len(body),
        table_len=len(table_enc),
    )
    image = bytes(body) + table_enc + footer.pack()
    if signer is not None:
        from cryptography.hazmat.primitives import hashes
        from cryptography.hazmat.primitives.asymmetric import padding as asym_padding

        sig = signer.sign(image, asym_padding.PKCS1v15(), hashes.SHA256())
        image += sig + struct.pack("<I", len(sig)) + SIG_MAGIC
    return image


def build_package(
    contents: dict[str, bytes | list[tuple[str, bytes]]],
    key: KeyMaterial,
    signer: rsa.RSAPrivateKey | None = None,
) -> bytes:
    """Build a canonical image at ``DEFAULT_VERSION``. Archive sections take entry lists, others bytes."""
    section_bytes = {}
    for name in SECTION_ORDER:
        payload = contents[name]
        if name in ARCHIVE_SECTIONS:
            section_bytes[name] = pack_archive(payload, key)
        else:
            section_bytes[name] = bytes(payload)
    return _assemble(section_bytes, key, DEFAULT_VERSION, signer)


def _split_signature(data: bytes) -> tuple[bytes, bytes | None]:
    if len(data) >= 12 + FOOTER_SIZE and data[-8:] == SIG_MAGIC:
        (sig_len,) = struct.unpack("<I", data[-12:-8])
        if sig_len + 12 + FOOTER_SIZE > len(data):
            raise TruncatedImage("signature trailer longer than image")
        return data[: -12 - sig_len], data[-12 - sig_len : -12]
    return data, None


def parse_package(data: bytes, key: KeyMaterial | None = None) -> FirmwarePackage:
    """Split an image into footer, sections and signature; with ``key``, decrypt the table,
    which must name exactly ``SECTION_ORDER`` in order (else ``BadArchive``)."""
    if len(data) < FOOTER_SIZE:
        raise TruncatedImage(f"{len(data)} bytes")
    image, signature = _split_signature(data)
    if len(image) < FOOTER_SIZE:
        raise TruncatedImage("no room for footer")
    footer = FwFooter.unpack(image[-FOOTER_SIZE:])
    end_of_table = footer.table_off + footer.table_len
    if footer.body_len != footer.table_off or end_of_table > len(image) - FOOTER_SIZE:
        raise BadFooter("table extent outside image")
    table_blob = image[footer.table_off : end_of_table]
    sections: list[Section] = []
    if key is not None:
        table_plain = _decrypt_padded(key, table_blob)
        if len(table_plain) % _RECORD_STRUCT.size:
            raise DecryptFailed("firmware table has a partial record")
        for off in range(0, len(table_plain), _RECORD_STRUCT.size):
            tag, raw_name, s_off, s_len, s_crc = _RECORD_STRUCT.unpack_from(table_plain, off)
            if tag != TABLE_TAG:
                raise DecryptFailed("firmware table record tag mismatch")
            if s_off + s_len > footer.body_len:
                raise BadFooter("section extends past body")
            try:
                name = raw_name.rstrip(b"\x00").decode()
            except UnicodeDecodeError as exc:
                raise BadArchive(f"firmware table name {raw_name!r}") from exc
            sections.append(Section(name, s_off, s_len, s_crc, image[s_off : s_off + s_len]))
        if tuple(s.name for s in sections) != SECTION_ORDER:
            raise BadArchive(f"firmware table names {[s.name for s in sections]}, not {list(SECTION_ORDER)}")
    return FirmwarePackage(footer=footer, sections=sections, signature=signature, image=image)


def repack(
    pkg: FirmwarePackage, key: KeyMaterial, signer: rsa.RSAPrivateKey | None = None
) -> bytes:
    if pkg.table_encrypted:
        raise DecryptFailed("cannot repack a package parsed without its key")
    section_bytes = {s.name: s.data for s in pkg.sections}
    return _assemble(section_bytes, key, pkg.footer.version, signer)


def verify(pkg: FirmwarePackage, pubkey: rsa.RSAPublicKey | None = None) -> VerificationReport:
    section_crc = {s.name: zlib.crc32(s.data) == s.crc32 for s in pkg.sections}
    body = pkg.image[: pkg.footer.body_len]
    half_crc_ok = zlib.crc32(body[: len(body) // 2]) == pkg.footer.half_crc
    signature_status: str | None = None
    if pubkey is not None:
        if pkg.signature is None:
            signature_status = "absent"
        else:
            from cryptography.exceptions import InvalidSignature
            from cryptography.hazmat.primitives import hashes
            from cryptography.hazmat.primitives.asymmetric import padding as asym_padding

            try:
                pubkey.verify(pkg.signature, pkg.image, asym_padding.PKCS1v15(), hashes.SHA256())
                signature_status = "pass"
            except InvalidSignature:
                signature_status = "fail"
    return VerificationReport(section_crc, half_crc_ok, signature_status)


# -- patching ---------------------------------------------------------------------


def rootfs_entries(pkg: FirmwarePackage, key: KeyMaterial) -> list[tuple[str, bytes]]:
    return unpack_archive(pkg.section("rootfs").data, key)


def has_root_shell(pkg: FirmwarePackage, key: KeyMaterial) -> bool:
    for name, data in rootfs_entries(pkg, key):
        if name == SHELL_ENTRY:
            return data == ROOT_SHELL_SCRIPT
    return False


def enable_root_shell(pkg: FirmwarePackage, key: KeyMaterial) -> bytes:
    """Unsigned image with the SMASH shell swapped for a /bin/sh trampoline; idempotent."""
    entries = rootfs_entries(pkg, key)
    if not any(name == SHELL_ENTRY for name, _ in entries):
        raise NoSuchEntry(SHELL_ENTRY)
    patched = [
        (name, ROOT_SHELL_SCRIPT if name == SHELL_ENTRY else data) for name, data in entries
    ]
    section_bytes = {s.name: s.data for s in pkg.sections}
    section_bytes["rootfs"] = pack_archive(patched, key)
    return _assemble(section_bytes, key, pkg.footer.version)


# -- RSA key helpers ----------------------------------------------------------------


# A published demo key stands in for the vendor's X12 signing key, as the AES key
# derived from the profile name stands in for the one in ipmi.so: every X12 board
# trusts it, and the attack chains never sign with it. Its two 1024-bit primes were
# drawn once, offline, by `cryptography`'s RSA key generation (e = 65537, 2048 bits).
_VENDOR_E = 65537
_VENDOR_P = int(
    "fd7778a8990b39cb1741881146c5b4a006c2854ba904e7a7c8e0ae590769f98a"
    "4d68bae18c6c1401aa41634c484f7097f393f20c1c96f34a6763e3d006b66b93"
    "d6618d628eaf0c709bea5e76b4cd0e8e56c671d1980f9f791d2b0b93942f6488"
    "2c19217a0a79f73e31acd33385681f0e47faf273870974df3381d11d2987bfdd",
    16,
)
_VENDOR_Q = int(
    "bec27f3d532161b19896006d497c8309fdab2f50de38eeb8111485fbfa126ab2"
    "23d5231fb1acd9aeb25f22dbb46d7b4383a085c7e36b0d535341760fe417a6a8"
    "242ddbfeed69ec1cae932053f355a68b94736945009715038286cda4df2f316f"
    "8afa5a4421c8ff136ea50b16579bb4b002a9dc0b90442a6240ca006a06833c27",
    16,
)


def vendor_private_numbers() -> rsa.RSAPrivateNumbers:
    """The vendor key's numbers: ``d`` and the CRT parts derived from the two primes."""
    from cryptography.hazmat.primitives.asymmetric import rsa

    p, q = _VENDOR_P, _VENDOR_Q
    d = pow(_VENDOR_E, -1, (p - 1) * (q - 1))
    return rsa.RSAPrivateNumbers(
        p=p,
        q=q,
        d=d,
        dmp1=rsa.rsa_crt_dmp1(d, p),
        dmq1=rsa.rsa_crt_dmq1(d, q),
        iqmp=rsa.rsa_crt_iqmp(p, q),
        public_numbers=rsa.RSAPublicNumbers(_VENDOR_E, p * q),
    )


@functools.cache
def vendor_signing_key() -> rsa.RSAPrivateKey:
    """The one X12 vendor key, built once per process.

    The numbers are a package constant that the tests load with validation, so
    this load skips the 50-60 ms primality check.
    """
    return vendor_private_numbers().private_key(unsafe_skip_rsa_key_validation=True)


# PKCS#1 v1.5 over SHA-256: a 19-byte DigestInfo, the 32-byte digest and 11 bytes of padding
_MIN_SIGNER_BITS = 8 * (19 + 32 + 11)


def _load_pem(path: str | Path, kind: str, load, key_type):
    """A PEM key that ``load`` parses to a ``key_type``; anything else raises ``InvalidKey``."""
    from cryptography.exceptions import UnsupportedAlgorithm

    try:
        key = load(Path(path).read_bytes())
    except (ValueError, TypeError, UnsupportedAlgorithm) as exc:  # TypeError: encrypted
        raise InvalidKey(f"{path}: not a PEM {kind} key: {exc}") from exc
    if not isinstance(key, key_type):
        raise InvalidKey(f"{path}: {type(key).__name__} is not an RSA {kind} key")
    return key


def load_private_key(path: str | Path) -> rsa.RSAPrivateKey:
    """An unencrypted PEM RSA private key long enough to sign SHA-256, else ``InvalidKey``."""
    from cryptography.hazmat.primitives import serialization
    from cryptography.hazmat.primitives.asymmetric import rsa

    load = functools.partial(serialization.load_pem_private_key, password=None)
    key = _load_pem(path, "private", load, rsa.RSAPrivateKey)
    if key.key_size < _MIN_SIGNER_BITS:
        raise InvalidKey(f"{path}: a {key.key_size}-bit key cannot sign; {_MIN_SIGNER_BITS} bits at least")
    return key


def load_public_key(path: str | Path) -> rsa.RSAPublicKey:
    """A PEM RSA public key, else ``InvalidKey``."""
    from cryptography.hazmat.primitives import serialization
    from cryptography.hazmat.primitives.asymmetric import rsa

    return _load_pem(path, "public", serialization.load_pem_public_key, rsa.RSAPublicKey)


def save_private_key(key: rsa.RSAPrivateKey, path: str | Path) -> None:
    from cryptography.hazmat.primitives import serialization

    Path(path).write_bytes(
        key.private_bytes(
            serialization.Encoding.PEM,
            serialization.PrivateFormat.PKCS8,
            serialization.NoEncryption(),
        )
    )


def save_public_key(key: rsa.RSAPublicKey, path: str | Path) -> None:
    from cryptography.hazmat.primitives import serialization

    Path(path).write_bytes(
        key.public_bytes(
            serialization.Encoding.PEM, serialization.PublicFormat.SubjectPublicKeyInfo
        )
    )
