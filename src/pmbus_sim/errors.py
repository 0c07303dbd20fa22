"""Exception types shared across the simulator."""


class PmbusSimError(Exception):
    """Base class for all simulator errors."""


class InvalidAddress(PmbusSimError):
    """7-bit I2C address outside 0x08..0x77."""


class TruncatedFrame(PmbusSimError):
    """Wire frame shorter than address byte + command byte."""


class InvalidFrame(PmbusSimError, ValueError):
    """Transaction the bus cannot carry: a command that is not a byte, a payload over 4 bytes,
    or a write whose data length the registered command does not take."""


class OutOfRange(PmbusSimError):
    """Value outside its valid range: the VID table, or a fault-model threshold."""


class AddressInUse(PmbusSimError):
    """A device already answers at this (bus, address) slot."""


class InterposerPresent(PmbusSimError):
    """The bus already has an interposer installed."""


class CpuUnavailable(PmbusSimError):
    """CPU is not Running (crashed, stalled or bricked)."""


class AuthFailure(PmbusSimError):
    """Bad LAN credentials."""


class Unauthorized(PmbusSimError):
    """Channel not authorized for the requested BMC operation."""


class NoRootShell(PmbusSimError):
    """Raw bus mastering requires a root shell on the BMC."""


class FirmwareError(PmbusSimError):
    """Base class for firmware image problems."""


class BadMagic(FirmwareError):
    pass


class BadFooter(FirmwareError):
    pass


class TruncatedImage(FirmwareError):
    pass


class DecryptFailed(FirmwareError):
    pass


class BadArchive(FirmwareError):
    """Record archive or firmware table that does not parse: a truncated record, a non-UTF-8 name,
    or a table that does not list exactly the four sections; for ``fw unpack``, also an entry
    name that leads outside its section's directory, names that directory itself, repeats an
    earlier entry, or names a file that another entry needs as a directory."""


class NoSuchEntry(FirmwareError):
    """Archive entry not found while patching."""


class ChainUnavailable(PmbusSimError):
    """No attack chain reaches the VRM on this platform."""


class FilteredByPolicy(ChainUnavailable):
    """BMC-side I2C passthrough filter refused the transfer."""


class BrickedPlatform(PmbusSimError):
    """The CPU is permanently destroyed; nothing further can run."""


class WrongProfile(PmbusSimError):
    """Attack sequence not applicable to this platform profile."""


class ChannelBlocked(PmbusSimError):
    """The chosen control channel cannot write to the VRM."""


class UnknownProfile(PmbusSimError):
    """No built-in or user profile with that name."""


class InvalidProfile(PmbusSimError):
    """Malformed profile: an unknown key, generation, vendor or device kind, a bad value, or a
    board whose CPU does not boot running with no damage event."""


class InvalidPolicy(PmbusSimError):
    """Malformed filter policy: an unknown key or mode, a bad value, or a key its mode
    does not read."""


class InvalidConfig(PmbusSimError):
    """Malformed campaign config: an unknown key or chain, or a value the campaign rejects."""


class InvalidKey(PmbusSimError):
    """Malformed key input: an AES key file that is not two 16-byte hex values, or a PEM
    file that is not an unencrypted RSA key of the kind asked for."""


class InvalidTranscript(PmbusSimError):
    """Unparseable replay transcript line, or one that is not a valid transaction."""
