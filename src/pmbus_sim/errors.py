"""Exception types shared across the simulator."""


class PmbusSimError(Exception):
    """Base class for all simulator errors."""


class InvalidAddress(PmbusSimError):
    """7-bit I2C address outside 0x08..0x77."""


class TruncatedFrame(PmbusSimError):
    """Wire frame shorter than address byte + command byte."""


class OutOfRange(PmbusSimError):
    """Value outside its valid range: the VID table, or a fault-model threshold."""


class AddressInUse(PmbusSimError):
    """A device already answers at this (bus, address) slot."""


class InterposerPresent(PmbusSimError):
    """The bus already has an interposer installed."""


class UnknownJumper(PmbusSimError):
    """Jumper name not present in the topology."""


class CpuUnavailable(PmbusSimError):
    """CPU is not Running (crashed, stalled or bricked)."""


class AuthFailure(PmbusSimError):
    """Bad LAN credentials."""


class Unauthorized(PmbusSimError):
    """Channel not authorized for the requested BMC operation."""


class FilteredByPolicy(PmbusSimError):
    """BMC-side I2C passthrough filter refused the transfer."""


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
    """Record archive or table entry that does not parse: a truncated record or a non-UTF-8 name."""


class NoSuchEntry(FirmwareError):
    """Archive entry not found while patching."""


class ChainUnavailable(PmbusSimError):
    """No attack chain reaches the VRM on this platform."""


class BrickedPlatform(PmbusSimError):
    """The CPU is permanently destroyed; nothing further can run."""


class WrongProfile(PmbusSimError):
    """Attack sequence not applicable to this platform profile."""


class ChannelBlocked(PmbusSimError):
    """The chosen control channel cannot write to the VRM."""


class UnknownProfile(PmbusSimError):
    """No built-in or user profile with that name."""


class InvalidProfile(PmbusSimError):
    """Malformed profile: an unknown key, generation, vendor or device kind, or a bad value."""


class InvalidPolicy(PmbusSimError):
    """Malformed filter policy: an unknown mode or verdict, a bad value, or an unsound cap."""


class InvalidTranscript(PmbusSimError):
    """Unparseable replay transcript line, or one that is not a valid transaction."""
