"""Enrollment and handshake: how the software source learns device keys.

The paper assumes "the handshake is already done for the hardware
targeted by the software source, and PUF-based keys ... are assumed to be
known to the software source" (§III.1).  This module is that assumed
infrastructure, made concrete:

* at manufacturing/enrollment time the vendor reads each device's
  PUF-based key (never the raw PUF key) into a registry;
* a software source queries the registry by device id;
* *device groups* let one compile target many devices: the registry
  issues a fresh group key and per-device XOR helper data
  (``mask_i = pbk_i ^ group_key``); each device recovers the group key
  inside its KMU.  This reproduces the paper's claim that mapping
  multiple devices to one key means "programs can be created to run on
  multiple hardware ... with a single compile step".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.device import Device
from repro.core.keys import group_mask
from repro.crypto import rsa
from repro.crypto.kdf import derive_key
from repro.errors import ProvisioningError


@dataclass(frozen=True)
class GroupProvision:
    """A provisioned device group."""

    group_id: str
    group_key: bytes
    #: device id -> helper data handed to that device
    masks: dict[str, bytes] = field(default_factory=dict)


class DeviceRegistry:
    """The vendor's enrollment database."""

    def __init__(self, vendor_secret: bytes = b"vendor-secret") -> None:
        self._keys: dict[str, bytes] = {}
        self._vendor_secret = vendor_secret
        self._group_counter = 0

    def enroll(self, device: Device) -> str:
        """Record a device's PUF-based key; returns its id."""
        if device.device_id in self._keys:
            raise ProvisioningError(
                f"device {device.device_id} already enrolled")
        self._keys[device.device_id] = device.enrollment_key()
        return device.device_id

    def ensure_enrolled(self, device: Device) -> bytes:
        """Step ① + handshake in one idempotent call.

        Enrolls the device if the registry has never seen it, then
        returns its PUF-based key — what every deployment entry point
        (library, session, CLI) uses so they all exercise the same
        enrollment path.
        """
        if device.device_id not in self._keys:
            self._keys[device.device_id] = device.enrollment_key()
        return self._keys[device.device_id]

    def handshake(self, device_id: str) -> bytes:
        """What a software source receives for a target device."""
        try:
            return self._keys[device_id]
        except KeyError:
            raise ProvisioningError(
                f"unknown device {device_id!r}: not enrolled") from None

    def handshake_wrapped(self, device_id: str,
                          requester_public: rsa.RsaPublicKey) -> bytes:
        """RSA-wrapped handshake (the paper's §VI future work).

        Instead of assuming a secure channel to the software source, the
        registry returns the device's PUF-based key encrypted under the
        requester's RSA public key; only the holder of the matching
        private key can unwrap it (see :mod:`repro.crypto.rsa`).
        """
        pbk = self.handshake(device_id)
        return rsa.encrypt(requester_public, pbk,
                           entropy=device_id.encode())

    @property
    def enrolled(self) -> tuple[str, ...]:
        return tuple(sorted(self._keys))

    def provision_group(self, device_ids: list[str]) -> GroupProvision:
        """Issue a group key + per-device helper data (fleet compile)."""
        if not device_ids:
            raise ProvisioningError("a group needs at least one device")
        missing = [d for d in device_ids if d not in self._keys]
        if missing:
            raise ProvisioningError(f"devices not enrolled: {missing}")
        self._group_counter += 1
        group_id = f"group-{self._group_counter}"
        group_key = derive_key(self._vendor_secret, "group-key",
                               context=group_id.encode())
        masks = {
            device_id: group_mask(self._keys[device_id], group_key)
            for device_id in device_ids
        }
        return GroupProvision(group_id=group_id, group_key=group_key,
                              masks=masks)
