"""Simulated storage substrate.

GeoProof's distance bound leans on disk *look-up latency*: a provider
relaying challenges to a remote site must also pay that site's disk
time, so the calibrated budget Delta-t_max = Delta-t_VP + Delta-t_L
fixes how far away the data can physically be.

* :mod:`repro.storage.hdd` -- the three-term look-up latency model
  (seek + rotation + transfer) with the paper's Table I disk catalogue.
* :mod:`repro.storage.cache` -- a byte-budgeted LRU cache: the
  relaying adversary's front cache and the reference the economics
  model's closed-form hit rates are checked against.
* :mod:`repro.storage.contract` -- the one storage contract
  (:class:`~repro.storage.contract.StorageProvider`) and its three
  media: in RAM, on a real disk, and on a simulated spindle.
* :mod:`repro.storage.server` -- the storage server: lookups cost
  disk + queue time on an in-RAM segment store.
"""

from repro.storage.cache import LRUCache
from repro.storage.hdd import (
    DISK_CATALOGUE,
    HDDModel,
    HDDSpec,
    HITACHI_DK23DA,
    IBM_36Z15,
    IBM_40GNX,
    IBM_73LZX,
    WD_2500JD,
)
from repro.storage.server import StorageServer

__all__ = [
    "HDDSpec",
    "HDDModel",
    "DISK_CATALOGUE",
    "IBM_36Z15",
    "IBM_73LZX",
    "WD_2500JD",
    "IBM_40GNX",
    "HITACHI_DK23DA",
    "LRUCache",
    "StorageServer",
]
