"""The cloud provider and its data centres.

A :class:`DataCentre` is a located storage backend: a
:class:`~repro.storage.contract.SimulatedHDDStorage` (the one storage
contract, on a simulated disk) with a position on the globe.  A
:class:`CloudProvider` owns one or more data centres and a *serving
policy*: which data centre actually answers a segment request for a
given file.  An honest provider serves from the data centre named in
the SLA; a dishonest one installs an
:mod:`~repro.cloud.adversary` strategy that relays to a remote site,
serves corrupted data, etc.

Requests are answered with a :class:`~repro.storage.contract.ServeResult`
carrying the server-side *elapsed time*, so the verifier's channel can
convert them into observed RTTs on the shared simulated clock.
Simulation code serves a data centre through
:meth:`~repro.storage.contract.StorageProvider.lookup`; the provider's
own :meth:`CloudProvider.handle_request` is the audit loop's entry.
"""

from __future__ import annotations

from repro.crypto.rng import DeterministicRNG
from repro.errors import BlockNotFoundError, ConfigurationError
from repro.geo.coords import GeoPoint, haversine_km
from repro.netsim.latency import InternetModel
from repro.por.file_format import EncodedFile
from repro.storage.contract import ServeResult, SimulatedHDDStorage
from repro.storage.hdd import HDDSpec, WD_2500JD
from repro.storage.server import StorageServer


class DataCentre(SimulatedHDDStorage):
    """A located storage site.

    Each site normally gets its own private :class:`StorageServer`
    with the given ``disk`` (``None`` means a WD 2500JD); pass
    ``server`` to back several sites with one *shared* storage array
    instead (the contended-spindle deployments the fleet's
    ``spindles=`` option builds -- lookups from every attached site
    then queue on the one spindle).  A shared server brings its own
    disk, so passing both is a :class:`ConfigurationError`: an SLA
    sized from the ``disk`` asked for would not match the site.
    """

    def __init__(
        self,
        name: str,
        location: GeoPoint,
        *,
        disk: HDDSpec | None = None,
        server: StorageServer | None = None,
    ) -> None:
        if server is None:
            server = StorageServer(disk if disk is not None else WD_2500JD)
        elif disk is not None:
            raise ConfigurationError(
                f"data centre {name!r}: pass disk= or server=, not both "
                "(a shared server brings its own disk)"
            )
        super().__init__(name, server=server)
        self.location = location


class CloudProvider:
    """The provider: data centres plus a (possibly dishonest) policy.

    The default policy serves every file from its *home* data centre --
    the one registered at upload time, which is also where the SLA says
    the file lives.  ``set_strategy`` installs adversarial behaviour.
    """

    def __init__(
        self,
        name: str,
        *,
        internet: InternetModel | None = None,
        rng: DeterministicRNG | None = None,
    ) -> None:
        self.name = name
        self.internet = internet or InternetModel()
        self._rng = rng
        self._datacentres: dict[str, DataCentre] = {}
        self._home: dict[bytes, str] = {}
        self._strategy = None  # None = honest

    # -- fleet management ---------------------------------------------------

    def add_datacentre(self, datacentre: DataCentre) -> None:
        """Register a data centre."""
        if datacentre.name in self._datacentres:
            raise ConfigurationError(
                f"duplicate data centre {datacentre.name!r}"
            )
        self._datacentres[datacentre.name] = datacentre

    def datacentre(self, name: str) -> DataCentre:
        """Look up a data centre by name."""
        if name not in self._datacentres:
            raise ConfigurationError(f"unknown data centre {name!r}")
        return self._datacentres[name]

    def datacentre_names(self) -> list[str]:
        """All registered data centre names."""
        return list(self._datacentres)

    # -- file placement ------------------------------------------------------

    def upload(self, encoded: EncodedFile, home_datacentre: str) -> None:
        """Store a file at its contractual home site."""
        self.datacentre(home_datacentre).put_file(encoded)
        self._home[encoded.file_id] = home_datacentre

    def home_of(self, file_id: bytes) -> DataCentre:
        """The data centre the SLA places this file at."""
        name = self._home.get(file_id)
        if name is None:
            raise BlockNotFoundError(f"no home for file {file_id!r}")
        return self.datacentre(name)

    def relocate(self, file_id: bytes, destination: str) -> None:
        """Physically move a file to another data centre.

        This is the SLA violation itself ("cloud providers may ...
        relocate, either intentionally or accidentally, client's data
        in remote storage"); pair it with a
        :class:`~repro.cloud.adversary.RelayAttack` strategy so audits
        are forwarded to the new site.
        """
        source = self.home_of(file_id)
        self._copy(file_id, source, self.datacentre(destination))
        source.delete_file(file_id)
        self._home[file_id] = destination

    def replicate_to(self, file_id: bytes, destination: str) -> None:
        """Copy a file to an additional data centre (home unchanged).

        This is honest replication -- the behaviour the replication
        auditor (:mod:`repro.cloud.replication`) verifies.
        """
        source = self.home_of(file_id)
        destination_dc = self.datacentre(destination)
        if destination_dc.exists(file_id):
            raise ConfigurationError(
                f"{destination!r} already holds {file_id!r}"
            )
        self._copy(file_id, source, destination_dc)

    @staticmethod
    def _copy(
        file_id: bytes, source: DataCentre, destination: DataCentre
    ) -> None:
        """Rebuild a file's container at ``destination``.

        The copy carries the source's *current* segments, so in-place
        mutations (corruption, repair) travel with the data.
        """
        store = source.server.store
        meta = store.file_meta(file_id)
        destination.put_file(
            EncodedFile(
                file_id=file_id,
                params=meta.params,
                segments=[
                    store.get_segment(file_id, index)
                    for index in range(store.n_segments(file_id))
                ],
                original_length=meta.original_length,
                n_data_blocks=meta.n_data_blocks,
            )
        )

    # -- serving ------------------------------------------------------------

    @property
    def strategy(self):
        """The installed serving strategy (None = honest)."""
        return self._strategy

    def set_strategy(self, strategy) -> None:
        """Install an adversarial serving strategy (None = honest)."""
        self._strategy = strategy

    def handle_request(self, file_id: bytes, index: int) -> ServeResult:
        """Answer a segment request under the current policy.

        The elapsed time is everything that happens provider-side:
        local disk time for an honest answer; forwarding flight time
        plus remote disk time for a relay.
        """
        if self._strategy is not None:
            return self._strategy.handle_request(self, file_id, index)
        return self.home_of(file_id).lookup(file_id, index)

    def internet_rtt_ms(self, a: DataCentre, b: DataCentre) -> float:
        """Provider-internal Internet RTT between two sites."""
        distance_km = haversine_km(a.location, b.location)
        return self.internet.rtt_ms(distance_km, rng=self._rng)
