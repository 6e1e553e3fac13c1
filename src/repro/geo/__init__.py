"""Geography substrate: coordinates, geofences, datasets, GPS.

* :mod:`repro.geo.coords` -- WGS-84 points, haversine great-circle
  distance and destination points.
* :mod:`repro.geo.regions` -- geographic regions (circles and
  polygons) used to express SLA location constraints.
* :mod:`repro.geo.datasets` -- the coordinate datasets the benchmarks
  need: Australian cities and university hosts (Table III), QUT campus
  machine placements (Table II), and a set of world data-centre sites.
* :mod:`repro.geo.gps` -- a simulated GPS receiver, including the
  spoofing attack the paper warns about ("GPS satellite simulators can
  spoof the GPS signal").
"""

from repro.geo.coords import EARTH_RADIUS_KM, GeoPoint, destination_point, haversine_km
from repro.geo.datasets import (
    AUSTRALIA_HOSTS,
    BRISBANE_ADSL_HOST,
    QUT_LAN_MACHINES,
    WORLD_DATACENTRES,
    city,
)
from repro.geo.gps import GPSReceiver, GPSSpoofer
from repro.geo.regions import CircularRegion, PolygonRegion, Region

__all__ = [
    "GeoPoint",
    "haversine_km",
    "destination_point",
    "EARTH_RADIUS_KM",
    "Region",
    "CircularRegion",
    "PolygonRegion",
    "AUSTRALIA_HOSTS",
    "BRISBANE_ADSL_HOST",
    "QUT_LAN_MACHINES",
    "WORLD_DATACENTRES",
    "city",
    "GPSReceiver",
    "GPSSpoofer",
]
