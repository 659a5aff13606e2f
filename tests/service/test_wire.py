"""The JSON wire codecs: exact round-trips and clean request rejection.

The service layer's correctness rests on two codec properties: profiles
survive JSON *exactly* (so the network tier is byte-identical to the
local tiers) and cache keys -- 64-hex digests -- travel as plain JSON
strings, identical on both sides of the wire.  The HTTP plumbing must
reject malformed keys, malformed and oversized bodies with clean JSON
errors, never tracebacks.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.cache import ProfileCache, is_cache_key
from repro.core import Planner
from repro.io.jsonflow import profile_from_dict, profile_to_dict
from repro.service import CacheServer
from repro.workloads import purchases_flow


@pytest.fixture(scope="module")
def evaluated_profile():
    flow = purchases_flow(rows_per_source=500)
    planner = Planner()
    return planner.evaluate_flow(flow), planner.estimator.cache_key(flow)


class TestProfileCodec:
    def test_profile_round_trip_is_exact(self, evaluated_profile):
        profile, _ = evaluated_profile
        wire = json.loads(json.dumps(profile_to_dict(profile)))
        back = profile_from_dict(wire)
        assert back.flow_name == profile.flow_name
        assert back.scores == profile.scores  # float-exact
        assert set(back.values) == set(profile.values)
        for name, value in profile.values.items():
            assert back.values[name] == value  # dataclass equality, all fields

    def test_profile_round_trip_survives_empty_profile(self):
        from repro.quality.composite import QualityProfile

        empty = QualityProfile(flow_name="nothing")
        assert profile_from_dict(profile_to_dict(empty)).flow_name == "nothing"


class TestKeyCodec:
    def test_key_round_trip_is_repr_identical(self, evaluated_profile):
        _, key = evaluated_profile
        assert is_cache_key(key)
        back = json.loads(json.dumps(key))
        assert back == key and repr(back) == repr(key)  # no codec needed


class TestRequestHygiene:
    @pytest.fixture()
    def server(self):
        with CacheServer(ProfileCache(), max_request_bytes=4096) as server:
            yield server

    def _post(self, url, body: bytes, content_type="application/json"):
        request = urllib.request.Request(
            url, data=body, headers={"Content-Type": content_type}, method="POST"
        )
        return urllib.request.urlopen(request, timeout=5.0)

    def test_malformed_json_is_a_clean_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(server.url + "/get_many", b"{not json")
        assert excinfo.value.code == 400
        payload = json.loads(excinfo.value.read().decode("utf-8"))
        assert "not valid JSON" in payload["error"]

    def test_oversized_body_is_a_413_with_json_error(self, server):
        huge = json.dumps({"digests": ["0" * 64] * 1000}).encode()
        assert len(huge) > 4096
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(server.url + "/get_many", huge)
        assert excinfo.value.code == 413
        payload = json.loads(excinfo.value.read().decode("utf-8"))
        assert "exceeds" in payload["error"]

    def test_unknown_endpoint_is_a_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(server.url + "/no-such-endpoint", b"{}")
        assert excinfo.value.code == 404

    def test_wrong_shapes_are_400(self, server):
        for path, body in [
            ("/get_many", {"digests": "not-a-list"}),
            ("/get_many", {"digests": ["too-short"]}),
            ("/put", {"entries": [{"key": [1]}]}),  # missing profile
            ("/get", {"digest": 7}),
        ]:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._post(server.url + path, json.dumps(body).encode())
            assert excinfo.value.code == 400, path
            assert "error" in json.loads(excinfo.value.read().decode("utf-8"))

    def test_put_key_must_be_a_digest(self, server, evaluated_profile):
        from repro.quality.composite import QualityProfile

        _, key = evaluated_profile
        document = profile_to_dict(QualityProfile(flow_name="p"))
        for bad in (["flow", 1], "../" + "a" * 61, key.upper(), key[:-1], 7, None):
            body = {"entries": [{"key": bad, "profile": document}]}
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._post(server.url + "/put", json.dumps(body).encode())
            assert excinfo.value.code == 400, bad
            assert "hex" in json.loads(excinfo.value.read().decode("utf-8"))["error"]
        assert len(server.backend) == 0
        body = {"entries": [{"key": key, "profile": document}]}
        with self._post(server.url + "/put", json.dumps(body).encode()) as response:
            assert json.loads(response.read().decode("utf-8")) == {"stored": 1}
        assert key in server.backend

    def test_oversized_reject_does_not_corrupt_a_keepalive_connection(self, server):
        """The unread body must not be parsed as the next request."""
        import http.client

        connection = http.client.HTTPConnection(server.host, server.port, timeout=5.0)
        try:
            huge = json.dumps({"digests": ["0" * 64] * 1000}).encode()
            connection.request(
                "POST", "/get_many", body=huge, headers={"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            assert response.status == 413
            assert response.getheader("Connection") == "close"
            response.read()
            # the server closed the connection instead of mis-parsing the
            # unread body; a fresh request on a new connection works fine
            connection.close()
            connection = http.client.HTTPConnection(server.host, server.port, timeout=5.0)
            connection.request("GET", "/health")
            assert connection.getresponse().status == 200
        finally:
            connection.close()

    def test_traversal_shaped_digest_is_rejected_and_touches_no_files(self, tmp_path):
        """A 64-char "digest" with path components must never reach the disk.

        Before validation, ``../``-shaped digests flowed into
        ``cache_dir / f"{digest}.profile.pkl"`` — letting a client read,
        touch or (via the invalid-entry discard) delete ``*.profile.pkl``
        files outside the served directory.
        """
        from repro.cache import DiskProfileCache

        rest = "a" * 61
        evil = "../" + rest  # exactly 64 chars: defeats a length-only check
        outside = tmp_path / f"{rest}.profile.pkl"
        outside.write_bytes(b"not an entry; outside the served directory")
        disk = DiskProfileCache(tmp_path / "store")
        with CacheServer(disk) as server:
            for path, body in (
                ("/get", {"digest": evil}),
                ("/contains", {"digest": evil}),
                ("/get_many", {"digests": [evil]}),
                ("/put", {"entries": [{"key": evil, "profile": {}}]}),
            ):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    self._post(server.url + path, json.dumps(body).encode())
                assert excinfo.value.code == 400, path
                assert "hex" in json.loads(excinfo.value.read().decode())["error"]
        # defense in depth: the disk tier itself refuses non-hex keys
        # instead of building a path from them
        assert disk.get(evil) is None
        assert disk.get("A" * 64) is None  # uppercase is not a digest
        assert outside.read_bytes() == b"not an entry; outside the served directory"

    def test_health_and_stats_endpoints(self, server):
        with urllib.request.urlopen(server.url + "/health", timeout=5.0) as response:
            health = json.loads(response.read().decode("utf-8"))
        assert health["status"] == "ok"
        with urllib.request.urlopen(server.url + "/stats", timeout=5.0) as response:
            stats = json.loads(response.read().decode("utf-8"))
        assert {"entries", "stats", "tiers"} <= set(stats)
