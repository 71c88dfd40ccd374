"""Delta shipping: base caches, v2 envelopes, and the need_full contract."""

from __future__ import annotations

import pickle as _pickle

import pytest

from repro.codeshipping.codebase import CodeBaseRegistry, CodeCache
from repro.codeshipping.shipping import shipping_stamp_of
from repro.core.errors import (
    DeltaBaseMissingError,
    SerializationError,
    ShippedCodeMissingError,
)
from repro.transport.delta import (
    DeltaCache,
    FieldEntry,
    ImageRecord,
    content_hash,
    image_hash,
)
from repro.transport.serializer import NapletSerializer
from tests.core.test_naplet import ProbeNaplet, _identified
from tests.transport.shipped_fixture import StampedPayload


def _record(img: str, **fields: bytes) -> ImageRecord:
    entries = {
        name: FieldEntry(data=data, hash=content_hash(data), value=data)
        for name, data in fields.items()
    }
    return ImageRecord(hash=img, cls_ref=("pickle", b""), fields=entries)


class TestHashes:
    def test_content_hash_is_stable_across_buffer_types(self):
        data = b"payload-bytes"
        assert content_hash(data) == content_hash(memoryview(data))

    def test_image_hash_is_order_independent(self):
        hashes = {"a": "1" * 32, "b": "2" * 32}
        assert image_hash(hashes) == image_hash(dict(reversed(hashes.items())))

    def test_image_hash_sensitive_to_name_and_value(self):
        base = image_hash({"a": "1" * 32})
        assert image_hash({"b": "1" * 32}) != base
        assert image_hash({"a": "2" * 32}) != base


class TestDeltaCache:
    def test_get_requires_matching_hash(self):
        cache = DeltaCache()
        cache.put("n1", _record("H1", f=b"x"))
        assert cache.get("n1", "H1") is not None
        assert cache.get("n1", "H2") is None
        assert cache.get("n1") is not None  # hash optional

    def test_lru_eviction_at_capacity(self):
        cache = DeltaCache(capacity=2)
        cache.put("n1", _record("H1"))
        cache.put("n2", _record("H2"))
        cache.get("n1")  # promote n1; n2 becomes LRU
        cache.put("n3", _record("H3"))
        assert "n1" in cache and "n3" in cache and "n2" not in cache
        assert cache.stats()["evictions"] == 1

    def test_peek_is_a_pure_probe(self):
        cache = DeltaCache(capacity=2)
        cache.put("n1", _record("H1"))
        cache.put("n2", _record("H2"))
        before = cache.stats()
        assert cache.peek("n1").hash == "H1"
        assert cache.peek("missing") is None
        assert cache.stats() == before  # no hit/miss movement
        cache.put("n3", _record("H3"))
        assert "n1" not in cache  # peek did not promote n1 over n2

    def test_drop_and_clear(self):
        cache = DeltaCache()
        cache.put("n1", _record("H1"))
        cache.drop("n1")
        assert len(cache) == 0
        cache.put("n2", _record("H2"))
        cache.clear()
        assert "n2" not in cache

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            DeltaCache(capacity=0)


class TestV2Envelope:
    def _pair(self):
        return NapletSerializer(), NapletSerializer()

    def test_first_dump_is_full_v2(self):
        sender, receiver = self._pair()
        agent = _identified("full")
        agent.state.set("k", 1)
        data, buffers, cost = sender.dumps_with_cost(agent)
        assert not cost.delta and cost.saved_bytes == 0
        copy, info = receiver.loads_with_info(data, buffers=buffers or None)
        assert info["v"] == 2 and info["mode"] == "full"
        assert isinstance(info["hash"], str)
        assert copy.state.get("k") == 1

    def test_acked_base_turns_repeat_hop_into_delta(self):
        sender, receiver = self._pair()
        agent = _identified("delta")
        agent.state.set("k", 1)
        agent.cargo = b"\xee" * 50_000
        data, buffers, full_cost = sender.dumps_with_cost(agent)
        _, info = receiver.loads_with_info(data, buffers=buffers or None)

        agent.state.set("k", 2)  # tiny mutation; cargo untouched
        data2, buffers2, cost = sender.dumps_with_cost(agent, base_hint=info["hash"])
        assert cost.delta
        assert cost.saved_bytes > 0
        assert cost.payload_bytes < full_cost.payload_bytes / 10
        copy, info2 = receiver.loads_with_info(data2, buffers=buffers2 or None)
        assert info2["mode"] == "delta"
        assert copy.state.get("k") == 2
        assert copy.cargo == b"\xee" * 50_000

    def test_unacked_base_ships_full(self):
        sender, receiver = self._pair()
        agent = _identified("no-ack")
        sender.dumps_with_cost(agent)
        # base_hint None (destination never acked): full image again.
        data, buffers, cost = sender.dumps_with_cost(agent)
        assert not cost.delta
        copy, info = receiver.loads_with_info(data, buffers=buffers or None)
        assert info["mode"] == "full"

    def test_deleted_field_travels_in_removed_list(self):
        sender, receiver = self._pair()
        agent = _identified("shrink")
        agent.extra = "short-lived"
        data, buffers, _ = sender.dumps_with_cost(agent)
        _, info = receiver.loads_with_info(data, buffers=buffers or None)

        del agent.extra
        data2, buffers2, cost = sender.dumps_with_cost(agent, base_hint=info["hash"])
        assert cost.delta
        copy, _ = receiver.loads_with_info(data2, buffers=buffers2 or None)
        assert not hasattr(copy, "extra")

    def test_evicted_base_raises_delta_base_missing(self):
        sender, receiver = self._pair()
        agent = _identified("evicted")
        data, buffers, _ = sender.dumps_with_cost(agent)
        _, info = receiver.loads_with_info(data, buffers=buffers or None)

        receiver.delta_cache.clear()  # the receiver lost the base image
        agent.state.set("k", 9)
        data2, buffers2, cost = sender.dumps_with_cost(agent, base_hint=info["hash"])
        assert cost.delta
        with pytest.raises(DeltaBaseMissingError):
            receiver.loads_with_info(data2, buffers=buffers2 or None)
        # The sender's need_full re-ship is full; the receiver recovers.
        data3, buffers3, cost3 = sender.dumps_with_cost(agent)
        assert not cost3.delta
        copy, info3 = receiver.loads_with_info(data3, buffers=buffers3 or None)
        assert info3["mode"] == "full"
        assert copy.state.get("k") == 9

    def test_delta_off_sender_ships_full_v2_any_reader_accepts(self):
        sender = NapletSerializer(delta_shipping=False)
        agent = _identified("full-only")
        agent.state.set("k", 7)
        data, buffers, _ = sender.dumps_with_cost(agent)
        # Even with an acked base and known code, the image stays full.
        data, buffers, cost = sender.dumps_with_cost(
            agent, base_hint=sender.delta_cache.get(str(agent.naplet_id)).hash
        )
        assert not cost.delta
        for reader in (NapletSerializer(), NapletSerializer(delta_shipping=False)):
            copy, info = reader.loads_with_info(data, buffers=buffers or None)
            assert info["v"] == 2 and info["mode"] == "full"
            assert copy.state.get("k") == 7

    def test_corrupt_delta_fails_the_image_hash_check(self):
        sender, receiver = self._pair()
        agent = _identified("tamper")
        data, buffers, _ = sender.dumps_with_cost(agent)
        _, info = receiver.loads_with_info(data, buffers=buffers or None)
        agent.state.set("k", 1)
        data2, buffers2, _ = sender.dumps_with_cost(agent, base_hint=info["hash"])
        envelope = _pickle.loads(data2, buffers=buffers2 or None)
        envelope["fields"] = {
            n: bytes(b) for n, b in envelope["fields"].items()
        }
        envelope["fields"]["_state"] = _pickle.dumps("tampered")
        with pytest.raises(SerializationError, match="content hash"):
            receiver.loads(_pickle.dumps(envelope))


class TestCodeNegotiation:
    @pytest.fixture
    def registry(self):
        reg = CodeBaseRegistry()
        reg.create("codebase://test/payload").add_class(StampedPayload)
        return reg

    def _module_hash(self, registry) -> str:
        codebase_name, module_key, _ = shipping_stamp_of(StampedPayload(0))
        return registry.get(codebase_name).hash_of(module_key)

    def test_known_code_replaces_bundle_with_hash_ref(self, registry):
        sender = NapletSerializer(registry, eager_code=True)
        agent = _identified("codeful")
        agent.payload = StampedPayload(11)

        data, buffers, cost = sender.dumps_with_cost(agent)
        envelope = _pickle.loads(data, buffers=buffers or None)
        assert envelope["bundles"] and not envelope["code_refs"]
        assert cost.code_bytes > 0

        known = {self._module_hash(registry)}
        sender2 = NapletSerializer(registry, eager_code=True)
        data2, buffers2, cost2 = sender2.dumps_with_cost(agent, known_code=known)
        envelope2 = _pickle.loads(data2, buffers=buffers2 or None)
        assert envelope2["code_refs"] and not envelope2["bundles"]
        assert cost2.code_bytes == 0

    def test_code_ref_resolves_when_cache_holds_the_module(self, registry):
        sender = NapletSerializer(registry, eager_code=True)
        receiver = NapletSerializer()
        cache = CodeCache(CodeBaseRegistry())  # fetchless: bundles only
        agent = _identified("code-hop")
        agent.payload = StampedPayload(21)

        # Hop 1 ships the bundle; the landing installs it in the cache.
        data, buffers, _ = sender.dumps_with_cost(agent)
        copy, _ = receiver.loads_with_info(data, cache, buffers=buffers or None)
        assert copy.payload.value == 21
        known = set(cache.known_hashes())
        assert self._module_hash(registry) in known

        # Hop 2 ships only the hash reference — and it resolves.
        sender2 = NapletSerializer(registry, eager_code=True)
        data2, buffers2, _ = sender2.dumps_with_cost(agent, known_code=known)
        receiver2 = NapletSerializer()
        copy2, _ = receiver2.loads_with_info(data2, cache, buffers=buffers2 or None)
        assert copy2.payload.value == 21

    def test_missing_code_ref_raises_shipped_code_missing(self, registry):
        sender = NapletSerializer(registry, eager_code=True)
        agent = _identified("code-miss")
        agent.payload = StampedPayload(31)
        known = {self._module_hash(registry)}
        data, buffers, _ = sender.dumps_with_cost(agent, known_code=known)
        bare_cache = CodeCache(CodeBaseRegistry())  # never saw the bundle
        with pytest.raises(ShippedCodeMissingError):
            NapletSerializer().loads_with_info(data, bare_cache, buffers=buffers or None)


class SelfReferentialNaplet(ProbeNaplet):
    """A naplet whose field graph reaches back to itself."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.me = self
        self.box = {"owner": self}


def _self_referential(name: str) -> SelfReferentialNaplet:
    agent = SelfReferentialNaplet(name)
    template = _identified(name)
    agent._assign_identity(template.naplet_id, template.credential)
    return agent


class TestWholeImage:
    """A self-referential naplet ships as one whole-image v2 field."""

    def test_cycle_survives_as_a_full_v2_image(self):
        sender, receiver = NapletSerializer(), NapletSerializer()
        agent = _self_referential("loop")
        agent.state.set("k", 3)
        data, buffers, cost = sender.dumps_with_cost(agent)
        assert not cost.delta
        copy, info = receiver.loads_with_info(data, buffers=buffers or None)
        assert info["v"] == 2 and info["mode"] == "full"
        assert copy.me is copy
        assert copy.box["owner"] is copy
        assert copy.state.get("k") == 3

    def test_repeat_hop_deltas_against_a_whole_image_base(self):
        sender, receiver = NapletSerializer(), NapletSerializer()
        agent = _self_referential("loop-delta")
        data, buffers, _ = sender.dumps_with_cost(agent)
        _, info = receiver.loads_with_info(data, buffers=buffers or None)

        agent.state.set("k", 4)
        data2, buffers2, cost = sender.dumps_with_cost(agent, base_hint=info["hash"])
        assert cost.delta
        copy, info2 = receiver.loads_with_info(data2, buffers=buffers2 or None)
        assert info2["mode"] == "delta"
        assert copy.me is copy and copy.state.get("k") == 4

    def test_breaking_the_cycle_returns_to_per_field_images(self):
        sender, receiver = NapletSerializer(), NapletSerializer()
        agent = _self_referential("loop-break")
        data, buffers, _ = sender.dumps_with_cost(agent)
        _, info = receiver.loads_with_info(data, buffers=buffers or None)

        agent.me = None
        agent.box = {}
        data2, buffers2, cost = sender.dumps_with_cost(agent, base_hint=info["hash"])
        copy, _ = receiver.loads_with_info(data2, buffers=buffers2 or None)
        assert copy.me is None and copy.box == {}
        envelope = _pickle.loads(data2, buffers=buffers2 or None)
        assert "me" in envelope["fields"]

    def test_unidentified_object_cannot_migrate(self):
        with pytest.raises(SerializationError, match="not an identified naplet"):
            NapletSerializer().dumps_with_cost({"not": "a naplet"})
