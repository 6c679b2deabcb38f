#include "core/messages.hpp"

#include <string_view>
#include <type_traits>

#include "crypto/sha256.hpp"

namespace cicero::core {

namespace {

// The field adapters (see "Field lists" in messages.hpp).  Encoder and
// Decoder hold one overload per field kind, so each kind's format is
// written once per direction and every message shares it.

template <class T, class Io>
concept HasFields = requires(T& t, Io& io) { t.fields(io); };

class Encoder {
 public:
  template <class... F>
  void operator()(const F&... f) {
    (put(f), ...);
  }
  util::Writer w;

 private:
  void put(std::uint32_t v) { w.u32(v); }
  void put(std::uint64_t v) { w.u64(v); }
  void put(double v) { w.f64(v); }
  void put(bool v) { w.boolean(v); }
  void put(const util::Bytes& v) { w.bytes(v); }
  void put(const crypto::PartialSignature& p) {
    w.bytes(p.signer == 0 ? util::Bytes{} : p.to_bytes());
  }
  template <class E>
    requires std::is_enum_v<E>
  void put(E v) {
    w.u8(static_cast<std::uint8_t>(v));
  }
  template <class T>
  void put(const std::vector<T>& v) {
    w.u32(static_cast<std::uint32_t>(v.size()));
    for (const T& x : v) put(x);
  }
  // Field lists serve both directions, so they take a mutable object; the
  // encoder only reads through it.
  template <class T>
    requires HasFields<T, Encoder>
  void put(const T& v) {
    const_cast<T&>(v).fields(*this);
  }
};

class Decoder {
 public:
  explicit Decoder(const util::Bytes& wire) : r(wire) {}
  template <class... F>
  void operator()(F&... f) {
    (get(f), ...);
  }
  util::Reader r;

 private:
  void get(std::uint32_t& v) { v = r.u32(); }
  void get(std::uint64_t& v) { v = r.u64(); }
  void get(double& v) { v = r.f64(); }
  void get(bool& v) { v = r.boolean(); }
  void get(util::Bytes& v) { v = r.bytes(); }
  void get(crypto::PartialSignature& p) {
    const util::Bytes b = r.bytes();
    if (b.empty()) return;  // no partial (centralized / crash-tolerant)
    auto parsed = crypto::PartialSignature::from_bytes(b);
    if (!parsed) throw util::DeserializeError("malformed partial signature");
    p = std::move(*parsed);
  }
  template <class E>
    requires std::is_enum_v<E>
  void get(E& v) {
    const std::uint8_t raw = r.u8();
    if (raw > static_cast<std::uint8_t>(wire_max(E{}))) {
      throw util::DeserializeError("enum value out of range");
    }
    v = static_cast<E>(raw);
  }
  template <class T>
  void get(std::vector<T>& v) {
    // No reserve(n): the count is untrusted.
    for (std::uint32_t n = r.u32(); n > 0; --n) get(v.emplace_back());
  }
  template <class T>
    requires HasFields<T, Decoder>
  void get(T& v) {
    v.fields(*this);
  }
};

template <class Msg>
util::Bytes encode_message(const Msg& m) {
  Encoder e;
  e(Msg::kTag, m);
  return e.w.take();
}

// The one decoder: tag, fields, nothing trailing; any malformed input
// (truncation, bad length, out-of-range enum, bad partial) is nullopt.
template <class Msg>
std::optional<Msg> decode_message(const util::Bytes& wire) {
  try {
    Decoder d(wire);
    if (d.r.u8() != static_cast<std::uint8_t>(Msg::kTag)) return std::nullopt;
    Msg m;
    m.fields(d);
    d.r.expect_end();
    return m;
  } catch (const util::DeserializeError&) {
    return std::nullopt;
  }
}

/// Domain-separated signed bytes: `domain`, then `f...` as on the wire.
template <class... F>
util::Bytes signed_bytes(std::string_view domain, const F&... f) {
  Encoder e;
  e.w.str(domain);
  e(f...);
  return e.w.take();
}

/// The signed bytes of a PKI-signed message: `domain`, then its
/// `signed_fields` as on the wire.
template <class Msg>
util::Bytes signed_body(std::string_view domain, const Msg& m) {
  Encoder e;
  e.w.str(domain);
  const_cast<Msg&>(m).signed_fields(e);
  return e.w.take();
}

}  // namespace

#define CICERO_CORE_CODEC(Msg)                                      \
  util::Bytes Msg::encode() const { return encode_message(*this); } \
  std::optional<Msg> Msg::decode(const util::Bytes& wire) {         \
    return decode_message<Msg>(wire);                               \
  }

CICERO_CORE_CODEC(Event)
CICERO_CORE_CODEC(UpdateMsg)
CICERO_CORE_CODEC(AggUpdateMsg)
CICERO_CORE_CODEC(PartialShareMsg)
CICERO_CORE_CODEC(AckMsg)
CICERO_CORE_CODEC(FrostSessionMsg)
CICERO_CORE_CODEC(FrostPartialMsg)
CICERO_CORE_CODEC(AggregatorNotifyMsg)
CICERO_CORE_CODEC(ManifestMsg)
CICERO_CORE_CODEC(SegmentDoneMsg)

#undef CICERO_CORE_CODEC

std::optional<std::uint8_t> peek_tag(const util::Bytes& wire) {
  if (wire.empty()) return std::nullopt;
  return wire.front();
}

util::Bytes Event::body() const { return signed_body("cicero/event", *this); }
util::Bytes AckMsg::body() const { return signed_body("cicero/ack", *this); }
util::Bytes SegmentDoneMsg::body() const { return signed_body("cicero/segdone", *this); }

util::Bytes update_signing_bytes(const sched::Update& update) {
  return signed_bytes("cicero/update", update);
}

util::Bytes manifest_signing_bytes(const SegmentManifest& manifest, std::uint64_t epoch) {
  return signed_bytes("cicero/manifest", manifest, epoch);
}

sched::UpdateId update_id_base(const EventId& cause) {
  // 24 bits of origin, 32 bits of per-origin sequence, 8 bits of update
  // index within the schedule — unique as long as a schedule stays under
  // 256 updates (one per path switch; ample).
  return (static_cast<sched::UpdateId>(cause.origin & 0xFFFFFF) << 40) |
         ((cause.seq & 0xFFFFFFFFULL) << 8);
}

EventId cause_of(sched::UpdateId id) {
  return EventId{static_cast<std::uint32_t>(id >> 40), (id >> 8) & 0xFFFFFFFFULL};
}

std::uint64_t signing_digest64(const util::Bytes& signing_bytes) {
  const crypto::Digest d = crypto::Sha256::hash(signing_bytes);
  std::uint64_t dig = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    dig |= static_cast<std::uint64_t>(d[i]) << (8 * i);
  }
  return dig;
}

}  // namespace cicero::core
