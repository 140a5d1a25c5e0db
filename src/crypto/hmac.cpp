#include "crypto/hmac.hpp"

#include <cstring>

namespace geoproof::crypto {

HmacKey::HmacKey(BytesView key) {
  std::array<std::uint8_t, 64> k{};
  if (key.size() > 64) {
    const Digest d = Sha256::hash(key);
    std::memcpy(k.data(), d.data(), d.size());
  } else if (!key.empty()) {  // empty span may carry a null data() (UB in memcpy)
    std::memcpy(k.data(), key.data(), key.size());
  }
  std::array<std::uint8_t, 64> pad;
  for (std::size_t i = 0; i < 64; ++i) {
    pad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
  }
  inner_state_.update(BytesView(pad.data(), pad.size()));
  for (std::size_t i = 0; i < 64; ++i) {
    pad[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
  }
  outer_state_.update(BytesView(pad.data(), pad.size()));
}

Digest HmacKey::mac(BytesView data) const {
  Sha256 inner = inner_state_;
  inner.update(data);
  const Digest inner_digest = inner.finalize();
  Sha256 outer = outer_state_;
  outer.update(BytesView(inner_digest.data(), inner_digest.size()));
  return outer.finalize();
}

HmacSha256::HmacSha256(BytesView key) : key_(key) { reset(); }

HmacSha256::HmacSha256(const HmacKey& key) : key_(key) { reset(); }

void HmacSha256::reset() { inner_ = key_.inner_state_; }

void HmacSha256::update(BytesView data) { inner_.update(data); }

Digest HmacSha256::finalize() {
  const Digest inner_digest = inner_.finalize();
  Sha256 outer = key_.outer_state_;
  outer.update(BytesView(inner_digest.data(), inner_digest.size()));
  return outer.finalize();
}

Digest HmacSha256::mac(BytesView key, BytesView data) {
  return HmacKey(key).mac(data);
}

Digest prf(BytesView key, std::string_view label, BytesView input) {
  return prf(HmacKey(key), label, input);
}

Digest prf(const HmacKey& key, std::string_view label, BytesView input) {
  HmacSha256 h(key);
  h.update(BytesView(reinterpret_cast<const std::uint8_t*>(label.data()),
                     label.size()));
  const std::uint8_t sep = 0x00;
  h.update(BytesView(&sep, 1));
  h.update(input);
  return h.finalize();
}

}  // namespace geoproof::crypto
