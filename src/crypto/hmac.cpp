#include "crypto/hmac.h"

#include <cstring>

namespace sbft::crypto {

HmacSha256::HmacSha256(ByteSpan key) {
  uint8_t k[64] = {0};
  if (key.size() > 64) {
    Digest kd = sha256(key);
    std::memcpy(k, kd.data(), kd.size());
  } else if (!key.empty()) {
    std::memcpy(k, key.data(), key.size());
  }
  uint8_t ipad[64];
  uint8_t opad[64];
  for (size_t i = 0; i < 64; ++i) {
    ipad[i] = static_cast<uint8_t>(k[i] ^ 0x36);
    opad[i] = static_cast<uint8_t>(k[i] ^ 0x5c);
  }
  inner_.update(ByteSpan{ipad, 64});
  outer_.update(ByteSpan{opad, 64});
}

Digest HmacSha256::mac(std::initializer_list<ByteSpan> fragments) const {
  Sha256 inner = inner_;
  for (ByteSpan f : fragments) inner.update(f);
  Digest inner_digest = inner.finish();
  Sha256 outer = outer_;
  return outer.update(as_span(inner_digest)).finish();
}

Digest hmac_sha256(ByteSpan key, ByteSpan message) {
  return HmacSha256(key).mac(message);
}

Digest hmac_sha256(ByteSpan key, std::initializer_list<ByteSpan> fragments) {
  return HmacSha256(key).mac(fragments);
}

}  // namespace sbft::crypto
