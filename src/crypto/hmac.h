// HMAC-SHA256 (RFC 2104). Used by the simulated-BLS threshold scheme and by
// tests; the paper's implementation uses HMAC from Crypto++ for channel MACs.
#pragma once

#include <initializer_list>

#include "common/bytes.h"
#include "crypto/sha256.h"

namespace sbft::crypto {

/// A keyed HMAC context. The ipad and opad blocks are absorbed once, at
/// construction; each mac() copies the two midstates, so MACing many messages
/// under one key skips the two key-block compressions per message.
class HmacSha256 {
 public:
  explicit HmacSha256(ByteSpan key);

  Digest mac(ByteSpan message) const { return mac({message}); }
  /// HMAC over the concatenation of several fragments.
  Digest mac(std::initializer_list<ByteSpan> fragments) const;

 private:
  Sha256 inner_;  // state after absorbing key ^ ipad
  Sha256 outer_;  // state after absorbing key ^ opad
};

/// One-shot forms of HmacSha256(key).mac(...).
Digest hmac_sha256(ByteSpan key, ByteSpan message);
Digest hmac_sha256(ByteSpan key, std::initializer_list<ByteSpan> fragments);

}  // namespace sbft::crypto
