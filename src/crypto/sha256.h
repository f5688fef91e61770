// From-scratch SHA-256 (FIPS 180-4). The paper uses SHA256 (via Crypto++) for
// all protocol digests; this implementation replaces that dependency.
//
// The block compression has two backends: a portable one and, on x86 CPUs
// with the SHA extensions, one built on the SHA-NI instructions. The backend
// is chosen once per process from CPUID; both produce identical digests.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/bytes.h"

namespace sbft::crypto {

namespace detail {

/// Compresses `blocks` consecutive 64-byte blocks into the state words.
using CompressFn = void (*)(uint32_t state[8], const uint8_t* data, size_t blocks);

/// The portable backend, available everywhere.
void compress_portable(uint32_t state[8], const uint8_t* data, size_t blocks);
/// The SHA-NI backend, or nullptr when this CPU (or build target) lacks it.
CompressFn accelerated_compress();
/// The backend every default-constructed Sha256 uses.
CompressFn default_compress();

}  // namespace detail

class Sha256 {
 public:
  Sha256() : Sha256(detail::default_compress()) {}
  /// Pins the compress backend (the backend-equivalence tests use this).
  explicit Sha256(detail::CompressFn compress) : compress_(compress) { reset(); }

  void reset();
  Sha256& update(ByteSpan data);
  Sha256& update(std::string_view s) { return update(as_span(s)); }
  /// Finalizes and returns the digest. The object must be reset() before reuse.
  Digest finish();

 private:
  detail::CompressFn compress_;
  uint32_t h_[8];
  uint8_t buf_[64];
  size_t buf_len_ = 0;
  uint64_t total_len_ = 0;
};

/// One-shot convenience.
Digest sha256(ByteSpan data);
Digest sha256(std::string_view s);

/// sha256(a || b) without materializing the concatenation.
Digest sha256_concat(ByteSpan a, ByteSpan b);

}  // namespace sbft::crypto
