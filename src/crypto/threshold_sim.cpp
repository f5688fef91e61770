// Simulated-BLS threshold scheme (HMAC-based stand-in with BLS wire sizes).
//
// All parties created by the dealer hold the 32-byte master key, so this
// scheme is NOT forgery-resistant against a key holder; it exists so that the
// discrete-event simulator can run hundreds of replicas with realistic message
// sizes (33 bytes, matching BLS BN-P254) and negligible real CPU, while the
// simulated CPU cost of each operation is charged through the cost model
// (src/sim/cost_model.h). Byzantine share corruption is still detected:
// verify_share() recomputes the HMAC, so a corrupted or misattributed share
// never combines.
#include <algorithm>

#include "common/check.h"
#include "common/serde.h"
#include "crypto/hmac.h"
#include "crypto/threshold.h"

namespace sbft::crypto {

namespace {

constexpr size_t kBlsSize = 33;  // BLS BN-P254 compressed signature size.

Bytes tag_bytes(uint8_t tag, const Bytes& instance_id, uint32_t signer) {
  Writer w;
  w.u8(tag);
  w.bytes(as_span(instance_id));
  w.u32(signer);
  return std::move(w).take();
}

class SimBlsVerifier final : public IThresholdVerifier {
 public:
  SimBlsVerifier(const Bytes& master_key, Bytes instance_id, uint32_t n, uint32_t k)
      : mac_(as_span(master_key)), id_(std::move(instance_id)), n_(n), k_(k) {}

  uint32_t threshold() const override { return k_; }
  uint32_t num_signers() const override { return n_; }
  size_t share_size() const override { return kBlsSize; }
  size_t signature_size() const override { return kBlsSize; }

  Bytes make_share(uint32_t signer, const Digest& digest) const {
    Digest mac = mac_.mac({as_span(tag_bytes(1, id_, signer)), as_span(digest)});
    Bytes out(mac.begin(), mac.end());
    out.push_back(0x02);  // pad to the BLS compressed size
    return out;
  }

  Bytes make_signature(const Digest& digest) const {
    Digest mac = mac_.mac({as_span(tag_bytes(2, id_, 0)), as_span(digest)});
    Bytes out(mac.begin(), mac.end());
    out.push_back(0x03);
    return out;
  }

  bool verify_share(uint32_t signer, const Digest& digest,
                    ByteSpan share) const override {
    if (signer == 0 || signer > n_ || share.size() != kBlsSize) return false;
    Bytes expect = make_share(signer, digest);
    return std::equal(share.begin(), share.end(), expect.begin());
  }

  std::optional<Bytes> combine(
      const Digest& digest, std::span<const SignatureShare> shares) const override {
    // Count distinct valid signers; any k of them reconstruct.
    std::vector<uint32_t> seen;
    for (const auto& s : shares) {
      if (!verify_share(s.signer, digest, as_span(s.data))) continue;
      if (std::find(seen.begin(), seen.end(), s.signer) != seen.end()) continue;
      seen.push_back(s.signer);
      if (seen.size() >= k_) return make_signature(digest);
    }
    return std::nullopt;
  }

  bool verify(const Digest& digest, ByteSpan signature) const override {
    if (signature.size() != kBlsSize) return false;
    Bytes expect = make_signature(digest);
    return std::equal(signature.begin(), signature.end(), expect.begin());
  }

 private:
  HmacSha256 mac_;  // keyed with the master key
  Bytes id_;
  uint32_t n_;
  uint32_t k_;
};

class SimBlsSigner final : public IThresholdSigner {
 public:
  SimBlsSigner(std::shared_ptr<const SimBlsVerifier> pub, uint32_t id)
      : pub_(std::move(pub)), id_(id) {}
  uint32_t signer_id() const override { return id_; }
  Bytes sign_share(const Digest& digest) const override {
    return pub_->make_share(id_, digest);
  }

 private:
  std::shared_ptr<const SimBlsVerifier> pub_;
  uint32_t id_;
};

}  // namespace

ThresholdScheme deal_sim_bls(Rng& rng, uint32_t n, uint32_t k) {
  SBFT_CHECK(n >= 1 && k >= 1 && k <= n);
  auto verifier = std::make_shared<SimBlsVerifier>(rng.bytes(32), rng.bytes(16), n, k);
  ThresholdScheme scheme;
  scheme.verifier = verifier;
  scheme.signers.reserve(n);
  for (uint32_t i = 1; i <= n; ++i)
    scheme.signers.push_back(std::make_shared<SimBlsSigner>(verifier, i));
  return scheme;
}

}  // namespace sbft::crypto
