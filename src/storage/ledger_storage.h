// Ledger persistence (§VIII: the paper persists the blockchain through
// RocksDB; DESIGN.md §3 substitutes an append-only log). Replicas append each
// executed decision: the sequence number, the view of the pre-prepare that
// ordered it, and the block. A ledger hands a decision back as the
// PrePrepareMsg{s, v, block} (read_decision) or in its canonical encoding
// (read_block), whichever way it keeps it. The memory ledger holds the
// (shared, immutable) block itself; the file ledger encodes on append and
// decodes on read. The simulator charges persistence cost through the cost
// model either way.
#pragma once

#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "common/bytes.h"
#include "proto/message.h"

namespace sbft::storage {

using SeqNum = uint64_t;

class ILedgerStorage {
 public:
  virtual ~ILedgerStorage() = default;
  /// Persists the decision at sequence `s` (idempotent: a sequence number
  /// already stored keeps its first decision).
  virtual void append_block(SeqNum s, ViewNum v, const Block& block) = 0;
  /// The decision at `s`, or nullopt when `s` is not stored or its stored
  /// bytes do not decode.
  virtual std::optional<PrePrepareMsg> read_decision(SeqNum s) const = 0;
  /// The decision at `s` as encode_message(PrePrepareMsg{s, v, block});
  /// nullopt as for read_decision.
  std::optional<Bytes> read_block(SeqNum s) const;
  /// Highest sequence number stored, or 0 if empty.
  virtual SeqNum last_seq() const = 0;
  virtual uint64_t block_count() const = 0;
  /// Flushes buffered writes to stable storage.
  virtual void sync() {}
};

/// Keeps each decision as a PrePrepareMsg whose block shares its request
/// list with every other holder of that block (the replicas of a simulated
/// cluster all keep the one list); read_decision hands out that block.
class MemoryLedgerStorage final : public ILedgerStorage {
 public:
  void append_block(SeqNum s, ViewNum v, const Block& block) override;
  std::optional<PrePrepareMsg> read_decision(SeqNum s) const override;
  SeqNum last_seq() const override;
  uint64_t block_count() const override { return decisions_.size(); }

 private:
  std::map<SeqNum, PrePrepareMsg> decisions_;
};

/// Append-only file of [u64 seq][u32 len][payload] records, the payload being
/// the decision's canonical encoding, with an in-memory offset index rebuilt
/// on open. Re-appending an existing sequence number is a no-op (records are
/// immutable once written).
class FileLedgerStorage final : public ILedgerStorage {
 public:
  explicit FileLedgerStorage(const std::string& path);
  ~FileLedgerStorage() override;

  FileLedgerStorage(const FileLedgerStorage&) = delete;
  FileLedgerStorage& operator=(const FileLedgerStorage&) = delete;

  void append_block(SeqNum s, ViewNum v, const Block& block) override;
  std::optional<PrePrepareMsg> read_decision(SeqNum s) const override;
  SeqNum last_seq() const override;
  uint64_t block_count() const override { return index_.size(); }
  void sync() override;

 private:
  void load_index();

  std::string path_;
  std::FILE* file_ = nullptr;
  std::map<SeqNum, std::pair<long, uint32_t>> index_;  // seq -> (offset, len)
};

}  // namespace sbft::storage
